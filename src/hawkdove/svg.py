"""Minimal deterministic SVG output.

Hand-rolled rather than delegating to a plotting library so that a fixed
seed produces byte-identical files: no timestamps, no hashed ids, fixed
number formatting.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Canvas"]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _rect_tail(w, h, fill, stroke, stroke_width) -> str:
    return (f'" width="{_fmt(w)}" height="{_fmt(h)}" fill="{fill}" '
            f'stroke="{stroke}" stroke-width="{_fmt(stroke_width)}"/>')


class Canvas:
    def __init__(self, width: float, height: float):
        self.width = width
        self.height = height
        self._parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
            f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
        ]

    def rect(self, x, y, w, h, fill, stroke="none", stroke_width=0.0):
        self._parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}' + _rect_tail(w, h, fill, stroke, stroke_width))

    def rect_grid(self, xs, ys, width, height, fill_index, fills):
        """One rect per cell (xs[i], ys[j]) with fill ``fills[fill_index[i, j]]``.

        ``fill_index`` is a 2-D integer array of shape (len(xs), len(ys)).
        Cells come row-major in i then j, each as ``rect`` writes it with
        the default stroke.  One text piece, from y to the end of the
        element, is built per (fill, y), so the table grows with len(ys),
        not with the cell count; a row is one gather from it joined with
        the row's ``<rect x=...`` head, its cells separated by newlines.
        """
        tails = [_rect_tail(width, height, fill, "none", 0.0) for fill in fills]
        y_text = [_fmt(y) for y in ys]
        pieces = np.array([[yt + tail for yt in y_text] for tail in tails], dtype=object)
        columns = np.arange(len(ys))
        for x, row in zip(xs, fill_index):
            head = f'<rect x="{_fmt(x)}" y="'
            self._parts.append(head + ("\n" + head).join(pieces[row, columns].tolist()))

    def line(self, x1, y1, x2, y2, stroke="black", width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self._parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"{d}/>')

    def polyline(self, points, stroke="steelblue", width=1.0, opacity=1.0):
        # the same text as _fmt on each coordinate, in one format call per point
        pts = " ".join("%.6g,%.6g" % pair for pair in points)
        self._parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}" stroke-opacity="{_fmt(opacity)}"/>')

    def circle(self, x, y, r, fill="red"):
        self._parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{fill}" stroke="none"/>')

    def cross(self, x, y, size):
        s = size / 2.0
        self.line(x - s, y - s, x + s, y + s, stroke="red", width=1.5)
        self.line(x - s, y + s, x + s, y - s, stroke="red", width=1.5)

    def text(self, x, y, content, size=11, fill="black", anchor="start"):
        self._parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{_fmt(size)}" '
            f'font-family="sans-serif" fill="{fill}" text-anchor="{anchor}">'
            f'{content}</text>')

    def write(self, path) -> None:
        """One element per line, written part by part.

        Joining every part into one string would hold the whole document in
        memory a second time.
        """
        with open(path, "w", encoding="utf-8") as fh:
            for part in self._parts:
                fh.write(part)
                fh.write("\n")
            fh.write("</svg>\n")
