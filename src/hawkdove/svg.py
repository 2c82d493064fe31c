"""Minimal deterministic SVG output.

Hand-rolled rather than delegating to a plotting library so that a fixed
seed produces byte-identical files: no timestamps, no hashed ids, fixed
number formatting.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from itertools import chain

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
        self._parts: list[str | Callable[[], Iterable[str]]] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
            f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
        ]

    def rect(self, x, y, w, h, fill, stroke="none", stroke_width=0.0):
        self._parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}' + _rect_tail(w, h, fill, stroke, stroke_width))

    def lines(self, texts: Callable[[], Iterable[str]]):
        """Text that ``texts()`` yields when ``write`` reaches it, written
        as it comes: whole lines, each ending in a newline.  A large part,
        such as a heat map's rects, is then built piece by piece as it is
        written, and none of it is held in the canvas."""
        self._parts.append(texts)

    def line(self, x1, y1, x2, y2, stroke="black", width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self._parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"{d}/>')

    def polyline(self, points, stroke="steelblue", width=1.0, opacity=1.0):
        # the same text as _fmt on each coordinate, in one format call
        flat = tuple(chain.from_iterable(points))
        pts = " ".join(["%.6g,%.6g"] * (len(flat) // 2)) % flat
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
        """One element per line, written part by part: an element's text and
        a newline, or the text of a ``lines`` part as its function yields it."""
        with open(path, "w", encoding="utf-8") as fh:
            for part in self._parts:
                if isinstance(part, str):
                    fh.write(part)
                    fh.write("\n")
                else:
                    fh.writelines(part())
            fh.write("</svg>\n")
