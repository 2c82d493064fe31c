"""Parameter-plane scans and the local bifurcations of the (v, c) plane.

Every eigenvalue of P1..P7 and the zero threshold are homogeneous of
degree 1 in (v, c), so the seven tags depend only on the direction of
(v, c): one of the eight open sectors between the lines v = c, c = 0,
v = 0 and c = 2v, one of their eight rays, or the origin.  The catalog's
direction table holds the codes of these 17 directions.
``detect_transitions`` reads the local bifurcations from it, not from a
grid: for each line whose rays the box meets, the changes from the sector
on one side of a ray to the sector on the other (``affected``) and from
either sector to the ray (``on_line``).  ``_line_segments`` is the one
place that knows where the lines meet the box: which rays, decided
exactly, and the segments the region SVG draws.

``scan`` is one ``classification_codes`` call on the v axis as a column
against the c axis: each node takes its direction's column of the table,
in bounded blocks.  ``RegionMap.codes``
is (7, n_v, n_c), point first, one contiguous (n_v, n_c) plane per
equilibrium.  Each axis is spaced with its bounds divided by a power of
two that puts the larger in [0.5, 1), which is exact: ``hi - lo`` cannot
overflow, and on a subnormal box each node rounds once.  An axis node
within rounding of zero is put exactly on zero, so the lines c = 0 and
v = 0 pass through nodes on every box that straddles them.

``write_region_csv`` and ``write_region_svg`` write the region map's
two files, and both write each v row as one ``_row_texts`` text: tags
change only where a row crosses one of the four lines, so a row is a few
runs of equal codes along c, and a run is its row's head, its columns'
texts joined with its tail and the head, then the tail.  The CSV's head
is the v text, its columns the c texts and its tails the tag rows; the
heat map's head is a rect's x, its columns the rects' y and its tails the
fills.  Their bytes match a cell-by-cell writer's.  Beyond the codes, a
writer holds its column texts, one chunk of rows' runs and one row's
text.

``linearized_field`` gives the per-point linear systems in their
conventional transcription, including the dangling constant in the first
P6 equation (returned as an affine term); they back the destabilization
tests, while classification goes through the catalog's closed-form
eigenvalues.
"""

from __future__ import annotations

import enum
import functools
import math
from itertools import islice
from typing import NamedTuple

import numpy as np

from .equilibrium_catalog import (
    CLASS_BY_CODE,
    EQUILIBRIUM_IDS,
    EquilibriumId,
    _DIRECTION_TABLE,
    _DIRECTIONS,
    classification_codes,
)
from .game_core import Params
from .linear_analysis import Classification
from .svg import Canvas, _fmt, _rect_tail

__all__ = [
    "LineId",
    "GridSpec",
    "RegionMap",
    "BifurcationLine",
    "scan",
    "detect_transitions",
    "linearized_field",
    "write_region_csv",
    "write_region_svg",
]

class LineId(enum.Enum):
    """The four destabilization lines, in the order the report lists them.
    Each is two rays from the origin; off the origin, tags change only on
    the eight rays."""

    VEQC = "VeqC"      # v = c
    CEQ0 = "Ceq0"      # c = 0
    VEQ0 = "Veq0"      # v = 0
    CEQ2V = "Ceq2V"    # c = 2v

    def __str__(self) -> str:
        return self.value


class GridSpec(NamedTuple):
    v_min: float
    v_max: float
    c_min: float
    c_max: float
    n_v: int
    n_c: int

    def validate(self) -> "GridSpec":
        if not all(math.isfinite(t) for t in (self.v_min, self.v_max, self.c_min, self.c_max)):
            raise ValueError("grid bounds must be finite")
        if self.v_min > self.v_max or self.c_min > self.c_max:
            raise ValueError("grid bounds must be ordered")
        if self.n_v < 1 or self.n_c < 1:
            raise ValueError("grid must have at least one node per axis")
        return self


DEFAULT_GRID = GridSpec(-0.3, 0.3, -0.3, 0.3, 201, 201)


class RegionMap(NamedTuple):
    spec: GridSpec
    v_values: np.ndarray          # (n_v,)
    c_values: np.ndarray          # (n_c,)
    codes: np.ndarray             # (7, n_v, n_c) int8 indexing CLASS_BY_CODE, point first


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    """``linspace(lo, hi, n)`` with a node within rounding of zero set to 0.0.

    ``linspace`` misses zero on many boxes (1e-22 on some scaled symmetric
    ones); no other node of a grid that fits in memory is that close.
    The axis is spaced with (lo, hi) divided by a power of two that puts
    max(|lo|, |hi|) in [0.5, 1) and multiplied back, both exact on normal
    boxes: ``hi - lo`` cannot overflow, and on a subnormal box each node
    rounds once, so zero is still a node there.
    """
    top, e = math.frexp(max(abs(lo), abs(hi)))
    values = np.linspace(math.ldexp(lo, -e), math.ldexp(hi, -e), n)
    values[np.abs(values) <= 4 * np.finfo(float).eps * top] = 0.0
    return np.ldexp(values, e)


def scan(spec: GridSpec = DEFAULT_GRID) -> RegionMap:
    """Classify all seven equilibria at every grid node.

    One ``classification_codes`` call on the v axis as a column against
    the c axis gives the (7, n_v, n_c) int8 codes; it classifies the grid
    in blocks of bounded size, so what the scan holds beyond its codes and
    axes does not grow with the grid.  Classification is per node, so two
    scans of one grid agree bitwise.
    """
    spec = GridSpec(*spec).validate()
    v_values = _axis(spec.v_min, spec.v_max, spec.n_v)
    c_values = _axis(spec.c_min, spec.c_max, spec.n_c)
    codes = classification_codes(v_values[:, None], c_values)
    codes.flags.writeable = False
    return RegionMap(spec=spec, v_values=v_values, c_values=c_values, codes=codes)


class BifurcationLine(NamedTuple):
    """The changes at one line's rays that the box meets, as (equilibrium,
    "TagA<->TagB"), tags in alphabetical order, sorted by point then pair:
    ``affected`` from the sector on one side of a ray to the other,
    ``on_line`` from either sector to the ray itself."""

    id: LineId
    affected: tuple[tuple[EquilibriumId, str], ...]
    on_line: tuple[tuple[EquilibriumId, str], ...]


def _line_segments(spec: GridSpec):
    """The four lines v = c, c = 0, v = 0 and c = 2v where they meet the grid
    box, in LineId order, as (line, rays, ((v1, c1), (v2, c2))); a line
    missing the box is left out.

    ``rays`` are the columns of _DIRECTION_TABLE of the line's rays that the
    box meets, as open rays: a box that meets a line only at the origin
    meets none.  Both tests are exact.  The line through (dv, dc) meets the
    box where dc v - dv c takes both signs on it, which compares dc v with
    dv c and never subtracts them: with dv in {0, 1} and dc in {0, 1, 2}
    each product is exact, or an inf of the right sign where 2v overflows,
    which orders as the exact product would.  The ray t (dv, dc), with t
    of the sign s, meets the box where the line does and the box holds a v
    of the sign of s dv and a c of the sign of s dc, each where that sign
    is not zero.

    The segment's ends are where the line leaves the box, (c / m, c) or
    (v, m v) on the line c = m v; an end inside the box is the same value
    as the unclipped one.  c / 2 rounds on some subnormal c, and an end is
    then within one rounding of the line.
    """
    v_lo, v_hi, c_lo, c_hi = spec.v_min, spec.v_max, spec.c_min, spec.c_max

    def reaches(d, lo, hi):     # a bound of the sign of d, where d is nonzero
        return hi > 0.0 if d > 0.0 else lo < 0.0 if d < 0.0 else True

    out = []
    # each line as a direction (dv, dc): its rays are t (dv, dc), t > 0 and t < 0
    for line, (dv, dc) in zip(LineId, ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (1.0, 2.0))):
        dcv, dvc = (dc * v_lo, dc * v_hi), (dv * c_lo, dv * c_hi)
        if not (min(dcv) <= max(dvc) and min(dvc) <= max(dcv)):
            continue
        rays = tuple(_DIRECTIONS.index((s * dv, s * dc)) for s in (1.0, -1.0)
                     if reaches(s * dv, v_lo, v_hi) and reaches(s * dc, c_lo, c_hi))
        if not dv:
            segment = ((0.0, c_lo), (0.0, c_hi))
        elif not dc:
            segment = ((v_lo, 0.0), (v_hi, 0.0))
        else:       # c = m v, m > 0
            lo = (c_lo / dc, c_lo) if c_lo / dc >= v_lo else (v_lo, dc * v_lo)
            hi = (c_hi / dc, c_hi) if c_hi / dc <= v_hi else (v_hi, dc * v_hi)
            segment = (lo, hi)
        out.append((line, rays, segment))
    return out


def _changes(pairs) -> tuple[tuple[EquilibriumId, str], ...]:
    """(equilibrium, "TagA<->TagB"), sorted, for each point whose code differs
    between the columns a and b of _DIRECTION_TABLE, over the (a, b) in ``pairs``."""
    table = _DIRECTION_TABLE.T.tolist()
    found = {(eq.value, "<->".join(sorted((CLASS_BY_CODE[x].value, CLASS_BY_CODE[y].value))))
             for a, b in pairs for eq, x, y in zip(EQUILIBRIUM_IDS, table[a], table[b]) if x != y}
    return tuple((EquilibriumId(eq), desc) for eq, desc in sorted(found))


def detect_transitions(m: RegionMap) -> list[BifurcationLine]:
    """The classification changes at each line whose rays the box meets.

    They are read from _DIRECTION_TABLE, not from the grid's nodes: the
    sectors beside a ray are the columns before and after it, and a line
    gathers the changes at those of its rays that ``_line_segments`` finds
    in the box.  A box that meets no ray gets an empty list.
    """
    return [BifurcationLine(
                id=line, affected=_changes(((r - 1) % 16, r + 1) for r in rays),
                on_line=_changes(p for r in rays for p in (((r - 1) % 16, r), (r, r + 1))))
            for line, rays, _ in _line_segments(m.spec) if rays]


def linearized_field(p: Params, at: EquilibriumId) -> tuple[np.ndarray, np.ndarray]:
    """The transcribed linear system near ``at``: matrix plus affine terms.

    These systems coincide with the Jacobian in deviation coordinates
    except at P6, whose transcribed first equation ends in a coefficient
    with no variable attached; that term is returned in the affine vector,
    verbatim.
    """
    p = Params(*p).validate()
    v, c = p
    eq = EquilibriumId(at)
    zero3 = np.zeros(3)
    if eq is EquilibriumId.P1:
        mat = np.array([[(v - c) / 4, 0.0, 0.0],
                        [0.0, -c / 4, 0.0],
                        [(c - 2 * v) / 4, (c - v) / 4, -v / 4]])
        return mat, zero3
    if eq is EquilibriumId.P2:
        mat = np.array([[(2 * v - c) / 8, 0.0, 0.0],
                        [(c - 2 * v) / 8, (c - v) / 8, -v / 8],
                        [(c - 2 * v) / 8, -v / 8, (c - v) / 8]])
        return mat, zero3
    if eq is EquilibriumId.P3:
        if c == 0:
            raise ValueError("P3 is undefined at c = 0")
        mat = np.array([[0.0, 0.0, 0.0],
                        [-v * (c - 2 * v) / (4 * c), v * v / (4 * c), v * (v - c) / (4 * c)],
                        [-v * (c - 2 * v) / (4 * c), v * (v - c) / (4 * c), v * v / (4 * c)]])
        return mat, zero3
    if eq is EquilibriumId.P4:
        mat = np.array([[(v - c) / 4, 0.0, 0.0],
                        [(c - 2 * v) / 4, -v / 4, (c - v) / 4],
                        [0.0, 0.0, -c / 4]])
        return mat, zero3
    if eq is EquilibriumId.P5:
        mat = np.array([[(c - v) / 2, (c - v) / 4, (c - v) / 4],
                        [0.0, (c - v) / 4, 0.0],
                        [0.0, 0.0, (c - v) / 4]])
        return mat, zero3
    if eq is EquilibriumId.P6:
        if c == 0:
            raise ValueError("P6 is undefined at c = 0")
        mat = np.array([[v * (v - c) / (2 * c), v * (v - c) / (4 * c), 0.0],
                        [0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0]])
        affine = np.array([v * (v - c) / (4 * c), 0.0, 0.0])
        return mat, affine
    if eq is EquilibriumId.P7:
        mat = np.diag([v / 2, v / 4, v / 4])
        return mat, zero3
    raise ValueError(f"unknown equilibrium {at!r}")


# Nodes per chunk of whole rows that ``_row_texts`` finds the runs of, and
# at least one row: bounds what a region writer holds whatever the grid.
_CHUNK_NODES = 2048


def _row_texts(planes: np.ndarray, heads, columns, tail_of):
    """Each v row's text, in order, built from its runs of equal codes
    along c in the (k, n_v, n_c) code planes.

    The run from column a to b, with codes ``key`` (a k-tuple), is its
    row's head, then ``columns[a:b]`` joined with ``tail_of(key)`` and the
    head, then that tail: one ``str.join``.  ``heads`` gives the rows'
    heads one at a time.  The runs are found one chunk of whole rows,
    about _CHUNK_NODES nodes and at least one row, at a time, so what the
    generator holds beyond the planes and ``columns`` is one chunk's runs
    and one row's text.
    """
    k, n_v, n_c = planes.shape
    heads = iter(heads)
    rows = max(1, _CHUNK_NODES // n_c)
    for top in range(0, n_v, rows):
        chunk = planes[:, top:top + rows]
        first = np.ones(chunk.shape[1:], dtype=bool)
        np.any(chunk[:, :, 1:] != chunk[:, :, :-1], axis=0, out=first[:, 1:])
        at = np.flatnonzero(first)
        start = at % n_c
        # a run ends where the next one starts, in its row or at the next row
        end = np.append(at[1:], first.size) - (at - start)
        runs = zip(start.tolist(), end.tolist(), zip(*chunk.reshape(k, -1)[:, at].tolist()))
        for n in first.sum(axis=1).tolist():
            head = next(heads)
            parts = []
            for a, b, key in islice(runs, n):
                tail = tail_of(key)
                parts += (head, (tail + head).join(columns[a:b]), tail)
            yield "".join(parts)


def write_region_csv(m: RegionMap, path) -> None:
    """Region map as CSV: header v,c,P1..P7, row-major in v then c.

    Each v row is one ``_row_texts`` text: the v text as head, the
    ",c," texts as columns and a run's tags and newline as its tail,
    each tag row's text built when a run first has it.
    """
    tags = functools.cache(lambda key: ",".join(CLASS_BY_CODE[c].value for c in key) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("v,c," + ",".join(eq.value for eq in EQUILIBRIUM_IDS) + "\n")
        # the v values one at a time: a list of them all would grow with n_v
        fh.writelines(_row_texts(m.codes, (f"{v:.17g}" for v in m.v_values),
                                 [f",{c:.17g}," for c in m.c_values.tolist()], tags))


_REGION_COLORS = {
    Classification.STABLE_NODE: "#2166ac",
    Classification.UNSTABLE_NODE: "#b2182b",
    Classification.SADDLE: "#fddbc7",
    Classification.NORMALLY_HYPERBOLIC_STABLE: "#67a9cf",
    Classification.NORMALLY_HYPERBOLIC_UNSTABLE: "#ef8a62",
    Classification.NORMALLY_HYPERBOLIC_SADDLE: "#fee0b6",
    Classification.NON_HYPERBOLIC: "#999999",
    Classification.DEGENERATE: "#40004b",
    Classification.UNDEFINED: "#f0f0f0",
}


def write_region_svg(m: RegionMap, eq: EquilibriumId, path) -> None:
    """Heat map of ``eq``'s classification over (v, c), with the four lines.

    One rect per node, v across and c up, row-major in v then c, each
    filled with its tag's colour.  Each v row is one ``_row_texts`` text:
    the row's ``<rect x=... y="`` as head, the y texts as columns and a
    fill's ``" width=.../>`` and newline as a run's tail.  The rows are
    built when ``Canvas.write`` reaches them.
    """
    size, margin = 420, 40
    cv = Canvas(size + 2 * margin, size + 2 * margin)
    spec = m.spec
    dv = size / spec.n_v
    dc = size / spec.n_c
    plane = m.codes[EQUILIBRIUM_IDS.index(eq)][None]
    tails = {(code,): _rect_tail(dv + 0.5, dc + 0.5, _REGION_COLORS[tag], "none", 0.0) + "\n"
             for code, tag in enumerate(CLASS_BY_CODE)}
    cv.lines(lambda: _row_texts(
        plane, (f'<rect x="{_fmt(margin + i * dv)}" y="' for i in range(spec.n_v)),
        [_fmt(margin + size - (j + 1) * dc) for j in range(spec.n_c)], tails.__getitem__))

    def frac(t, lo, hi):
        # a zero-width axis (a 1-D sweep) maps to the middle of the panel;
        # the others are divided by the power of two that the scan's axes use
        # (exact), so hi - lo cannot overflow
        if not hi > lo:
            return 0.5
        e = math.frexp(max(abs(lo), abs(hi)))[1]
        t, lo, hi = (math.ldexp(x, -e) for x in (t, lo, hi))
        return (t - lo) / (hi - lo)

    def to_canvas(v, c):
        fx = frac(v, spec.v_min, spec.v_max)
        fy = frac(c, spec.c_min, spec.c_max)
        return margin + fx * size, margin + size - fy * size

    for _, _, ((v1, c1), (v2, c2)) in _line_segments(spec):
        cv.line(*to_canvas(v1, c1), *to_canvas(v2, c2), stroke="black", width=1.2)
    cv.text(margin, margin - 8, f"{eq.value} classification over (v, c)", size=12)
    cv.write(path)
