"""Parameter-plane scans and local bifurcation line detection.

The (v, c) plane is scanned on a rectangular grid; at every node all seven
catalog equilibria are classified.  Classification changes between
adjacent nodes are then attributed to the four destabilization lines
v = c, c = 0, v = 0 and c = 2v.  Nodes landing on a line itself are tagged
Degenerate by the catalog's zero-count upgrade, so a region-to-region
change shows up as two attributable half-transitions when a node sits
exactly on the line.

The pipeline is array-at-a-time.  ``scan`` is one call of the catalog's
``classification_codes`` on the v axis as a column against the c axis.
That call looks up the codes of every node off and away from the four
lines in the catalog's sector table, classifies the nodes on or near a
line from their eigenvalues, in bounded chunks, and keeps its layout:
``RegionMap.codes`` is (7, n_v, n_c), point first, one contiguous
(n_v, n_c) plane per equilibrium.
Each axis is spaced with its bounds divided by a power of two that puts
the larger in [0.5, 1), which is exact: ``hi - lo`` cannot overflow, and
on a subnormal box each node rounds once.  An axis node within rounding
of zero is put exactly on zero, so the lines c = 0 and v = 0 pass
through nodes on every box that straddles them.
``detect_transitions`` finds changed edges by comparing each plane with
itself shifted along v and along c, OR-ed into one (2, n_v, n_c) bool
array one plane at a time, and attributes lines only on those, in one
array pass over all of them, each edge at its nodes divided by a power of
two, so its on-line tolerance and midpoint neither underflow, round nor
overflow at either end of the float range.  It aggregates with one
integer key per changed (edge, equilibrium) and the distinct keys per
line, from ``_distinct``: a sort and a first-of-run mask, which gives
``np.unique``'s result without ``np.unique``'s import of ``numpy.ma``
(7-11 ms on a process's first call, more than the whole aggregation).
``write_region_csv`` builds one text piece per (distinct row of seven
tags, c column) and writes each v row as one gather from that table and
one ``str.join``; its bytes match a cell-by-cell writer's.  Its per-node
keys and table indices exist one chunk of rows at a time, so what it
holds beyond ``codes`` does not grow with n_v.  Every
eigenvalue and the zero threshold are homogeneous of degree 1 in (v, c),
so the tags depend on the direction of (v, c) only, and a grid has few
distinct tag rows (at most 23 on every box probed, from subnormal to
+-1.7e308): the table grows with n_c, not with n_v * n_c.

``linearized_field`` gives the per-point linear systems in their
conventional transcription, including the dangling constant in the first
P6 equation (returned as an affine term); they back the destabilization
tests, while classification goes through the catalog's closed-form
eigenvalues.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .equilibrium_catalog import (
    CLASS_BY_CODE,
    EQUILIBRIUM_IDS,
    EquilibriumId,
    _CHUNK_NODES,
    classification_codes,
)
from .game_core import Params

__all__ = [
    "LineId",
    "GridSpec",
    "RegionMap",
    "BifurcationLine",
    "scan",
    "detect_transitions",
    "linearized_field",
    "write_region_csv",
]

class LineId(enum.Enum):
    VEQC = "VeqC"      # v = c
    CEQ0 = "Ceq0"      # c = 0
    VEQ0 = "Veq0"      # v = 0
    CEQ2V = "Ceq2V"    # c = 2v
    UNEXPLAINED = "Unexplained"

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


@dataclass(frozen=True)
class RegionMap:
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


def _row_chunks(spec: GridSpec) -> list[slice]:
    """Slices of whole v rows, about _CHUNK_NODES nodes and at least one row
    each; the last may be shorter."""
    rows = max(1, _CHUNK_NODES // spec.n_c)
    return [slice(start, start + rows) for start in range(0, spec.n_v, rows)]


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


# The four lines in LineId order, each as a signed value at (v, c) and the
# norm of its gradient; a fifth column of the line mask is UNEXPLAINED.
_LINE_NORMS = np.array([math.sqrt(2.0), 1.0, 1.0, math.sqrt(5.0)])


def _line_values(v: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(E, 4): v - c, c, v and c - 2v at each point."""
    return np.stack([v - c, c, v, c - 2.0 * v], axis=-1)


@dataclass(frozen=True)
class BifurcationLine:
    id: LineId
    affected: tuple[tuple[EquilibriumId, str], ...]


# Tag codes ranked by their names, so the smaller rank of a tag pair is the
# alphabetically first tag.
_TAG_NAMES = sorted(cls.value for cls in CLASS_BY_CODE)
_TAG_RANK = np.array([_TAG_NAMES.index(cls.value) for cls in CLASS_BY_CODE])


def _run_starts(a: np.ndarray) -> np.ndarray:
    """The values of the 1-D ``a`` that differ from their predecessor, and its first."""
    first = np.empty(a.shape, dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``a``, flattened: ``np.unique``'s values
    and dtype.  ``np.unique`` imports ``numpy.ma`` on its first call in a
    process, which costs more than the sort."""
    return _run_starts(np.sort(a, axis=None))


def detect_transitions(m: RegionMap) -> list[BifurcationLine]:
    """Aggregate classification changes per destabilization line.

    Each affected entry is (equilibrium, "TagA<->TagB") with the tag pair
    in alphabetical order.  A line is crossed by an edge between adjacent
    nodes when its signed value changes sign over the edge or an end node
    lies on it, within a tolerance relative to the edge's nodes (so a box
    scaled by k gives the same lines); of the crossed lines, those nearest
    the edge's midpoint are reported, every one of them on a tie near the
    origin.  Changes on an edge that crosses none of the four lines are
    collected under UNEXPLAINED for manual review.  Every changed (edge,
    equilibrium) gets one integer key, from the equilibrium and the tag
    pair, and each line takes the distinct keys of its edges.

    Changed edges are marked in one (2, n_v, n_c) bool array, along v then
    along c, OR-ing in one plane at a time: the temporaries there are one
    plane's two shifted comparisons, (n_v - 1, n_c) and (n_v, n_c - 1)
    bools.  Past that, arrays are per changed edge.
    """
    codes = m.codes
    # an edge changed where any of the seven contiguous planes changed
    step = np.zeros((2, m.spec.n_v, m.spec.n_c), dtype=bool)
    for plane in codes:
        step[0, :-1] |= plane[1:] != plane[:-1]
        step[1, :, :-1] |= plane[:, 1:] != plane[:, :-1]
    along_c, i, j = np.nonzero(step)
    i2, j2 = i + (1 - along_c), j + along_c
    va, ca = m.v_values[i], m.c_values[j]
    vb, cb = m.v_values[i2], m.c_values[j2]
    # each edge at its nodes divided by a power of two, which is exact: the
    # largest lands in [0.5, 1), so no tolerance underflows and no sum
    # overflows or rounds at either end of the float range
    top, e = np.frexp(np.maximum.reduce([np.abs(va), np.abs(ca), np.abs(vb), np.abs(cb)]))
    va, ca, vb, cb = (np.ldexp(t, -e) for t in (va, ca, vb, cb))
    on_tol = 1e-12 * top
    fa, fb = _line_values(va, ca), _line_values(vb, cb)
    crossed = (fa * fb <= 0.0) | (np.minimum(np.abs(fa), np.abs(fb)) <= on_tol[:, None])
    dist = np.abs(_line_values(0.5 * (va + vb), 0.5 * (ca + cb))) / _LINE_NORMS
    dmin = np.where(crossed, dist, np.inf).min(axis=1)
    near = crossed & (dist <= (dmin + on_tol)[:, None])
    lines = np.column_stack([near, ~near.any(axis=1)])

    codes_a, codes_b = codes[:, i, j], codes[:, i2, j2]
    k, e = np.nonzero(codes_a != codes_b)
    ra, rb = _TAG_RANK[codes_a[k, e]], _TAG_RANK[codes_b[k, e]]
    n = len(_TAG_NAMES)
    key = (k * n + np.minimum(ra, rb)) * n + np.maximum(ra, rb)
    out = []
    for col, line in enumerate(LineId):
        keys = _distinct(key[lines[e, col]]).tolist()
        if keys:
            affected = sorted(
                ((EQUILIBRIUM_IDS[q // (n * n)], f"{_TAG_NAMES[q // n % n]}<->{_TAG_NAMES[q % n]}")
                 for q in keys),
                key=lambda a: (a[0].value, a[1]))
            out.append(BifurcationLine(id=line, affected=tuple(affected)))
    return out


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


def write_region_csv(m: RegionMap, path) -> None:
    """Region map as CSV: header v,c,P1..P7, row-major in v then c.

    One text piece ``",c,tags\n"`` is built per (distinct row of seven
    tags, c column), and a v row is one gather from that table joined with
    the row's v text.  Tags depend on the direction of (v, c) only, so
    there are few distinct tag rows (see the module docstring) and the
    table grows with n_c, not with n_v * n_c.

    Each node's key, an int32 encoding its seven tags, and its int64 index
    into the table exist for one chunk of whole rows (about _CHUNK_NODES
    nodes) at a time: the keys are computed once to find the distinct tag
    rows, of which only those that differ from their predecessor are
    sorted, and again, chunk by chunk, as the rows are written.
    """
    base = len(CLASS_BY_CODE)

    def keys():
        # one key per node, the sum of code_k * base^k by Horner's rule over
        # the planes (below 9^7, so int32 holds it), a chunk of rows at a
        # time; a key decodes to its tag row
        for chunk in _row_chunks(m.spec):
            key = m.codes[6, chunk].astype(np.int32)
            for plane in m.codes[5::-1, chunk]:
                key *= base
                key += plane
            yield key

    # only the keys that differ from their predecessor in row-major order are
    # sorted: tag rows change only at region borders, so few are left
    distinct = _distinct(np.concatenate([_run_starts(key.ravel()) for key in keys()]))
    rows = distinct[:, None] // base ** np.arange(7) % base
    tag_text = [",".join(CLASS_BY_CODE[k].value for k in row) + "\n" for row in rows.tolist()]
    c_text = [f",{c:.17g}," for c in m.c_values.tolist()]
    pieces = np.array([[ct + tt for ct in c_text] for tt in tag_text], dtype=object)
    columns = np.arange(m.spec.n_c)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("v,c," + ",".join(eq.value for eq in EQUILIBRIUM_IDS) + "\n")
        indices = chain.from_iterable(np.searchsorted(distinct, key) for key in keys())
        for v, row in zip(m.v_values.tolist(), indices):
            v_text = f"{v:.17g}"
            fh.write(v_text + v_text.join(pieces[row, columns].tolist()))
