"""Parameter-plane scans and local bifurcation line detection.

The (v, c) plane is scanned on a rectangular grid; at every node all seven
catalog equilibria are classified.  Classification changes between
adjacent nodes are then attributed to the four destabilization lines
v = c, c = 0, v = 0 and c = 2v.  Nodes landing on a line itself are tagged
Degenerate by the catalog's zero-count upgrade, so a region-to-region
change shows up as two attributable half-transitions when a node sits
exactly on the line.

The pipeline is array-at-a-time.  ``scan`` classifies chunks of whole
rows (about 8192 point classifications, seven per node) into one
preallocated int8 array, so its temporaries stay bounded on any grid.
An axis node within rounding of zero is put exactly on zero, so the lines
c = 0 and v = 0 pass through nodes on every box that straddles them.
``transition_pairs`` finds the changed edges by comparing shifted code
arrays and attributes lines only on those.  ``write_region_csv`` formats each axis value and each
distinct tag row once; its bytes match a cell-by-cell writer's.

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
from typing import Iterator, NamedTuple

import numpy as np

from .errors import UndefinedPointError
from .equilibrium_catalog import (
    CLASS_BY_CODE,
    EQUILIBRIUM_IDS,
    EquilibriumId,
    classification_codes,
)
from .game_core import Params
from .linear_analysis import Classification

__all__ = [
    "LineId",
    "GridSpec",
    "RegionMap",
    "BifurcationLine",
    "TransitionPair",
    "scan",
    "transition_pairs",
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
    codes: np.ndarray             # (n_v, n_c, 7) int8 indexing CLASS_BY_CODE

    def tag(self, i: int, j: int, eq: EquilibriumId) -> Classification:
        return CLASS_BY_CODE[self.codes[i, j, EQUILIBRIUM_IDS.index(eq)]]

    def tags(self, i: int, j: int) -> tuple[Classification, ...]:
        return tuple(CLASS_BY_CODE[k] for k in self.codes[i, j])


# Nodes classified per chunk of whole rows: about 8192 point
# classifications, seven per node, bounds the scan's temporaries whatever
# the grid size.
_CHUNK_NODES = 8192 // 7


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    """``linspace(lo, hi, n)`` with a node within rounding of zero set to 0.0.

    ``linspace`` misses zero on many boxes (1e-22 on some scaled symmetric
    ones); no other node of a grid that fits in memory is that close.
    """
    values = np.linspace(lo, hi, n)
    values[np.abs(values) <= 4 * np.finfo(float).eps * max(abs(lo), abs(hi))] = 0.0
    return values


def scan(spec: GridSpec = DEFAULT_GRID) -> RegionMap:
    """Classify all seven equilibria at every grid node.

    The grid is classified in chunks of whole v rows (about _CHUNK_NODES
    nodes, at least one row), each written into its slice of one
    preallocated int8 array.  Classification is per node, so the output
    does not depend on the chunking, and two scans of one grid agree bitwise.
    """
    spec = GridSpec(*spec).validate()
    v_values = _axis(spec.v_min, spec.v_max, spec.n_v)
    c_values = _axis(spec.c_min, spec.c_max, spec.n_c)
    codes = np.empty((spec.n_v, spec.n_c, 7), dtype=np.int8)
    rows = max(1, _CHUNK_NODES // spec.n_c)
    for start in range(0, spec.n_v, rows):
        vv, cc = np.meshgrid(v_values[start:start + rows], c_values, indexing="ij")
        codes[start:start + rows] = np.moveaxis(classification_codes(vv, cc), 0, -1)
    codes.flags.writeable = False
    return RegionMap(spec=spec, v_values=v_values, c_values=c_values, codes=codes)


# Line geometry: signed value and perpendicular distance at a point.
_LINE_FUNCS = {
    LineId.VEQC: (lambda v, c: v - c, math.sqrt(2.0)),
    LineId.CEQ0: (lambda v, c: c, 1.0),
    LineId.VEQ0: (lambda v, c: v, 1.0),
    LineId.CEQ2V: (lambda v, c: c - 2.0 * v, math.sqrt(5.0)),
}


class TransitionPair(NamedTuple):
    """One adjacent-node classification change, before aggregation."""

    node_a: tuple[float, float]
    node_b: tuple[float, float]
    eq: EquilibriumId
    tags: tuple[Classification, Classification]
    lines: tuple[LineId, ...]     # empty = unexplained


def _crossed_lines(a: tuple[float, float], b: tuple[float, float]) -> tuple[LineId, ...]:
    # relative to the edge's nodes, so a box scaled by k gives the same lines
    on_tol = 1e-12 * max(abs(a[0]), abs(a[1]), abs(b[0]), abs(b[1]))
    crossed = []
    for line, (func, norm) in _LINE_FUNCS.items():
        fa, fb = func(*a), func(*b)
        if fa * fb <= 0.0 or min(abs(fa), abs(fb)) <= on_tol:
            mid_v, mid_c = 0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1])
            crossed.append((abs(func(mid_v, mid_c)) / norm, line))
    if not crossed:
        return ()
    dmin = min(d for d, _ in crossed)
    # Tie near the origin: report every line at the minimal distance.
    return tuple(line for d, line in crossed if d <= dmin + on_tol)


def transition_pairs(m: RegionMap) -> Iterator[TransitionPair]:
    """All adjacent-node classification changes with their crossed lines.

    Changed edges are found by whole-array comparison; lines are attributed
    only on those.  Pairs come row-major in the lower node (i, j), the edge
    to (i + 1, j) before the edge to (i, j + 1), equilibria in catalog order.
    """
    codes = m.codes
    n_v, n_c = m.spec.n_v, m.spec.n_c
    v_step = np.zeros((n_v, n_c), dtype=bool)
    c_step = np.zeros((n_v, n_c), dtype=bool)
    v_step[:-1] = (codes[1:] != codes[:-1]).any(axis=-1)
    c_step[:, :-1] = (codes[:, 1:] != codes[:, :-1]).any(axis=-1)
    v_list = m.v_values.tolist()
    c_list = m.c_values.tolist()
    for i, j in np.argwhere(v_step | c_step).tolist():
        a = (v_list[i], c_list[j])
        ca = codes[i, j].tolist()
        for i2, j2, changed in ((i + 1, j, v_step[i, j]), (i, j + 1, c_step[i, j])):
            if not changed:
                continue
            b = (v_list[i2], c_list[j2])
            cb = codes[i2, j2].tolist()
            lines = _crossed_lines(a, b)
            for k, eq in enumerate(EQUILIBRIUM_IDS):
                if ca[k] != cb[k]:
                    yield TransitionPair(
                        node_a=a, node_b=b, eq=eq,
                        tags=(CLASS_BY_CODE[ca[k]], CLASS_BY_CODE[cb[k]]),
                        lines=lines)


@dataclass(frozen=True)
class BifurcationLine:
    id: LineId
    affected: tuple[tuple[EquilibriumId, str], ...]


def detect_transitions(m: RegionMap) -> list[BifurcationLine]:
    """Aggregate classification changes per destabilization line.

    Each affected entry is (equilibrium, "TagA<->TagB") with the tag pair
    in alphabetical order.  Changes whose node segment crosses none of the
    four lines are collected under UNEXPLAINED for manual review.
    """
    buckets: dict[LineId, set[tuple[EquilibriumId, str]]] = {}
    for pair in transition_pairs(m):
        desc = "<->".join(sorted(t.value for t in pair.tags))
        for line in (pair.lines or (LineId.UNEXPLAINED,)):
            buckets.setdefault(line, set()).add((pair.eq, desc))
    out = []
    for line in LineId:
        if line in buckets:
            affected = tuple(sorted(buckets[line], key=lambda t: (t[0].value, t[1])))
            out.append(BifurcationLine(id=line, affected=affected))
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
            raise UndefinedPointError("P3 is undefined at c = 0")
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
            raise UndefinedPointError("P6 is undefined at c = 0")
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

    Each axis value is formatted once and each distinct row of seven tags
    is joined once, so a row of output is string concatenation only.
    """
    flat = m.codes.reshape(-1, 7)
    # one int64 key per node: np.unique over rows (axis=0) is ~10x slower
    key = flat.astype(np.int64) @ (len(CLASS_BY_CODE) ** np.arange(7, dtype=np.int64))
    _, first, which = np.unique(key, return_index=True, return_inverse=True)
    tag_text = [",".join(CLASS_BY_CODE[k].value for k in row) + "\n"
                for row in flat[first].tolist()]
    c_text = [f",{c:.17g}," for c in m.c_values.tolist()]
    which = which.reshape(m.spec.n_v, m.spec.n_c).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("v,c," + ",".join(eq.value for eq in EQUILIBRIUM_IDS) + "\n")
        for v, row in zip(m.v_values.tolist(), which):
            v_text = f"{v:.17g}"
            fh.write("".join([v_text + ct + tag_text[t] for ct, t in zip(c_text, row)]))
