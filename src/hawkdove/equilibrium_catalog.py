"""Closed-form catalog of the seven equilibria P1..P7.

Each record carries the parameter-dependent coordinates, the numeric
eigenvalues and classification, the literal region predicate transcribed
from the stability analysis (used as a test oracle, never as the primary
classifier), a simplex membership flag and coincidence annotations.

P3 and P6 divide by c and are undefined at c = 0; degeneracy is data, not
an error.  Out-of-simplex points are still analyzed: they shape boundary
dynamics.

Classification upgrade: the stability code table never emits DEGENERATE
on its own.  The catalog knows each point's structural zero-eigenvalue
count (P3 has one, P6 has two, the rest none) and raises the tag to
DEGENERATE whenever the numeric zero count exceeds it, i.e. exactly when
(v, c) sits on a local bifurcation line for that point.

One function classifies all seven points over any (v, c) shape, point
axis first: ``classification_codes``.  Every eigenvalue of P1..P7 is a
closed form in (v, c) from the stability analysis, such as (v - c)/4,
-v(c - 2v)/(4c) or 0, so the tags come from that table, with each
structural zero an exact zero; the Jacobian with a LAPACK solve is the
reference the tests hold the table to.  ``_classify`` evaluates it.
(v, c) is first divided by a power of two, which is exact, so the tags at
2^m (v, c) are bit-identical unless an eigenvalue overflows (then
UNDEFINED).  The table is component-major: one (3, 7) + shape array of
three eigenvalue columns, written in one assignment and scaled back in one
call, whose real parts ``stability_codes``, still the one code rule,
compares in one call per count; the DEGENERATE and UNDEFINED upgrades then
overwrite codes in place.  The table and its scaled-back copy share one
(2, 3, 7) + shape work array.

Each eigenvalue is a constant times v, c, v - c or c - 2v, or one of the
products -v(c - 2v)/(4c) (P3) and v(v - c)/(2c) (P6).  So off the four
lines a node's seven tags depend only on which of the eight open sectors
it lies in.  ``classification_codes`` classifies in two passes:

* The sector pass looks up each node's codes in ``_SECTOR_TABLE``, a
  (7, 16) table indexed by 8 [v > c] + 4 [c > 0] + 2 [v > 0] + [c > 2v].
  Its columns are the sector columns of ``_DIRECTION_TABLE``, which holds
  ``_classify``'s own codes, taken once at import, at one representative
  of each of the 17 directions: the eight sectors, the eight rays of the
  four lines and the origin.  No tag is written by hand, and
  ``bifurcation`` reads its account of the local bifurcations from the
  same table.  A node keeps its sector's codes when |v|, |c|, |v - c|
  and |c - 2v| all exceed m = mu max(|v|, |c|), with mu = _SECTOR_REL =
  1e-3, and max(|v|, |c|) < 2^1000.  There every eigenvalue
  has its sector's sign and clears the zero threshold, 1e-9 max(|v|, |c|),
  by a wide margin: the linear ones are at least mu/8 max(|v|, |c|), and
  the two products at least mu^2/4 max(|v|, |c|).  |v/c| is at most 1/mu,
  so no eigenvalue overflows below 2^1000.  The signs of v - c and c - 2v
  are exact in floating point, and a strict comparison with m stays right
  on the subnormal grid.
* Every other node, on or near a line, at +-0, NaN, +-inf or at 2^1000
  and above, fails a comparison and goes through ``_classify``.

The nodes go in C-order blocks of at most _BLOCK_NODES nodes.  A block's
fallback nodes are compressed out and classified at most _CHUNK_NODES at
a time.  The sector pass's float temporaries and each ``_classify`` table
are views of one scratch array per call, so what a call holds beyond its
codes is bounded whatever the shape.  Each chunk's other temporaries are
then at most (7, 2048) floats, 112 KiB, under glibc's default 128 KiB
mmap threshold: freed, they are reused rather than handed back to the OS
and faulted in again for the next chunk, and the one scratch keeps the
larger table from that churn.  ``catalog`` is ``_classify`` on a 0-d
grid, with a fresh work array.  It reads each array once, with
``tolist``, and does its display work, the descending eigenvalue triples
and the coincidences, on the Python floats.  The coordinates are written
there too, as Python floats from one v/c: 0, 1/2 and 1 are fixed, and v/c
keeps its sign at a zero v and is +-inf where it overflows.
"""

from __future__ import annotations

import enum
import math
from itertools import combinations
from typing import NamedTuple, Optional

import numpy as np

from .game_core import Params
from .linear_analysis import (
    CLASS_BY_CODE,
    CODE_BY_CLASS,
    Classification,
    stability_codes,
    zero_tol,
)
from .replicator_field import ReducedState, on_reduced_simplex

__all__ = [
    "EquilibriumId",
    "EquilibriumRecord",
    "EQUILIBRIUM_IDS",
    "STRUCTURAL_ZERO_EIGS",
    "region_predicate",
    "catalog",
    "classification_codes",
    "CLASS_BY_CODE",
    "CODE_BY_CLASS",
]


class EquilibriumId(enum.Enum):
    P1 = "P1"
    P2 = "P2"
    P3 = "P3"
    P4 = "P4"
    P5 = "P5"
    P6 = "P6"
    P7 = "P7"

    def __str__(self) -> str:
        return self.value


#: Zero eigenvalues the point carries for *all* (v, c) where it is defined.
STRUCTURAL_ZERO_EIGS = {
    EquilibriumId.P1: 0,
    EquilibriumId.P2: 0,
    EquilibriumId.P3: 1,
    EquilibriumId.P4: 0,
    EquilibriumId.P5: 0,
    EquilibriumId.P6: 2,
    EquilibriumId.P7: 0,
}

#: P1..P7 in catalog order: the point axis of every array over all seven.
EQUILIBRIUM_IDS = tuple(EquilibriumId)
_STRUCTURAL = np.array([STRUCTURAL_ZERO_EIGS[eq] for eq in EQUILIBRIUM_IDS], dtype=np.int8)
# Two defined points coincide when no coordinate differs by more than this.
_COINCIDE_TOL = 1e-12


def region_predicate(eq: EquilibriumId, p: Params) -> Optional[Classification]:
    """Literal transcription of the reference stability regions.

    Returns None where the transcribed conditions make no claim (on the
    boundary lines, and in the P2 regions its saddle union omits).  Two
    known gaps of the transcription are kept, not corrected:

    * P2: the transcribed saddle union omits the regions {v>0, c>2v} and
      {v<=0, c>0}; numerically P2 is a saddle there too (its second and
      third eigenvalues are opposite whenever c != 2v).
    * P3: node wording in the reference conditions maps to the normally
      hyperbolic tags because P3 carries a structural zero eigenvalue.

    The comparisons run on Python floats: 2 * v may overflow to +-inf,
    which still orders exactly against a finite c, with no warning.
    """
    v, c = float(p[0]), float(p[1])
    C = Classification
    if eq in (EquilibriumId.P1, EquilibriumId.P4):
        if v > 0 and c > v:
            return C.STABLE_NODE
        if v < 0 and c < v:
            return C.UNSTABLE_NODE
        if ((v < 0 and v < c < 0) or (v < 0 and c > 0)
                or (v > 0 and c < 0) or (v > 0 and 0 < c < v)):
            return C.SADDLE
        return None
    if eq is EquilibriumId.P2:
        if (((v <= 0 and c < 2 * v) or (v > 0 and c < 0))
                or (v > 0 and 0 < c < 2 * v)
                or (v < 0 and 2 * v < c < 0)):
            return C.SADDLE
        return None
    if eq is EquilibriumId.P3:
        if c == 0:
            return None
        if v < 0 and 2 * v < c < 0:
            return C.NORMALLY_HYPERBOLIC_STABLE
        if v > 0 and 0 < c < 2 * v:
            return C.NORMALLY_HYPERBOLIC_UNSTABLE
        if ((v < 0 and (c < 2 * v or c > 0))
                or (v > 0 and (c < 0 or c > 2 * v))):
            return C.NORMALLY_HYPERBOLIC_SADDLE
        return None
    if eq is EquilibriumId.P5:
        if c < v:
            return C.STABLE_NODE
        if c > v:
            return C.UNSTABLE_NODE
        return None
    if eq is EquilibriumId.P6:
        return C.NON_HYPERBOLIC if c != 0 else None
    if eq is EquilibriumId.P7:
        if v < 0:
            return C.STABLE_NODE
        if v > 0:
            return C.UNSTABLE_NODE
        return None
    raise ValueError(f"unknown equilibrium {eq!r}")


def _eigenvalue_table(v, c, q, out):
    """Write the paper's closed-form eigenvalues of P1..P7 into ``out``.

    ``out`` is a (3, 7) + shape float array: three columns, each of shape
    (7,) + shape, point axis first, and each holding one eigenvalue of
    every point; a point's three are unordered.  q = v / c; every
    eigenvalue is real.  P1 and P4 share their values.  The terms are
    assigned as one nested tuple, which NumPy copies straight into ``out``.
    """
    d = v - c
    r = c - 2.0 * v
    zero = np.zeros(d.shape)
    d4, c4, v4 = 0.25 * d, 0.25 * c, 0.25 * v
    out[...] = ((d4, 0.125 * c, v4, d4, -0.5 * d, zero, 0.5 * v),
                (-c4, 0.125 * r, -0.25 * q * r, -c4, -d4, zero, v4),
                (-v4, -0.125 * r, zero, -v4, -d4, 0.5 * q * d, v4))


_DEGENERATE = CODE_BY_CLASS[Classification.DEGENERATE]
_UNDEFINED = CODE_BY_CLASS[Classification.UNDEFINED]


def _classify(v, c, work=None):
    """(eigenvalue columns, codes) of P1..P7 at (v, c).

    Point axis first.  The three eigenvalue columns, one (3, 7) + shape
    array, are ``_eigenvalue_table`` scaled back to (v, c);
    structural zeros are exact zeros.  A code is the stability code,
    raised to DEGENERATE where more real parts are zero than the point's
    structural count, and UNDEFINED where an eigenvalue is not finite:
    where P3 and P6 divide by c = 0 (q = v / c is then inf or NaN), and
    where an eigenvalue overflows at (v, c) itself.  All seven are
    UNDEFINED where v or c is NaN or +-inf, P7 too, whose eigenvalues do
    not involve c.

    ``work`` is a float array of shape (2, 3, 7) + shape that receives the
    table and the columns, which are its second half; without one a fresh
    array is taken.  ``classification_codes`` passes a view of its scratch.
    """
    v = np.asarray(v, dtype=float)
    c = np.asarray(c, dtype=float)
    # exact power-of-two scale: the scaled max(|v|, |c|) lies in [0.5, 1),
    # so only a huge q can overflow the table; the exponent, not 2^e, is
    # carried, since 2^1024 is not a float.  q is taken unscaled, so it
    # stays right where the scaled c underflows.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = v / c
        e = np.frexp(np.maximum(np.abs(v), np.abs(c)))[1]
        v, c = np.ldexp(v, -e), np.ldexp(c, -e)
        re, eigs = np.empty((2, 3, 7) + e.shape) if work is None else work
        _eigenvalue_table(v, c, q, re)
        np.ldexp(re, e, out=eigs)
        # |v|, |c| < 1 once scaled: the sum is not finite only where v or c is not
        finite = np.isfinite(v + c)
    codes, zeros = stability_codes(re, zero_tol(v, c))
    np.copyto(codes, _DEGENERATE, where=zeros > _STRUCTURAL.reshape((-1,) + (1,) * v.ndim))
    np.copyto(codes, _UNDEFINED, where=~(np.isfinite(eigs).all(axis=0) & finite))
    return eigs, codes


# Nodes per ``_classify`` call: bounds a classification's scratch and
# temporaries whatever the grid, each temporary below glibc's default mmap
# threshold (see the module docstring).
_CHUNK_NODES = 2048
# Nodes per block of the sector pass.  Its five float temporaries are views
# of the ``_classify`` scratch (5 * 8192 <= 42 * 2048 floats), and its masks
# 8 KiB each.  Fewer nodes pay the per-call costs more often: 2048-node
# blocks made the 401x401 scan twice as slow.
_BLOCK_NODES = 8192
# A node takes its codes from the sector table when v, c, v - c and c - 2v
# all exceed _SECTOR_REL * max(|v|, |c|), and that max is below _SECTOR_MAX.
_SECTOR_REL = 1e-3
_SECTOR_MAX = 2.0 ** 1000


def _chunks(shape, nodes):
    """Index tuples covering ``shape``, of at least one axis, in C order, at
    most ``nodes`` nodes each: runs of whole leading-axis slices where one
    slice fits, else each slice split the same way."""
    inner = math.prod(shape[1:])
    if inner > nodes:
        return [(i,) + rest for i in range(shape[0]) for rest in _chunks(shape[1:], nodes)]
    step = nodes // max(inner, 1)
    return [(slice(i, i + step),) for i in range(0, shape[0], step)]


def _sector(d, c, v, r):
    """The sector index 8 [v > c] + 4 [c > 0] + 2 [v > 0] + [c > 2v] as int8,
    one bit per sign of the four line forms d = v - c, c, v and r = c - 2v.
    Eight of the sixteen indices occur."""
    idx = (d > 0).view(np.int8)
    for line in (c, v, r):
        idx += idx
        idx |= line > 0
    return idx


# One representative of each of the 17 directions of the (v, c) plane that
# the tags tell apart, counterclockwise from (1, 0): a ray of one of the four
# lines at each even position, the open sector between it and the next ray
# at the odd position after it, and the origin last.
_DIRECTIONS = ((1.0, 0.0), (1.0, 0.5), (1.0, 1.0), (1.0, 1.5), (1.0, 2.0), (1.0, 3.0),
               (0.0, 1.0), (-1.0, 3.0), (-1.0, 0.0), (-1.0, -0.5), (-1.0, -1.0),
               (-1.0, -1.5), (-1.0, -2.0), (-1.0, -3.0), (0.0, -1.0), (1.0, -3.0),
               (0.0, 0.0))
# (7, 17) int8: ``_classify``'s codes at each of _DIRECTIONS, one column each.
_DIRECTION_TABLE = _classify(*np.array(_DIRECTIONS).T)[1]
_DIRECTION_TABLE.flags.writeable = False


def _sector_table():
    """(7, 16) int8 codes by sector index: the sector columns of
    _DIRECTION_TABLE, UNDEFINED at the eight indices that no (v, c) has."""
    v, c = np.array(_DIRECTIONS[1:16:2]).T
    table = np.full((7, 16), _UNDEFINED, dtype=np.int8)
    table[:, _sector(v - c, c, v, c - 2.0 * v)] = _DIRECTION_TABLE[:, 1:16:2]
    return table


_SECTOR_TABLE = _sector_table()


def _sector_codes(v, c, out, work):
    """Write each node's column of _SECTOR_TABLE into ``out``, (7,) + shape;
    return where those are its codes: where |v|, |c|, |v - c| and |c - 2v|
    all exceed m = _SECTOR_REL max(|v|, |c|) and that max is below
    _SECTOR_MAX (see the module docstring).  +-0, NaN and +-inf fail the
    comparisons.  ``work`` is a (5,) + shape float array for the
    temporaries."""
    d, r, av, ac, m = work
    np.subtract(v, c, out=d)
    np.subtract(c, np.multiply(v, 2.0, out=r), out=r)
    np.maximum(np.abs(v, out=av), np.abs(c, out=ac), out=m)
    fast = m < _SECTOR_MAX
    m *= _SECTOR_REL
    fast &= av > m
    fast &= ac > m
    fast &= np.abs(d, out=av) > m
    fast &= np.abs(r, out=ac) > m
    _SECTOR_TABLE.take(_sector(d, c, v, r), axis=1, out=out)
    return fast


def classification_codes(v, c) -> np.ndarray:
    """Class codes of P1..P7 over parameter arrays, shape (7,) + the broadcast
    shape of (v, c).

    Codes index CLASS_BY_CODE, with the DEGENERATE upgrade at bifurcation
    lines, UNDEFINED where a point's formula divides by zero, and all
    seven UNDEFINED where v or c is not finite.  The catalog's tags at a
    point are these codes at that (v, c).

    The nodes go in ``_chunks`` of at most _BLOCK_NODES nodes through two
    passes.  ``_sector_codes`` gives each node its sector's codes and marks
    the nodes off and away from the four lines.  The others, near or on a
    line, at +-0, NaN, +-inf or a max(|v|, |c|) of 2^1000 or more, are
    compressed out of the block and classified by ``_classify`` at most
    _CHUNK_NODES at a time, each in a view of one scratch array of 42
    floats per chunk node.  Classification is per node, so the codes do not
    depend on the blocks or chunks.
    """
    v, c = np.broadcast_arrays(np.asarray(v, dtype=float), np.asarray(c, dtype=float))
    if not v.ndim:      # a grid of one node, so that no block is 0-d
        return classification_codes(v[None], c[None])[:, 0]
    codes = np.empty((7,) + v.shape, dtype=np.int8)
    scratch = np.empty(42 * min(v.size, _CHUNK_NODES))
    # 2v and the differences may overflow, and NaN compares false: both fall back
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _chunks(v.shape, _BLOCK_NODES):
            vb, cb = v[block], c[block]
            out = codes[(slice(None),) + block]
            work = scratch[:5 * vb.size].reshape((5,) + vb.shape)
            slow = ~_sector_codes(vb, cb, out, work)
            if not slow.any():
                continue
            vs, cs = vb[slow], cb[slow]
            slow_codes = np.empty((7, vs.size), dtype=np.int8)
            for (chunk,) in _chunks(vs.shape, _CHUNK_NODES):
                vc = vs[chunk]
                work = scratch[:42 * vc.size].reshape((2, 3, 7, vc.size))
                slow_codes[:, chunk] = _classify(vc, cs[chunk], work)[1]
            out[:, slow] = slow_codes
    return codes


class EquilibriumRecord(NamedTuple):
    id: EquilibriumId
    coords: ReducedState
    defined: bool
    in_simplex: bool
    eigenvalues: Optional[tuple[float, float, float]]   # descending
    classification: Classification
    paper_region_class: Optional[Classification]
    coincides_with: tuple[EquilibriumId, ...] = ()

    @property
    def agrees_with_paper(self) -> Optional[bool]:
        """None when the transcribed predicates make no claim here."""
        if self.paper_region_class is None or not self.defined:
            return None
        return self.classification == self.paper_region_class


def catalog(p: Params) -> list[EquilibriumRecord]:
    """All seven equilibrium records at parameters ``p``.

    ``classification_codes`` on a 0-d grid.  Each array is read once, with
    ``tolist``, and the display work, the descending eigenvalue triples and
    the coincidences, runs on the Python floats, beside the coordinates.
    """
    p = Params(*p).validate()
    columns, codes = _classify(p.v, p.c)
    v, c = float(p.v), float(p.c)
    q = v / c if c else 0.0     # on Python floats an overflow is +-inf, with no warning
    # P1..P7; P3 and P6 divide by c
    points = (ReducedState(0.0, 0.0, 1.0), ReducedState(0.0, 0.5, 0.5), ReducedState(0.0, q, q),
              ReducedState(0.0, 1.0, 0.0), ReducedState(1.0, 0.0, 0.0), ReducedState(q, 0.0, 0.0),
              ReducedState(0.0, 0.0, 0.0))
    oks = (True, True, c != 0, True, True, c != 0, True)
    # Coincidences, e.g. P3=P6=P7 at v=0, P6=P5 at v=c, P3=P2 at c=2v.
    # Coordinates are 0, 1/2, 1 or v/c, so the tolerance is in share units.
    # An infinite v/c minus itself is nan, which coincides with nothing.
    twins = [[] for _ in points]
    for (i, a), (j, b) in combinations(enumerate(points), 2):
        if (oks[i] and oks[j] and abs(a.x - b.x) <= _COINCIDE_TOL
                and abs(a.y - b.y) <= _COINCIDE_TOL and abs(a.z - b.z) <= _COINCIDE_TOL):
            twins[i].append(EQUILIBRIUM_IDS[j])
            twins[j].append(EQUILIBRIUM_IDS[i])
    records = []
    for eq, coords, ok, triple, code, twin in zip(
            EQUILIBRIUM_IDS, points, oks, columns.T.tolist(), codes.tolist(), twins):
        if not ok:
            eigenvalues = None
        elif code == _UNDEFINED:
            eigenvalues = (np.nan,) * 3    # an overflowed triple shows as NaN
        else:
            # descending; adding 0.0 turns a -0.0 into 0.0
            eigenvalues = tuple(sorted([l + 0.0 for l in triple], reverse=True))
        # an undefined point's code is UNDEFINED and its coincidence row empty
        records.append(EquilibriumRecord(
            id=eq, coords=coords, defined=ok, in_simplex=ok and on_reduced_simplex(coords),
            eigenvalues=eigenvalues,
            classification=CLASS_BY_CODE[code],
            paper_region_class=region_predicate(eq, p) if ok else None,
            coincides_with=tuple(twin)))
    return records
