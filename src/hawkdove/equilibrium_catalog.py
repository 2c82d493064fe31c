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

Every eigenvalue of P1..P7 is a closed form in (v, c) from the stability
analysis: a constant times v, c, v - c or c - 2v, 0, or one of the
products -v(c - 2v)/(4c) (P3) and v(v - c)/(2c) (P6).  So the seven tags
depend only on the direction of (v, c): one of the eight open sectors
between the lines v = c, c = 0, v = 0 and c = 2v, one of their eight rays,
or the origin.

``_classify`` tags points by their eigenvalues.  ``_eigenvalue_table``
writes them, at (v, c) divided by a power of two, which is exact, as one
(3, 7) + shape array of three columns with each structural zero an exact
zero; ``stability_codes``, still the one code rule, reads their real
parts, and the DEGENERATE and UNDEFINED upgrades follow.  The Jacobian
with a LAPACK solve is the reference the tests hold the table to.  It runs
once, at import, at one representative of each of the 17 directions, and
its codes there are ``_DIRECTION_TABLE``: no tag is written by hand, and
``bifurcation`` reads its account of the local bifurcations from the same
table.

``direction_index`` gives any (v, c) shape one int8 per node, a column
of ``_CODE_TABLE``: the signs of the four line forms v - c, c, v and
c - 2v, each counting as zero within ZERO_REL max(|v|, |c|), the
threshold of ``zero_tol``, pick one of the 17 directions, and a v or c
that is not finite an 18th column, seven UNDEFINED.  (v, c) is first
divided by its power of two, so the index at 2^m (v, c) is the one at
(v, c) wherever both are exact, up to the largest float.  The nodes go
in C-order blocks of at most _BLOCK_NODES nodes in views of one scratch
array per call, so what a call holds beyond its index is bounded
whatever the shape; a single point goes the same way on Python floats.

``catalog`` takes its tags from its point's column, reads the paper's
regions at its direction's representative, so that a point in the zero
band of a line is judged on the line, and takes its eigenvalues from
``_eigenvalue_table``, scaled back; an UNDEFINED point shows a NaN
triple.  It reads each array once, with ``tolist``, and does its display
work, the descending eigenvalue triples and the coincidences, on the
Python floats.  The coordinates are written there
too, as Python floats from one v/c: 0, 1/2 and 1 are fixed, and v/c keeps
its sign at a zero v and is +-inf where it overflows.
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
    ZERO_REL,
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
    "direction_index",
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


def _eigenvalues(v, c):
    """(table, columns, v, c): ``_eigenvalue_table``, a (3, 7) + shape
    array, at (v, c) divided by the power of two that puts max(|v|, |c|)
    in [0.5, 1), its columns scaled back to (v, c), and the divided (v, c).

    Both steps are exact, so only a huge q can overflow the table, and
    structural zeros are exact zeros.  The exponent, not 2^e, is carried,
    since 2^1024 is not a float.  q is taken unscaled, so it stays right
    where the divided c underflows.
    """
    v = np.asarray(v, dtype=float)
    c = np.asarray(c, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = v / c
        e = np.frexp(np.maximum(np.abs(v), np.abs(c)))[1]
        v, c = np.ldexp(v, -e), np.ldexp(c, -e)
        re, eigs = np.empty((2, 3, 7) + e.shape)
        _eigenvalue_table(v, c, q, re)
        np.ldexp(re, e, out=eigs)
    return re, eigs, v, c


def _classify(v, c):
    """(eigenvalue columns, codes) of P1..P7 at (v, c), from the eigenvalues.

    Point axis first.  A code is the stability code of ``_eigenvalues``'
    table, raised to DEGENERATE where more real parts are zero than the
    point's structural count, and UNDEFINED where an eigenvalue is not
    finite: where P3 and P6 divide by c = 0 (q = v / c is then inf or
    NaN), and where an eigenvalue overflows at (v, c) itself.  All seven
    are UNDEFINED where v or c is NaN or +-inf.  It builds the direction
    table at import, and the tests hold the direction index to it.
    """
    re, eigs, v, c = _eigenvalues(v, c)
    codes, zeros = stability_codes(re, zero_tol(v, c))
    np.copyto(codes, _DEGENERATE, where=zeros > _STRUCTURAL.reshape((-1,) + (1,) * v.ndim))
    # |v|, |c| < 1 once divided: the sum is not finite only where v or c is not
    with np.errstate(invalid="ignore"):
        finite = np.isfinite(v + c)
    np.copyto(codes, _UNDEFINED, where=~(np.isfinite(eigs).all(axis=0) & finite))
    return eigs, codes


# Nodes per block of ``direction_index``, whose larger temporaries
# take 52 bytes a node in one scratch per call.  Fewer nodes pay the
# per-call costs more often: 2048-node blocks halved the 401x401 scan's speed.
_BLOCK_NODES = 8192


def _chunks(shape, nodes):
    """Index tuples covering ``shape``, of at least one axis, in C order, at
    most ``nodes`` nodes each: runs of whole leading-axis slices where one
    slice fits, else each slice split the same way."""
    inner = math.prod(shape[1:])
    if inner > nodes:
        return [(i,) + rest for i in range(shape[0]) for rest in _chunks(shape[1:], nodes)]
    step = nodes // max(inner, 1)
    return [(slice(i, i + step),) for i in range(0, shape[0], step)]


# One representative of each of the 17 directions of the (v, c) plane that
# the tags tell apart, counterclockwise from (1, 0): a ray of one of the four
# lines at each even position, the open sector between it and the next ray
# at the odd position after it, and the origin last.
_DIRECTIONS = ((1.0, 0.0), (1.0, 0.5), (1.0, 1.0), (1.0, 1.5), (1.0, 2.0), (1.0, 3.0),
               (0.0, 1.0), (-1.0, 3.0), (-1.0, 0.0), (-1.0, -0.5), (-1.0, -1.0),
               (-1.0, -1.5), (-1.0, -2.0), (-1.0, -3.0), (0.0, -1.0), (1.0, -3.0),
               (0.0, 0.0))
# The direction index of a (v, c) with no direction: v or c NaN or +-inf.
_NO_DIRECTION = len(_DIRECTIONS)
# (7, 18) int8: ``_classify``'s codes at each of _DIRECTIONS, one column
# each, then at (NaN, NaN), seven UNDEFINED: the codes by direction index.
_CODE_TABLE = _classify(*np.array(_DIRECTIONS + ((math.nan, math.nan),)).T)[1]
_CODE_TABLE.flags.writeable = False
# (7, 17) int8: the codes of the 17 directions.
_DIRECTION_TABLE = _CODE_TABLE[:, :_NO_DIRECTION]


def _scratch(shape):
    """Work arrays for ``_direction_keys`` over ``shape``."""
    return np.empty((5,) + shape), np.empty(shape, dtype=np.intc), np.empty((2, 4) + shape, dtype=bool)


def _direction_keys(v, c, work):
    """One uint8 key per node: 81 [max(|v|, |c|) is finite] + 27 s(v - c)
    + 9 s(c) + 3 s(v) + s(c - 2v), at (v, c) divided by its power of two.
    s(f) is 1 where |f| <= t = ZERO_REL max(|v|, |c|), else 0 where f < 0
    and 2 where f > 0.  ``work`` is ``_scratch(shape)``.

    Divided, max(|v|, |c|) lies in [0.5, 1): no form overflows, t is a
    normal float, and the keys at 2^k (v, c) are the keys at (v, c)
    wherever both are exact.  The sign of each form is exact.
    """
    floats, exps, (above, within) = work
    forms, m = floats[:4], floats[4]
    d, cs, vs, r = forms
    np.maximum(np.abs(v, out=d), np.abs(c, out=r), out=m)
    np.frexp(m, out=(m, exps))
    np.negative(exps, out=exps)
    np.ldexp(v, exps, out=vs)
    np.ldexp(c, exps, out=cs)
    np.subtract(vs, cs, out=d)
    np.subtract(cs, np.multiply(vs, 2.0, out=r), out=r)
    m *= ZERO_REL
    keys = (m < np.inf).view(np.uint8) * 81
    np.greater(forms, m, out=above)
    np.greater_equal(forms, np.negative(m, out=m), out=within)
    digits = np.add(above.view(np.uint8), within.view(np.uint8), out=above.view(np.uint8))
    for weight, digit in zip((27, 9, 3, 1), digits):
        keys += weight * digit
    return keys


def _point_key(v, c):
    """``_direction_keys`` at one (v, c) of Python floats, in the same operations."""
    if not (math.isfinite(v) and math.isfinite(c)):
        return 0
    m, e = math.frexp(max(abs(v), abs(c)))
    v, c = math.ldexp(v, -e), math.ldexp(c, -e)
    t = ZERO_REL * m
    return 81 + sum(weight * ((f > t) + (f >= -t))
                    for weight, f in zip((27, 9, 3, 1), (v - c, c, v, c - 2.0 * v)))


def _key_table():
    """(162,) int8: the direction index by key, each of _DIRECTIONS at its
    representative's key and _NO_DIRECTION at the others.

    A finite (v, c) has one of those 17 keys: unless it is the origin, at
    most one of its forms is within t, and the others then have the signs
    they have on that form's ray.  A non-finite one has a key below 81.
    """
    v, c = np.array(_DIRECTIONS).T
    table = np.full(162, _NO_DIRECTION, dtype=np.int8)
    table[_direction_keys(v, c, _scratch(v.shape))] = np.arange(_NO_DIRECTION)
    return table


_KEY_TABLE = _key_table()


def direction_index(v, c) -> np.ndarray:
    """Each node's int8 index into _DIRECTIONS, or _NO_DIRECTION, over the
    broadcast shape of (v, c): ``_direction_keys`` through _KEY_TABLE, in
    ``_chunks`` of at most _BLOCK_NODES nodes in views of one scratch per
    call.  A single (v, c) is keyed on Python floats."""
    v, c = np.broadcast_arrays(np.asarray(v, dtype=float), np.asarray(c, dtype=float))
    if not v.ndim:
        return np.array(_KEY_TABLE[_point_key(float(v), float(c))])
    out = np.empty(v.shape, dtype=np.int8)
    scratch = _scratch((min(v.size, _BLOCK_NODES),))
    # a non-finite (v, c) is not divided, so its forms may overflow or be
    # inf - inf; its key does not read them
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _chunks(v.shape, _BLOCK_NODES):
            vb, cb = v[block], c[block]
            work = [a[..., :vb.size].reshape(a.shape[:-1] + vb.shape) for a in scratch]
            _KEY_TABLE.take(_direction_keys(vb, cb, work), out=out[block])
    return out


def classification_codes(v, c) -> np.ndarray:
    """Class codes of P1..P7 indexing CLASS_BY_CODE, shape (7,) + the
    broadcast shape of (v, c): each node's column of _CODE_TABLE, indexed
    with its int8 ``direction_index`` (``take`` would copy that to intp)."""
    return _CODE_TABLE[:, direction_index(v, c)]


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

    The tags are the column of the point's ``direction_index``, and the
    eigenvalues ``_eigenvalues``' columns.  Each array is read once, with
    ``tolist``, and the display work, the descending eigenvalue triples and
    the coincidences, runs on the Python floats, beside the coordinates.
    """
    p = Params(*p).validate()
    v, c = float(p.v), float(p.c)
    columns, k = _eigenvalues(v, c)[1], direction_index(v, c)
    codes, on = _CODE_TABLE[:, k], Params(*_DIRECTIONS[k])   # regions read at its representative
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
            eigenvalues = (np.nan,) * 3    # the triple of an UNDEFINED tag shows as NaN
        else:
            # descending; adding 0.0 turns a -0.0 into 0.0
            eigenvalues = tuple(sorted([l + 0.0 for l in triple], reverse=True))
        # an undefined point's code is UNDEFINED and its coincidence row empty
        records.append(EquilibriumRecord(
            id=eq, coords=coords, defined=ok, in_simplex=ok and on_reduced_simplex(coords),
            eigenvalues=eigenvalues,
            classification=CLASS_BY_CODE[code],
            paper_region_class=region_predicate(eq, on) if ok else None,
            coincides_with=tuple(twin)))
    return records
