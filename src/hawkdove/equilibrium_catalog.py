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
reference the tests hold the table to.  (v, c) is first divided by a
power of two, which is exact, so the tags at 2^m (v, c) are bit-identical
unless an eigenvalue overflows (then UNDEFINED).  The table is
component-major: three eigenvalue columns, each of shape (7,) + shape,
which ``stability_codes``, still the one code rule, reads column by
column; the DEGENERATE and UNDEFINED upgrades then overwrite codes in
place.  The grid scan calls it on chunks of the grid; ``catalog`` is the
same call on a 0-d grid, and only it stacks the columns into descending
(7, 3) rows, for display.
Coordinates come from two constant tables, one of fixed values and one
marking the slots that hold v/c.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import compress
from typing import Optional

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
    "equilibrium_coords",
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


# Coordinates of P1..P7 (columns) as rows x, y, z: a fixed value, or v/c
# where _COORD_IS_Q is set (y and z of P3, x of P6).
_COORD_FIXED = np.array([
    # P1   P2   P3   P4   P5   P6   P7
    [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
    [0.0, 0.5, 0.0, 1.0, 0.0, 0.0, 0.0],
    [1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0],
])
_COORD_IS_Q = np.array([
    [False, False, False, False, False, True, False],
    [False, False, True, False, False, False, False],
    [False, False, True, False, False, False, False],
])


def equilibrium_coords(v, c):
    """Coordinates of P1..P7 as arrays broadcast over (v, c).

    Returns (x, y, z, defined), each of shape (7,) + the broadcast shape
    of (v, c), the leading axis in catalog order.  ``defined`` is False
    where the closed form divides by zero (P3/P6 at c = 0).  The v/c
    slots are selected, not added, so a -0.0 or infinite v/c keeps its
    value and the other points stay exact.
    """
    v = np.asarray(v, dtype=float)
    c = np.asarray(c, dtype=float)
    shape = np.broadcast(v, c).shape
    nonzero = np.broadcast_to(c != 0.0, shape)
    with np.errstate(over="ignore"):    # |v/c| past the float range is +-inf
        q = np.divide(v, c, out=np.zeros(shape), where=nonzero)
    expand = (slice(None), slice(None)) + (None,) * len(shape)
    x, y, z = np.where(_COORD_IS_Q[expand], q, _COORD_FIXED[expand])
    defined = nonzero | ~_COORD_IS_Q.any(axis=0)[expand[1:]]
    return x, y, z, defined


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


def _eigenvalue_table(v, c, q):
    """The paper's closed-form eigenvalues of P1..P7 as three columns.

    Each column has shape (7,) + shape, point axis first, and holds one
    eigenvalue of every point; a point's three are unordered.  q = v / c;
    every eigenvalue is real.  P1 and P4 share their values.
    """
    d = v - c
    r = c - 2.0 * v
    zero = np.zeros_like(d)
    d4, c4, v4 = 0.25 * d, 0.25 * c, 0.25 * v
    return (np.stack((d4, 0.125 * c, v4, d4, -0.5 * d, zero, 0.5 * v)),
            np.stack((-c4, 0.125 * r, -0.25 * q * r, -c4, -d4, zero, v4)),
            np.stack((-v4, -0.125 * r, zero, -v4, -d4, 0.5 * q * d, v4)))


_DEGENERATE = CODE_BY_CLASS[Classification.DEGENERATE]
_UNDEFINED = CODE_BY_CLASS[Classification.UNDEFINED]


def _classify(v, c):
    """(eigenvalue columns, codes) of P1..P7 at (v, c).

    Point axis first.  The three eigenvalue columns, each of shape (7,) +
    shape, come from ``_eigenvalue_table`` scaled back to (v, c);
    structural zeros are exact zeros.  A code is the stability code,
    raised to DEGENERATE where more real parts are zero than the point's
    structural count, and UNDEFINED where an eigenvalue is not finite:
    where P3 and P6 divide by c = 0 (q = v / c is then inf or NaN), and
    where an eigenvalue overflows at (v, c) itself.
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
        re = _eigenvalue_table(v, c, q)
        eigs = tuple(np.ldexp(col, e) for col in re)
    codes, zeros = stability_codes(re, zero_tol(v, c))
    np.copyto(codes, _DEGENERATE, where=zeros > _STRUCTURAL.reshape((-1,) + (1,) * v.ndim))
    finite = np.isfinite(eigs[0]) & np.isfinite(eigs[1]) & np.isfinite(eigs[2])
    np.copyto(codes, _UNDEFINED, where=~finite)
    return eigs, codes


def classification_codes(v, c) -> np.ndarray:
    """Class codes of P1..P7 over parameter arrays, shape (7,) + shape of (v, c).

    Codes index CLASS_BY_CODE, with the DEGENERATE upgrade at bifurcation
    lines and UNDEFINED where a point's formula divides by zero.  The
    catalog's tags at a point are these codes at that (v, c).
    """
    return _classify(v, c)[1]


@dataclass(frozen=True)
class EquilibriumRecord:
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

    ``classification_codes`` on a 0-d grid, with the eigenvalues sorted
    in descending order for display.
    """
    p = Params(*p).validate()
    x, y, z, defined = equilibrium_coords(p.v, p.c)
    columns, codes = _classify(p.v, p.c)
    eigs = np.stack(columns, axis=-1)
    eigs[codes == _UNDEFINED] = np.nan      # an overflowed triple shows as NaN
    # descending; adding 0.0 turns a -0.0 into 0.0
    eigs = np.sort(eigs, axis=-1)[:, ::-1] + 0.0
    points = np.stack((x, y, z), axis=-1)
    # Coincidences, e.g. P3=P6=P7 at v=0, P6=P5 at v=c, P3=P2 at c=2v.
    # Coordinates are 0, 1/2, 1 or v/c, so the tolerance is in share units.
    # An infinite v/c minus itself is nan, which coincides with nothing.
    with np.errstate(invalid="ignore"):
        gaps = np.abs(points[:, None] - points[None]).max(axis=-1)
    twins = ((gaps <= _COINCIDE_TOL)
             & defined[:, None] & defined[None] & ~np.eye(len(points), dtype=bool))
    records = []
    for k, eq in enumerate(EQUILIBRIUM_IDS):
        coords = ReducedState(*points[k].tolist())
        ok = bool(defined[k])
        # an undefined point's code is UNDEFINED and its coincidence row empty
        records.append(EquilibriumRecord(
            id=eq, coords=coords, defined=ok, in_simplex=ok and on_reduced_simplex(coords),
            eigenvalues=tuple(eigs[k].tolist()) if ok else None,
            classification=CLASS_BY_CODE[codes[k]],
            paper_region_class=region_predicate(eq, p) if ok else None,
            coincides_with=tuple(compress(EQUILIBRIUM_IDS, twins[k]))))
    return records
