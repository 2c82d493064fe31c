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

The scalar catalog and the grid scan classify through one routine,
``_tag_codes``: LAPACK eigenvalues of the stacked Jacobians, real parts
against the zero threshold ``zero_tol(v, c)``.  ``catalog`` is a stack of
seven Jacobians, one per point; ``classification_codes`` is a stack of one
point's Jacobians over a parameter grid.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NoConvergenceError, SingularJacobianError
from .game_core import Params, TOL_SIMPLEX
from .linear_analysis import (
    CLASS_BY_CODE,
    CODE_BY_CLASS,
    Classification,
    EigenTriple,
    eigvals,
    jacobian,
    jacobian_entries,
    sorted_eigvals,
    stability_codes,
    zero_tol,
)
from .replicator_field import Reduced, ReducedState, field_3d, lift

__all__ = [
    "EquilibriumId",
    "EquilibriumRecord",
    "STRUCTURAL_ZERO_EIGS",
    "PREDICATE_NOTES",
    "equilibrium_coords",
    "region_predicate",
    "catalog",
    "refine",
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

_IDS = tuple(EquilibriumId)
_STRUCTURAL = np.array([STRUCTURAL_ZERO_EIGS[eq] for eq in _IDS])

#: Known gaps in the literal predicate transcription, surfaced in reports
#: instead of silently corrected.
PREDICATE_NOTES = (
    "P2: the transcribed saddle union omits the regions {v>0, c>2v} and "
    "{v<=0, c>0}; numerically P2 is a saddle there too (its second and "
    "third eigenvalues are opposite whenever c != 2v).",
    "P3: node wording in the reference conditions maps to the normally "
    "hyperbolic tags because P3 carries a structural zero eigenvalue.",
)


def equilibrium_coords(eq: EquilibriumId, v, c):
    """Coordinates of ``eq`` as arrays broadcast over (v, c).

    Returns (x, y, z, defined); ``defined`` is False where the closed form
    divides by zero (P3/P6 at c = 0).
    """
    v = np.asarray(v, dtype=float)
    c = np.asarray(c, dtype=float)
    shape = np.broadcast(v, c).shape
    zero = np.zeros(shape)
    one = np.ones(shape)
    defined = np.ones(shape, dtype=bool)
    if eq is EquilibriumId.P1:
        return zero, zero, one, defined
    if eq is EquilibriumId.P2:
        return zero, 0.5 * one, 0.5 * one, defined
    if eq is EquilibriumId.P4:
        return zero, one, zero, defined
    if eq is EquilibriumId.P5:
        return one, zero, zero, defined
    if eq is EquilibriumId.P7:
        return zero, zero, zero, defined
    # P3 and P6 need v/c
    defined = np.broadcast_to(c != 0.0, shape).copy()
    q = np.divide(v, c, out=np.zeros(shape), where=defined)
    q = np.broadcast_to(q, shape)
    if eq is EquilibriumId.P3:
        return zero, q, q, defined
    if eq is EquilibriumId.P6:
        return q, zero, zero, defined
    raise ValueError(f"unknown equilibrium {eq!r}")


def region_predicate(eq: EquilibriumId, p: Params) -> Optional[Classification]:
    """Literal transcription of the reference stability regions.

    Returns None where the transcribed conditions make no claim (on the
    boundary lines, and in the P2 regions its saddle union omits).
    """
    v, c = p
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


def _jacobian_stack(v, c, x, y, z) -> np.ndarray:
    """Jacobians (..., 3, 3) at broadcast parameters and coordinates."""
    entries = np.broadcast_arrays(*jacobian_entries(v, c, x, y, z))
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (3, 3))


def _tag_codes(re, v, c, structural, defined) -> np.ndarray:
    """Catalog class codes from eigenvalue real parts ``re`` (..., 3).

    The stability code, raised to DEGENERATE where more real parts are zero
    than the point's ``structural`` count, and UNDEFINED where the point is
    not defined or its Jacobian overflowed (NaN eigenvalues).
    """
    codes, zeros = stability_codes(re, zero_tol(v, c))
    codes = np.where(zeros > structural, CODE_BY_CLASS[Classification.DEGENERATE], codes)
    defined = defined & ~np.isnan(re).any(axis=-1)
    return np.where(defined, codes, CODE_BY_CLASS[Classification.UNDEFINED]).astype(np.int8)


def classification_codes(eq: EquilibriumId, v, c) -> np.ndarray:
    """Vectorized classification of ``eq`` over parameter arrays.

    Returns integer codes indexing CLASS_BY_CODE, including the DEGENERATE
    upgrade at bifurcation lines and UNDEFINED where the point's formula
    divides by zero.  The codes equal the catalog's tags at the same
    (v, c): both take the real parts of one LAPACK solve per Jacobian
    through ``_tag_codes``.
    """
    v = np.asarray(v, dtype=float)
    c = np.asarray(c, dtype=float)
    x, y, z, defined = equilibrium_coords(eq, v, c)
    vv = np.broadcast_to(v, x.shape)
    cc = np.broadcast_to(c, x.shape)
    re = eigvals(_jacobian_stack(vv, cc, x, y, z)).real
    return _tag_codes(re, vv, cc, STRUCTURAL_ZERO_EIGS[eq], defined)


@dataclass(frozen=True)
class EquilibriumRecord:
    id: EquilibriumId
    coords: ReducedState
    defined: bool
    in_simplex: bool
    eigenvalues: Optional[EigenTriple]
    classification: Classification
    paper_region_class: Optional[Classification]
    coincides_with: tuple[EquilibriumId, ...] = ()

    @property
    def agrees_with_paper(self) -> Optional[bool]:
        """None when the transcribed predicates make no claim here."""
        if self.paper_region_class is None or not self.defined:
            return None
        return self.classification == self.paper_region_class


def _in_simplex(coords: ReducedState) -> bool:
    s4 = lift(coords)
    return min(s4) >= -TOL_SIMPLEX


def catalog(p: Params) -> list[EquilibriumRecord]:
    """All seven equilibrium records at parameters ``p``.

    One eigenvalue solve over the seven stacked Jacobians; the tags come
    from the same ``_tag_codes`` as the grid scan's.
    """
    p = Params(*p).validate()
    x, y, z, defined = (np.array(col) for col in zip(
        *(equilibrium_coords(eq, p.v, p.c) for eq in _IDS)))
    eigs = sorted_eigvals(_jacobian_stack(p.v, p.c, x, y, z), max(abs(p.v), abs(p.c)))
    codes = _tag_codes(eigs.real, p.v, p.c, _STRUCTURAL, defined)
    records = []
    for k, eq in enumerate(_IDS):
        coords = ReducedState(float(x[k]), float(y[k]), float(z[k]))
        if defined[k]:
            rec = EquilibriumRecord(
                id=eq, coords=coords, defined=True, in_simplex=_in_simplex(coords),
                eigenvalues=EigenTriple(*(complex(l) for l in eigs[k])),
                classification=CLASS_BY_CODE[codes[k]],
                paper_region_class=region_predicate(eq, p))
        else:
            rec = EquilibriumRecord(
                id=eq, coords=coords, defined=False, in_simplex=False,
                eigenvalues=None, classification=Classification.UNDEFINED,
                paper_region_class=None)
        records.append(rec)

    # Coincidence annotations: e.g. P3=P6=P7 at v=0, P6=P5 at v=c, P3=P2 at c=2v.
    scale = 1e-12 * (1.0 + abs(p.v) + abs(p.c))
    for i, rec in enumerate(records):
        if not rec.defined:
            continue
        twins = tuple(
            other.id for k, other in enumerate(records)
            if k != i and other.defined
            and max(abs(a - b) for a, b in zip(rec.coords, other.coords)) <= scale)
        if twins:
            records[i] = EquilibriumRecord(
                id=rec.id, coords=rec.coords, defined=rec.defined,
                in_simplex=rec.in_simplex, eigenvalues=rec.eigenvalues,
                classification=rec.classification,
                paper_region_class=rec.paper_region_class, coincides_with=twins)
    return records


def refine(p: Params, guess: Reduced, *, max_iter: int = 50, tol: float = 1e-13,
           full_output: bool = False):
    """Newton refinement of an equilibrium guess on the reduced field.

    Uses the analytic Jacobian; when a step is unsolvable (singular
    Jacobian, expected near P3/P6) it falls back to a least-squares
    pseudo-inverse step and flags it.  Raises NoConvergenceError after
    ``max_iter`` iterations or on divergence; SingularJacobianError only
    if even the fallback step is unusable.

    Returns the refined ReducedState, or (state, info) with
    ``full_output=True`` where info is a dict with keys ``iterations`` and
    ``used_pseudo_inverse``.
    """
    p = Params(*p).validate()
    x = np.array([float(t) for t in guess], dtype=float)
    if x.shape != (3,):
        raise ValueError("guess must have three components")
    used_pinv = False
    for it in range(max_iter + 1):
        f = np.array(field_3d(p, x))
        if np.abs(f).max() < tol:
            state = ReducedState(*(float(t) for t in x))
            if full_output:
                return state, {"iterations": it, "used_pseudo_inverse": used_pinv}
            return state
        if it == max_iter:
            break
        j = jacobian(p, x)
        step = None
        try:
            step = np.linalg.solve(j, -f)
            if not np.all(np.isfinite(step)):
                step = None
        except np.linalg.LinAlgError:
            step = None
        if step is None:
            step, *_ = np.linalg.lstsq(j, -f, rcond=None)
            used_pinv = True
            if not np.all(np.isfinite(step)):
                raise SingularJacobianError(
                    f"no usable Newton step at {tuple(x)} for p={tuple(p)}")
        x = x + step
        if np.abs(x).max() > 1e6:
            raise NoConvergenceError(f"Newton iteration diverged from {tuple(guess)}")
    raise NoConvergenceError(
        f"no convergence after {max_iter} iterations from {tuple(guess)}")
