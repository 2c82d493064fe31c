"""Replicator vector fields for the asymmetric Hawk-Dove game.

Two equivalent forms are provided:

* ``field_4d`` -- the constrained four-dimensional system in the shares
  (x, y, z, w) of (HH, HD, DH, DD), written with the closed-form average
  payoff subtracted per strategy.
* ``field_3d`` -- the unconstrained reduction obtained by substituting
  w = 1 - x - y - z, expanded to explicit polynomials.  This is the
  canonical field for all downstream analysis (Jacobian, integration);
  the 4D form exists for the consistency oracle.

The fields are evaluated as expanded polynomials rather than by
subtracting average-payoff terms at runtime (fewer cancellation paths);
``consistency_residual`` guards against transcription error between the
two forms.

Every component carries its own variable as an exact factor, so a share
that is exactly zero has an exactly zero rate: boundary faces of the
simplex are invariant to the last bit.  The y and z components share
their common subexpressions so that the y<->z relabeling symmetry also
holds bitwise.

One simplex rule: ``on_reduced_simplex`` tests x + (y + z) <= 1 +
TOL_SIMPLEX, the projection's sum, and ``lift``'s w is 1 - x - (y + z),
so a state and its y<->z mirror are accepted together, with equal w bits.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, Union

import numpy as np

from .game_core import Params, TOL_SIMPLEX, average_payoff

__all__ = [
    "ReducedState",
    "field_3d",
    "field_3d_rows",
    "field_4d",
    "consistency_residual",
    "lift",
    "on_reduced_simplex",
]


class ReducedState(NamedTuple):
    """Shares (x, y, z) of (HH, HD, DH); w = 1 - x - (y + z) is implied."""

    x: float
    y: float
    z: float


Reduced = Union[ReducedState, Sequence[float], np.ndarray]


def lift(s: Reduced) -> tuple:
    """(x, y, z, 1 - x - (y + z)) from float or equal-shape array shares."""
    x, y, z = s
    return (x, y, z, 1.0 - x - (y + z))


def on_reduced_simplex(s: Reduced) -> bool:
    x, y, z = s
    x, y, z = float(x), float(y), float(z)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        return False
    return min(x, y, z) >= -TOL_SIMPLEX and x + (y + z) <= 1.0 + TOL_SIMPLEX


def _field_3d_terms(v, c, x, y, z):
    """The reduced field's three components on floats or equal-shape arrays.

    Elementwise arithmetic in one fixed order, so a point gets the same
    bits whether it is evaluated alone or as one row of a batch.  Shared
    subexpressions are computed once, and 2a is written a + a: exact, like
    2.0 * a, but cheaper on arrays.
    """
    syz = y + z   # shared so the y<->z swap symmetry holds bitwise
    x2, y2 = x + x, y + y
    x2s = x2 + syz
    common = v * (x2s - 1.0)
    dx = 0.25 * x * (c * (x2 * x + x2 * (syz - 1.0) + y2 * z - syz) - v * (x2s - 2.0))
    dy = -0.25 * y * (common - c * (x2 + y2 - 1.0) * (x + z))
    dz = -0.25 * z * (common - c * (x2 + (z + z) - 1.0) * (x + y))
    return dx, dy, dz


def field_3d(p: Params, s: Reduced) -> tuple[float, float, float]:
    """Reduced replicator field (dx/dt, dy/dt, dz/dt).

    dx = x/4 * [c(2x^2 + 2x(y+z-1) + 2yz - y - z) - v(2x + y + z - 2)]
    dy = -y/4 * [v(2x + y + z - 1) - c(2x + 2y - 1)(x + z)]
    dz = -z/4 * [v(2x + y + z - 1) - c(x + y)(2x + 2z - 1)]
    """
    v, c = p
    x, y, z = (float(t) for t in s)
    return _field_3d_terms(v, c, x, y, z)


def field_3d_rows(p: Params, s: np.ndarray) -> np.ndarray:
    """``field_3d`` at every row of an (N, 3) state array; returns (N, 3).

    Row i is bit-identical to ``field_3d(p, s[i])``.
    """
    v, c = p
    out = np.empty_like(s)
    out[:, 0], out[:, 1], out[:, 2] = _field_3d_terms(v, c, s[:, 0], s[:, 1], s[:, 2])
    return out


def field_4d(p: Params, s) -> tuple[float, float, float, float]:
    """Constrained replicator field (dx/dt, dy/dt, dz/dt, dw/dt).

    Each rate is share/4 * [4 * (strategy payoff) - 4 * (average payoff)]
    with the strategy payoffs written out against (x, y, z, w).  The
    component sum vanishes on the simplex.
    """
    v, c = p
    x, y, z, w = (float(t) for t in s)
    four_pibar = 4.0 * average_payoff(p, (x, y, z, w))
    dx = 0.25 * x * (-c * (2.0 * x + y + z) - four_pibar + v * (4.0 * w + 2.0 * x + 3.0 * (y + z)))
    dy = 0.25 * y * (-c * (x + z) - four_pibar + v * (3.0 * w + x + 2.0 * (y + z)))
    dz = 0.25 * z * (-c * (x + y) - four_pibar + v * (3.0 * w + x + 2.0 * (y + z)))
    dw = 0.25 * w * (v * (2.0 * w + y + z) - four_pibar)
    return (dx, dy, dz, dw)


def consistency_residual(p: Params, s: Reduced) -> float:
    """Max component difference between field_3d and the reduced field_4d.

    Contract: < 1e-12 everywhere on the simplex.  This is the oracle that
    the printed three-dimensional polynomials really are the constrained
    system with w eliminated.
    """
    f3 = field_3d(p, s)
    f4 = field_4d(p, lift(s))
    return max(abs(a - b) for a, b in zip(f3, f4[:3]))
