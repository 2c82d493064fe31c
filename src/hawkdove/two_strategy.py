"""The standard two-strategy Hawk-Dove game as a low-dimensional oracle.

With z the share of Hawks, the replicator dynamics collapse to a single
ODE, dz/dt = f(z) = z(1-z)(v - cz)/2, with equilibria z = 0, z = 1 and
z = v/c.  The factored form (c/2) z (1-z) (v/c - z) divides by c only in
print; the expanded polynomial used here is total in (v, c) and reduces
to (v/2) z (1-z) at c = 0.

The correspondence mapping to the full four-strategy game is descriptive
metadata: z = 0 matches P7 and z = v/c matches P1 and P4; no counterpart
is documented for z = 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .equilibrium_catalog import EquilibriumId
from .game_core import Params, unit_scale
from .integrator import IntegrationConfig, integrate_hawk_share, time_scale
from .linear_analysis import zero_tol
from .replicator_field import on_reduced_simplex

__all__ = [
    "two_strategy_payoff_matrix",
    "f",
    "f_prime",
    "equilibria_1d",
    "classify_1d",
    "CorrespondenceEntry",
    "correspondence",
    "simulate_hawk_share",
]


def two_strategy_payoff_matrix(p: Params) -> np.ndarray:
    """Row-player payoffs of the two-strategy game, order (H, D)."""
    v, c = Params(*p).validate()
    return np.array([[(v - c) / 2, v], [0.0, v / 2]])


def f(p: Params, z: float) -> float:
    """Rate of change of the Hawk share: z(1-z)(v - cz)/2."""
    v, c = p
    z = float(z)
    return 0.5 * z * (1.0 - z) * (v - c * z)


def f_prime(p: Params, z: float) -> float:
    """Analytic derivative: [v - 2vz + cz(-2 + 3z)] / 2."""
    v, c = p
    z = float(z)
    return 0.5 * (v - 2.0 * v * z + c * z * (-2.0 + 3.0 * z))


def equilibria_1d(p: Params) -> list[float]:
    """Equilibrium shares {0, 1, v/c}; the interior one only when c != 0."""
    v, c = p
    eqs = [0.0, 1.0]
    if c != 0:
        eqs.append(v / c)
    return eqs


def _tag(p: Params, z: float) -> str:
    # at (v, c) / 2^e, exact, so 2v cannot overflow and a subnormal (v, c)
    # keeps its bits; the sign and the zero test do not change.  Where v/c
    # nears the top of the float range or overflows, the expanded f' is
    # inf - inf or inf; f'(v/c) = z(v - c)/2 keeps its sign.
    _e, unit = unit_scale(p)
    fp = f_prime(unit, z)
    if not math.isfinite(fp):
        fp = 0.5 * z * (unit.v - unit.c)
    if abs(fp) <= zero_tol(*unit):
        return "degenerate"
    return "stable" if fp < 0 else "unstable"


def classify_1d(p: Params) -> list[tuple[float, str]]:
    """Each 1D equilibrium with its sign-of-derivative tag.

    Closed forms: f'(0) = v/2, f'(1) = (c-v)/2, f'(v/c) = v(v-c)/(2c).
    """
    p = Params(*p).validate()
    return [(z, _tag(p, z)) for z in equilibria_1d(p)]


class CorrespondenceEntry(NamedTuple):
    label: str
    z: Optional[float]                       # None when v/c is undefined
    matches: tuple[EquilibriumId, ...]       # empty = unmapped


def correspondence(p: Params) -> list[CorrespondenceEntry]:
    """Documented mapping from 1D equilibria to the full-game catalog."""
    v, c = p
    return [
        CorrespondenceEntry("z=0", 0.0, (EquilibriumId.P7,)),
        CorrespondenceEntry("z=v/c", v / c if c != 0 else None,
                            (EquilibriumId.P1, EquilibriumId.P4)),
        CorrespondenceEntry("z=1", 1.0, ()),
    ]


def simulate_hawk_share(p: Params, z0: float, cfg=None) -> list[tuple[float, float]]:
    """Integrate the 1D dynamics from z0; returns (t, z) samples.

    Steps the rate at (v, c) / s in dimensionless time (see
    ``integrator.time_scale``) with ``integrator.integrate_hawk_share``, the
    scalar Dormand-Prince kernel: the samples carry physical time, and at
    2^m (v, c) the shares are bit-identical and t scales by exactly 2^-m.
    The kernel clamps the start and every step to [0, 1] with the simplex
    projection, so the first sample is the projected z0.  Raises ValueError
    when z0 lies more than TOL_SIMPLEX outside [0, 1], or where physical
    time cannot be represented (see ``integrator.time_scale``).
    """
    p = Params(*p).validate()
    z0 = float(z0)
    if not on_reduced_simplex((z0, 0.0, 0.0)):
        raise ValueError(f"z0 must lie in [0, 1], got {z0}")
    cfg = (cfg or IntegrationConfig()).validate()
    e, (v, c) = time_scale(p, cfg.t_end)
    samples, _terminal, _nsteps, _clamps = integrate_hawk_share(v, c, z0, cfg)
    return [(math.ldexp(t, -e), z) for t, z in samples]
