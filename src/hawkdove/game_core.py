"""Payoff structures for the four-strategy asymmetric Hawk-Dove game.

Strategies are role-conditioned: an individual commits to one behaviour as
owner and one as intruder, so the pure strategies are HH, HD, DH, DD (in
that order, frozen everywhere in this package: arrays, CSV columns and CLI
output all follow it).  The game has two parameters, the resource value
``v`` and the contest cost ``c``; both are plain reals with no sign
restriction.

Row-player payoffs::

          HH         HD         DH         DD
    HH  (v-c)/2   (3v-c)/4   (3v-c)/4     v
    HD  (v-c)/4     v/2      (2v-c)/4    3v/4
    DH  (v-c)/4   (2v-c)/4     v/2       3v/4
    DD     0        v/4        v/4       v/2

Only row-player entries are stored; in this symmetric-role construction
the column player's payoff is the transpose read and is never stored.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "STRATEGIES",
    "HH",
    "HD",
    "DH",
    "DD",
    "TOL_SIMPLEX",
    "Params",
    "SimplexState",
    "unit_scale",
    "build_payoff_matrix",
    "strategy_payoff",
    "average_payoff",
    "on_simplex",
    "require_simplex",
]

STRATEGIES = ("HH", "HD", "DH", "DD")
HH, HD, DH, DD = range(4)

#: Simplex membership tolerance.  Integrator round-off accumulates and the
#: dynamics are polynomial (no sensitivity cliff), so a loose-ish 1e-9 is safe.
TOL_SIMPLEX = 1e-9


class Params(NamedTuple):
    """Game parameters: resource value ``v`` and contest cost ``c``."""

    v: float
    c: float

    def validate(self) -> "Params":
        if not (math.isfinite(self.v) and math.isfinite(self.c)):
            raise ValueError(f"parameters must be finite, got v={self.v!r} c={self.c!r}")
        return self


class SimplexState(NamedTuple):
    """Population shares (x, y, z, w) of strategies (HH, HD, DH, DD)."""

    x: float
    y: float
    z: float
    w: float


StateLike = Union[SimplexState, Sequence[float], np.ndarray]


def _strategy_index(i: Union[int, str]) -> int:
    if isinstance(i, str):
        try:
            return STRATEGIES.index(i)
        except ValueError:
            raise ValueError(f"unknown strategy {i!r}; expected one of {STRATEGIES}") from None
    i = int(i)
    if not 0 <= i < 4:
        raise ValueError(f"strategy index out of range: {i}")
    return i


def unit_scale(p: Params) -> tuple[int, Params]:
    """The exponent e of frexp(max(|v|, |c|)) (0 at the origin), and (v, c) / 2^e.

    The scaled max(|v|, |c|) lies in [0.5, 1).  Dividing by a power of two
    is exact unless the smaller parameter falls below the normal range, so
    a quantity linear in (v, c) can be computed here and multiplied back by
    ``math.ldexp(_, e)`` without overflowing at the top of the float range.
    """
    v, c = p
    e = math.frexp(max(abs(v), abs(c)))[1]
    return e, Params(math.ldexp(v, -e), math.ldexp(c, -e))


def build_payoff_matrix(p: Params) -> np.ndarray:
    """Row-player payoffs of the asymmetric game, a read-only (4, 4) array
    generated from (v, c) in the fixed strategy order."""
    v, c = Params(*p).validate()
    m = np.array([
        [(v - c) / 2, (3 * v - c) / 4, (3 * v - c) / 4, v],
        [(v - c) / 4, v / 2, (2 * v - c) / 4, 3 * v / 4],
        [(v - c) / 4, (2 * v - c) / 4, v / 2, 3 * v / 4],
        [0.0, v / 4, v / 4, v / 2],
    ])
    m.flags.writeable = False
    return m


def strategy_payoff(m: np.ndarray, i: Union[int, str], s: StateLike) -> float:
    """Expected payoff of strategy ``i`` against population state ``s``.

    Linear in ``s``: the contraction of row ``i`` of the payoff table ``m``
    with (x, y, z, w).
    """
    row = m[_strategy_index(i)]
    x, y, z, w = s
    return float(row[0] * x + row[1] * y + row[2] * z + row[3] * w)


def average_payoff(p: Params, s: StateLike) -> float:
    """Population-average payoff, in closed form: (v - c(x+y)(x+z)) / 2.

    Equals sum_i s_i * strategy_payoff(m, i, s) on the simplex; that
    equivalence is enforced by a property test rather than recomputing the
    contraction here.
    """
    v, c = p
    x, y, z, _w = s
    return 0.5 * (v - c * (x + y) * (x + z))


def on_simplex(s: StateLike) -> bool:
    """True when all shares are >= -TOL_SIMPLEX and x + (y + z) + w is 1 within it."""
    x, y, z, w = vals = [float(t) for t in s]
    if not all(math.isfinite(t) for t in vals):
        return False
    return min(vals) >= -TOL_SIMPLEX and abs(x + (y + z) + w - 1.0) <= TOL_SIMPLEX


def require_simplex(s: StateLike) -> SimplexState:
    if not on_simplex(s):
        raise ValueError(f"state {tuple(s)!r} is not on the simplex (tol={TOL_SIMPLEX})")
    return SimplexState(*(float(t) for t in s))
