"""Symmetric Nash equilibria, found two independent ways.

``nash_via_stability`` lifts every asymptotically stable catalog point
(classification StableNode, so all eigenvalue real parts strictly
negative) to the four-strategy simplex: asymptotic stability of the
replicator dynamics implies the symmetric strategy pair is a Nash
equilibrium.

``best_response_check`` is the independent oracle: a state is a symmetric
Nash equilibrium iff no pure strategy earns more against it than the
population earns against itself.  The margin it reports is the worst-case
payoff slack (>= 0 means Nash).  It contracts the rows of the payoff
table, the float tuples that ``build_payoff_matrix`` wraps in its array,
with the state on Python floats, the same operations in the same order
as ``game_core.strategy_payoff``, so the margins have its bits.
``nash_report`` assembles both, with the check of each pure strategy,
into the ``nash`` command's JSON payload.

The pure HD/DH pairs are sometimes quoted as Nash for all v > 0, c > 0,
but the best-response margin shows c >= v is required; report exports
carry a note in the disputed region v > 0, 0 < c < v instead of silently
picking a side.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .equilibrium_catalog import catalog
from .game_core import (
    Params,
    STRATEGIES,
    SimplexState,
    TOL_SIMPLEX,
    _payoff_rows,
    require_simplex,
    unit_scale,
)
from .linear_analysis import Classification
from .replicator_field import lift

__all__ = [
    "NashReport",
    "nash_tol",
    "best_response_check",
    "nash_via_stability",
    "discrepancy_notes",
    "nash_report",
]


def nash_tol(p: Params) -> float:
    """Payoffs are exact rational combinations of v and c; only rounding
    noise is tolerated: 1e-10 * (1 + |v| + |c|).

    Where max(|v|, |c|) >= 1 (e > 0 in ``unit_scale``), the formula is
    evaluated at (v, c) / 2^e, with 2^-e in place of 1, and multiplied back
    by 2^e.  That rounds exactly as the direct form wherever the direct
    form is finite, and stays finite where |v| + |c| overflows.
    """
    v, c = p
    e, unit = unit_scale(p)
    if e <= 0:
        return 1e-10 * (1.0 + abs(v) + abs(c))
    return math.ldexp(1e-10 * (math.ldexp(1.0, -e) + abs(unit.v) + abs(unit.c)), e)


class NashReport(NamedTuple):
    candidate: SimplexState
    via_stability: bool
    via_best_response: bool
    support: tuple[str, ...]
    margin: float


def best_response_check(p: Params, sigma) -> NashReport:
    """Check the symmetric Nash condition for a population state.

    margin = (payoff of sigma against sigma) - max_i (payoff of pure i
    against sigma); Nash iff margin >= -nash_tol(p), in payoff units.  The
    margin is computed at (v, c) / 2^e (``unit_scale``) and multiplied back
    by 2^e, both exact, so it is finite at the top of the float range, and
    scaling (v, c) by 2^m scales a normal margin by exactly 2^m.  The
    support lists the strategies whose share exceeds TOL_SIMPLEX, in share
    units, so it does not depend on the scale of (v, c).
    """
    p = Params(*p).validate()
    s = require_simplex(sigma)
    e, unit = unit_scale(p)
    # strategy_payoff's contraction on Python floats: the same operations
    # in the same order, so the same bits
    x, y, z, w = s
    u = [r0 * x + r1 * y + r2 * z + r3 * w for r0, r1, r2, r3 in _payoff_rows(unit)]
    u_bar = sum(si * ui for si, ui in zip(s, u))
    margin = math.ldexp(u_bar - max(u), e)
    support = tuple(name for name, si in zip(STRATEGIES, s) if si > TOL_SIMPLEX)
    return NashReport(
        candidate=s,
        via_stability=False,
        via_best_response=margin >= -nash_tol(p),
        support=support,
        margin=margin,
    )


def nash_via_stability(p: Params) -> list[NashReport]:
    """Every StableNode catalog point, lifted to the 4-simplex.

    Normally hyperbolic points are excluded: a zero eigenvalue denies
    asymptotic stability by linearization.  Each emitted candidate is
    cross-annotated with the best-response oracle.
    """
    p = Params(*p).validate()
    out = []
    for rec in catalog(p):
        if rec.classification is not Classification.STABLE_NODE:
            continue
        checked = best_response_check(p, SimplexState(*lift(rec.coords)))
        out.append(checked._replace(via_stability=True))
    return out


def discrepancy_notes(p: Params) -> list[str]:
    """Known condition inconsistencies that apply at these parameters."""
    v, c = p
    notes = []
    if v > 0 and 0 < c < v:
        notes.append(
            "Discrepancy: the concluding condition (v > 0, c > 0) would make "
            "the pure HD/DH pairs Nash here, but the stability analysis and "
            "the best-response oracle both require c >= v; HD/DH are not "
            "Nash at these parameters.")
    return notes


# HH, HD, DH and DD as population states
_PURE_STATES = tuple(tuple(float(i == k) for i in range(4)) for k in range(4))


def nash_report(p: Params) -> dict:
    """The ``nash`` command's JSON payload at ``p``.

    The stability route's reports, the discrepancy notes, the
    best-response check of each pure strategy, and ``degenerate``: whether
    all four pure margins are zero, which holds only in the zero game
    v = c = 0.  It is read from (v, c), not from the margins, which
    underflow to zero at subnormal (v, c); at every normal scale it equals
    the test |margin| <= 1e-15 * max(|v|, |c|) on all four.
    """
    p = Params(*p).validate()
    v, c = p
    pure = [best_response_check(p, s) for s in _PURE_STATES]
    return {
        "v": v,
        "c": c,
        "reports": [
            {
                "candidate": list(r.candidate),
                "via_stability": r.via_stability,
                "via_best_response": r.via_best_response,
                "margin": r.margin,
                "support": list(r.support),
            }
            for r in nash_via_stability(p)
        ],
        "notes": discrepancy_notes(p),
        "pure_strategy_checks": [
            {"strategy": name, "via_best_response": r.via_best_response, "margin": r.margin}
            for name, r in zip(STRATEGIES, pure)
        ],
        "degenerate": v == 0 and c == 0,
    }
