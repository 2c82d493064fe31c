import json
import math

import numpy as np
import pytest

from hawkdove import Params, best_response_check, build_payoff_matrix, nash_via_stability
from hawkdove.game_core import STRATEGIES, TOL_SIMPLEX, on_simplex, strategy_payoff, unit_scale
from hawkdove.nash import discrepancy_notes, nash_report, nash_tol

from util import rand_params


def candidates(reports):
    return {tuple(r.candidate) for r in reports}


def test_stability_route_dove_heavy_regime():
    reports = nash_via_stability(Params(0.1, 0.2))
    assert candidates(reports) == {(0.0, 0.0, 1.0, 0.0), (0.0, 1.0, 0.0, 0.0)}
    assert {r.support for r in reports} == {("DH",), ("HD",)}
    assert all(r.via_best_response and r.margin >= -1e-10 for r in reports)


def test_stability_route_hawk_regime():
    reports = nash_via_stability(Params(0.2, 0.1))
    assert candidates(reports) == {(1.0, 0.0, 0.0, 0.0)}
    assert reports[0].support == ("HH",)


def test_stability_route_negative_value_regime():
    reports = nash_via_stability(Params(-0.1, 0.2))
    assert candidates(reports) == {(0.0, 0.0, 0.0, 1.0)}
    assert reports[0].support == ("DD",)


def test_stability_route_both_negative_regime():
    reports = nash_via_stability(Params(-0.1, -0.3))
    assert candidates(reports) == {(1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)}


def test_support_is_in_share_units_at_every_scale():
    # the payoff-unit tolerance exceeds 1 from about 5e9, where it emptied
    # every support
    for k in (1e-12, 1.0, 1e11, 1e200):
        reports = nash_via_stability(Params(0.1 * k, 0.2 * k))
        assert {r.support for r in reports} == {("DH",), ("HD",)}, k
    rep = best_response_check(Params(1e11, 2e11), (0.0, 0.5, 0.5 - 2e-9, 2e-9))
    assert rep.support == ("HD", "DH", "DD")


def test_best_response_pure_hd_is_nash():
    p = Params(0.1, 0.2)
    m = build_payoff_matrix(p)
    sigma = (0.0, 1.0, 0.0, 0.0)
    assert strategy_payoff(m, 0, sigma) == pytest.approx(0.025, abs=1e-15)
    assert strategy_payoff(m, 1, sigma) == pytest.approx(0.05, abs=1e-15)
    assert strategy_payoff(m, 2, sigma) == pytest.approx(0.0, abs=1e-15)
    assert strategy_payoff(m, 3, sigma) == pytest.approx(0.025, abs=1e-15)
    rep = best_response_check(p, sigma)
    assert rep.via_best_response
    assert rep.margin == pytest.approx(0.0, abs=1e-15)
    assert rep.support == ("HD",)


def test_best_response_pure_dd_fails_for_positive_value():
    rep = best_response_check(Params(0.1, 0.2), (0.0, 0.0, 0.0, 1.0))
    assert not rep.via_best_response
    assert rep.margin == pytest.approx(-0.05, abs=1e-15)


def test_best_response_uniform_zero_game():
    rep = best_response_check(Params(0.0, 0.0), (0.25, 0.25, 0.25, 0.25))
    assert rep.via_best_response
    assert rep.margin == 0.0
    assert rep.support == ("HH", "HD", "DH", "DD")


def test_stability_implies_best_response():
    rng = np.random.default_rng(79)
    for _ in range(200):
        p = rand_params(rng, line_margin=1e-3)
        for rep in nash_via_stability(p):
            assert rep.via_best_response, (p, rep)
            assert rep.margin >= -nash_tol(p)


def test_pure_strategy_nash_regions():
    rng = np.random.default_rng(83)
    pures = {
        "HH": (1.0, 0.0, 0.0, 0.0),
        "HD": (0.0, 1.0, 0.0, 0.0),
        "DH": (0.0, 0.0, 1.0, 0.0),
        "DD": (0.0, 0.0, 0.0, 1.0),
    }
    for _ in range(300):
        p = rand_params(rng, line_margin=1e-3)
        v, c = p
        is_nash = {name: best_response_check(p, s).via_best_response
                   for name, s in pures.items()}
        assert is_nash["HD"] == (v >= 0 and c >= v)
        assert is_nash["DH"] == (v >= 0 and c >= v)
        assert is_nash["HH"] == (c <= v)
        assert is_nash["DD"] == (v <= 0)


def test_discrepancy_note_only_in_disputed_region():
    assert discrepancy_notes(Params(0.2, 0.1))      # v > 0, 0 < c < v
    assert not discrepancy_notes(Params(0.1, 0.2))
    assert not discrepancy_notes(Params(-0.1, 0.2))
    assert not discrepancy_notes(Params(0.2, -0.1))


def test_json_export_round_trip():
    p = Params(0.2, 0.1)
    payload = json.loads(json.dumps(nash_report(p)))
    assert list(payload) == ["v", "c", "reports", "notes", "pure_strategy_checks",
                             "degenerate"]
    assert payload["v"] == 0.2 and payload["c"] == 0.1
    assert len(payload["reports"]) == 1
    rep = payload["reports"][0]
    assert rep["candidate"] == [1.0, 0.0, 0.0, 0.0]
    assert rep["via_stability"] and rep["via_best_response"]
    assert rep["support"] == ["HH"]
    assert payload["notes"]  # disputed region carries the annotation
    assert [(r["strategy"], r["via_best_response"]) for r in payload["pure_strategy_checks"]] \
        == [("HH", True), ("HD", False), ("DH", False), ("DD", False)]
    assert payload["degenerate"] is False
    assert payload == nash_report(p)


def test_every_stable_node_is_a_strict_pure_equilibrium():
    # Selten (1980, J. Theor. Biol. 84:93-101): in a role-asymmetric contest
    # every ESS is a strict pure equilibrium.  So every StableNode inside
    # the simplex that the stability route reports must be a vertex whose
    # strategy earns more against itself than any other pure strategy does,
    # by more than rounding at the scale of (v, c).
    rng = np.random.default_rng(1980)
    n = 2000
    mags = 10.0 ** rng.uniform(-6.0, 6.0, n)
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    checked = 0
    for r, theta in zip(mags, angles):
        p = Params(float(r * np.cos(theta)), float(r * np.sin(theta)))
        m = build_payoff_matrix(p)
        for rep in nash_via_stability(p):
            if not on_simplex(rep.candidate):
                continue
            assert sorted(rep.candidate) == [0.0, 0.0, 0.0, 1.0], (p, rep.candidate)
            k = rep.candidate.index(1.0)
            u = [strategy_payoff(m, i, rep.candidate) for i in range(4)]
            best_other = max(u[i] for i in range(4) if i != k)
            assert u[k] - best_other > 1e-10 * max(abs(p.v), abs(p.c)), (p, k, u)
            checked += 1
    assert checked > n


def _bits(x):
    return (x, math.copysign(1.0, x))          # tells 0.0 from -0.0


def test_margins_scale_exactly_with_powers_of_two():
    # every margin is computed at (v, c) / 2^e and multiplied back by 2^e,
    # so at 2^m (0.1, 0.2) it is ldexp(margin at (0.1, 0.2), m) bit for bit,
    # from the bottom of the normal range to the top of the float range
    base = nash_report(Params(0.1, 0.2))
    margins = [r["margin"] for r in base["reports"] + base["pure_strategy_checks"]]
    flags = [r["via_best_response"] for r in base["reports"] + base["pure_strategy_checks"]]
    assert flags == [True, True, False, True, True, False]
    for m in range(-1018, 1026):
        p = Params(math.ldexp(0.1, m), math.ldexp(0.2, m))
        rep = nash_report(p)
        rows = rep["reports"] + rep["pure_strategy_checks"]
        assert [_bits(r["margin"]) for r in rows] == [_bits(math.ldexp(x, m)) for x in margins], m
        # below about 2^-20 the margins are smaller than nash_tol's absolute
        # part, 1e-10, which then accepts every pure strategy; flags are
        # compared above that
        if m >= -20:
            assert [r["via_best_response"] for r in rows] == flags, m


def _reference_check(p, s):
    """best_response_check's margin, flag and support through strategy_payoff
    over the unit-scale payoff matrix."""
    e, unit = unit_scale(p)
    m = build_payoff_matrix(unit)
    u = [strategy_payoff(m, i, s) for i in range(4)]
    u_bar = sum(si * ui for si, ui in zip(s, u))
    margin = math.ldexp(u_bar - max(u), e)
    support = tuple(name for name, si in zip(STRATEGIES, s) if si > TOL_SIMPLEX)
    return _bits(margin), margin >= -nash_tol(p), support


def test_best_response_check_is_bit_identical_to_strategy_payoff():
    rng = np.random.default_rng(307)
    states = [tuple(float(i == k) for i in range(4)) for k in range(4)]
    states += [tuple(s.tolist()) for s in rng.dirichlet(np.ones(4), 20)]
    states += [tuple(s.tolist()) for s in rng.dirichlet(np.full(4, 0.2), 20)]
    directions = [(0.1, 0.2), (0.2, 0.3), (0.2, 0.1), (-0.1, 0.2), (-0.2, -0.1),
                  (0.3, 0.0), (0.0, -0.3), (0.25, 0.25)]
    points = [Params(math.ldexp(v, k), math.ldexp(c, k))
              for k in range(-1000, 1001, 50) for v, c in directions]
    points += [Params(1e308, 1e308), Params(5e-324, 0.0)]
    for p in points:
        for s in states:
            rep = best_response_check(p, s)
            got = (_bits(rep.margin), rep.via_best_response, rep.support)
            assert got == _reference_check(p, s), (p, s)


def test_tolerance_rounds_as_the_direct_formula_wherever_that_is_finite():
    # above max(|v|, |c|) = 1 nash_tol is evaluated at (v, c) / 2^e;
    # wherever 1e-10 (1 + |v| + |c|) is finite it gives the same bits,
    # and where that overflows it stays finite
    rng = np.random.default_rng(173)
    finite = 0
    for _ in range(4000):
        v, c = (float(s * 2.0 ** x) for s, x in zip(rng.choice((-1.0, 1.0), 2),
                                                    rng.uniform(-1074.0, 1023.9, 2)))
        direct = 1e-10 * (1.0 + abs(v) + abs(c))
        tol = nash_tol(Params(v, c))
        if math.isfinite(direct):
            assert _bits(tol) == _bits(direct), (v, c)
            finite += 1
        else:
            assert math.isfinite(tol) and tol > 0.0, (v, c)
    assert finite > 3000


@pytest.mark.parametrize("big, unit", [((1e308, 1e308), (1.0, 1.0)),
                                       ((1.7e308, 1.7e308), (1.0, 1.0)),
                                       ((1e308, -1e308), (1.0, -1.0))])
def test_pure_flags_where_the_direct_tolerance_overflows(big, unit):
    # 1e-10 (1 + |v| + |c|) is inf at these points, which let every pure
    # strategy pass (DD with margin -5e+307 at (1e308, 1e308))
    assert math.isinf(1e-10 * (1.0 + abs(big[0]) + abs(big[1])))

    def flags(p):
        return [r["via_best_response"] for r in nash_report(Params(*p))["pure_strategy_checks"]]

    assert flags(big) == flags(unit)
