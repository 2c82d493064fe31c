import math

import numpy as np
import pytest

from hawkdove import (
    DD,
    DH,
    HD,
    HH,
    Params,
    STRATEGIES,
    average_payoff,
    build_payoff_matrix,
    strategy_payoff,
)
from hawkdove.game_core import on_simplex, require_simplex, unit_scale
from hawkdove.replicator_field import on_reduced_simplex

from util import rand_params, rand_simplex4


def test_zero_parameters_give_zero_matrix():
    m = build_payoff_matrix(Params(0.0, 0.0))
    assert isinstance(m, np.ndarray) and m.shape == (4, 4)
    assert not m.flags.writeable
    assert np.all(m == 0.0)


def test_table_entries_at_small_parameters():
    m = build_payoff_matrix(Params(0.1, 0.2))
    assert m[HH, HH] == pytest.approx(-0.05, abs=1e-15)
    assert m[HH, DD] == pytest.approx(0.1, abs=1e-15)
    assert m[DD, HH] == 0.0


def test_entries_with_v_minus_c_vanish_at_v_equals_c():
    m = build_payoff_matrix(Params(2.0, 2.0))
    assert m[HH, HH] == 0.0
    assert m[HD, HH] == 0.0


def test_diagonal_and_exchange_structure():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = rand_params(rng)
        m = build_payoff_matrix(p)
        v, c = p
        assert m[HH, HH] == pytest.approx((v - c) / 2, rel=1e-15, abs=1e-15)
        for i in (HD, DH, DD):
            assert m[i, i] == pytest.approx(v / 2, rel=1e-15, abs=1e-15)
        assert m[HD, DH] == m[DH, HD] == pytest.approx((2 * v - c) / 4, rel=1e-15, abs=1e-15)


def test_strategy_payoff_reads_off_columns():
    # pure-DD population: HH earns the full resource
    for p in (Params(0.1, 0.2), Params(-0.4, 0.7), Params(2.0, -1.0)):
        m = build_payoff_matrix(p)
        assert strategy_payoff(m, HH, (0, 0, 0, 1)) == pytest.approx(p.v, abs=1e-15)


def test_strategy_payoff_uniform_state_is_row_mean():
    m = build_payoff_matrix(Params(0.1, 0.2))
    got = strategy_payoff(m, DD, (0.25, 0.25, 0.25, 0.25))
    assert got == pytest.approx(0.025, abs=1e-15)


def test_strategy_payoff_zero_game():
    m = build_payoff_matrix(Params(0.0, 0.0))
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = rand_simplex4(rng)
        for i in range(4):
            assert strategy_payoff(m, i, s) == 0.0


def test_strategy_payoff_accepts_names():
    m = build_payoff_matrix(Params(0.3, 0.1))
    s = (0.4, 0.3, 0.2, 0.1)
    for i, name in enumerate(STRATEGIES):
        assert strategy_payoff(m, name, s) == strategy_payoff(m, i, s)
    with pytest.raises(ValueError):
        strategy_payoff(m, "XX", s)


def test_average_payoff_closed_form_examples():
    p = Params(0.37, -0.81)
    assert average_payoff(p, (0, 0, 0, 1)) == pytest.approx(p.v / 2, abs=1e-15)
    assert average_payoff(p, (1, 0, 0, 0)) == pytest.approx((p.v - p.c) / 2, abs=1e-15)
    assert average_payoff(Params(0.0, 0.9), (0, 0, 1, 0)) == 0.0


def test_average_payoff_equals_weighted_strategy_payoffs():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        p = rand_params(rng)
        s = rand_simplex4(rng)
        m = build_payoff_matrix(p)
        weighted = sum(si * strategy_payoff(m, i, s) for i, si in enumerate(s))
        worst = max(worst, abs(average_payoff(p, s) - weighted))
    assert worst < 1e-12


def test_payoff_homogeneity():
    rng = np.random.default_rng(7)
    p = Params(0.23, -0.57)
    base = build_payoff_matrix(p)
    # powers of two scale without rounding, so equality is exact
    for k in (2.0, 0.5, 8.0):
        scaled = build_payoff_matrix(Params(k * p.v, k * p.c))
        assert np.array_equal(scaled, k * base)
    for _ in range(20):
        k = float(rng.uniform(0.1, 10))
        scaled = build_payoff_matrix(Params(k * p.v, k * p.c))
        np.testing.assert_allclose(scaled, k * base, rtol=1e-14, atol=0)


def test_hd_dh_relabeling_symmetry():
    rng = np.random.default_rng(13)
    swap = [HH, DH, HD, DD]
    for _ in range(200):
        p = rand_params(rng)
        m = build_payoff_matrix(p)
        x, y, z, w = rand_simplex4(rng)
        swapped_state = (x, z, y, w)
        for i in range(4):
            assert strategy_payoff(m, swap[i], swapped_state) == pytest.approx(
                strategy_payoff(m, i, (x, y, z, w)), rel=1e-15, abs=1e-15)


def test_simplex_membership():
    assert on_simplex((0.25, 0.25, 0.25, 0.25))
    assert on_simplex((1, 0, 0, 0))
    assert on_simplex((1 + 5e-10, -5e-10, 0, 0))   # within tolerance
    assert not on_simplex((0.5, 0.5, 0.5, -0.5))
    assert not on_simplex((0.3, 0.3, 0.3, 0.3))
    assert not on_simplex((float("nan"), 0, 0, 1))
    # a NaN or an infinite share, in any slot, and finite shares whose sum
    # overflows are off both simplices
    for bad in (math.nan, math.inf, -math.inf):
        for k in range(4):
            assert not on_simplex([bad if i == k else 0.25 for i in range(4)])
        for k in range(3):
            assert not on_reduced_simplex([bad if i == k else 0.25 for i in range(3)])
    assert not on_simplex((1e308, 1e308, 0.0, 0.0))
    assert not on_reduced_simplex((1e308, 1e308, 0.0))
    with pytest.raises(ValueError):
        require_simplex((0.5, 0.5, 0.5, 0.5))


def test_params_must_be_finite():
    with pytest.raises(ValueError):
        Params(float("inf"), 0.0).validate()
    with pytest.raises(ValueError):
        build_payoff_matrix(Params(0.0, float("nan")))


def test_unit_scale_divides_by_an_exact_power_of_two():
    assert unit_scale(Params(0.0, 0.0)) == (0, Params(0.0, 0.0))
    for v, c in ((0.1, 0.2), (-3.0, 0.0), (0.0, 0.75), (1e308, -1e308), (5e-324, 1e-323)):
        e, unit = unit_scale(Params(v, c))
        assert 0.5 <= max(abs(unit.v), abs(unit.c)) < 1.0
        assert (math.ldexp(unit.v, e), math.ldexp(unit.c, e)) == (v, c)
