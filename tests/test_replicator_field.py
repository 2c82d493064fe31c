import numpy as np
import pytest

from hawkdove import (Params, batch_integrate, consistency_residual, field_3d, field_4d, lift,
                      random_interior_starts)

from util import rand_params, rand_reduced, rand_simplex4


def test_pure_dh_is_equilibrium_of_4d_field():
    for p in (Params(0.1, 0.2), Params(-0.7, 0.4), Params(1.3, -2.1)):
        assert field_4d(p, (0, 0, 1, 0)) == (0.0, 0.0, 0.0, 0.0)


def test_zero_game_has_zero_field():
    assert field_4d(Params(0.0, 0.0), (0.25, 0.25, 0.25, 0.25)) == (0.0, 0.0, 0.0, 0.0)


def test_golden_value_half_hh_half_hd():
    # frozen by hand: average payoff vanishes and the rates are +-1/160
    dx, dy, dz, dw = field_4d(Params(0.1, 0.2), (0.5, 0.5, 0.0, 0.0))
    assert dx == pytest.approx(-0.00625, abs=1e-12)
    assert dy == pytest.approx(0.00625, abs=1e-12)
    assert dz == 0.0
    assert dw == 0.0


def test_3d_equilibria_examples():
    for p in (Params(0.1, 0.2), Params(-0.5, -0.3), Params(0.9, 1.7)):
        assert field_3d(p, (0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)
        dx, dy, dz = field_3d(p, (0.0, 0.5, 0.5))
        assert (dx, dy, dz) == (0.0, 0.0, 0.0)
    assert field_3d(Params(0.1, 0.2), (0.5, 0.0, 0.0)) == (0.0, 0.0, 0.0)


def test_consistency_residual_examples():
    assert consistency_residual(Params(0.4, -0.9), (0.0, 0.0, 0.0)) == 0.0
    assert consistency_residual(Params(0.2, 0.3), (0.2, 0.3, 0.1)) < 1e-12


def test_consistency_residual_property():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        p = rand_params(rng)
        s = rand_reduced(rng)
        worst = max(worst, consistency_residual(p, s))
    assert worst < 1e-12


def test_face_invariance_is_exact():
    rng = np.random.default_rng(23)
    for _ in range(250):
        p = rand_params(rng)
        x, y, z, w = rand_simplex4(rng)
        rest = 1.0 - y - z
        assert field_3d(p, (0.0, y, z))[0] == 0.0
        assert field_3d(p, (x, 0.0, z))[1] == 0.0
        assert field_3d(p, (x, y, 0.0))[2] == 0.0
        assert field_4d(p, (0.0, y, z, rest))[0] == 0.0
        assert field_4d(p, (x, y, z, 0.0))[3] == 0.0


def test_sum_conservation_on_simplex():
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(1000):
        p = rand_params(rng)
        s = rand_simplex4(rng)
        worst = max(worst, abs(sum(field_4d(p, s))))
    assert worst < 1e-12


def test_y_z_swap_symmetry_is_bitwise():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        p = rand_params(rng)
        x, y, z = rand_reduced(rng)
        dx, dy, dz = field_3d(p, (x, y, z))
        sx, sy, sz = field_3d(p, (x, z, y))
        assert (sx, sy, sz) == (dx, dz, dy)


def test_scaling_covariance():
    rng = np.random.default_rng(37)
    p = Params(0.21, -0.43)
    for _ in range(100):
        s = rand_reduced(rng)
        base = field_3d(p, s)
        doubled = field_3d(Params(2 * p.v, 2 * p.c), s)
        assert doubled == tuple(2 * t for t in base)   # power of two: exact
        k = float(rng.uniform(0.1, 10))
        scaled = field_3d(Params(k * p.v, k * p.c), s)
        np.testing.assert_allclose(scaled, [k * t for t in base], rtol=1e-13, atol=1e-18)


def test_lift_recomputes_w():
    assert lift((0.2, 0.3, 0.4)) == (0.2, 0.3, 0.4, pytest.approx(0.1, abs=1e-15))
    # one w, 1 - x - (y + z): the same bits with y and z swapped, and the
    # same bits as the w column of every trajectory sample
    rng = np.random.default_rng(23)
    for _ in range(10_000):
        x, y, z = rand_reduced(rng)
        assert lift((x, y, z))[3].hex() == lift((x, z, y))[3].hex()
    for traj in batch_integrate(Params(0.1, 0.2), random_interior_starts(100, seed=1)):
        for _t, x, y, z, w in traj.samples.tolist():
            assert lift((x, y, z))[3].hex() == w.hex()
