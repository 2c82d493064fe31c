import math

import numpy as np
import pytest

from hawkdove import (Params, catalog, classify_1d, correspondence, f, f_prime, integrate,
                      simulate_hawk_share)
from hawkdove.equilibrium_catalog import EquilibriumId
from hawkdove.game_core import TOL_SIMPLEX
from hawkdove.integrator import IntegrationConfig, Terminal, integrate_hawk_share, time_scale
from hawkdove.linear_analysis import zero_tol
from hawkdove.two_strategy import equilibria_1d, two_strategy_payoff_matrix

from util import adaptive_integrate, rand_params


def test_boundary_shares_are_equilibria():
    for p in (Params(0.1, 0.2), Params(-0.8, 0.3), Params(1.2, -0.4)):
        assert f(p, 0.0) == 0.0
        assert f(p, 1.0) == 0.0


def test_interior_equilibrium_at_value_cost_ratio():
    assert f(Params(0.1, 0.2), 0.5) == 0.0


def test_field_value_example():
    assert f(Params(0.1, 0.2), 0.25) == pytest.approx(0.0046875, abs=1e-15)


def test_derivative_closed_forms():
    rng = np.random.default_rng(89)
    for _ in range(100):
        p = rand_params(rng, c_min=1e-3)
        v, c = p
        assert f_prime(p, 0.0) == pytest.approx(v / 2, rel=1e-12, abs=1e-15)
        assert f_prime(p, 1.0) == pytest.approx((c - v) / 2, rel=1e-12, abs=1e-15)
        assert f_prime(p, v / c) == pytest.approx(v * (v - c) / (2 * c), rel=1e-10, abs=1e-12)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(97)
    h = 1e-6
    for _ in range(100):
        p = rand_params(rng)
        z = float(rng.random())
        fd = (f(p, z + h) - f(p, z - h)) / (2 * h)
        assert abs(f_prime(p, z) - fd) < 1e-8


def test_expanded_polynomial_equals_factored_form():
    rng = np.random.default_rng(103)
    for _ in range(100):
        p = rand_params(rng, c_min=1e-3)
        v, c = p
        z = float(rng.random())
        factored = (c / 2) * z * (1 - z) * (v / c - z)
        assert abs(f(p, z) - factored) < 1e-13


def test_zero_cost_limit_form():
    p = Params(0.4, 0.0)
    assert equilibria_1d(p) == [0.0, 1.0]
    z = 0.3
    assert f(p, z) == pytest.approx(0.5 * p.v * z * (1 - z), abs=1e-15)


def test_classification_examples():
    tags = dict(classify_1d(Params(0.1, 0.2)))
    assert tags[0.0] == "unstable"
    assert tags[1.0] == "unstable"
    assert tags[0.5] == "stable"

    tags = dict(classify_1d(Params(-0.1, 0.2)))
    assert tags[0.0] == "stable"

    tags = dict(classify_1d(Params(0.0, 0.7)))
    assert tags[0.0] == "degenerate"


def test_classification_is_scale_invariant():
    # f' scales with (v, c), and so does the zero threshold
    rng = np.random.default_rng(109)
    points = [rand_params(rng) for _ in range(50)]
    # f'(0) = v/2 ~ 3e-10 here: tiny, but 3e-5 of |c|, so not zero
    points += [Params(5.835999547248717e-10, -1.0093705543271672e-05),
               Params(0.0, 0.7), Params(0.3, 0.3), Params(0.3, 0.0)]
    for p in points:
        base = [tag for _, tag in classify_1d(p)]
        for e in range(-12, 10):
            k = 10.0 ** e
            assert [tag for _, tag in classify_1d(Params(k * p.v, k * p.c))] == base, (p, k)


def test_classification_consistent_with_derivative_sign():
    rng = np.random.default_rng(107)
    for _ in range(100):
        p = rand_params(rng, c_min=1e-3, line_margin=1e-3)
        for z, tag in classify_1d(p):
            fp = f_prime(p, z)
            if tag == "stable":
                assert fp < 0
            elif tag == "unstable":
                assert fp > 0


def test_correspondence_mapping():
    entries = {e.label: e for e in correspondence(Params(0.1, 0.2))}
    assert entries["z=0"].matches == (EquilibriumId.P7,)
    assert entries["z=v/c"].matches == (EquilibriumId.P1, EquilibriumId.P4)
    assert entries["z=v/c"].z == pytest.approx(0.5)
    assert entries["z=1"].matches == ()          # unmapped
    assert correspondence(Params(0.3, 0.0))[1].z is None


def test_field_derives_from_two_strategy_payoffs():
    # independent oracle: share * (payoff of H - average payoff)
    rng = np.random.default_rng(109)
    for _ in range(200):
        p = rand_params(rng)
        m = two_strategy_payoff_matrix(p)
        z = float(rng.random())
        pi_h = m[0, 0] * z + m[0, 1] * (1 - z)
        pi_d = m[1, 0] * z + m[1, 1] * (1 - z)
        pibar = z * pi_h + (1 - z) * pi_d
        assert f(p, z) == pytest.approx(z * (pi_h - pibar), abs=1e-15)


def test_simulation_converges_to_interior_share():
    samples = simulate_hawk_share(Params(0.1, 0.2), 0.9)
    assert abs(samples[-1][1] - 0.5) < 1e-6
    ts = [t for t, _ in samples]
    assert ts == sorted(ts)


def _bits(samples):
    """(t, z) samples as hex strings: tells -0.0 from 0.0, and a NaN equals a NaN."""
    return [(t.hex(), z.hex()) for t, z in samples]


def test_scalar_kernel_is_bit_identical_to_the_reference_stepper():
    # v = c, c = 0, v = 0, c = 2v and off every line, each with both signs,
    # at magnitudes 2^-1000 .. 2^960, stepped at time_scale's (v, c) as the
    # oracle steps them; every start the oracle accepts, with starts that
    # need projecting first at both ends of [0, 1], and starts just beyond
    # the tolerance, left alone until a step brings them within it and
    # clamps them there; a run that converges, one that hits the time limit
    # (t_end = 5), one whose step underflows (max_step = 1e-15), and runs
    # with and without a stride
    bases = [(1.0, 1.0), (0.7, 0.0), (0.0, 0.7), (0.3, 0.6), (0.3, 0.7), (-0.45, 0.2),
             (-1.0, -1.0), (-0.7, 0.0), (0.0, -0.7), (-0.3, -0.6), (0.8, -0.1)]
    configs = (IntegrationConfig(), IntegrationConfig(t_end=5.0),
               IntegrationConfig(max_step=1e-15),
               IntegrationConfig(t_end=3.0, record_stride=0.5),
               IntegrationConfig(record_stride=7.0))
    rng = np.random.default_rng(131)
    seen, rejected, clamps = set(), 0, 0
    for k in range(-1000, 961, 490):
        for bv, bc in bases:
            p = Params(math.ldexp(bv, k), math.ldexp(bc, k))
            for z0 in (0.0, 1.0, -TOL_SIMPLEX, 1.0 + TOL_SIMPLEX, float(rng.random()),
                       -5e-10, 1.0 + 5e-10, -2 * TOL_SIMPLEX, 1.0 + 2 * TOL_SIMPLEX):
                for cfg in configs:
                    _e, scaled = time_scale(p, cfg.t_end)
                    ref, terminal, steps, n_clamped = adaptive_integrate(
                        lambda s: (f(scaled, s[0]),), (z0,), cfg)
                    got, got_terminal, got_steps, got_clamped = integrate_hawk_share(
                        scaled.v, scaled.c, z0, cfg)
                    assert _bits(got) == _bits([(t, y[0]) for t, y in ref]), (p, z0, cfg)
                    assert (got_terminal, got_steps, got_clamped) == \
                        (terminal, steps, n_clamped), (p, z0, cfg)
                    seen.add(terminal)
                    rejected += steps[1]
                    clamps += n_clamped
    assert seen == set(Terminal)
    assert rejected > 0 and clamps > 0


def test_simulation_rejects_bad_start():
    with pytest.raises(ValueError):
        simulate_hawk_share(Params(0.1, 0.2), 1.5)


def test_a_share_just_outside_the_unit_interval_is_projected_before_the_first_step():
    # Left as given, z0 = 1 + 1e-9 drifts away from z = 1, to 1.00026 at
    # t_end = 50; projected, it starts on the equilibrium z = 1.
    cfg = IntegrationConfig(t_end=50.0)
    assert simulate_hawk_share(Params(-1.0, -1e-9), 1.000000001, cfg) == [(0.0, 1.0)]
    assert simulate_hawk_share(Params(0.1, 0.2), -1e-10, cfg) == [(0.0, 0.0)]


@pytest.mark.parametrize("v, c", [(0.1, 0.3), (0.3, 0.7), (2.0, 3.0), (1e-4, 3e-4)])
@pytest.mark.parametrize("z0", [0.9, 0.05])
def test_1d_oracle_follows_the_full_system_on_the_hh_dd_edge(v, c, z0):
    # y = z = 0 (only HH and DD present) is invariant, and there the full
    # field's x component is the 1D rate at z = x
    p = Params(v, c)
    samples = simulate_hawk_share(p, z0)
    traj = integrate(p, (z0, 0.0, 0.0))
    assert len(samples) == len(traj.samples)
    assert not traj.samples[:, 2:4].any()
    assert abs(samples[-1][1] - traj.samples[-1, 1]) <= 1e-9


# On the HH-DD edge (y = z = 0) the 1D equilibria are catalog points, and
# f' there is the catalog eigenvalue along the edge.
_EDGE_POINTS = {"z=0": EquilibriumId.P7, "z=1": EquilibriumId.P5, "z=v/c": EquilibriumId.P6}


def _edge_eigenvalue(p, eq):
    """The catalog's eigenvalue of ``eq`` along the HH-DD edge: the largest
    in magnitude (v/2 of P7, (c-v)/2 of P5, v(v-c)/(2c) of P6).  Where it
    overflows (the catalog then reports the point Undefined), it is read
    at (v, c) / 2^e with e = frexp(max(|v|, |c|))[1]: dividing by a power
    of two is exact and keeps its sign."""
    rec = {r.id: r for r in catalog(p)}[eq]
    lam = max(rec.eigenvalues, key=abs)
    if math.isfinite(lam):
        return lam, zero_tol(*p)
    e = math.frexp(max(abs(p.v), abs(p.c)))[1]
    unit = Params(math.ldexp(p.v, -e), math.ldexp(p.c, -e))
    rec = {r.id: r for r in catalog(unit)}[eq]
    return max(rec.eigenvalues, key=abs), zero_tol(*unit)


def test_1d_tags_are_the_signs_of_the_catalog_edge_eigenvalues():
    rng = np.random.default_rng(311)
    checked = 0
    for k in range(-300, 309, 4):               # magnitudes 1e-300 .. 1e308
        r = 10.0 ** k
        for _ in range(3):
            s = float(rng.choice((-1.0, 1.0)))
            theta = float(rng.uniform(0.0, 2.0 * np.pi))
            points = (Params(s * r, s * r),                         # v = c
                      Params(0.0, s * r),                           # v = 0
                      Params(s * r / 2, s * r),                     # c = 2v
                      Params(r * math.cos(theta), r * math.sin(theta)))
            for p in points:
                tagged = classify_1d(p)             # z = 0, 1 and, if c != 0, v/c
                assert len(tagged) == (3 if p.c != 0 else 2), p
                for label, (_z, tag) in zip(("z=0", "z=1", "z=v/c"), tagged):
                    lam, tol = _edge_eigenvalue(p, _EDGE_POINTS[label])
                    assert math.isfinite(lam), (p, label)
                    want = ("degenerate" if abs(lam) <= tol
                            else "stable" if lam < 0 else "unstable")
                    assert tag == want, (p, label, lam)
                    checked += 1
    assert checked > 5000


@pytest.mark.parametrize("v, c, tags", [
    (1e308, 1e308, ["unstable", "degenerate", "degenerate"]),
    (1.0, 1.0, ["unstable", "degenerate", "degenerate"]),
    (1e308, -1e308, ["unstable", "stable", "stable"]),
    (5e-324, 1e-323, ["unstable", "unstable", "stable"]),
    (0.5, 1.0, ["unstable", "unstable", "stable"]),
    # v/c overflows: f'(v/c) has the sign of (v/c)(v - c)
    (1e300, -1e-300, ["unstable", "stable", "stable"]),
    (-1e300, -1e-300, ["stable", "unstable", "stable"]),
    (1.0, -1e-320, ["unstable", "stable", "stable"]),
    (-1.0, -1e-320, ["stable", "unstable", "stable"]),
    (1e300, 1e-300, ["unstable", "stable", "unstable"]),
    # v/c = -1.7e308 is finite, but 2vz and 3cz^2 overflow
    (0.99, -0.99 / 1.7e308, ["unstable", "stable", "stable"]),
])
def test_1d_tags_at_both_ends_of_the_float_range(v, c, tags):
    # f' is evaluated at (v, c) / 2^e: 2v no longer overflows at 1e308
    # (inf * 0 gave NaN, read as unstable), and the subnormal pair keeps
    # its bits instead of falling under the zero threshold; where the
    # expanded f' at z = v/c is inf - inf, the tag comes from z(v - c)/2
    assert [t for _, t in classify_1d(Params(v, c))] == tags
