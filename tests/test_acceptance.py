"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion N] ... PASS/FAIL` line (visible with
`pytest -s` or in captured output on failure) and enforces the stated
runtime budget where one is given.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from hawkdove import (
    Classification,
    IntegrationConfig,
    Params,
    Terminal,
    batch_integrate,
    best_response_check,
    catalog,
    consistency_residual,
    detect_transitions,
    eigenvalues,
    f_prime,
    field_3d,
    field_4d,
    jacobian,
    nash_via_stability,
    random_interior_starts,
    scan,
    simulate_hawk_share,
)
from hawkdove.bifurcation import DEFAULT_GRID, LineId
from hawkdove.equilibrium_catalog import (
    CODE_BY_CLASS,
    EquilibriumId,
    region_predicate,
)
from hawkdove.game_core import build_payoff_matrix, strategy_payoff

from util import closed_form_eigs, multiset_close, rand_params, rand_reduced, rand_simplex4

FIG_PARAMS = {
    "fig1": Params(0.1, 0.2),
    "fig2": Params(0.2, 0.3),
    "fig3": Params(0.2, 0.1),
    "fig4": Params(-0.1, 0.2),
    "fig5": Params(-0.2, -0.1),
}
SEED = 7


@contextmanager
def criterion(number, description, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {description}: FAIL "
              f"({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    print(f"[criterion {number}] {description}: PASS ({elapsed:.2f}s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeded budget {budget_s}s"


def test_criterion_1_eigenvalue_reproduction():
    rng = np.random.default_rng(2024)
    with criterion(1, "eigenvalue closed-form reproduction at P1..P7", budget_s=1.0):
        for _ in range(50):
            p = rand_params(rng, c_min=1e-3)
            for rec in catalog(p):
                assert rec.defined
                eigs = eigenvalues(jacobian(p, rec.coords))
                expected = closed_form_eigs(rec.id.value, p.v, p.c)
                assert multiset_close(eigs, expected, 1e-9), (rec.id, p, tuple(eigs))


def test_criterion_2_region_predicate_reproduction():
    rng = np.random.default_rng(2025)
    mismatches = []
    with criterion(2, "region-predicate reproduction off the four lines", budget_s=5.0):
        for _ in range(200):
            p = rand_params(rng, line_margin=1e-3)
            for rec in catalog(p):
                if not rec.defined:
                    continue
                claimed = region_predicate(rec.id, p)
                if claimed is not None and rec.classification is not claimed:
                    mismatches.append((rec.id.value, tuple(p),
                                       rec.classification.value, claimed.value))
        if mismatches:
            for m in mismatches:
                print(f"  MISMATCH {m}")
        assert mismatches == []


@pytest.mark.parametrize("fig,expected", [
    ("fig1", {"P1", "P4"}),
    ("fig2", {"P1", "P4"}),
    ("fig3", {"P5"}),
    ("fig4", {"P7"}),
])
def test_criterion_3_figure_terminals(fig, expected):
    p = FIG_PARAMS[fig]
    targets = {eq: np.array(tuple(rec.coords))
               for rec in catalog(p) for eq in [rec.id] if rec.defined}
    with criterion(3, f"{fig} terminal histogram at (v={p.v}, c={p.c})", budget_s=30.0):
        trajs = batch_integrate(p, random_interior_starts(20, seed=SEED))
        seen = set()
        for traj in trajs:
            assert traj.terminal is Terminal.CONVERGED
            final = traj.samples[-1, 1:4]
            hits = {eq.value for eq, pt in targets.items()
                    if np.linalg.norm(final - pt) < 1e-3}
            assert hits & expected, (fig, final)
            seen |= hits & expected
        assert seen == expected, f"{fig}: terminals {seen} != expected {expected}"


def test_criterion_3e_saddle_attracts_no_interior_trajectory():
    p = FIG_PARAMS["fig5"]
    p1 = np.array([0.0, 0.0, 1.0])
    with criterion(3, "fig5 saddle check: no interior trajectory ends at P1",
                   budget_s=30.0):
        trajs = batch_integrate(p, random_interior_starts(20, seed=SEED))
        hits = sum(1 for t in trajs if np.linalg.norm(t.samples[-1, 1:4] - p1) < 1e-3)
        assert hits == 0


def test_criterion_4_nash_enumeration():
    expected_supports = {
        (0.1, 0.2): {("DH",), ("HD",)},
        (0.2, 0.1): {("HH",)},
        (-0.1, 0.2): {("DD",)},
        (-0.1, -0.3): {("HH",), ("DD",)},
    }
    with criterion(4, "Nash enumeration via stability + best-response oracle"):
        for (v, c), supports in expected_supports.items():
            reports = nash_via_stability(Params(v, c))
            assert {r.support for r in reports} == supports, (v, c)
            for r in reports:
                assert r.via_best_response
                assert r.margin >= -1e-10


def test_criterion_5_reduction_consistency():
    rng = np.random.default_rng(2026)
    with criterion(5, "4D/3D field residual over 1000 random states"):
        worst = 0.0
        for _ in range(1000):
            p = rand_params(rng)
            s = rand_reduced(rng)
            worst = max(worst, consistency_residual(p, s))
        print(f"  max residual: {worst:.3e}")
        assert worst < 1e-12


def test_criterion_6_jacobian_correctness():
    rng = np.random.default_rng(2027)
    with criterion(6, "analytic vs central-difference Jacobian at 500 samples"):
        worst = 0.0
        for _ in range(500):
            p = rand_params(rng, c_min=0.02)
            s = np.array(rand_reduced(rng))
            j = jacobian(p, s)
            h = 1e-6 * max(1.0, float(np.linalg.norm(s)))
            jfd = np.empty((3, 3))
            for col in range(3):
                e = np.zeros(3)
                e[col] = h
                jfd[:, col] = (np.array(field_3d(p, s + e))
                               - np.array(field_3d(p, s - e))) / (2 * h)
            worst = max(worst, np.abs(j - jfd).max() / max(np.abs(j).max(), 1e-12))
        print(f"  max relative error: {worst:.3e}")
        assert worst < 1e-5


def test_criterion_7_two_strategy_oracle():
    rng = np.random.default_rng(2028)
    with criterion(7, "1D derivative closed forms + convergence to v/c"):
        for _ in range(100):
            p = rand_params(rng, c_min=1e-3)
            v, c = p
            assert abs(f_prime(p, 0.0) - v / 2) < 1e-12
            assert abs(f_prime(p, 1.0) - (c - v) / 2) < 1e-12
            assert abs(f_prime(p, v / c) - v * (v - c) / (2 * c)) < 1e-12
        samples = simulate_hawk_share(Params(0.1, 0.2), 0.9)
        assert abs(samples[-1][1] - 0.5) < 1e-6


def test_criterion_8_bifurcation_map():
    with criterion(8, "201x201 region map: runtime, attribution, P5 half-plane",
                   budget_s=10.0):
        m = scan(DEFAULT_GRID)
        assert [bl.id for bl in detect_transitions(m)] == list(LineId)
        k5 = list(EquilibriumId).index(EquilibriumId.P5)
        vv, cc = np.meshgrid(m.v_values, m.c_values, indexing="ij")
        stable = m.codes[k5] == CODE_BY_CLASS[Classification.STABLE_NODE]
        assert np.array_equal(stable, cc < vv)


def test_criterion_9_property_suites():
    rng = np.random.default_rng(2029)
    with criterion(9, "five property suites, 1000 randomized cases each"):
        # face invariance
        for _ in range(1000):
            p = rand_params(rng)
            x, y, z, w = rand_simplex4(rng)
            assert field_3d(p, (0.0, y, z))[0] == 0.0
            assert field_3d(p, (x, 0.0, z))[1] == 0.0
            assert field_3d(p, (x, y, 0.0))[2] == 0.0
        # sum conservation
        for _ in range(1000):
            p = rand_params(rng)
            assert abs(sum(field_4d(p, rand_simplex4(rng)))) < 1e-12
        # y<->z swap symmetry
        for _ in range(1000):
            p = rand_params(rng)
            x, y, z = rand_reduced(rng)
            dx, dy, dz = field_3d(p, (x, y, z))
            assert field_3d(p, (x, z, y)) == (dx, dz, dy)
        # scaling covariance (power of two: exact)
        for _ in range(1000):
            p = rand_params(rng)
            s = rand_reduced(rng)
            base = field_3d(p, s)
            assert field_3d(Params(2 * p.v, 2 * p.c), s) == tuple(2 * t for t in base)
        # average payoff closed form vs weighted definition
        for _ in range(1000):
            p = rand_params(rng)
            s = rand_simplex4(rng)
            m = build_payoff_matrix(p)
            weighted = sum(si * strategy_payoff(m, i, s) for i, si in enumerate(s))
            from hawkdove import average_payoff
            assert abs(average_payoff(p, s) - weighted) < 1e-12
