import json
import math
import warnings
from array import array

import numpy as np
import pytest

from hawkdove import (
    TOL_SIMPLEX,
    IntegrationConfig,
    Params,
    Terminal,
    batch_integrate,
    catalog,
    field_3d,
    integrate,
    random_interior_starts,
    simulate_hawk_share,
)
from hawkdove import integrator
from hawkdove.equilibrium_catalog import EquilibriumId
from hawkdove.integrator import (
    CONVERGENCE_EPS,
    _advance,
    _project_rows,
    time_scale,
    trajectory_sidecar,
    write_trajectory_csv,
)
from hawkdove.replicator_field import field_3d_rows

from util import _project, adaptive_integrate


def _same_bits(a, b):
    """Equal shape and identical bytes: tells -0.0 from 0.0, unlike ==."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_start_at_equilibrium_converges_immediately():
    traj = integrate(Params(0.1, 0.25), (0.0, 0.5, 0.5))
    assert traj.terminal is Terminal.CONVERGED
    assert traj.steps == 0
    assert traj.nearest is EquilibriumId.P2
    assert traj.samples.shape == (1, 5)


def test_interior_start_reaches_dove_vertex():
    traj = integrate(Params(-0.1, 0.2), (0.3, 0.3, 0.3))
    assert traj.terminal is Terminal.CONVERGED
    assert traj.nearest is EquilibriumId.P7
    assert np.linalg.norm(traj.samples[-1, 1:4]) < 1e-3


def test_interior_start_reaches_hawk_vertex():
    traj = integrate(Params(0.2, 0.1), (0.3, 0.3, 0.3))
    assert traj.nearest is EquilibriumId.P5
    assert np.linalg.norm(traj.samples[-1, 1:4] - np.array([1.0, 0.0, 0.0])) < 1e-3


def test_invalid_start_raises():
    # a ValueError, as every other rejected input
    with pytest.raises(ValueError, match=r"start #0 \(0.5, 0.6, 0.2\) is off"):
        integrate(Params(0.1, 0.2), (0.5, 0.6, 0.2))
    with pytest.raises(ValueError, match=r"start #0 \(-0.1, 0.5, 0.2\) is off"):
        integrate(Params(0.1, 0.2), (-0.1, 0.5, 0.2))
    with pytest.raises(ValueError, match=r"start #1 \(0.9, 0.9, 0.9\) is off"):
        batch_integrate(Params(0.1, 0.2), [(0.2, 0.3, 0.4), (0.9, 0.9, 0.9)])


def test_config_needs_finite_positive_tolerances_and_t_end():
    # with rtol or atol = inf every error ratio is 0 and every step is accepted
    for name in ("rtol", "atol", "t_end"):
        for bad in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match=f"^{name} must be finite and positive$"):
                IntegrationConfig(**{name: bad}).validate()
    cfg = IntegrationConfig(max_step=math.inf, record_stride=math.inf)
    assert cfg.validate() is cfg


def test_step_size_underflow_reports_failure():
    cfg = IntegrationConfig(max_step=1e-15)
    traj = integrate(Params(0.1, 0.2), (0.2, 0.3, 0.4), cfg)
    assert traj.terminal is Terminal.STEP_FAILURE


def test_face_invariance_is_exact_along_trajectories():
    traj = integrate(Params(0.1, 0.2), (0.3, 0.0, 0.5))
    assert np.all(traj.samples[:, 2] == 0.0)


def test_samples_stay_on_simplex():
    for p in (Params(0.1, 0.2), Params(-0.2, -0.1), Params(0.2, 0.3)):
        for s0 in random_interior_starts(5, seed=3):
            traj = integrate(p, s0)
            t = traj.samples[:, 0]
            assert np.all(np.diff(t) > 0)
            assert traj.samples[:, 1:].min() >= -1e-7
            assert np.abs(traj.samples[:, 1:].sum(axis=1) - 1.0).max() < 1e-7
            # w is recomputed, so shares stay within the simplex tolerance
            assert traj.samples[:, 1:].min() >= -1e-9


def test_bitwise_determinism():
    a = integrate(Params(0.1, 0.2), (0.2, 0.3, 0.4))
    b = integrate(Params(0.1, 0.2), (0.2, 0.3, 0.4))
    assert np.array_equal(a.samples, b.samples)
    assert a.terminal is b.terminal and a.steps == b.steps


def test_batch_matches_individual_calls_and_preserves_order():
    p = Params(0.1, 0.2)
    starts = random_interior_starts(4, seed=11)
    batch = batch_integrate(p, starts)
    singles = [integrate(p, s) for s in starts]
    assert len(batch) == 4
    for got, ref in zip(batch, singles):
        assert np.array_equal(got.samples, ref.samples)
        assert got.nearest == ref.nearest

    # Mixed lanes: converged at step 0 (P2), a y = 0 face start (as -0.0)
    # and interior starts, at a preset, at the (2, 3) preset, whose field is
    # divided by s = 4, at a time limit short enough to end its lanes there,
    # and under a step size that underflows.  Comparing a batch of eight with
    # batches of one and with the scalar driver on the scaled field also
    # checks the ratio ** -0.2 step factor, which a vectorised pow may round
    # differently.  The last three starts need projecting first.
    starts = [(0.0, 0.5, 0.5), (0.3, -0.0, 0.5), *random_interior_starts(3, seed=11),
              (-1e-10, 0.5, 0.5), (-0.0, 0.3, 0.3), (1.000000001, 0.0, 0.0)]
    seen = set()
    for p, cfg in ((Params(0.1, 0.2), IntegrationConfig()),
                   (Params(2.0, 3.0), IntegrationConfig()),
                   (Params(2.0, 3.0), IntegrationConfig(t_end=5.0)),
                   (Params(0.1, 0.2), IntegrationConfig(max_step=1e-15))):
        e, scaled = time_scale(p, cfg.t_end)
        batch = batch_integrate(p, starts, cfg)
        for s0, got in zip(starts, batch):
            alone = integrate(p, s0, cfg)
            assert _same_bits(got.samples, alone.samples)
            assert (got.terminal, got.nearest, got.steps, got.rejected, got.clamp_count) == \
                (alone.terminal, alone.nearest, alone.steps, alone.rejected, alone.clamp_count)

            ref, terminal, (accepted, rejected), clamps = adaptive_integrate(
                lambda y: field_3d(scaled, y), s0, cfg)
            assert (got.terminal, got.steps, got.rejected, got.clamp_count) == \
                (terminal, accepted, rejected, clamps)
            np.testing.assert_allclose(got.samples[-1, 1:4], ref[-1][1], rtol=0, atol=1e-9)
            assert _same_bits(got.samples[:, :4], [(math.ldexp(t, -e), *y) for t, y in ref])
            seen.add(got.terminal)
    assert seen == set(Terminal)


def test_lockstep_and_tail_lanes_are_bit_identical_to_the_reference(monkeypatch):
    # A batch wider than _TAIL_LANES runs in lockstep until few lanes are
    # left and finishes them on the scalar tail stepper; with _TAIL_LANES = 0
    # every lane stays in lockstep, and above the batch size every lane runs
    # in the tail.  Where the handoff falls depends on the rest of the batch,
    # so each lane must match the same start alone and the scalar reference
    # on the scaled field, bit for bit, under every setting.  The mixed lanes
    # of the test above come first: P2 (converged at step 0), a -0.0 face
    # start, and three starts that need projecting.
    starts = [(0.0, 0.5, 0.5), (0.3, -0.0, 0.5), *random_interior_starts(3, seed=11),
              (-1e-10, 0.5, 0.5), (-0.0, 0.3, 0.3), (1.000000001, 0.0, 0.0),
              *random_interior_starts(52, seed=12)]
    assert len(starts) > integrator._TAIL_LANES
    settings = (0, 20, integrator._TAIL_LANES, 10 * len(starts))
    seen = set()
    for p, cfg in ((Params(0.1, 0.2), IntegrationConfig()),
                   (Params(2.0, 3.0), IntegrationConfig()),
                   (Params(2.0, 3.0), IntegrationConfig(t_end=5.0)),
                   (Params(0.1, 0.2), IntegrationConfig(max_step=1e-15)),
                   (Params(2.0, 3.0), IntegrationConfig(t_end=5.0, record_stride=0.5)),
                   (Params(0.1, 0.2), IntegrationConfig(record_stride=25.0))):
        e, scaled = time_scale(p, cfg.t_end)
        alone = [integrate(p, s0, cfg) for s0 in starts]
        for s0, one in zip(starts, alone):
            ref, terminal, (accepted, rejected), clamps = adaptive_integrate(
                lambda y: field_3d(scaled, y), s0, cfg)
            assert (one.terminal, one.steps, one.rejected, one.clamp_count) == \
                (terminal, accepted, rejected, clamps)
            assert _same_bits(one.samples[:, :4], [(math.ldexp(t, -e), *y) for t, y in ref])
            seen.add(terminal)
        for tail_lanes in settings:
            monkeypatch.setattr(integrator, "_TAIL_LANES", tail_lanes)
            for s0, got, one in zip(starts, batch_integrate(p, starts, cfg), alone):
                assert _same_bits(got.samples, one.samples), (p, cfg, tail_lanes, s0)
                assert (got.terminal, got.nearest, got.closest, got.steps, got.rejected,
                        got.clamp_count, got.final_field_norm) == \
                    (one.terminal, one.nearest, one.closest, one.steps, one.rejected,
                     one.clamp_count, one.final_field_norm), (p, cfg, tail_lanes, s0)
    assert seen == set(Terminal)


def test_tail_and_lockstep_agree_where_the_error_terms_are_not_finite(monkeypatch):
    # Steps far too long for the field: at these crafted face states and
    # h = 10^2.5 the first error term is inf and a later one NaN; at the
    # interior state and h = 10^4 all three are NaN.  np.max gives NaN, and
    # a NaN error ratio is a rejection with factor 0.2, as an inf one is, in
    # the lockstep, in the tail and in the reference stepper; a builtin max
    # would keep the inf where it comes first and drop the NaN otherwise.
    # The tail must decide as the lockstep does, step after step, or a lane's
    # bits would depend on where it left its batch, and both must take the
    # reference's steps.  The shrinking h soon gives finite error terms, and
    # every lane reaches t_end within a few hundred steps.  (With h = t_end =
    # 1e300 the interior lane's terms are NaN too, but once its NaN steps are
    # rejected it stalls near P1, ROADMAP item 1, and does not end.)
    p = Params(0.5, 0.75)
    assert time_scale(p, 1.0)[0] == 0          # p is the field that is stepped
    for states, step, t_end in ((((0.5, 0.0, 0.0), (0.2, 0.3, 0.0)), 10 ** 2.5, 2 * 10 ** 2.5),
                                (((0.2, 0.3, 0.4),), 1e4, 1e4)):
        cfg = IntegrationConfig(t_end=t_end, max_step=math.inf)
        y = np.array(states)
        runs = []
        for tail_lanes in (0, len(states)):
            monkeypatch.setattr(integrator, "_TAIL_LANES", tail_lanes)
            bufs = [array("d", (0.0, *row)) for row in states]
            with np.errstate(all="ignore"):
                runs.append(_advance(p, cfg, y.copy(), field_3d_rows(p, y),
                                     np.full(len(y), step), bufs))
        for s0, lockstep, tail in zip(states, *runs):
            assert lockstep[1:] == tail[1:]
            assert _same_bits(lockstep[0], tail[0])
            # the first attempt is rejected, and so is every later one until
            # h has shrunk by 0.2 often enough to give finite error terms
            samples, terminal, accepted, rejected, clamps = lockstep
            assert rejected >= 1 and samples[1, 0] <= 0.2 * step
            assert np.isfinite(samples).all()
            with np.errstate(all="ignore"):
                ref, ref_terminal, ref_steps, ref_clamps = adaptive_integrate(
                    lambda s: field_3d(p, s), s0, cfg, h0=step)
            assert (terminal, (accepted, rejected), clamps) == \
                (ref_terminal, ref_steps, ref_clamps)
            assert _same_bits(samples[:, :4], [(t, *s) for t, s in ref])


def test_power_of_two_scaling_is_bit_exact():
    # At 2^m (v, c) the field divided by s is the same floats, so the shares
    # are bit-identical and t scales by exactly 2^-m, for every terminal.
    starts = [(0.3, -0.0, 0.5), *random_interior_starts(3, seed=19)]
    # (0.3, 0.7) lies off every bifurcation line; at m = 10 it is (307.2, 716.8)
    assert (math.ldexp(0.3, 10), math.ldexp(0.7, 10)) == (307.2, 716.8)
    for p, cfg in ((Params(0.1, 0.2), IntegrationConfig()),
                   (Params(0.3, 0.7), IntegrationConfig()),
                   (Params(-0.2, -0.1), IntegrationConfig()),
                   (Params(2.0, 3.0), IntegrationConfig(t_end=5.0, record_stride=0.5))):
        base = batch_integrate(p, starts, cfg)
        hawk = simulate_hawk_share(p, 0.9, cfg)
        for m in range(-20, 21):
            pm = Params(math.ldexp(p.v, m), math.ldexp(p.c, m))
            for a, b in zip(base, batch_integrate(pm, starts, cfg)):
                assert _same_bits(b.samples[:, 1:], a.samples[:, 1:]), (p, m)
                assert _same_bits(b.samples[:, 0], np.ldexp(a.samples[:, 0], -m)), (p, m)
                assert (b.terminal, b.nearest, b.closest, b.steps, b.rejected,
                        b.clamp_count, b.final_field_norm) == \
                    (a.terminal, a.nearest, a.closest, a.steps, a.rejected,
                     a.clamp_count, a.final_field_norm)
            scaled = simulate_hawk_share(pm, 0.9, cfg)
            assert [z for _, z in scaled] == [z for _, z in hawk], (p, m)
            assert [t for t, _ in scaled] == [math.ldexp(t, -m) for t, _ in hawk], (p, m)


def test_scaled_preset_converges():
    # (1, 2) is ten times the first preset; in dimensionless time its lanes
    # converge as there.  An absolute time limit and threshold end all 60
    # at TimeLimit.
    trajs = batch_integrate(Params(1.0, 2.0), random_interior_starts(60, seed=7))
    converged = [t for t in trajs if t.terminal is Terminal.CONVERGED]
    assert len(converged) >= 59
    assert {t.nearest for t in converged} == {EquilibriumId.P1, EquilibriumId.P4}


def test_every_terminal_records_its_closest_point():
    starts = random_interior_starts(6, seed=5)
    # at c = 0 P3 and P6 are undefined; at (2, 1e-308) v/c overflows to inf
    for p in (Params(0.1, 0.2), Params(0.2, 0.0), Params(-0.2, 0.0), Params(2.0, 1e-308)):
        _, scaled = time_scale(p, IntegrationConfig().t_end)
        for cfg in (IntegrationConfig(), IntegrationConfig(t_end=3.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                trajs = batch_integrate(p, starts, cfg)
            for traj in trajs:
                final = traj.samples[-1, 1:4]
                dists = {rec.id: float(np.linalg.norm(final - np.array(tuple(rec.coords))))
                         for rec in catalog(p) if rec.defined}
                assert traj.closest is min(dists, key=dists.get)
                if p != (0.1, 0.2):
                    assert traj.closest not in (EquilibriumId.P3, EquilibriumId.P6), p
                assert traj.closest_distance == pytest.approx(dists[traj.closest], abs=1e-15)
                assert traj.final_field_norm == max(abs(g) for g in field_3d(scaled, final))
                if traj.terminal is Terminal.CONVERGED:
                    assert traj.final_field_norm < CONVERGENCE_EPS
                    assert traj.nearest is traj.closest
                else:
                    assert traj.terminal is Terminal.TIME_LIMIT and traj.nearest is None
                    assert traj.final_field_norm >= CONVERGENCE_EPS
                side = trajectory_sidecar(traj)
                assert (side["closest_point"], side["closest_distance"],
                        side["final_field_norm"]) == \
                    (traj.closest.value, traj.closest_distance, traj.final_field_norm)


def _projection_cases():
    """(shares, projected shares, fixes)"""
    tol = TOL_SIMPLEX
    # one share, as the 1D oracle steps it: clamped to [0, 1]
    yield (-tol,), (0.0,), 1
    yield (-0.5 * tol,), (0.0,), 1
    yield (-2 * tol,), (-2 * tol,), 0
    yield (1.0 + tol,), (1.0,), 1
    yield (1.0 + 2 * tol,), (1.0 + 2 * tol,), 0
    yield (0.5,), (0.5,), 0
    # three shares: each clamp counts, and the rescale counts once
    yield (-tol, 0.5, -0.5 * tol), (0.0, 0.5, 0.0), 2
    yield (-2 * tol, 0.5, 0.25), (-2 * tol, 0.5, 0.25), 0
    y = (0.5, 0.25, 0.25 + tol)
    total = y[0] + (y[1] + y[2])
    assert 1.0 < total <= 1.0 + tol
    yield y, tuple(t / total for t in y), 1
    y = (-tol, 0.5, 0.5 + 0.5 * tol)
    total = 0.5 + (0.5 + 0.5 * tol)
    yield y, (0.0, 0.5 / total, (0.5 + 0.5 * tol) / total), 2
    y = (0.5, 0.25, 0.25 + 2 * tol)
    yield y, y, 0


def test_projection_clamps_and_rescales_within_the_simplex_tolerance():
    for shares, projected, fixes in _projection_cases():
        assert _project(shares) == (projected, fixes), shares


def test_the_library_projection_matches_the_reference_on_3_share_rows():
    # one share z is the row (z, 0, 0): the same clamp, and z / z for the
    # rescale; every case in one array, as the lockstep projects its lanes
    cases = list(_projection_cases())
    rows = np.array([(*shares, 0.0, 0.0)[:3] for shares, _, _ in cases])
    fixes = _project_rows(rows)
    assert _same_bits(rows, [(*projected, 0.0, 0.0)[:3] for _, projected, _ in cases])
    assert fixes.tolist() == [n for _, _, n in cases]


def test_a_start_just_off_the_simplex_is_projected_before_the_first_step():
    # Left as given, (1 + 1e-9, 0, 0) has w = -1e-9 and drifts further off
    # the simplex, to w = -2.6e-4 at t_end = 50 (TimeLimit); projected, it
    # is the vertex P5, where the field vanishes.
    cfg = IntegrationConfig(t_end=50.0)
    traj = batch_integrate(Params(-1.0, -1e-9), [(1.000000001, 0.0, 0.0)], cfg)[0]
    assert traj.terminal is Terminal.CONVERGED
    assert _same_bits(traj.samples, [[0.0, 1.0, 0.0, 0.0, 0.0]])
    # a share in [-TOL_SIMPLEX, 0) starts at 0.0, as after a step
    traj = batch_integrate(Params(0.1, 0.2), [(-1e-10, 0.5, 0.5)], cfg)[0]
    assert _same_bits(traj.samples[0], [0.0, 0.0, 0.5, 0.5, 0.0])


@pytest.mark.parametrize("v, c", [(5e-324, 1e-323), (1e-308, 2e-308),
                                  (1e300, 2e300), (1e307, 2e307)])
def test_unrepresentable_physical_time_is_rejected(v, c):
    # t = tau / 2^e overflows for tiny (v, c) and is subnormal for huge ones
    with pytest.raises(ValueError, match="cannot be represented"):
        batch_integrate(Params(v, c), [(0.2, 0.3, 0.4)])
    with pytest.raises(ValueError, match="cannot be represented"):
        simulate_hawk_share(Params(v, c), 0.3)


@pytest.mark.parametrize("v, c", [(1e-300, 2e-300), (1e290, 2e290)])
def test_physical_time_is_exact_near_the_ends_of_the_range(v, c):
    e, _ = time_scale(Params(v, c), IntegrationConfig().t_end)
    traj = integrate(Params(v, c), (0.2, 0.3, 0.4))
    hawk = np.array(simulate_hawk_share(Params(v, c), 0.3))
    for t in (traj.samples[:, 0], hawk[:, 0]):
        assert np.all(np.isfinite(t)) and np.all(np.diff(t) > 0)
        assert np.all(np.ldexp(t[1:], e) >= 1e-14)
        assert np.all(t[1:] >= np.finfo(float).tiny)
    assert traj.terminal is Terminal.CONVERGED


def test_swapping_y_and_z_swaps_trajectories_bitwise():
    twin = {EquilibriumId.P1: EquilibriumId.P4, EquilibriumId.P4: EquilibriumId.P1}
    for k, p in enumerate((Params(0.1, 0.2), Params(0.2, 0.3), Params(-0.2, -0.1),
                           Params(1.0, 2.0))):
        starts = random_interior_starts(30, seed=100 + k)
        swapped = [(x, z, y) for x, y, z in starts]
        for a, b in zip(batch_integrate(p, starts), batch_integrate(p, swapped)):
            assert _same_bits(b.samples, a.samples[:, [0, 1, 3, 2, 4]])
            assert (b.terminal, b.steps, b.rejected, b.clamp_count) == \
                (a.terminal, a.steps, a.rejected, a.clamp_count)
            assert b.nearest == twin.get(a.nearest, a.nearest)


def test_batch_empty_and_duplicates():
    assert batch_integrate(Params(0.1, 0.2), []) == []
    dup = batch_integrate(Params(0.1, 0.2), [(0.2, 0.2, 0.2), (0.2, 0.2, 0.2)])
    assert np.array_equal(dup[0].samples, dup[1].samples)


def test_saddle_attracts_nothing_from_interior():
    trajs = batch_integrate(Params(-0.2, -0.1), random_interior_starts(20, seed=7))
    p1 = np.array([0.0, 0.0, 1.0])
    for traj in trajs:
        assert np.linalg.norm(traj.samples[-1, 1:4] - p1) > 1e-3
        assert traj.nearest is not EquilibriumId.P1


def test_terminals_are_stable_nodes_of_the_catalog():
    # interior starts terminate exactly on StableNode catalog points
    from hawkdove import Classification
    for v, c in ((0.1, 0.2), (0.2, 0.3), (0.2, 0.1), (-0.1, 0.2)):
        p = Params(v, c)
        stable = {rec.id for rec in catalog(p)
                  if rec.classification is Classification.STABLE_NODE and rec.in_simplex}
        trajs = batch_integrate(p, random_interior_starts(8, seed=5))
        seen = {traj.nearest for traj in trajs}
        assert seen <= stable
        assert all(t.terminal is Terminal.CONVERGED for t in trajs)


def test_tolerance_refinement_keeps_terminals():
    p = Params(0.1, 0.2)
    starts = random_interior_starts(4, seed=13)
    coarse = batch_integrate(p, starts, IntegrationConfig(rtol=1e-6, atol=1e-9))
    fine = batch_integrate(p, starts, IntegrationConfig(rtol=5e-7, atol=5e-10))
    for a, b in zip(coarse, fine):
        assert a.nearest == b.nearest
        assert np.abs(a.samples[-1, 1:] - b.samples[-1, 1:]).max() < 1e-5


def test_record_stride_thins_samples():
    cfg = IntegrationConfig(record_stride=25.0)
    traj = integrate(Params(0.1, 0.2), (0.2, 0.3, 0.4), cfg)
    gaps = np.diff(traj.samples[:-1, 0])
    assert np.all(gaps >= 25.0 - 1e-9)
    dense = integrate(Params(0.1, 0.2), (0.2, 0.3, 0.4))
    assert len(dense.samples) > len(traj.samples)
    # both end at the same converged state
    np.testing.assert_allclose(dense.samples[-1, 1:], traj.samples[-1, 1:], atol=1e-12)


def test_csv_and_sidecar_round_trip(tmp_path):
    traj = integrate(Params(0.1, 0.2), (0.2, 0.3, 0.4))
    csv = tmp_path / "traj.csv"
    write_trajectory_csv(traj, csv)
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,x,y,z,w"
    parsed = np.array([[float(t) for t in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed, traj.samples)

    payload = json.loads(json.dumps(trajectory_sidecar(traj)))
    assert payload == trajectory_sidecar(traj)
    assert payload["terminal"] == "ConvergedToEquilibrium"
    assert payload["nearest_equilibrium"] in {"P1", "P4"}


def test_random_interior_starts_deterministic_and_interior():
    a = random_interior_starts(10, seed=21)
    b = random_interior_starts(10, seed=21)
    assert a == b
    assert random_interior_starts(0, seed=21) == []
    for s in a:
        assert min(s) > 0
        assert sum(s) < 1.0


@pytest.mark.parametrize("n, seed", [(-3, 21), (2, -1)])
def test_random_interior_starts_reject_negative_count_or_seed(n, seed):
    with pytest.raises(ValueError):
        random_interior_starts(n, seed=seed)
