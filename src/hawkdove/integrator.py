"""Adaptive trajectory integration of the reduced replicator field.

A Dormand-Prince 5(4) embedded explicit pair drives the stepping
(Dormand & Prince 1980; Hairer, Norsett & Wanner, *Solving ODEs I*,
II.4): the fifth-order solution is propagated and the fourth-order
difference gives the local error estimate, kept below
atol + rtol * |state| per step.  A step is accepted only where its error
ratio is at most 1: a NaN ratio, from a step so long that a stage
overflows, is a rejection, and the step is retried 0.2 times as long, as
for any ratio of 4.5^5 (about 1,845) or more.  The field is a cubic
polynomial with moderate Lipschitz constants at desk scale, so an
explicit pair is ample.

``batch_integrate`` and the 1D oracle step in dimensionless time tau = s t
on the field divided by s = 2^e, the power of two with max(|v|, |c|) in
[s/2, s) (s = 1 at the origin): see ``time_scale``.  Dividing by a power
of two is exact, so at 2^m (v, c) a trajectory's shares come out bit for
bit the same and its physical time t = tau / s, the time that is
recorded, scales by exactly 2^-m.

``batch_integrate`` advances every start at once in ``_lockstep``, one
lane per row of (N, 3) NumPy arrays.  Each lane keeps its own time and
step size and is accepted or rejected on its own; the stage-7 derivative
becomes the next first stage (FSAL) except on a lane that was just
projected.  A lane leaves the batch when it converges, reaches the time
limit, its step size underflows or it has spent its budget of step
attempts (``_attempt_budget``).  Once no more than
``_TAIL_LANES`` lanes are left, the lockstep hands each one to
``_finish_lane``, the same step written out as straight-line float code,
which runs it to its end.
A batch of that many starts or fewer goes to the tail right after its
first field evaluation; ``integrate`` is a batch of one.  Both paths exist
because a lockstep iteration pays NumPy's per-call overhead, about 200 us,
however few lanes it carries, while the tail pays Python's arithmetic,
about 7 us per step attempt of each lane: on a 2-core Xeon, three
500-start batches take 0.16 s in lockstep and 0.52 s in the tail alone,
and one lane 0.44 ms in the tail against 8.2 ms in lockstep.

Every operation on a lane is elementwise and in the order of the scalar
reference stepper, and the step-size factor uses the scalar libm ``pow``.
So a lane's bits depend neither on which other starts share its batch nor
on where it leaves the lockstep, fixed inputs give bitwise-identical
trajectories on a fixed platform, and swapping y and z in a start swaps
those sample columns bit for bit.  Because each field component carries
its own share as an exact factor, a share that starts at exactly zero
stays exactly zero: boundary faces are invariant to the last bit.

The steppers, ``_lockstep`` with its tail and the 1D kernel
``integrate_hawk_share``, keep one contract: project the start, take each
step, project after each accepted step; the first sample is the projected
start.  The projection clamps shares in [-TOL_SIMPLEX, 0) to zero, then
rescales a share sum x + (y + z) in (1, 1 + TOL_SIMPLEX] to 1
(``on_reduced_simplex`` takes the same sum, and w is ``lift``'s); each fix
after a step counts as a clamp.  For one share it clamps z to [0, 1],
since z / z == 1.  The 1D kernel is the 1D step as straight-line float
code with the rate inlined: the two-strategy oracle runs one start per
call.  All are tested bit for bit against the scalar stepper over tuples
in ``tests/util.py``, which keeps the same contract.
"""

from __future__ import annotations

import enum
import math
import sys
from array import array
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Optional, Sequence

import numpy as np

from .equilibrium_catalog import EquilibriumId, catalog
from .game_core import Params, TOL_SIMPLEX, unit_scale
from .replicator_field import (Reduced, ReducedState, _field_3d_terms, field_3d_rows, lift,
                               on_reduced_simplex)

__all__ = [
    "IntegrationConfig",
    "Terminal",
    "Trajectory",
    "integrate",
    "batch_integrate",
    "integrate_hawk_share",
    "CONVERGENCE_EPS",
    "random_interior_starts",
    "time_scale",
    "write_trajectory_csv",
    "trajectory_sidecar",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 42

# Dormand-Prince 5(4): seven stages, FSAL (the last stage is the derivative
# at the new point and becomes the first stage of the next step).
_STAGE_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# Fifth-order minus fourth-order weights: local error coefficients.
_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_H_UNDERFLOW = 1e-14

# Step attempts, accepted and rejected, that a lane may make beyond four per
# max_step that t_end spans (see _attempt_budget): over 300 times the most
# that a start of the benchmark workloads takes, 628, in a 1D run of
# point_queries.
_ATTEMPT_ALLOWANCE = 200_000

#: A run has converged once the sup norm of the field divided by s (see
#: ``time_scale``) falls below this.
CONVERGENCE_EPS = 1e-10


class Terminal(enum.Enum):
    CONVERGED = "ConvergedToEquilibrium"
    TIME_LIMIT = "TimeLimit"
    STEP_FAILURE = "StepFailure"
    STEP_BUDGET = "StepBudget"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class IntegrationConfig:
    """Step control and stopping rules of ``batch_integrate`` and the 1D oracle.

    ``t_end``, ``max_step``, ``record_stride`` and the first step are in
    dimensionless time tau = s t, and CONVERGENCE_EPS bounds the sup norm
    of the field divided by s (see ``time_scale``), so one config means
    the same at every scale of (v, c).  ``rtol`` and ``atol`` are in share
    units.  Recorded samples carry physical time t = tau / s.
    """

    rtol: float = 1e-6
    atol: float = 1e-9
    t_end: float = 2000.0                   # tau
    max_step: float = 10.0                  # tau
    record_stride: Optional[float] = None   # tau; None = record every accepted step

    def validate(self) -> "IntegrationConfig":
        # inf tolerances would accept every step; max_step and record_stride may be inf
        for name in ("rtol", "atol", "t_end"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not self.max_step > 0:
            raise ValueError("max_step must be positive")
        if self.record_stride is not None and not self.record_stride > 0:
            raise ValueError("record_stride must be positive")
        return self


def _attempt_budget(cfg: IntegrationConfig) -> float:
    """The step attempts, accepted and rejected, that a lane may make
    under ``cfg`` before it ends at ``Terminal.STEP_BUDGET``.

    That is _ATTEMPT_ALLOWANCE plus four per ``max_step`` that ``t_end``
    spans, so a lane whose steps average at least half of ``max_step``,
    with no more rejected steps than accepted ones, still reaches ``t_end``.
    With ``max_step = inf`` only the allowance is left, so a lane that
    neither converges nor reaches an unbounded time limit still ends.  The
    budget is inf where t_end / max_step overflows.
    """
    return _ATTEMPT_ALLOWANCE + 4.0 * (cfg.t_end / cfg.max_step)


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples (t, x, y, z, w), terminal status and bookkeeping."""

    samples: np.ndarray                  # shape (n, 5), t strictly increasing
    terminal: Terminal
    nearest: Optional[EquilibriumId]     # attached when converged, else None
    clamp_count: int
    steps: int
    rejected: int
    closest: EquilibriumId               # nearest defined catalog point, any terminal
    closest_distance: float              # Euclidean, reduced coordinates
    final_field_norm: float              # sup norm of the scaled field at the end


def time_scale(p: Params, t_end: float) -> tuple[int, Params]:
    """The exponent e of s = 2^e, and (v, c) / s: the params that are stepped.

    e and the scaled params come from ``game_core.unit_scale``, with the
    exponent ``equilibrium_catalog`` scales by, so the scaled max(|v|, |c|)
    lies in [0.5, 1).  Dimensionless time is tau = s t.

    Raises ValueError unless t_end / s is finite and _H_UNDERFLOW / s is a
    normal float.  Every recorded tau is 0 or in [_H_UNDERFLOW, t_end],
    since a shorter step fails, so then every physical time t = tau / s is
    exact and t is strictly increasing, as tau is.
    """
    e, scaled = unit_scale(p)
    try:
        ok = (math.isfinite(math.ldexp(t_end, -e))
              and math.ldexp(_H_UNDERFLOW, -e) >= sys.float_info.min)
    except OverflowError:
        ok = False
    if not ok:
        raise ValueError(f"physical time t = tau / 2^{e} cannot be represented "
                         f"exactly at (v, c) = ({p.v!r}, {p.c!r}) for tau up to "
                         f"t_end = {t_end!r}")
    return e, scaled


def integrate_hawk_share(v: float, c: float, z0: float, cfg: IntegrationConfig):
    """Dormand-Prince 5(4) on the 1D two-strategy rate
    f(z) = 0.5 z (1 - z) (v - c z), from the Hawk share z0.

    The scalar reference stepper of the test suite, written out for one
    share: the tableau is unpacked once, and the projection of the start,
    each stage, the error sum, the step control and each step's projection
    are straight-line float code doing the same operations in the same
    order, down to the 0.0 each sum starts from and the zero coefficients,
    so every result is bit for bit the same.  Returns (samples, terminal,
    (accepted, rejected), clamp_count) with samples a list of (t, z), the
    first being the projected z0.
    """
    cfg = cfg.validate()
    rtol, atol, t_end, max_step = cfg.rtol, cfg.atol, cfg.t_end, cfg.max_step
    stride, budget = cfg.record_stride, _attempt_budget(cfg)
    (_, (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (a71, a72, a73, a74, a75, a76)) = _STAGE_A
    e1, e2, e3, e4, e5, e6, e7 = _ERR
    eps, h_min, tol, top = CONVERGENCE_EPS, _H_UNDERFLOW, TOL_SIMPLEX, 1.0 + TOL_SIMPLEX

    # the projection of one share: clamp [-tol, 0) to 0, rescale
    # (1, 1 + tol] by itself, which gives exactly 1
    y = float(z0)
    if -tol <= y < 0.0 or 1.0 < y <= top:
        y = 0.0 if y < 0.0 else 1.0
    t = 0.0
    k1 = 0.5 * y * (1.0 - y) * (v - c * y)
    samples = [(t, y)]
    clamps = 0
    accepted = rejected = 0
    if abs(k1) < eps:
        return samples, Terminal.CONVERGED, (0, 0), 0

    h = min(max_step, t_end, 0.01 / (1.0 + abs(k1)))
    last_recorded = 0.0
    time_eps = 1e-13 * max(1.0, t_end)
    while True:
        remaining = t_end - t
        if remaining <= time_eps:
            return samples, Terminal.TIME_LIMIT, (accepted, rejected), clamps
        h = min(h, max_step, remaining)
        if h < h_min:
            return samples, Terminal.STEP_FAILURE, (accepted, rejected), clamps
        if accepted + rejected >= budget:
            return samples, Terminal.STEP_BUDGET, (accepted, rejected), clamps

        ys = y + h * (0.0 + a21 * k1)
        k2 = 0.5 * ys * (1.0 - ys) * (v - c * ys)
        ys = y + h * (0.0 + a31 * k1 + a32 * k2)
        k3 = 0.5 * ys * (1.0 - ys) * (v - c * ys)
        ys = y + h * (0.0 + a41 * k1 + a42 * k2 + a43 * k3)
        k4 = 0.5 * ys * (1.0 - ys) * (v - c * ys)
        ys = y + h * (0.0 + a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4)
        k5 = 0.5 * ys * (1.0 - ys) * (v - c * ys)
        ys = y + h * (0.0 + a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4 + a65 * k5)
        k6 = 0.5 * ys * (1.0 - ys) * (v - c * ys)
        y_new = y + h * (0.0 + a71 * k1 + a72 * k2 + a73 * k3 + a74 * k4 + a75 * k5
                         + a76 * k6)
        k7 = 0.5 * y_new * (1.0 - y_new) * (v - c * y_new)

        err = abs(h * (0.0 + e1 * k1 + e2 * k2 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6
                       + e7 * k7))
        ratio = err / (atol + rtol * max(abs(y), abs(y_new)))

        if not ratio <= 1.0:    # a NaN ratio rejects too, with factor 0.2
            rejected += 1
            h *= max(0.2, 0.9 * ratio ** -0.2)
            continue

        accepted += 1
        t = t + h
        y, k1 = y_new, k7
        if -tol <= y < 0.0 or 1.0 < y <= top:
            y = 0.0 if y < 0.0 else 1.0
            clamps += 1
            k1 = 0.5 * y * (1.0 - y) * (v - c * y)

        if stride is None or t - last_recorded >= stride - 1e-12:
            samples.append((t, y))
            last_recorded = t
        converged = abs(k1) < eps
        if converged or t >= t_end:
            if samples[-1][0] != t:
                samples.append((t, y))
            status = Terminal.CONVERGED if converged else Terminal.TIME_LIMIT
            return samples, status, (accepted, rejected), clamps

        factor = 5.0 if ratio == 0.0 else min(5.0, max(0.2, 0.9 * ratio ** -0.2))
        h *= factor


def _step_factors(ratio: np.ndarray) -> np.ndarray:
    """Per-lane step-size multipliers after an attempt with these error ratios.

    Equal, value for value, to ``min(5.0, max(0.2, 0.9 * ratio ** -0.2))``
    (5.0 at ratio 0), the factor of the scalar steppers.  The power is the
    scalar libm ``pow``, as there: NumPy's vectorised ``power`` may round
    differently, and then a lane's bits would depend on its batch.  ``fmax``
    returns 0.2 for a NaN, as ``max(0.2, nan)`` does.
    """
    safe = np.where(ratio == 0.0, 1.0, ratio).tolist()
    powered = np.fromiter(map(pow, safe, repeat(-0.2)), float, len(safe))
    return np.where(ratio == 0.0, 5.0, np.minimum(5.0, np.fmax(0.2, 0.9 * powered)))


# Nonzero (coefficient, stage) pairs of each stage row and of the error row.
# Dropping the zero terms and the 0.0 a scalar sum starts from changes only
# the sign of a zero sum, which cannot reach a state once -0.0 is gone from
# the starts (see _lockstep).
_STAGE_TERMS = tuple(tuple((a, j) for j, a in enumerate(row) if a) for row in _STAGE_A[1:])
_ERR_TERMS = tuple((e, j) for j, e in enumerate(_ERR) if e)


def _combine(terms, ks):
    """The sum of a * ks[j] over ``terms``, left to right."""
    (a, j), *rest = terms
    acc = a * ks[j]
    for a, j in rest:
        acc = acc + a * ks[j]
    return acc


def _project_rows(y: np.ndarray) -> np.ndarray:
    """Project each row of the (N, 3) array ``y`` onto the simplex in place,
    with the row sum taken as y0 + (y1 + y2); returns the fixes per row.
    """
    clip = (y >= -TOL_SIMPLEX) & (y < 0.0)
    y[clip] = 0.0
    total = y[:, 0] + (y[:, 1] + y[:, 2])
    over = (total > 1.0) & (total <= 1.0 + TOL_SIMPLEX)
    if over.any():
        y[over] /= total[over, None]
    return clip.sum(axis=1) + over


#: ``_lockstep`` finishes its lanes one by one on ``_finish_lane`` once no
#: more than this many are active: below it NumPy's per-call overhead costs
#: more than the lanes' arithmetic.  On the benchmark's trajectory batches
#: (20 and 100 starts) 20 to 60 all did well and 40 best; at 100 or more the
#: 100-start batches run wholly in the tail and gain nothing.
_TAIL_LANES = 40


def _np_max(*vals):
    """The largest of non-negative floats, or NaN if one is NaN, as ``np.max``
    gives; the builtin ``max`` keeps a NaN only where it comes first."""
    total = sum(vals)
    return max(vals) if total == total else total


def _finish_lane(v, c, cfg, t, last, h, state, k1, counts, buf):
    """Run one ``_lockstep`` lane to its end as straight-line float code.

    Takes the lane at the top of a lockstep iteration: its time t, the time
    of its latest sample, step size h, shares, first stage k1, counts
    (accepted, rejected, clamps) and flat sample buffer, which it extends.
    Every operation is the lockstep's, in its order: the field through
    ``_field_3d_terms``, the stage and error sums over the nonzero terms
    left to right as in ``_combine``, the projection of ``_project_rows``,
    the step factor of ``_step_factors`` and maxima that keep a NaN, as
    NumPy's do.  So a lane's bits do not depend on where it left the batch.
    Returns (terminal, accepted, rejected, clamps).
    """
    rtol, atol, t_end, max_step, stride = (cfg.rtol, cfg.atol, cfg.t_end, cfg.max_step,
                                           cfg.record_stride)
    (_, (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (a71, _, a73, a74, a75, a76)) = _STAGE_A
    e1, _, e3, e4, e5, e6, e7 = _ERR
    f, eps, tol, top = _field_3d_terms, CONVERGENCE_EPS, TOL_SIMPLEX, 1.0 + TOL_SIMPLEX
    time_eps = 1e-13 * max(1.0, t_end)
    budget = _attempt_budget(cfg)
    x, y, z = state
    k1x, k1y, k1z = k1
    accepted, rejected, clamps = counts
    while True:
        remaining = t_end - t
        h = min(h, max_step, remaining)
        if remaining <= time_eps:
            return Terminal.TIME_LIMIT, accepted, rejected, clamps
        if h < _H_UNDERFLOW:
            return Terminal.STEP_FAILURE, accepted, rejected, clamps
        if accepted + rejected >= budget:
            return Terminal.STEP_BUDGET, accepted, rejected, clamps

        k2x, k2y, k2z = f(v, c, x + h * (a21 * k1x), y + h * (a21 * k1y), z + h * (a21 * k1z))
        k3x, k3y, k3z = f(v, c, x + h * (a31 * k1x + a32 * k2x), y + h * (a31 * k1y + a32 * k2y),
                          z + h * (a31 * k1z + a32 * k2z))
        k4x, k4y, k4z = f(v, c, x + h * (a41 * k1x + a42 * k2x + a43 * k3x),
                          y + h * (a41 * k1y + a42 * k2y + a43 * k3y),
                          z + h * (a41 * k1z + a42 * k2z + a43 * k3z))
        k5x, k5y, k5z = f(v, c, x + h * (a51 * k1x + a52 * k2x + a53 * k3x + a54 * k4x),
                          y + h * (a51 * k1y + a52 * k2y + a53 * k3y + a54 * k4y),
                          z + h * (a51 * k1z + a52 * k2z + a53 * k3z + a54 * k4z))
        k6x, k6y, k6z = f(v, c, x + h * (a61 * k1x + a62 * k2x + a63 * k3x + a64 * k4x + a65 * k5x),
                          y + h * (a61 * k1y + a62 * k2y + a63 * k3y + a64 * k4y + a65 * k5y),
                          z + h * (a61 * k1z + a62 * k2z + a63 * k3z + a64 * k4z + a65 * k5z))
        xn = x + h * (a71 * k1x + a73 * k3x + a74 * k4x + a75 * k5x + a76 * k6x)
        yn = y + h * (a71 * k1y + a73 * k3y + a74 * k4y + a75 * k5y + a76 * k6y)
        zn = z + h * (a71 * k1z + a73 * k3z + a74 * k4z + a75 * k5z + a76 * k6z)
        k7x, k7y, k7z = f(v, c, xn, yn, zn)
        err = _np_max(
            abs(h * (e1 * k1x + e3 * k3x + e4 * k4x + e5 * k5x + e6 * k6x + e7 * k7x)),
            abs(h * (e1 * k1y + e3 * k3y + e4 * k4y + e5 * k5y + e6 * k6y + e7 * k7y)),
            abs(h * (e1 * k1z + e3 * k3z + e4 * k4z + e5 * k5z + e6 * k6z + e7 * k7z)))
        ratio = err / (atol + rtol * _np_max(abs(x), abs(y), abs(z), abs(xn), abs(yn), abs(zn)))
        factor = 5.0 if ratio == 0.0 else min(5.0, max(0.2, 0.9 * pow(ratio, -0.2)))
        if not ratio <= 1.0:
            rejected += 1
            h = h * factor
            continue

        accepted += 1
        t = t + h
        fixed = 0
        if -tol <= xn < 0.0:
            xn, fixed = 0.0, fixed + 1
        if -tol <= yn < 0.0:
            yn, fixed = 0.0, fixed + 1
        if -tol <= zn < 0.0:
            zn, fixed = 0.0, fixed + 1
        total = xn + (yn + zn)
        if 1.0 < total <= top:
            xn, yn, zn, fixed = xn / total, yn / total, zn / total, fixed + 1
        if fixed:
            clamps += fixed
            k7x, k7y, k7z = f(v, c, xn, yn, zn)
        x, y, z, k1x, k1y, k1z = xn, yn, zn, k7x, k7y, k7z

        converged = abs(k1x) < eps and abs(k1y) < eps and abs(k1z) < eps
        finished = converged or t >= t_end
        if stride is None or t - last >= stride - 1e-12 or (finished and last != t):
            buf.extend((t, x, y, z))
            last = t
        h = h * factor
        if finished:
            terminal = Terminal.CONVERGED if converged else Terminal.TIME_LIMIT
            return terminal, accepted, rejected, clamps


def _lockstep(p: Params, starts: Sequence[Reduced], cfg: IntegrationConfig):
    """Dormand-Prince 5(4) on every start at once, one lane per row.

    Each lane keeps its own t and h and takes exactly the steps the scalar
    reference stepper takes from that start: every operation is
    elementwise, in the scalar order, so a lane's bits do not depend on
    which other starts share the batch.  The starts are projected first
    (not counted as a clamp), then ``_advance`` steps them.

    Returns per start (samples (n, 5), terminal, accepted, rejected, clamps),
    with t in the time of the field of ``p``.
    """
    y = np.array(starts, dtype=float)
    _project_rows(y)
    # Samples as flat (t, x, y, z) runs; the first is the projected start.
    bufs = [array("d", (0.0, *row)) for row in y.tolist()]
    # +0.0 turns -0.0 into 0.0; the scalar path does that in its first step.
    y += 0.0
    k1 = field_3d_rows(p, y)
    h = np.minimum(min(cfg.max_step, cfg.t_end), 0.01 / (1.0 + np.abs(k1).max(axis=1)))
    return _advance(p, cfg, y, k1, h, bufs)


def _advance(p: Params, cfg: IntegrationConfig, y: np.ndarray, k1: np.ndarray,
             h: np.ndarray, bufs: list):
    """Step the lanes (state rows y, first stages k1, step sizes h, sample
    buffers bufs) from t = 0 to their ends; returns as ``_lockstep``.

    A lane retires on convergence, at the time limit, on step underflow or
    once it has made ``_attempt_budget(cfg)`` step attempts.
    Once no more than _TAIL_LANES are active, each is finished on
    ``_finish_lane``.
    """
    n = len(bufs)
    out: list = [None] * n

    def settle(j, buf, terminal, counts):
        data = np.frombuffer(buf).reshape(-1, 4)
        samples = np.empty((len(data), 5))
        samples[:, :4] = data
        samples[:, 4] = lift(data[:, 1:].T)[3]
        out[j] = (samples, terminal, *counts)

    def retire(idx, terminal):
        for i in idx.tolist():
            settle(lane[i], bufs[i], terminal,
                   (int(accepted[i]), int(rejected[i]), int(clamps[i])))

    lane = np.arange(n)
    t = np.zeros(n)
    last = np.zeros(n)        # time of each lane's latest sample
    accepted = np.zeros(n, dtype=np.int64)
    rejected = np.zeros(n, dtype=np.int64)
    clamps = np.zeros(n, dtype=np.int64)
    keep = ~(np.abs(k1).max(axis=1) < CONVERGENCE_EPS)
    retire(np.flatnonzero(~keep), Terminal.CONVERGED)
    time_eps = 1e-13 * max(1.0, cfg.t_end)
    budget = _attempt_budget(cfg)
    # Every lane steps from t = 0 and makes one attempt per iteration until
    # it retires, so every active lane has made this many attempts.
    attempts = 0

    while True:
        if not keep.all():
            lane, t, last, h, y, k1 = lane[keep], t[keep], last[keep], h[keep], y[keep], k1[keep]
            accepted, rejected, clamps = accepted[keep], rejected[keep], clamps[keep]
            bufs = list(compress(bufs, keep.tolist()))
        if len(lane) <= _TAIL_LANES:
            counts = zip(accepted.tolist(), rejected.tolist(), clamps.tolist())
            for j, *lane_state, buf in zip(lane.tolist(), t.tolist(), last.tolist(), h.tolist(),
                                           y.tolist(), k1.tolist(), counts, bufs):
                terminal, *lane_counts = _finish_lane(*p, cfg, *lane_state, buf)
                settle(j, buf, terminal, lane_counts)
            return out
        remaining = cfg.t_end - t
        h = np.minimum(np.minimum(h, cfg.max_step), remaining)
        out_of_time = remaining <= time_eps
        stop = out_of_time | (h < _H_UNDERFLOW)
        if stop.any():
            retire(np.flatnonzero(out_of_time), Terminal.TIME_LIMIT)
            retire(np.flatnonzero(stop & ~out_of_time), Terminal.STEP_FAILURE)
            keep = ~stop
            continue
        if attempts >= budget:
            retire(np.arange(len(lane)), Terminal.STEP_BUDGET)
            return out

        hh = h[:, None]
        ks = [k1]
        for terms in _STAGE_TERMS:
            y_new = y + hh * _combine(terms, ks)
            ks.append(field_3d_rows(p, y_new))
        k7 = ks[6]      # FSAL: the derivative at y_new
        err = np.abs(hh * _combine(_ERR_TERMS, ks)).max(axis=1)
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y).max(axis=1),
                                                 np.abs(y_new).max(axis=1))
        ratio = err / scale
        factor = _step_factors(ratio)
        ok = ratio <= 1.0       # a NaN ratio rejects, with factor 0.2
        rejected += ~ok
        accepted += ok
        attempts += 1
        t = np.where(ok, t + h, t)

        fixed = np.where(ok, _project_rows(y_new), 0)
        clamps += fixed
        redo = fixed > 0
        if redo.any():
            k7[redo] = field_3d_rows(p, y_new[redo])
        y = np.where(ok[:, None], y_new, y)
        k1 = np.where(ok[:, None], k7, k1)

        record = ok if cfg.record_stride is None else \
            ok & (t - last >= cfg.record_stride - 1e-12)
        converged = ok & (np.abs(k1).max(axis=1) < CONVERGENCE_EPS)
        finished = converged | (ok & (t >= cfg.t_end))
        # A finishing lane always ends on a sample at its final time.
        record = record | (finished & (last != t))
        if record.any():
            rows = np.concatenate((t[:, None], y), axis=1)
            for buf, row in zip(compress(bufs, record.tolist()), rows[record].tolist()):
                buf.extend(row)
            last = np.where(record, t, last)
        h = h * factor
        keep = ~finished
        if finished.any():
            retire(np.flatnonzero(converged), Terminal.CONVERGED)
            retire(np.flatnonzero(finished & ~converged), Terminal.TIME_LIMIT)


def batch_integrate(p: Params, starts: Sequence[Reduced],
                    cfg: Optional[IntegrationConfig] = None) -> list[Trajectory]:
    """Integrate every start in one batch, in input order.

    Each trajectory runs in dimensionless time (see ``time_scale``) until
    convergence (the scaled field's sup norm below CONVERGENCE_EPS), the
    time limit, step failure or the end of its step-attempt budget; its
    samples carry physical time.  Raises ValueError where physical time
    cannot be represented (``time_scale``).
    Every trajectory records the nearest defined point of ``catalog(p)``
    (Euclidean, reduced coordinates), the distance to it and the final
    scaled field norm; on convergence that point is also attached as
    ``nearest`` if it lies within 1e-3.  A trajectory does not depend on
    which other starts share the batch: the lanes step in lockstep and the
    last _TAIL_LANES finish on the scalar tail (see the module docstring),
    bit for bit alike.  The stepper projects each start as it projects
    every step, so a start within TOL_SIMPLEX of the simplex begins, and is
    recorded, on it.
    """
    p = Params(*p).validate()
    cfg = (cfg or IntegrationConfig()).validate()
    for idx, s0 in enumerate(starts):
        if not on_reduced_simplex(s0):
            raise ValueError(f"start #{idx} {tuple(float(t) for t in s0)!r} "
                             "is off the simplex")
    if not len(starts):
        return []
    e, scaled = time_scale(p, cfg.t_end)
    lanes = _lockstep(scaled, starts, cfg)

    points = [rec for rec in catalog(p) if rec.defined]
    ids = [rec.id for rec in points]
    coords = np.array([rec.coords for rec in points])
    finals = np.array([samples[-1, 1:4] for samples, *_ in lanes])
    diff = finals[:, None, :] - coords[None, :, :]
    dist = np.sqrt(diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1]
                   + diff[..., 2] * diff[..., 2])
    best = dist.argmin(axis=1)
    closest = dist.min(axis=1)
    norms = np.abs(field_3d_rows(scaled, finals)).max(axis=1)
    out = []
    for i, (samples, terminal, accepted, rejected, clamps) in enumerate(lanes):
        samples[:, 0] = np.ldexp(samples[:, 0], -e)
        samples.flags.writeable = False
        nearest = None
        if terminal is Terminal.CONVERGED and closest[i] <= 1e-3:
            nearest = ids[best[i]]
        out.append(Trajectory(samples=samples, terminal=terminal, nearest=nearest,
                              clamp_count=clamps, steps=accepted, rejected=rejected,
                              closest=ids[best[i]], closest_distance=float(closest[i]),
                              final_field_norm=float(norms[i])))
    return out


def integrate(p: Params, s0: Reduced, cfg: Optional[IntegrationConfig] = None) -> Trajectory:
    """Integrate one start: ``batch_integrate`` on a batch of one, which runs
    on the scalar tail from its first step."""
    return batch_integrate(p, [s0], cfg)[0]


def random_interior_starts(n: int, seed: int = DEFAULT_SEED) -> list[ReducedState]:
    """Uniform interior simplex points via sorted-uniform spacings.

    Raises ValueError when ``n`` or ``seed`` is negative.
    """
    if n < 0:
        raise ValueError(f"the number of random starts must be >= 0, got {n}")
    if seed < 0:
        raise ValueError(f"the seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        u = np.sort(rng.random(3))
        parts = (u[0], u[1] - u[0], u[2] - u[1], 1.0 - u[2])
        if min(parts) <= 1e-6:
            continue
        out.append(ReducedState(float(parts[0]), float(parts[1]), float(parts[2])))
    return out


def write_trajectory_csv(traj: Trajectory, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,y,z,w\n")
        fh.writelines(["%.17g,%.17g,%.17g,%.17g,%.17g\n" % tuple(row)
                       for row in traj.samples.tolist()])


def trajectory_sidecar(traj: Trajectory) -> dict:
    return {
        "terminal": traj.terminal.value,
        "nearest_equilibrium": traj.nearest.value if traj.nearest else None,
        "closest_point": traj.closest.value,
        "closest_distance": traj.closest_distance,
        "final_field_norm": traj.final_field_norm,
        "t_final": float(traj.samples[-1, 0]),
        "final_state": [float(t) for t in traj.samples[-1, 1:]],
        "clamp_count": traj.clamp_count,
        "steps": traj.steps,
        "rejected_steps": traj.rejected,
    }

