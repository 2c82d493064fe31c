"""Shared test helpers: samplers, closed-form eigenvalue oracles, the
scalar reference stepper, a fresh-interpreter runner and a traced-peak
probe."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

import hawkdove
from hawkdove import Params
from hawkdove.equilibrium_catalog import _DIRECTIONS, CODE_BY_CLASS, STRUCTURAL_ZERO_EIGS
from hawkdove.game_core import TOL_SIMPLEX
from hawkdove.integrator import (
    _ERR,
    _H_UNDERFLOW,
    _STAGE_A,
    CONVERGENCE_EPS,
    IntegrationConfig,
    Terminal,
    _attempt_budget,
)
from hawkdove.linear_analysis import ZERO_REL, Classification, stability_codes, zero_tol


SRC = str(Path(hawkdove.__file__).resolve().parent.parent)


def run_fresh(*argv, warnings_as_errors=False, env=None, timeout=None, code=0) -> str:
    """Run ``python *argv`` in a fresh interpreter with this ``src`` on its
    path and no HAWKDOVE_OUTDIR; its stdout, after an exit with ``code``.  A fresh
    process pays what every command-line run pays: first-touch page faults
    and lazy imports.  ``env`` sets further variables, or unsets those
    mapped to None.  A run that takes longer than ``timeout`` seconds is
    killed and raises ``subprocess.TimeoutExpired``."""
    overrides = {"HAWKDOVE_OUTDIR": None, **(env or {})}
    env = dict(os.environ, PYTHONPATH=SRC)
    for name, value in overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    flags = ["-W", "error"] if warnings_as_errors else []
    proc = subprocess.run([sys.executable, *flags, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == code, proc.stderr
    return proc.stdout


def traced_peak(fn, *args):
    """(peak bytes that tracemalloc sees allocated while ``fn(*args)`` runs,
    its result)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def rand_params(rng, lo=-1.0, hi=1.0, c_min=0.0, line_margin=0.0) -> Params:
    """Uniform (v, c) with optional |c| floor and distance floor from the
    four bifurcation lines v=c, c=0, v=0, c=2v."""
    while True:
        v, c = rng.uniform(lo, hi, 2)
        if abs(c) < c_min:
            continue
        if line_margin and min(abs(v - c), abs(c), abs(v), abs(c - 2 * v)) < line_margin:
            continue
        return Params(float(v), float(c))


def rand_simplex4(rng) -> tuple[float, float, float, float]:
    """Uniform point on the closed 3-simplex via sorted-uniform spacings."""
    u = np.sort(rng.random(3))
    return (float(u[0]), float(u[1] - u[0]), float(u[2] - u[1]), float(1.0 - u[2]))


def rand_reduced(rng) -> tuple[float, float, float]:
    return rand_simplex4(rng)[:3]


# Closed-form eigenvalue lists at the seven equilibria (test oracle,
# evaluated independently of the production Jacobian/eigenvalue path).
def closed_form_eigs(eq: str, v: float, c: float) -> list[float]:
    if eq in ("P1", "P4"):
        return [-v / 4, -c / 4, (v - c) / 4]
    if eq == "P2":
        return [c / 8, (c - 2 * v) / 8, (2 * v - c) / 8]
    if eq == "P3":
        return [v / 4, -v * (c - 2 * v) / (4 * c), 0.0]
    if eq == "P5":
        return [(c - v) / 2, (c - v) / 4, (c - v) / 4]
    if eq == "P6":
        return [0.0, 0.0, v * (v - c) / (2 * c)]
    if eq == "P7":
        return [v / 2, v / 4, v / 4]
    raise ValueError(eq)


def closed_form_codes(eq, v, c):
    """The catalog's tag rule applied to the closed-form eigenvalues, as codes."""
    lam = np.broadcast_arrays(*closed_form_eigs(eq.value, v, c))
    code, zeros = stability_codes(lam, zero_tol(v, c))
    return np.where(zeros > STRUCTURAL_ZERO_EIGS[eq], CODE_BY_CLASS[Classification.DEGENERATE], code)


def _exact_signs(v, c) -> tuple[int, ...]:
    """Signs of the four line forms v - c, c, v and c - 2v at (v, c) in
    exact arithmetic, a form within ZERO_REL max(|v|, |c|) of zero as 0."""
    v, c = Fraction(v), Fraction(c)
    tol = Fraction(ZERO_REL) * max(abs(v), abs(c))
    return tuple(0 if abs(f) <= tol else 1 if f > 0 else -1 for f in (v - c, c, v, c - 2 * v))


_DIRECTION_OF_SIGNS = {_exact_signs(v, c): k for k, (v, c) in enumerate(_DIRECTIONS)}


def reference_direction(v: float, c: float) -> int:
    """The index into ``_DIRECTIONS`` of the direction of a finite (v, c),
    from ``fractions.Fraction`` signs of the four line forms: the column of
    ``_DIRECTION_TABLE`` that holds its tags.  A sign vector of no
    direction raises KeyError."""
    return _DIRECTION_OF_SIGNS[_exact_signs(v, c)]


def multiset_close(got, expected, tol: float) -> bool:
    """Compare eigenvalue multisets: sorted real parts within tol, imaginary
    parts below tol."""
    got = [complex(g) for g in got]
    if max(abs(g.imag) for g in got) > tol:
        return False
    gs = sorted(g.real for g in got)
    es = sorted(float(e) for e in expected)
    return max(abs(a - b) for a, b in zip(gs, es)) <= tol


# Scalar reference stepper: the library's steppers are tested against it
# bit for bit.
def _np_max(vals: Sequence[float]) -> float:
    """The largest value, or NaN if one is NaN, as ``np.max`` gives; the
    builtin ``max`` keeps a NaN only where it comes first."""
    return math.nan if any(t != t for t in vals) else max(vals)


def _norm_inf(vec: Sequence[float]) -> float:
    return _np_max([abs(t) for t in vec])


def _project(y):
    """(state, fixes): the simplex projection of a state tuple, in the
    library's order, with the sum taken as y0 + (y1 + y2)."""
    clip = [-TOL_SIMPLEX <= t < 0.0 for t in y]
    out = tuple(0.0 if c else t for c, t in zip(clip, y))
    fixed = sum(clip)
    total = out[0] + sum(out[1:])
    if 1.0 < total <= 1.0 + TOL_SIMPLEX:
        out, fixed = tuple(t / total for t in out), fixed + 1
    return out, fixed


def adaptive_integrate(rate: Callable, y0: Sequence[float], cfg: IntegrationConfig,
                       h0: Optional[float] = None):
    """Scalar adaptive embedded-pair stepper over state tuples: the reference
    for the lockstep stepper behind ``batch_integrate`` and for the 1D
    kernel ``integrate_hawk_share``, which are compared with it bit for bit.

    The start is projected onto the simplex (not counted as a clamp), and
    so is every accepted step.  Returns (samples, terminal, (accepted,
    rejected), clamp_count) with samples a list of (t, state-tuple), the
    first being the projected start.  ``h0``, if given, is the first step
    size in place of the library's starting rule.
    """
    cfg = cfg.validate()
    budget = _attempt_budget(cfg)
    y, _fixes = _project(tuple(float(t) for t in y0))
    t = 0.0
    k1 = tuple(float(g) for g in rate(y))
    samples = [(t, y)]
    clamps = 0
    accepted = rejected = 0
    if _norm_inf(k1) < CONVERGENCE_EPS:
        return samples, Terminal.CONVERGED, (0, 0), 0

    h = min(cfg.max_step, cfg.t_end, 0.01 / (1.0 + _norm_inf(k1))) if h0 is None else h0
    last_recorded = 0.0
    while True:
        remaining = cfg.t_end - t
        if remaining <= 1e-13 * max(1.0, cfg.t_end):
            return samples, Terminal.TIME_LIMIT, (accepted, rejected), clamps
        h = min(h, cfg.max_step, remaining)
        if h < _H_UNDERFLOW:
            return samples, Terminal.STEP_FAILURE, (accepted, rejected), clamps
        if accepted + rejected >= budget:
            return samples, Terminal.STEP_BUDGET, (accepted, rejected), clamps

        ks = [k1]
        for coeffs in _STAGE_A[1:]:
            ys = []
            for i, yi in enumerate(y):
                acc = 0.0
                for a, k in zip(coeffs, ks):
                    acc += a * k[i]
                ys.append(yi + h * acc)
            ys = tuple(ys)
            ks.append(tuple(float(g) for g in rate(ys)))
        y_new = ys  # stage 7 state uses the fifth-order weights
        k7 = ks[6]

        terms = []
        for i in range(len(y)):
            acc = 0.0
            for e, k in zip(_ERR, ks):
                acc += e * k[i]
            terms.append(abs(h * acc))
        err = _np_max(terms)
        scale = cfg.atol + cfg.rtol * _np_max([_norm_inf(y), _norm_inf(y_new)])
        ratio = err / scale

        # a NaN ratio rejects too: max(0.2, nan) is 0.2
        if not ratio <= 1.0:
            rejected += 1
            h *= max(0.2, 0.9 * ratio ** -0.2)
            continue

        accepted += 1
        t = t + h
        y, n_clamped = _project(y_new)
        clamps += n_clamped
        k1 = tuple(float(g) for g in rate(y)) if n_clamped else k7

        if cfg.record_stride is None or t - last_recorded >= cfg.record_stride - 1e-12:
            samples.append((t, y))
            last_recorded = t
        converged = _norm_inf(k1) < CONVERGENCE_EPS
        if converged or t >= cfg.t_end:
            if samples[-1][0] != t:
                samples.append((t, y))
            status = Terminal.CONVERGED if converged else Terminal.TIME_LIMIT
            return samples, status, (accepted, rejected), clamps

        factor = 5.0 if ratio == 0.0 else min(5.0, max(0.2, 0.9 * ratio ** -0.2))
        h *= factor
