"""Seeded inputs for the three benchmark workloads.

Every workload is a list of CLI argument vectors run in one fresh
interpreter through ``hawkdove.cli.main``.  The seed fixes every input;
the program sees only the generated argv and start files.

region_map
    One ``bifurcation --nv 401 --nc 401 --svg`` over the default
    +-0.3 box.  Work is the vectorized classification scan, transition
    detection, the region CSV and a 160k-rect SVG; the integrator, nash
    and the scalar catalog do none.  All four destabilization lines pass
    through grid nodes, so the Degenerate and line-attribution paths run.
    401x401 keeps memory growth visible; 801x801 (~15 s, ~384 MB) is too
    long for the number of runs a comparison needs.  ``--workers`` stays
    at its default of 1, as every non-test caller uses it.  The seed
    picks the equilibrium coloured in the SVG.  One op = one grid node.

trajectory_ensemble
    ``simulate --svg`` at the five README presets with 100 starts each,
    then the presets scaled by 10 with 20 starts each: 600 trajectories
    in 10 commands, starts passed with ``--starts-file``.  Work is the
    integrator and the replicator field (per-component Python loops) plus
    one catalog per trajectory.  The scaled runs take several times more
    steps and mostly end at the time limit, so a batched stepper meets
    both short and long lanes.  One op = one trajectory.

point_queries
    408 (v, c) points, each run through ``equilibria --format json``,
    ``nash`` and ``two-strategy``.  The magnitude is log-uniform over
    1e-6..1e6 and the angle uniform, one point in each cell of a 24x17
    grid over the two, so every seed puts the same number of points in
    each half-decade and sign region; every 8th point
    sits exactly on one of v=c, c=0, v=0, c=2v.  Work is the scalar
    catalog and eigen path, nash, the 1D ``adaptive_integrate`` (a batch
    of one at dim 1) and per-call CLI overhead.  ``two-strategy`` gets a
    ``--z0`` only where the magnitude is <= 10: the 1D path runs to a
    fixed ``t_end`` against an absolute convergence threshold, so its cost
    grows linearly with scale above ~10 (35 ms at 1e2, 288 ms at 1e3,
    minutes at 1e6) and one decade would own the run.  Values are passed
    as ``--v=VALUE`` because argparse takes ``--v -1e-07`` for an option.
    One op = one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GRID_N = 401
GRID_BOX = (-0.3, 0.3)
PRESETS = ((0.1, 0.2), (0.2, 0.3), (0.2, 0.1), (-0.1, 0.2), (-0.2, -0.1))
PRESETS_X10 = ((1.0, 2.0), (2.0, 3.0), (2.0, 1.0), (-1.0, 2.0), (-2.0, -1.0))
STARTS = 100
STARTS_X10 = 20
PQ_ROWS = 24     # half-decades over LOG_MAG
PQ_COLS = 17
N_POINTS = PQ_ROWS * PQ_COLS
LOG_MAG = (-6.0, 6.0)
Z0_MAX_MAG = 10.0
LINES = ("VeqC", "Ceq0", "Veq0", "Ceq2V")
POINT_IDS = ("P1", "P2", "P3", "P4", "P5", "P6", "P7")


@dataclass
class Workload:
    """Commands for one rep, plus what the checks need to know."""

    name: str
    ops: int
    commands: list[list[str]]
    files: dict[str, str] = field(default_factory=dict)   # relative path -> text
    meta: dict = field(default_factory=dict)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _fmt(x: float) -> str:
    return repr(float(x))


def region_map(seed: int) -> Workload:
    point = POINT_IDS[int(_rng(seed, 1).integers(len(POINT_IDS)))]
    lo, hi = GRID_BOX
    argv = ["bifurcation", f"--v-min={_fmt(lo)}", f"--v-max={_fmt(hi)}",
            f"--c-min={_fmt(lo)}", f"--c-max={_fmt(hi)}",
            "--nv", str(GRID_N), "--nc", str(GRID_N),
            "--svg", "--point", point, "--out-dir", "out"]
    return Workload("region_map", GRID_N * GRID_N, [argv],
                    meta={"point": point, "n": GRID_N, "box": GRID_BOX})


def _interior_starts(rng: np.random.Generator, n: int) -> np.ndarray:
    out = []
    while len(out) < n:
        s = rng.dirichlet(np.ones(4))
        if s.min() > 1e-6:
            out.append(s[:3])
    return np.array(out)


def trajectory_ensemble(seed: int) -> Workload:
    rng = _rng(seed, 2)
    commands, files, runs = [], {}, []
    plan = [(p, STARTS) for p in PRESETS] + [(p, STARTS_X10) for p in PRESETS_X10]
    for k, ((v, c), n) in enumerate(plan):
        starts = _interior_starts(rng, n)
        name = f"starts_{k:02d}.csv"
        files[name] = "x,y,z\n" + "".join(
            ",".join(_fmt(t) for t in row) + "\n" for row in starts)
        out = f"out/sim_{k:02d}"
        commands.append(["simulate", f"--v={_fmt(v)}", f"--c={_fmt(c)}",
                         "--starts-file", name, "--out-dir", out, "--svg"])
        runs.append({"v": v, "c": c, "out": out, "starts": starts.tolist(),
                     "scaled": k >= len(PRESETS)})
    return Workload("trajectory_ensemble", sum(n for _, n in plan), commands,
                    files=files, meta={"runs": runs})


def _on_line(line: str, r: float, theta: float) -> tuple[float, float]:
    sv = 1.0 if math.cos(theta) >= 0 else -1.0
    sc = 1.0 if math.sin(theta) >= 0 else -1.0
    if line == "VeqC":
        t = sv * r / math.sqrt(2.0)
        return t, t
    if line == "Ceq0":
        return sv * r, 0.0
    if line == "Veq0":
        return 0.0, sc * r
    v = sv * r / math.sqrt(5.0)
    return v, 2.0 * v


def point_queries(seed: int) -> Workload:
    rng = _rng(seed, 3)
    n = N_POINTS
    lo, hi = LOG_MAG
    # One point per cell of a PQ_ROWS x PQ_COLS grid over (log magnitude,
    # angle), jittered inside its cell, so every seed puts the same number
    # of points in each half-decade and sign region.  Within a row the
    # magnitudes are also spread evenly over the row (multi-jittered), as
    # the 1D path's cost grows with magnitude; the z0 cap falls on a row
    # boundary.
    row, col = np.divmod(np.arange(n), PQ_COLS)
    sub = np.concatenate([rng.permutation(PQ_COLS) for _ in range(PQ_ROWS)])
    log_r = lo + (hi - lo) * (row + (sub + rng.random(n)) / PQ_COLS) / PQ_ROWS
    theta = 2.0 * math.pi * (col + rng.random(n)) / PQ_COLS
    z0 = (rng.permutation(n) + rng.random(n)) / n
    commands, points = [], []
    for i in range(n):
        r = 10.0 ** float(log_r[i])
        if i % 8 == 7:
            line = LINES[(i // 8) % len(LINES)]
            v, c = _on_line(line, r, float(theta[i]))
        else:
            line = None
            v, c = r * math.cos(theta[i]), r * math.sin(theta[i])
        pv, pc = f"--v={_fmt(v)}", f"--c={_fmt(c)}"
        two = ["two-strategy", pv, pc, "--out", f"out/two_{i:03d}.json",
               "--out-dir", f"out/two_{i:03d}"]
        zi = float(z0[i]) if r <= Z0_MAX_MAG else None
        if zi is not None:
            two += [f"--z0={_fmt(zi)}"]
        commands += [
            ["equilibria", pv, pc, "--format", "json", "--out", f"out/eq_{i:03d}.json"],
            ["nash", pv, pc, "--out", f"out/nash_{i:03d}.json"],
            two,
        ]
        points.append({"v": v, "c": c, "line": line, "z0": zi})
    return Workload("point_queries", n, commands, meta={"points": points})


BUILDERS = {
    "region_map": region_map,
    "trajectory_ensemble": trajectory_ensemble,
    "point_queries": point_queries,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)


def write_inputs(w: Workload, work: Path) -> None:
    for rel, text in w.files.items():
        (work / rel).write_text(text, encoding="utf-8")
