"""Correctness checks of one rep's output files against the oracles.

Each check returns ``(failures, problems)``: ``failures`` maps an op index
to the reason it failed (a raise, a non-zero exit, or disagreement with an
oracle), ``problems`` lists whole-run defects such as a malformed file.
An op whose command failed is counted as failed and the check goes on.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

import oracles as O

SMALL_EIG = 1e-2
# What reading a missing or malformed output file can raise.
MALFORMED = (OSError, ValueError, KeyError, IndexError, TypeError)
_LINE_FUNCS = (lambda v, c: v - c, lambda v, c: c, lambda v, c: v, lambda v, c: c - 2 * v)


def _status_reason(status: dict, what: str):
    if status.get("exit") == 0:
        return None
    if status.get("exit") is None:
        return f"{what} raised {status['error']} in {status['where']}: {status['message']}"
    return f"{what} exited {status['exit']}"


# -- region_map -----------------------------------------------------------------

def check_region_map(work: Path, w, statuses):
    bad = _status_reason(statuses[0], "bifurcation")
    if bad:
        return {k: bad for k in range(w.ops)}, []
    try:
        return _check_region(work, w)
    except MALFORMED as exc:
        return ({k: f"bifurcation output unreadable: {exc!r}" for k in range(w.ops)},
                ["unreadable bifurcation output"])


def _check_region(work: Path, w):
    n, (lo, hi), point = w.meta["n"], w.meta["box"], w.meta["point"]
    problems = []
    grid = np.linspace(lo, hi, n)
    vv, cc = np.meshgrid(grid, grid, indexing="ij")
    expect = np.stack([O.classify(eq, vv, cc) for eq in O.IDS], axis=-1)   # (n, n, 7)

    lines = (work / "out" / "region_map.csv").read_text(encoding="utf-8").splitlines()
    if lines[0] != "v,c," + ",".join(O.IDS) or len(lines) != n * n + 1:
        return {k: "malformed region CSV" for k in range(w.ops)}, ["malformed region CSV"]
    got = np.empty((n * n, 7), dtype=np.int64)
    for k, line in enumerate(lines[1:]):
        parts = line.split(",")
        if float(parts[0]) != vv.flat[k] or float(parts[1]) != cc.flat[k]:
            problems.append(f"CSV row {k} is not grid node ({vv.flat[k]!r}, {cc.flat[k]!r})")
            break
        got[k] = [O.CODE[t] for t in parts[2:]]
    got = got.reshape(n, n, 7)
    failures = {int(k): "region CSV tag disagrees with the closed-form oracle"
                for k in np.flatnonzero((got != expect).any(axis=-1))}

    p5_stable = got[..., O.IDS.index("P5")] == O.CODE["StableNode"]
    if not np.array_equal(p5_stable, cc < vv):
        problems.append("P5 StableNode set differs from the half-plane c < v")

    # Every changed edge away from the origin must cross one of the four lines.
    step = (hi - lo) / (n - 1)
    for axis in (0, 1):
        a = [slice(None)] * 2
        b = [slice(None)] * 2
        a[axis], b[axis] = slice(None, -1), slice(1, None)
        a, b = tuple(a), tuple(b)
        changed = (expect[a] != expect[b]).any(axis=-1)
        crossed = np.zeros_like(changed)
        scale = 1.0 + np.maximum.reduce([abs(vv[a]), abs(cc[a]), abs(vv[b]), abs(cc[b])])
        for f in _LINE_FUNCS:
            fa, fb = f(vv[a], cc[a]), f(vv[b], cc[b])
            crossed |= (fa * fb <= 0) | (np.minimum(abs(fa), abs(fb)) <= 1e-12 * scale)
        far = np.minimum(np.maximum(abs(vv[a]), abs(cc[a])),
                         np.maximum(abs(vv[b]), abs(cc[b]))) > step + 1e-12
        if (changed & ~crossed & far).any():
            problems.append(f"{int((changed & ~crossed & far).sum())} changed edges "
                            "away from the origin cross no bifurcation line")

    report = json.loads((work / "stdout.txt").read_text(encoding="utf-8"))
    known = {"VeqC", "Ceq0", "Veq0", "Ceq2V"}
    reported = {entry["line"] for entry in report["transition_lines"]}
    if reported - known:
        problems.append(f"transition report names {sorted(reported - known)}")

    svg = (work / "out" / f"region_{point}.svg").read_text(encoding="utf-8")
    fills = re.findall(r'<rect [^>]*fill="(#[0-9a-f]{6})"', svg)
    if len(fills) != n * n:
        problems.append(f"region SVG has {len(fills)} cells, expected {n * n}")
    else:
        k_point = O.IDS.index(point)
        drawn = np.array([O.CODE[O.REGION_COLORS[f]] for f in fills]).reshape(n, n)
        for k in np.flatnonzero(drawn != expect[..., k_point]):
            failures.setdefault(int(k), "region SVG colour disagrees with the oracle")
    return failures, problems


# -- trajectory_ensemble ------------------------------------------------------------

def _read_rows(path: Path) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0] != "t,x,y,z,w":
        raise ValueError(f"{path.name}: bad header")
    return np.array([[float(t) for t in line.split(",")] for line in lines[1:]])


def check_trajectory_ensemble(work: Path, w, statuses):
    failures, problems = {}, []
    op = 0
    for run, status in zip(w.meta["runs"], statuses):
        starts = run["starts"]
        ops = range(op, op + len(starts))
        op += len(starts)
        bad = _status_reason(status, "simulate")
        if bad:
            failures.update({k: bad for k in ops})
            continue
        out = work / run["out"]
        try:
            run_failures, run_problems = _check_run(out, run, ops)
        except MALFORMED as exc:
            run_failures = {k: f"simulate output unreadable: {exc!r}" for k in ops}
            run_problems = [f"{run['out']}: unreadable output"]
        failures.update(run_failures)
        problems += run_problems
    return failures, problems


def _check_run(out: Path, run: dict, ops: range):
    failures, problems = {}, []
    starts = run["starts"]
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    sidecars = summary["trajectories"]
    if len(sidecars) != len(starts):
        problems.append(f"{run['out']}: {len(sidecars)} trajectories for {len(starts)} starts")
        return {k: "missing trajectory" for k in ops}, problems
    attractors = O.stable_points(run["v"], run["c"])
    histogram = {}
    for i, (k, start, side) in enumerate(zip(ops, starts, sidecars)):
        rows = _read_rows(out / f"trajectory_{i:03d}.csv")
        shares = rows[:, 1:]
        if (rows[0, 0] != 0.0 or list(rows[0, 1:4]) != start
                or np.any(np.diff(rows[:, 0]) <= 0)
                or shares.min() < -O.SIMPLEX_TOL
                or np.abs(shares.sum(axis=1) - 1.0).max() > 1e-12
                or list(rows[-1, 1:]) != side["final_state"]):
            failures[k] = "trajectory CSV is inconsistent (start, time order or simplex)"
            continue
        term = side["terminal"]
        key = ((side["nearest_equilibrium"] or "unidentified")
               if term == "ConvergedToEquilibrium" else term)
        histogram[key] = histogram.get(key, 0) + 1
        if term == "TimeLimit":
            failures[k] = "time_limit"
            continue
        if term != "ConvergedToEquilibrium":
            failures[k] = term
            continue
        final = rows[-1, 1:4]
        near = [eq for eq, xyz in attractors.items() if math.dist(final, xyz) <= 1e-3]
        if not near:
            failures[k] = "converged away from every oracle StableNode"
        elif side["nearest_equilibrium"] not in near:
            failures[k] = (f"nearest_equilibrium {side['nearest_equilibrium']} "
                           f"but the oracle attractor is {near}")
    if histogram != summary["terminals"]:
        problems.append(f"{run['out']}: terminal histogram does not match the trajectories")
    svg = (out / "portrait.svg").read_text(encoding="utf-8")
    if svg.count("<polyline ") != 3 * len(starts):
        problems.append(f"{run['out']}: portrait has the wrong number of polylines")
    return failures, problems


# -- point_queries ------------------------------------------------------------------

def _check_equilibria(payload, v, c):
    if payload["v"] != v or payload["c"] != c:
        return "equilibria echoes other parameters"
    tags = O.classify_point(v, c)
    rows = payload["equilibria"]
    if [r["id"] for r in rows] != list(O.IDS):
        return "equilibria lists the wrong points"
    for r in rows:
        xyz = O.coords(r["id"], v, c)
        if r["defined"] != (xyz is not None):
            return f"{r['id']} defined={r['defined']}"
        if r["classification"] != tags[r["id"]]:
            return f"{r['id']} tagged {r['classification']}, oracle {tags[r['id']]}"
        if xyz is not None and ((r["x"], r["y"], r["z"]) != xyz
                                or r["in_simplex"] != O.in_simplex(xyz)):
            return f"{r['id']} coordinates or simplex flag wrong"
    return None


def _check_nash(payload, v, c):
    tol = 1e-10 * (1.0 + abs(v) + abs(c))
    expect = {O.lift(xyz) for xyz in O.stable_points(v, c).values()}
    got = {tuple(r["candidate"]) for r in payload["reports"]}
    if got != expect:
        return f"nash candidates {sorted(got)}, oracle {sorted(expect)}"
    for r in payload["reports"]:
        if r["via_best_response"] != (O.best_response_margin(v, c, r["candidate"]) >= -tol):
            return "nash best-response flag disagrees with the oracle margin"
    for k, chk in enumerate(payload["pure_strategy_checks"]):
        sigma = [1.0 if i == k else 0.0 for i in range(4)]
        margin = O.best_response_margin(v, c, sigma)
        if chk["via_best_response"] != (margin >= -tol) or abs(chk["margin"] - margin) > tol:
            return f"pure strategy {chk['strategy']} check disagrees with the oracle"
    return None


def _check_two_strategy(payload, work, v, c, z0):
    expect = [(z, O.tag_1d(v, c, slope)) for z, slope in O.f_prime_1d(v, c)]
    got = [(e["z"], e["tag"]) for e in payload["equilibria"]]
    if got != expect:
        return f"two-strategy equilibria {got}, oracle {expect}"
    if [(e["label"], e["matches"]) for e in payload["correspondence"]] != \
            [("z=0", ["P7"]), ("z=v/c", ["P1", "P4"]), ("z=1", [])]:
        return "two-strategy correspondence changed"
    if bool(payload["notes"]) != (c == 0):
        return "two-strategy c = 0 note missing or spurious"
    if z0 is None:
        return None if "simulations" not in payload else "unexpected simulation"
    (sim,) = payload["simulations"]
    zf = sim["z_final"]
    rows = (work / sim["csv"]).read_text(encoding="utf-8").splitlines()
    if rows[0] != "t,z" or float(rows[-1].split(",")[1]) != zf:
        return "hawk-share CSV does not end at z_final"
    # A 1D flow is monotone: z moves towards the next equilibrium in the
    # direction of f(z0) and never passes it.
    rate = O.rate_1d(v, c, z0)
    eqs = sorted({0.0, 1.0} | ({v / c} if c != 0 and 0 < v / c < 1 else set()))
    slack = 1e-9
    if rate > 0:
        ok = z0 - slack <= zf <= min(e for e in eqs if e >= z0) + slack
    elif rate < 0:
        ok = max(e for e in eqs if e <= z0) - slack <= zf <= z0 + slack
    else:
        ok = abs(zf - z0) <= slack
    return None if ok else f"z moved from {z0} to {zf} against the flow"


def check_point_queries(work: Path, w, statuses):
    failures = {}
    names = ("equilibria", "nash", "two-strategy")
    for i, pt in enumerate(w.meta["points"]):
        v, c = pt["v"], pt["c"]
        checks = (lambda p: _check_equilibria(p, v, c), lambda p: _check_nash(p, v, c),
                  lambda p: _check_two_strategy(p, work, v, c, pt["z0"]))
        # In command order, so a wrong tag is reported before the nash
        # failure it causes.
        reason = None
        for k, (name, stem, check) in enumerate(zip(names, ("eq", "nash", "two"), checks)):
            reason = _status_reason(statuses[3 * i + k], name)
            if reason is None:
                try:
                    path = work / f"out/{stem}_{i:03d}.json"
                    reason = check(json.loads(path.read_text(encoding="utf-8")))
                except MALFORMED as exc:
                    reason = f"{name} output unreadable: {exc!r}"
            if reason:
                failures[i] = reason
                break
    return failures, []


CHECKS = {
    "region_map": check_region_map,
    "trajectory_ensemble": check_trajectory_ensemble,
    "point_queries": check_point_queries,
}


def known_defect(w, op: int, reason: str):
    """The recorded seed-state defect an op failure belongs to, if any.

    Failures outside these classes make the run incorrect; failures inside
    them are still counted in ``failed``.
    """
    eq = reason[:2]
    if w.name == "point_queries" and eq in O.IDS and reason.startswith(f"{eq} tagged "):
        pt = w.meta["points"][op]
        if np.abs(O.closed_form_eigs(eq, pt["v"], pt["c"])).max() < SMALL_EIG:
            return (f"wrong tag where every eigenvalue is below {SMALL_EIG:g} "
                    "(eigenvalue tolerances scaled by 1 + max|lambda|)")
    if w.name == "trajectory_ensemble" and reason == "time_limit":
        return "TimeLimit under the absolute convergence threshold"
    return None
