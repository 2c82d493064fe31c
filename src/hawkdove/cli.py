"""Command-line surface: equilibria, simulate, bifurcation, nash, two-strategy.

All outputs are file-based (CSV/JSON, optional static SVG projections).
Floats in CSV are printed with 17 significant digits so files re-parse to
the exact in-memory values.  Exit codes: 0 success, 2 usage error,
3 numerical failure (a ``simulate`` lane that ends at ``StepFailure`` or
``StepBudget``).  A usage error is an input the parser or the library
rejects, or an output path that cannot be written.  Each ``cmd_*`` only
computes, and returns its report text, its ``--out`` (None: stdout), its
files as (path, writer) pairs and its exit code; ``main`` does the writing.
Nothing is written until the command has finished computing; then its files
are written in order, then its report.  An unwritable path keeps the files
written before it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .bifurcation import (
    DEFAULT_GRID,
    GridSpec,
    detect_transitions,
    scan,
    write_region_csv,
    write_region_svg,
)
from .equilibrium_catalog import EquilibriumId, catalog
from .game_core import Params
from .integrator import (
    DEFAULT_SEED,
    IntegrationConfig,
    Terminal,
    batch_integrate,
    random_interior_starts,
    write_trajectory_csv,
    trajectory_sidecar,
)
from .nash import nash_report
from .replicator_field import ReducedState
from .svg import Canvas
from .two_strategy import classify_1d, correspondence, simulate_hawk_share

EXIT_OK = 0
EXIT_NUMERIC = 3


def _out_dir(arg: str | None) -> Path:
    return Path(arg or os.environ.get("HAWKDOVE_OUTDIR", "."))


def _write_text(text: str, path) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _json_float(x):
    """x, or None (JSON null) where x is None or not finite: strict JSON
    has no Infinity or NaN."""
    return x if x is not None and math.isfinite(x) else None


def _add_params(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--v", type=float, required=True, help="resource value v")
    sub.add_argument("--c", type=float, required=True, help="contest cost c")


# ---------------------------------------------------------------- equilibria

def cmd_equilibria(args) -> tuple:
    p = Params(args.v, args.c).validate()
    records = catalog(p)
    rows = []
    for rec in records:
        eigs = ("-", "-", "-") if rec.eigenvalues is None else tuple(
            f"{l:.6g}" for l in rec.eigenvalues)
        agree = rec.agrees_with_paper
        rows.append({
            "id": rec.id.value,
            "x": rec.coords.x, "y": rec.coords.y, "z": rec.coords.z,
            "defined": rec.defined,
            "in_simplex": rec.in_simplex,
            "eigenvalues": eigs,
            "classification": rec.classification.value,
            "paper_region_class": rec.paper_region_class.value if rec.paper_region_class else "-",
            "paper_agrees": "-" if agree is None else str(agree),
            "coincides_with": ",".join(t.value for t in rec.coincides_with) or "-",
        })

    if args.format == "json":
        payload = {"v": p.v, "c": p.c, "equilibria": [
            {**r, **{k: _json_float(r[k]) for k in "xyz"}} for r in rows]}
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        lines = ["id,x,y,z,defined,in_simplex,eig1,eig2,eig3,"
                 "classification,paper_region_class,paper_agrees,coincides_with"]
        for r in rows:
            lines.append(",".join([
                r["id"], f"{r['x']:.17g}", f"{r['y']:.17g}", f"{r['z']:.17g}",
                str(r["defined"]), str(r["in_simplex"]),
                *[str(e) for e in r["eigenvalues"]],
                r["classification"], r["paper_region_class"], r["paper_agrees"],
                f"\"{r['coincides_with']}\"" if "," in r["coincides_with"] else r["coincides_with"],
            ]))
        text = "\n".join(lines) + "\n"
    else:
        header = (f"{'id':<4}{'x':>10}{'y':>10}{'z':>10}  {'def':<7}{'simplex':<9}"
                  f"{'eigenvalues':<34}{'class':<28}{'paper':<28}{'agree':<6}")
        lines = [f"v={p.v:g} c={p.c:g}", header, "-" * len(header)]
        for r in rows:
            eig = ", ".join(str(e) for e in r["eigenvalues"])
            lines.append(
                f"{r['id']:<4}{r['x']:>10.4g}{r['y']:>10.4g}{r['z']:>10.4g}  "
                f"{str(r['defined']):<7}{str(r['in_simplex']):<9}{eig:<34}"
                f"{r['classification']:<28}{r['paper_region_class']:<28}{r['paper_agrees']:<6}")
        text = "\n".join(lines) + "\n"

    return text, args.out, (), EXIT_OK


# ----------------------------------------------------------------- simulate

def _parse_starts(args) -> list[ReducedState]:
    """The --start, --starts-file and --random-starts starts, in that order;
    ``batch_integrate`` checks that each lies on the simplex."""
    def start(text: str, where: str) -> ReducedState:
        try:
            vals = tuple(float(t) for t in text.split(","))
        except ValueError:
            vals = ()
        if len(vals) != 3:
            raise ValueError(f"{where}: bad start {text!r}; expected x,y,z")
        return ReducedState(*vals)

    starts = [start(spec, "--start") for spec in args.start or []]
    if args.starts_file:
        try:
            text = Path(args.starts_file).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read --starts-file: {exc}") from exc
        for n, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if line and not line.startswith(("#", "x")):
                starts.append(start(line, f"{args.starts_file}:{n}"))
    if args.random_starts:
        starts.extend(random_interior_starts(args.random_starts, seed=args.seed))
    return starts


def _project_xy(val_a, val_b, origin, size):
    # unit square [0,1]^2 to canvas coordinates, y axis flipped; floats or arrays
    ox, oy = origin
    return ox + val_a * size, oy + size - val_b * size


def _simulate_svg(p, trajectories, starts, path) -> None:
    panel, margin = 260, 36
    width = 3 * panel + 4 * margin
    height = panel + 2 * margin
    cv = Canvas(width, height)
    pairs = (("x", "y", 0, 1), ("x", "z", 0, 2), ("y", "z", 1, 2))
    records = [r for r in catalog(p) if r.defined and r.in_simplex]
    for k, (na, nb, ia, ib) in enumerate(pairs):
        ox = margin + k * (panel + margin)
        oy = margin
        cv.rect(ox, oy, panel, panel, fill="white", stroke="black", stroke_width=1.0)
        # simplex boundary a + b <= 1
        cv.line(*_project_xy(0, 1, (ox, oy), panel), *_project_xy(1, 0, (ox, oy), panel),
                stroke="gray", width=0.8, dash="4 3")
        for traj in trajectories:
            xs, ys = _project_xy(traj.samples[:, 1 + ia], traj.samples[:, 1 + ib], (ox, oy), panel)
            cv.polyline(zip(xs.tolist(), ys.tolist()), stroke="steelblue", width=0.9,
                        opacity=0.75)
        for s in starts:
            sx, sy = _project_xy(s[ia], s[ib], (ox, oy), panel)
            cv.circle(sx, sy, 2.2, fill="seagreen")
        for rec in records:
            ex, ey = _project_xy(rec.coords[ia], rec.coords[ib], (ox, oy), panel)
            cv.cross(ex, ey, 8)
            cv.text(ex + 5, ey - 5, rec.id.value, size=10, fill="red")
        cv.text(ox + panel / 2, oy + panel + 16, f"{na}-{nb}", anchor="middle")
    cv.text(margin, height - 6, f"v={p.v:g} c={p.c:g}", size=10)
    cv.write(path)


def cmd_simulate(args) -> tuple:
    p = Params(args.v, args.c).validate()
    starts = _parse_starts(args)
    cfg = IntegrationConfig(rtol=args.rtol, atol=args.atol, t_end=args.t_end,
                            max_step=args.max_step, record_stride=args.stride)
    trajectories = batch_integrate(p, starts, cfg)
    out = _out_dir(args.out_dir)

    histogram: dict[str, int] = {}
    files = []
    for i, traj in enumerate(trajectories):
        files.append((out / f"trajectory_{i:03d}.csv",
                      functools.partial(write_trajectory_csv, traj)))
        if traj.terminal is Terminal.CONVERGED:
            key = traj.nearest.value if traj.nearest else "unidentified"
        else:
            key = traj.terminal.value
        histogram[key] = histogram.get(key, 0) + 1

    summary = {
        "v": p.v, "c": p.c, "n_trajectories": len(trajectories),
        "seed": args.seed,
        "terminals": dict(sorted(histogram.items())),
        "trajectories": [trajectory_sidecar(t) for t in trajectories],
    }
    files.append((out / "summary.json",
                  functools.partial(_write_text, json.dumps(summary, indent=2) + "\n")))
    if args.svg:
        files.append((out / "portrait.svg",
                      functools.partial(_simulate_svg, p, trajectories, starts)))

    text = json.dumps({"terminals": summary["terminals"], "out_dir": str(out)}) + "\n"
    failed = any(t.terminal in (Terminal.STEP_FAILURE, Terminal.STEP_BUDGET)
                 for t in trajectories)
    return text, None, files, EXIT_NUMERIC if failed else EXIT_OK


# --------------------------------------------------------------- bifurcation

def cmd_bifurcation(args) -> tuple:
    m = scan(GridSpec(args.v_min, args.v_max, args.c_min, args.c_max, args.nv, args.nc))
    lines = detect_transitions(m)
    out = _out_dir(args.out_dir)
    csv_path = out / (args.out or "region_map.csv")
    files = [(csv_path, functools.partial(write_region_csv, m))]
    report = {
        "grid": m.spec._asdict(),
        "csv": str(csv_path),
        "transition_lines": [
            {"line": bl.id.value,
             "affected": [[eq.value, desc] for eq, desc in bl.affected],
             "on_line": [[eq.value, desc] for eq, desc in bl.on_line]}
            for bl in lines
        ],
    }
    if args.svg:
        eq = EquilibriumId(args.point)
        svg_path = out / f"region_{eq.value}.svg"
        files.append((svg_path, functools.partial(write_region_svg, m, eq)))
        report["svg"] = str(svg_path)
    return json.dumps(report, indent=2) + "\n", None, files, EXIT_OK


# ---------------------------------------------------------------------- nash

def cmd_nash(args) -> tuple:
    return json.dumps(nash_report(Params(args.v, args.c)), indent=2) + "\n", args.out, (), EXIT_OK


# -------------------------------------------------------------- two-strategy

def cmd_two_strategy(args) -> tuple:
    p = Params(args.v, args.c).validate()
    notes = []
    if p.c == 0:
        notes.append("c = 0: interior equilibrium z=v/c undefined; using the "
                     "limit form dz/dt = (v/2) z (1-z).")
    payload = {
        "v": p.v, "c": p.c,
        "equilibria": [{"z": _json_float(z), "tag": tag} for z, tag in classify_1d(p)],
        "correspondence": [
            {"label": e.label, "z": _json_float(e.z), "matches": [m.value for m in e.matches],
             "unmapped": not e.matches}
            for e in correspondence(p)
        ],
        "notes": notes,
    }
    files = []
    if args.z0:
        cfg = IntegrationConfig(t_end=args.t_end)
        out = _out_dir(args.out_dir)
        finals = []
        for i, z0 in enumerate(args.z0):
            samples = simulate_hawk_share(p, z0, cfg)
            path = out / f"hawk_share_{i:03d}.csv"
            rows = "%.17g,%.17g\n" * len(samples)
            csv = "t,z\n" + rows % tuple(t for s in samples for t in s)
            files.append((path, functools.partial(_write_text, csv)))
            finals.append({"z0": z0, "z_final": samples[-1][1], "csv": str(path)})
        payload["simulations"] = finals
    return json.dumps(payload, indent=2) + "\n", args.out, files, EXIT_OK


# --------------------------------------------------------------------- main

# Step control is in dimensionless time; the CSVs carry physical time t.
_TAU = "dimensionless time tau = s*t, s the power of two with max(|v|, |c|) in [s/2, s)"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``hawkdove`` parser, built once per process and shared by every
    ``main`` call: ``parse_args`` returns a fresh namespace each time, the
    repeatable options copy their list before appending, and help text is
    wrapped to the terminal width when it is printed, not when it is built.
    """
    parser = argparse.ArgumentParser(
        prog="hawkdove",
        description="Replicator dynamics of the four-strategy asymmetric "
                    "Hawk-Dove game: equilibria, stability, bifurcations, "
                    "Nash equilibria and simulations.")
    parser.add_argument("--version", action="version", version=f"hawkdove {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    eq = sub.add_parser("equilibria", help="catalog of the seven equilibria")
    _add_params(eq)
    eq.add_argument("--format", choices=("table", "csv", "json"), default="table")
    eq.add_argument("--out", help="write output to this file instead of stdout")
    eq.set_defaults(func=cmd_equilibria)

    sim = sub.add_parser("simulate", help="integrate trajectories and export them")
    _add_params(sim)
    sim.add_argument("--random-starts", type=int, default=0, metavar="N",
                     help="number of seeded uniform interior starts")
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sim.add_argument("--start", action="append", metavar="X,Y,Z",
                     help="explicit reduced start (repeatable)")
    sim.add_argument("--starts-file", help="CSV file of x,y,z starts")
    sim.add_argument("--t-end", type=float, default=2000.0,
                     help=f"time limit in {_TAU} (default %(default)s)")
    sim.add_argument("--rtol", type=float, default=1e-6)
    sim.add_argument("--atol", type=float, default=1e-9)
    sim.add_argument("--max-step", type=float, default=10.0,
                     help=f"largest step in {_TAU} (default %(default)s)")
    sim.add_argument("--stride", type=float, default=None,
                     help=f"record samples at least this far apart in {_TAU} "
                          "(default: every accepted step)")
    sim.add_argument("--out-dir", help="output directory (default $HAWKDOVE_OUTDIR or .)")
    sim.add_argument("--svg", action="store_true", help="write phase-portrait projections")
    sim.set_defaults(func=cmd_simulate)

    bif = sub.add_parser("bifurcation", help="scan the (v, c) plane")
    bif.add_argument("--v-min", type=float, default=DEFAULT_GRID.v_min)
    bif.add_argument("--v-max", type=float, default=DEFAULT_GRID.v_max)
    bif.add_argument("--c-min", type=float, default=DEFAULT_GRID.c_min)
    bif.add_argument("--c-max", type=float, default=DEFAULT_GRID.c_max)
    bif.add_argument("--nv", type=int, default=DEFAULT_GRID.n_v)
    bif.add_argument("--nc", type=int, default=DEFAULT_GRID.n_c)
    bif.add_argument("--out", help="CSV filename (default region_map.csv)")
    bif.add_argument("--out-dir", help="output directory (default $HAWKDOVE_OUTDIR or .)")
    bif.add_argument("--svg", action="store_true", help="also write a region heat map")
    bif.add_argument("--point", default="P1", choices=[e.value for e in EquilibriumId],
                     help="equilibrium colored in the heat map")
    bif.set_defaults(func=cmd_bifurcation)

    na = sub.add_parser("nash", help="Nash equilibria via stability + best response")
    _add_params(na)
    na.add_argument("--out", help="write JSON here instead of stdout")
    na.set_defaults(func=cmd_nash)

    two = sub.add_parser("two-strategy", help="two-strategy Hawk-Dove reduction")
    _add_params(two)
    two.add_argument("--z0", type=float, action="append",
                     help="initial Hawk share to simulate (repeatable)")
    two.add_argument("--t-end", type=float, default=2000.0,
                     help=f"time limit in {_TAU} (default %(default)s)")
    two.add_argument("--out", help="write JSON here instead of stdout")
    two.add_argument("--out-dir", help="output directory for trajectory CSVs")
    two.set_defaults(func=cmd_two_strategy)
    return parser


def _is_value(token: str) -> bool:
    try:
        for field in token.split(","):
            float(field)
    except ValueError:
        return False
    return True


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite "--opt -1e-07" as "--opt=-1e-07".

    argparse reads only plain negative decimals such as -0.5 as values; a
    token like -1e-07, -inf or -1e-10,0.5,0.5 is taken for an unknown
    option, so "--v -1e-07" would fail with "expected one argument".
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--":
            return out + argv[i:]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if (tok.startswith("--") and "=" not in tok and nxt.startswith("-")
                and _is_value(nxt)):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_attach_negative_values(argv))
    try:
        text, out, files, code = args.func(args)
        made = False
        for path, write in files:
            # the output directory is made for the first file in it, so a
            # file in a missing subdirectory fails with nothing created
            if not made and path.parent == _out_dir(args.out_dir):
                path.parent.mkdir(parents=True, exist_ok=True)
                made = True
            write(path)
        if out:
            _write_text(text, out)
        else:
            sys.stdout.write(text)
        return code
    except (ValueError, OSError) as exc:    # a rejected input or an unusable path
        parser.error(str(exc))


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
