"""The game's exact symmetries, checked at the scan and at the command line.

Swapping y and z maps P1 onto P4, so their codes agree at every node, and
``simulate`` from swapped starts swaps P1 and P4 in its summary and the y
and z columns of every trajectory, bit for bit; a start or a four-share
state at the edge of the simplex tolerance is accepted exactly when its
mirror is.  Scaling (v, c) by k > 0 scales every eigenvalue by k, so tags
and transition lines must not change with the box's scale, down to
subnormal boxes and up to the top of the float range; and at 2^k (v, c),
k = -1000..1000, the ``equilibria``, ``two-strategy``, ``nash`` and
``simulate`` answers are those at k = 0 (nash's flags only from k = -25
up: ROADMAP item 3).  The bifurcation checks run ``python -m
hawkdove.cli`` as a subprocess, as a user would, under ``-W error`` where
a warning would mean an overflow or underflow; the other commands run
``main`` in process, where ``filterwarnings`` in ``pyproject.toml`` makes
every warning an error.

The other scaling checks sit beside the code they test: the catalog's
tags in ``test_equilibrium_catalog.py``, the stepper's bits in
``test_integrator.py``, nash's margins in ``test_nash.py``, the 1D tags in
``test_two_strategy.py``, and each command's tags, flags and strict JSON
from 1e-300 to 1e308 in ``test_cli.py``.  CI runs exactly this suite and
the benchmark's correctness smoke, nothing else.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hawkdove
from hawkdove import Params, scan
from hawkdove.bifurcation import GridSpec
from hawkdove.cli import main
from hawkdove.equilibrium_catalog import EquilibriumId
from hawkdove.integrator import random_interior_starts
from hawkdove.nash import best_response_check

SRC = str(Path(hawkdove.__file__).resolve().parent.parent)
EQS = list(EquilibriumId)
# x + (y + z) is the float 1 + 1e-9, the edge of the simplex tolerance;
# summed left to right, its mirror's x + z + y is one ulp beyond it
BOUNDARY_START = (0.312860152054027, 0.04502749037411825, 0.6421123585718549)


def cli(*argv, warnings_as_errors=False):
    """Run the CLI in a fresh interpreter; its stdout, after a zero exit."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("HAWKDOVE_OUTDIR", None)
    flags = ["-W", "error"] if warnings_as_errors else []
    proc = subprocess.run([sys.executable, *flags, "-m", "hawkdove.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def box(b, n):
    return [f"--v-min=-{b}", f"--v-max={b}", f"--c-min=-{b}", f"--c-max={b}",
            "--nv", n, "--nc", n]


def transition_lines(out_dir, *argv, warnings_as_errors=False):
    out = cli("bifurcation", *argv, "--out-dir", out_dir,
              warnings_as_errors=warnings_as_errors)
    return json.loads(out)["transition_lines"]


@pytest.mark.parametrize("spec", [
    GridSpec(-0.3, 0.3, -0.3, 0.3, 401, 401),
    GridSpec(-1e308, 1e308, -1e308, 1e308, 201, 201),
    GridSpec(-5e-323, 5e-323, -5e-323, 5e-323, 201, 201),
    GridSpec(-3e-14, 3e-14, -3e-14, 3e-14, 201, 201),
], ids=["0.3", "1e308", "5e-323", "3e-14"])
def test_scan_codes_of_p1_and_p4_agree_at_every_node(spec):
    m = scan(spec)
    assert np.array_equal(m.codes[EQS.index(EquilibriumId.P1)],
                          m.codes[EQS.index(EquilibriumId.P4)])


def test_cli_bifurcation_writes_csv_and_svg(tmp_path):
    for name, argv, n_nodes in (
            ("bif", ["--nv", 41, "--nc", 41], 41 * 41),
            ("bif-1d", ["--v-min", 0.1, "--v-max", 0.1, "--nv", 1, "--nc", 9], 9)):
        out = tmp_path / name
        report = json.loads(cli("bifurcation", *argv, "--svg", "--out-dir", out))
        assert Path(report["svg"]) == out / "region_P1.svg"
        assert (out / "region_P1.svg").read_text().endswith("</svg>\n")
        assert len((out / "region_map.csv").read_text().splitlines()) == 1 + n_nodes


def test_cli_region_map_tags_invariant_under_scaling(tmp_path):
    # the nodes on c = 0 and v = 0 must stay exactly on zero when the box
    # is scaled, so the tags agree node for node
    def tag_columns(name, b):
        cli("bifurcation", *box(b, 201), "--out-dir", tmp_path / name)
        lines = (tmp_path / name / "region_map.csv").read_text().splitlines()
        return [line.split(",", 2)[2] for line in lines]

    unit = tag_columns("bif-unit", 0.3)
    assert len(unit) == 1 + 201 * 201
    assert tag_columns("bif-small", 3e-6) == unit


def test_cli_transition_lines_invariant_under_scaling(tmp_path):
    # the +-1e308 box's Unexplained entries may only be tags that overflow
    # to Undefined
    unit = transition_lines(tmp_path / "tl-unit", *box(0.3, 41))
    small = transition_lines(tmp_path / "tl-small", *box(3e-14, 41))
    huge = transition_lines(tmp_path / "tl-huge", *box(1e308, 41))
    assert small == unit
    assert [bl for bl in huge if bl["line"] != "Unexplained"] == unit
    overflow = [desc for bl in huge if bl["line"] == "Unexplained" for _, desc in bl["affected"]]
    assert all("Undefined" in desc.split("<->") for desc in overflow)


def test_cli_transition_lines_on_a_subnormal_box(tmp_path):
    # the +-5e-323 box's nodes are the integers -10..10 times the smallest
    # subnormal, so it reports the +-10 box's lines, with warnings as errors
    sub = transition_lines(tmp_path / "tl-sub", *box(5e-323, 21), warnings_as_errors=True)
    ten = transition_lines(tmp_path / "tl-10", *box(10, 21), warnings_as_errors=True)
    assert sub == ten


def test_cli_simulate_swaps_p1_and_p4_when_y_and_z_swap(tmp_path):
    # the boundary start and the same 20 seeded starts, and each with y and
    # z swapped, in process: a start is accepted exactly when its mirror is
    starts = [BOUNDARY_START, *random_interior_starts(20, seed=7)]
    swapped = tmp_path / "swapped.csv"
    swapped.write_text("x,y,z\n" + "".join(f"{x!r},{z!r},{y!r}\n" for x, y, z in starts))
    runs = []
    for name, argv in (("seeded", ["--start", ",".join(map(repr, BOUNDARY_START)),
                                   "--random-starts", "20", "--seed", "7"]),
                       ("swapped", ["--starts-file", str(swapped)])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--v", "0.1", "--c", "0.2", *argv,
                         "--out-dir", str(tmp_path / name)]) == 0
        runs.append(json.loads((tmp_path / name / "summary.json").read_text()))
    twin = {"P1": "P4", "P4": "P1"}
    seeded, mirrored = runs
    assert set(seeded["terminals"]) == {"P1", "P4"}
    assert mirrored["terminals"] == {twin[k]: n for k, n in seeded["terminals"].items()}
    assert [t["closest_point"] for t in mirrored["trajectories"]] == \
        [twin.get(t["closest_point"], t["closest_point"]) for t in seeded["trajectories"]]
    for i in range(len(starts)):
        rows, mirror = ([line.split(",") for line in
                         (tmp_path / name / f"trajectory_{i:03d}.csv").read_text().splitlines()[1:]]
                        for name in ("seeded", "swapped"))
        # t, x, y, z, w: the CSV's 17 digits give back the exact floats
        assert mirror == [[t, x, z, y, w] for t, x, y, z, w in rows], i


def test_best_response_check_takes_a_state_with_its_mirror():
    # summed left to right, this state's shares came to 1 within the
    # simplex tolerance and its mirror's did not
    x, y, z, w = 0.011602091313445896, 0.1396867963134316, 0.2830070150994941, 0.5657040982736283

    def accepted(state):
        try:
            best_response_check(Params(0.1, 0.2), state)
        except ValueError:
            return False
        return True

    assert accepted((x, y, z, w)) == accepted((x, z, y, w))


# Scaling (v, c) by 2^k is exact at these points for every k here, so each
# command's tags, terminals and share columns must be those at k = 0.  At
# k = 1000 the smallest step, 1e-14 in scaled time, is subnormal in physical
# time, so the commands that integrate exit 2 there.
SCALE_KS = sorted({*range(-1000, 1001, 25), -1, 1})
SCALE_POINTS = ((0.1, 0.2), (-0.2, -0.1), (0.3, 0.7))


def command(*argv):
    """``main(argv)`` in process; its stdout, after a zero exit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([str(a) for a in argv]) == 0
    return out.getvalue()


def scale_free_answers(v, c, out_dir):
    """The equilibria and two-strategy tags at (v, c), and, where the
    commands integrate, each trajectory's terminal and (t, shares) rows."""
    vc = (f"--v={v!r}", f"--c={c!r}")
    answers = {
        "equilibria": [r["classification"] for r in
                       json.loads(command("equilibria", *vc, "--format", "json"))["equilibria"]],
        "two-strategy": [r["tag"] for r in json.loads(command("two-strategy", *vc))["equilibria"]],
    }
    if out_dir is None:
        return answers
    command("two-strategy", *vc, "--z0", "0.9", "--z0", "0.05", "--out-dir", out_dir / "two")
    command("simulate", *vc, "--random-starts", "3", "--seed", "5", "--out-dir", out_dir / "sim")
    summary = json.loads((out_dir / "sim" / "summary.json").read_text())
    answers["terminals"] = [(t["terminal"], t["nearest_equilibrium"])
                            for t in summary["trajectories"]]
    answers["rows"] = [[[float(t), shares] for t, shares in
                        (line.split(",", 1) for line in path.read_text().splitlines()[1:])]
                       for path in sorted(out_dir.glob("*/*.csv"))]
    return answers


@pytest.fixture(scope="module")
def at_scale_1(tmp_path_factory):
    out = tmp_path_factory.mktemp("unit")
    return [scale_free_answers(v, c, out / str(n)) for n, (v, c) in enumerate(SCALE_POINTS)]


@pytest.mark.parametrize("k", SCALE_KS)
def test_cli_commands_are_invariant_under_powers_of_two(tmp_path, capsys, at_scale_1, k):
    for n, ((v, c), unit) in enumerate(zip(SCALE_POINTS, at_scale_1)):
        big = (math.ldexp(v, k), math.ldexp(c, k))
        if k == 1000:
            for argv in (("two-strategy", "--z0", "0.9"), ("simulate", "--random-starts", "3")):
                with pytest.raises(SystemExit) as exc:
                    main([*argv, f"--v={big[0]!r}", f"--c={big[1]!r}",
                          "--out-dir", str(tmp_path / "none")])
                assert exc.value.code == 2
                assert "cannot be represented" in capsys.readouterr().err
            assert not (tmp_path / "none").exists()
            got = scale_free_answers(*big, None)
            assert got == {key: unit[key] for key in got}, (v, c)
            continue
        got = scale_free_answers(*big, tmp_path / str(n))
        # physical time scales by exactly 2^-k
        got["rows"] = [[[math.ldexp(t, k), shares] for t, shares in rows] for rows in got["rows"]]
        assert got == unit, (v, c)


# ROADMAP item 3: the absolute 1 in nash_tol = 1e-10 (1 + |v| + |c|) does
# not scale with (v, c), so from 2^-50 (v, c) down it outgrows the margins:
# at 2^k (0.1, 0.2) all four pure strategies pass, against HD and DH at k = 0
NASH_TOL_NOT_SCALE_FREE = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 3: nash_tol's absolute 1 + term is not scale-free")


@pytest.mark.parametrize("k", [pytest.param(k, marks=NASH_TOL_NOT_SCALE_FREE) if k <= -50 else k
                               for k in SCALE_KS])
def test_cli_nash_flags_are_invariant_under_powers_of_two(k):
    def flags(v, c):
        payload = json.loads(command("nash", f"--v={v!r}", f"--c={c!r}"))
        return [r["via_best_response"] for r in payload["pure_strategy_checks"]]

    for v, c in SCALE_POINTS:
        assert flags(math.ldexp(v, k), math.ldexp(c, k)) == flags(v, c), (v, c)
