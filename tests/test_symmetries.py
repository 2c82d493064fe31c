"""The game's exact symmetries, checked at the scan and at the command line.

Swapping y and z maps P1 onto P4, so their codes agree at every node, and
``simulate`` from swapped starts swaps P1 and P4 in its summary and the y
and z columns of every trajectory, bit for bit.  Scaling (v, c) by k > 0
scales every eigenvalue by k, so tags and transition lines must not change
with the box's scale, down to subnormal boxes and up to the top of the
float range.  The bifurcation checks run ``python -m hawkdove.cli`` as a
subprocess, as a user would, under ``-W error`` where a warning would mean
an overflow or underflow; the ``simulate`` check runs ``main`` in process
with warnings as errors.

The other scaling checks sit beside the code they test: the catalog's
tags in ``test_equilibrium_catalog.py``, the stepper's bits in
``test_integrator.py``, nash's margins in ``test_nash.py``, the 1D tags in
``test_two_strategy.py``, and each command's tags, flags and strict JSON
from 1e-300 to 1e308 in ``test_cli.py``.  CI runs exactly this suite and
the benchmark's correctness smoke, nothing else.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hawkdove
from hawkdove import scan
from hawkdove.bifurcation import GridSpec
from hawkdove.cli import main
from hawkdove.equilibrium_catalog import EquilibriumId
from hawkdove.integrator import random_interior_starts

SRC = str(Path(hawkdove.__file__).resolve().parent.parent)
EQS = list(EquilibriumId)


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
    # the same 20 seeded starts, and each with y and z swapped, in process
    starts = random_interior_starts(20, seed=7)
    swapped = tmp_path / "swapped.csv"
    swapped.write_text("x,y,z\n" + "".join(f"{x!r},{z!r},{y!r}\n" for x, y, z in starts))
    runs = []
    for name, argv in (("seeded", ["--random-starts", "20", "--seed", "7"]),
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
    for i in range(20):
        rows, mirror = ([line.split(",") for line in
                         (tmp_path / name / f"trajectory_{i:03d}.csv").read_text().splitlines()[1:]]
                        for name in ("seeded", "swapped"))
        # t, x, y, z, w: the CSV's 17 digits give back the exact floats
        assert mirror == [[t, x, z, y, w] for t, x, y, z, w in rows], i
