"""The game's exact symmetries, checked at the scan and at the command line.

Swapping y and z maps P1 onto P4, so their codes agree at every node.
Scaling (v, c) by k > 0 scales every eigenvalue by k, so tags and
transition lines must not change with the box's scale, down to subnormal
boxes and up to the top of the float range.  The command-line checks run
``python -m hawkdove.cli`` as a subprocess, as a user would, under
``-W error`` where a warning would mean an overflow or underflow.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hawkdove
from hawkdove import scan
from hawkdove.bifurcation import GridSpec
from hawkdove.equilibrium_catalog import EquilibriumId

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
