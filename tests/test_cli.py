import hashlib
import json
import math
import re
import warnings

import pytest

from hawkdove import integrator
from hawkdove.cli import build_parser, main

from util import run_fresh


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_equilibria_table(capsys):
    code, out = run(capsys, "equilibria", "--v", "0.1", "--c", "0.2")
    assert code == 0
    p1_line = next(line for line in out.splitlines() if line.startswith("P1"))
    assert "StableNode" in p1_line
    assert "-0.025" in p1_line and "-0.05" in p1_line


def test_equilibria_undefined_rows_at_zero_cost(capsys):
    code, out = run(capsys, "equilibria", "--v", "0.1", "--c", "0")
    assert code == 0
    for eq in ("P3", "P6"):
        line = next(l for l in out.splitlines() if l.startswith(eq))
        assert "Undefined" in line


def test_equilibria_saddle_regime(capsys):
    code, out = run(capsys, "equilibria", "--v", "-0.2", "--c", "-0.1")
    assert code == 0
    p1_line = next(line for line in out.splitlines() if line.startswith("P1"))
    assert "Saddle" in p1_line


def test_equilibria_json_and_csv(tmp_path, capsys):
    jpath = tmp_path / "eq.json"
    code, _ = run(capsys, "equilibria", "--v", "0.1", "--c", "0.2",
                  "--format", "json", "--out", str(jpath))
    assert code == 0
    payload = json.loads(jpath.read_text())
    assert len(payload["equilibria"]) == 7
    assert payload["equilibria"][0]["id"] == "P1"

    cpath = tmp_path / "eq.csv"
    code, _ = run(capsys, "equilibria", "--v", "0.1", "--c", "0.2",
                  "--format", "csv", "--out", str(cpath))
    lines = cpath.read_text().splitlines()
    assert len(lines) == 8
    assert lines[0].startswith("id,x,y,z,defined")


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["equilibria", "--v", "0.1"])          # missing --c
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["equilibria", "--v", "nan", "--c", "0.1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bifurcation", "--nv", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--v", "0.1", "--c", "0.2", "--start", "0.9,0.9,0.9"])
    assert exc.value.code == 2


def test_negative_scientific_values_follow_their_option(tmp_path, capsys):
    # argparse alone takes "-1e-07" for an option flag
    for command in ("equilibria", "nash"):
        spaced = run(capsys, command, "--v", "-1e-07", "--c", "2e-07")
        joined = run(capsys, command, "--v=-1e-07", "--c=2e-07")
        assert spaced == joined
        assert spaced[0] == 0
    # and "-1e-10,0.5,0.5", a start on the simplex within its tolerance
    out = tmp_path / "sim"
    runs = []
    for start in (("--start", "-1e-10,0.5,0.5"), ("--start=-1e-10,0.5,0.5",)):
        result = run(capsys, "simulate", "--v", "0.1", "--c", "0.2", *start,
                     "--out-dir", str(out))
        runs.append((result, {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
    assert runs[0] == runs[1]
    assert runs[0][0][0] == 0
    code, text = run(capsys, "equilibria", "--v", "-1e-07", "--c", "-2E+3", "--format", "json")
    assert code == 0
    payload = json.loads(text)
    assert (payload["v"], payload["c"]) == (-1e-07, -2000.0)
    with pytest.raises(SystemExit) as exc:
        main(["equilibria", "--v", "-inf", "--c", "0.1"])
    assert exc.value.code == 2


def test_simulate_outputs_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        code, _ = run(capsys, "simulate", "--v", "0.1", "--c", "0.2",
                      "--random-starts", "5", "--seed", "7",
                      "--out-dir", str(out), "--svg")
        assert code == 0
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["n_trajectories"] == 5
    assert set(summary["terminals"]) <= {"P1", "P4"}
    assert len(list(out1.glob("trajectory_*.csv"))) == 5
    svg = (out1 / "portrait.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    # fixed seed, fixed outputs
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert (out1 / "trajectory_000.csv").read_bytes() == (out2 / "trajectory_000.csv").read_bytes()
    assert (out1 / "portrait.svg").read_bytes() == (out2 / "portrait.svg").read_bytes()


# SHA-256 of portrait.svg from five seeded starts at three README presets
_GOLDEN_PORTRAITS = {
    ("0.1", "0.2"): "2bdd66e247a438b60e2e2205064cf3c9b41dff44d9d11ec9d4b6acb3ecaab5e3",
    ("0.2", "0.1"): "279db6b044ecc7362c8350854f677312999ffb80cd45c98377ec755a8898776e",
    ("-0.2", "-0.1"): "6c2d088b49010a3ac818f4fa2cfe47fdcf7e761bfd9b8fe5f1433f984fd4b0aa",
}


@pytest.mark.parametrize("v, c", list(_GOLDEN_PORTRAITS))
def test_simulate_portrait_svg_golden_bytes(tmp_path, capsys, v, c):
    code, _ = run(capsys, "simulate", f"--v={v}", f"--c={c}", "--random-starts", "5",
                  "--seed", "7", "--out-dir", str(tmp_path), "--svg")
    assert code == 0
    digest = hashlib.sha256((tmp_path / "portrait.svg").read_bytes()).hexdigest()
    assert digest == _GOLDEN_PORTRAITS[v, c]


def test_simulate_is_scale_invariant_under_powers_of_two(tmp_path, capsys):
    # 102.4 and 204.8 are exactly 2^10 times the floats 0.1 and 0.2, on
    # c = 2v; 307.2 and 716.8 are 2^10 times 0.3 and 0.7, off every line:
    # the terminals and share columns must match and every t scale by 2^-10.
    for pair in (("0.1", "0.2"), ("102.4", "204.8")), (("0.3", "0.7"), ("307.2", "716.8")):
        outs = []
        for v, c in pair:
            out = tmp_path / v
            code, stdout = run(capsys, "simulate", "--v", v, "--c", c, "--random-starts", "5",
                               "--seed", "7", "--out-dir", str(out))
            assert code == 0
            outs.append((out, json.loads(stdout)["terminals"]))
        (small, hist_small), (big, hist_big) = outs
        assert hist_small == hist_big
        for i in range(5):
            rows_small, rows_big = ([line.split(",", 1) for line in
                                     (out / f"trajectory_{i:03d}.csv").read_text().splitlines()[1:]]
                                    for out in (small, big))
            assert [r[1] for r in rows_big] == [r[1] for r in rows_small]
            assert [float(r[0]) for r in rows_big] == [float(r[0]) / 1024 for r in rows_small]


def test_simulate_explicit_start_and_stride(tmp_path, capsys):
    code, out = run(capsys, "simulate", "--v", "-0.1", "--c", "0.2",
                    "--start", "0.3,0.3,0.3", "--stride", "50",
                    "--out-dir", str(tmp_path / "s"))
    assert code == 0
    assert json.loads(out)["terminals"] == {"P7": 1}


def test_simulate_zero_starts_is_empty_success(tmp_path, capsys):
    out = tmp_path / "empty"
    code, _ = run(capsys, "simulate", "--v", "0.1", "--c", "0.2",
                  "--out-dir", str(out))
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_trajectories"] == 0
    assert summary["terminals"] == {}


def test_simulate_starts_file(tmp_path, capsys):
    starts = tmp_path / "starts.csv"
    starts.write_text("x,y,z\n0.2,0.3,0.4\n0.1,0.1,0.7\n")
    out = tmp_path / "fromfile"
    code, _ = run(capsys, "simulate", "--v", "-0.1", "--c", "0.2",
                  "--starts-file", str(starts), "--out-dir", str(out))
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_trajectories"] == 2
    assert summary["terminals"] == {"P7": 2}


@pytest.mark.parametrize("text, line", [
    ("x,y,z\n0.2,0.3,0.4\n0.1,abc,0.7\n", 3),     # non-numeric field
    ("x,y,z\n0.2,0.3\n", 2),                      # two fields
])
def test_simulate_malformed_starts_file_is_a_usage_error(tmp_path, capsys, text, line):
    starts = tmp_path / "starts.csv"
    starts.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--v", "0.1", "--c", "0.2", "--starts-file", str(starts),
              "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"{starts}:{line}: bad start" in capsys.readouterr().err


def test_simulate_missing_starts_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--v", "0.1", "--c", "0.2", "--starts-file", str(missing),
              "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot read --starts-file" in err and str(missing) in err


@pytest.mark.parametrize("source", ["--start", "--starts-file"])
def test_off_simplex_start_is_a_usage_error(tmp_path, capsys, source):
    # only batch_integrate checks the simplex; main reports its rejection
    if source == "--start":
        argv = ["--start", "0.9,0.9,0.9"]
    else:
        starts = tmp_path / "starts.csv"
        starts.write_text("x,y,z\n0.2,0.3,0.4\n0.9,0.9,0.9\n")
        argv = ["--starts-file", str(starts)]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--v", "0.1", "--c", "0.2", *argv, "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "(0.9, 0.9, 0.9) is off the simplex" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_step_failure_exits_3_with_partial_outputs(tmp_path, capsys):
    # both lanes fail on their first step: every file is still written, in full
    out = tmp_path / "fail"
    code, text = run(capsys, "simulate", "--v", "0.1", "--c", "0.2", "--start", "0.2,0.3,0.4",
                     "--start", "0.1,0.1,0.1", "--max-step", "1e-15", "--svg",
                     "--out-dir", str(out))
    assert code == 3
    assert text == json.dumps({"terminals": {"StepFailure": 2}, "out_dir": str(out)}) + "\n"
    assert sorted(f.name for f in out.iterdir()) == [
        "portrait.svg", "summary.json", "trajectory_000.csv", "trajectory_001.csv"]
    assert (out / "trajectory_000.csv").read_text() == (
        "t,x,y,z,w\n0,0.20000000000000001,0.29999999999999999,0.40000000000000002,"
        "0.10000000000000009\n")
    assert (out / "trajectory_001.csv").read_text() == (
        "t,x,y,z,w\n0,0.10000000000000001,0.10000000000000001,0.10000000000000001,"
        "0.69999999999999996\n")
    summary = (out / "summary.json").read_text()
    assert summary == json.dumps(json.loads(summary), indent=2) + "\n"
    assert [t["terminal"] for t in json.loads(summary)["trajectories"]] == ["StepFailure"] * 2
    assert (out / "portrait.svg").read_text().endswith("</svg>\n")


def test_a_simulate_that_neither_converges_nor_reaches_t_end_ends_on_its_step_budget(tmp_path):
    # With no step bound and a time limit out of reach, the lane settles
    # near P1 on steps the controller keeps rejecting and accepting at the
    # edge of the explicit pair's stability interval, and never converges:
    # without a budget of step attempts the command runs without end.  At
    # max_step = inf the budget is the allowance of 200,000 attempts, spent
    # in about 1.5 s on a 2-core Xeon, and the run exits 3 with its files.
    out = tmp_path / "runaway"
    text = run_fresh("-m", "hawkdove.cli", "simulate", "--v", "0.5", "--c", "0.75",
                     "--start", "0.2,0.3,0.4", "--max-step", "inf", "--t-end", "1e300",
                     "--stride", "1e6", "--out-dir", out, timeout=60, code=3)
    assert json.loads(text)["terminals"] == {"StepBudget": 1}
    (lane,) = json.loads((out / "summary.json").read_text())["trajectories"]
    assert lane["terminal"] == "StepBudget"
    assert lane["steps"] + lane["rejected_steps"] == 200_000


def test_a_simulate_at_a_small_max_step_still_reaches_t_end(tmp_path, capsys, monkeypatch):
    # The budget grows by four attempts per max_step that t_end spans: with
    # the allowance cut to 100, the 203 steps of 0.5 that reach t_end = 100
    # (tau; t = 400 at s = 1/4) still fit, and the run exits 0.
    monkeypatch.setattr(integrator, "_ATTEMPT_ALLOWANCE", 100)
    out = tmp_path / "fine"
    code, text = run(capsys, "simulate", "--v", "0.1", "--c", "0.2", "--start", "0.2,0.3,0.4",
                     "--max-step", "0.5", "--t-end", "100", "--out-dir", str(out))
    assert (code, json.loads(text)["terminals"]) == (0, {"TimeLimit": 1})
    (lane,) = json.loads((out / "summary.json").read_text())["trajectories"]
    assert (lane["steps"], lane["rejected_steps"]) == (203, 0)


def test_bifurcation_csv_and_svg(tmp_path, capsys):
    out = tmp_path / "bif"
    code, report = run(capsys, "bifurcation", "--nv", "13", "--nc", "13",
                       "--out-dir", str(out), "--svg", "--point", "P5")
    assert code == 0
    payload = json.loads(report)
    lines = (out / "region_map.csv").read_text().splitlines()
    assert lines[0] == "v,c,P1,P2,P3,P4,P5,P6,P7"
    assert len(lines) == 1 + 13 * 13
    assert (out / "region_P5.svg").exists()
    assert {bl["line"] for bl in payload["transition_lines"]} <= {
        "VeqC", "Ceq0", "Veq0", "Ceq2V"}


def test_bifurcation_accepts_1d_sweep(tmp_path, capsys):
    out = tmp_path / "sweep"
    code, _ = run(capsys, "bifurcation", "--v-min", "0.1", "--v-max", "0.1",
                  "--nv", "1", "--nc", "9", "--out-dir", str(out))
    assert code == 0
    assert len((out / "region_map.csv").read_text().splitlines()) == 10


@pytest.mark.parametrize("flat", [
    ("--v-min", "0.1", "--v-max", "0.1", "--nv", "1", "--nc", "9"),
    ("--c-min", "0.2", "--c-max", "0.2", "--nc", "1", "--nv", "9"),
], ids=["flat-v", "flat-c"])
def test_bifurcation_svg_of_1d_sweep(tmp_path, capsys, flat):
    out = tmp_path / "sweep"
    code, report = run(capsys, "bifurcation", *flat, "--svg", "--point", "P3",
                       "--out-dir", str(out))
    assert code == 0
    assert json.loads(report)["svg"] == str(out / "region_P3.svg")
    svg = (out / "region_P3.svg").read_text()
    assert svg.count("<rect ") == 9
    assert len((out / "region_map.csv").read_text().splitlines()) == 10


def test_bifurcation_svg_lines_are_clipped_to_the_panel(tmp_path, capsys):
    # c = 0 and v = 0 miss this box; v = c and c = 2v cross it
    box = {"v_min": 0.1, "v_max": 0.3, "c_min": 0.1, "c_max": 0.3}
    out = tmp_path / "box"
    code, _ = run(capsys, "bifurcation", *(f"--{k.replace('_', '-')}={x}" for k, x in box.items()),
                  "--nv", "5", "--nc", "5", "--svg", "--out-dir", str(out))
    assert code == 0
    svg = (out / "region_P1.svg").read_text()
    size, margin = 420, 40
    lines = {"v=c": lambda v, c: v - c, "c=0": lambda v, c: c,
             "v=0": lambda v, c: v, "c=2v": lambda v, c: c - 2 * v}
    drawn = []
    for x1, y1, x2, y2 in re.findall(
            r'<line x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)"', svg):
        ends = []
        for x, y in ((float(x1), float(y1)), (float(x2), float(y2))):
            assert margin <= x <= margin + size and margin <= y <= margin + size
            ends.append((box["v_min"] + (x - margin) / size * (box["v_max"] - box["v_min"]),
                         box["c_min"] + (margin + size - y) / size * (box["c_max"] - box["c_min"])))
        on = [name for name, f in lines.items() if all(abs(f(v, c)) < 1e-6 for v, c in ends)]
        assert len(on) == 1, ends
        drawn += on
    assert drawn == ["v=c", "c=2v"]


def test_bifurcation_svg_lines_are_finite_on_a_box_whose_width_overflows(tmp_path, capsys):
    # hi - lo is inf on this box; the panel maps it divided by a power of
    # two, as the scan spaces its axes
    out = tmp_path / "huge"
    code, _ = run(capsys, "bifurcation", "--v-min=-1e308", "--v-max=1e308", "--c-min=-1e308",
                  "--c-max=1e308", "--nv", "5", "--nc", "5", "--svg", "--out-dir", str(out))
    assert code == 0
    svg = (out / "region_P1.svg").read_text()
    assert "nan" not in svg and "inf" not in svg
    lines = re.findall(r'<line x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)"', svg)
    assert lines == [("40", "460", "460", "40"), ("40", "250", "460", "250"),
                     ("250", "460", "250", "40"), ("145", "460", "355", "40")]


def _strict_json(text):
    def reject(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=reject)


_EXTREMES = [("1e308", "1e308"), ("6e307", "1e307"), ("1e308", "-1e308"),
             ("-1e308", "1e308"), ("5e-324", "1e-323")]
# Scaling (v, c) by k > 0 scales every eigenvalue and margin by k, so at
# these points the tags and nash's pure-strategy flags are those at the
# point of scale 1 they map to.  At v/c = 1e8 that holds only while P3's
# and P6's structural zero eigenvalues stay exact zeros.
_C_EQ_2V = [("1e-7", "2e-7"), ("1e5", "2e5"), ("1e300", "2e300")]
_V_OVER_C_1E8 = [("1e-7", "1e-15"), ("1e5", "1e-3"), ("1e300", "1e292")]
_AT_SCALE_1 = {("1e308", "1e308"): ("1", "1"), ("1e-300", "2e-300"): ("0.1", "0.2"),
               **dict.fromkeys(_C_EQ_2V, ("0.1", "0.2")),
               **dict.fromkeys(_V_OVER_C_1E8, ("1", "1e-8"))}


def _scale_free(command, payload):
    if command == "nash":
        return [r["via_best_response"] for r in payload["pure_strategy_checks"]]
    key = "classification" if command == "equilibria" else "tag"
    return [r[key] for r in payload["equilibria"]]


@pytest.mark.parametrize("command, v, c", [
    *((command, v, c) for command in ("nash", "two-strategy") for v, c in _EXTREMES + _C_EQ_2V),
    ("nash", "1e300", "1e-300"), ("two-strategy", "1e300", "1e-300"),
    ("two-strategy", "1e300", "-1e-300"),
    *(("equilibria", v, c) for v, c in [*_C_EQ_2V, ("1e-300", "2e-300"), *_V_OVER_C_1E8])])
def test_extreme_parameters_give_strict_json_without_warnings(capsys, command, v, c):
    def answer(v, c):
        json_format = ("--format", "json") if command == "equilibria" else ()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(capsys, command, f"--v={v}", f"--c={c}", *json_format)
        assert code == 0
        return _strict_json(out)

    payload = answer(v, c)
    if command == "nash":
        assert all(math.isfinite(r["margin"])
                   for r in payload["reports"] + payload["pure_strategy_checks"])
    if (v, c) in _AT_SCALE_1:
        assert _scale_free(command, payload) == _scale_free(command, answer(*_AT_SCALE_1[v, c]))


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_equilibria_where_v_over_c_overflows_gives_no_warning(capsys, fmt):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(capsys, "equilibria", "--v=1e300", "--c=1e-300", "--format", fmt)
    assert code == 0
    if fmt == "json":
        rows = _strict_json(out)["equilibria"]
        assert [r["classification"] for r in rows] == [
            "Degenerate", "Degenerate", "Undefined", "Degenerate", "StableNode", "Undefined",
            "UnstableNode"]
        # the v/c points are infinite: a nan gap between them coincides with nothing
        assert [r["coincides_with"] for r in rows] == ["-"] * 7
        # an infinite coordinate is written as null
        assert [(r["x"], r["y"], r["z"]) for r in (rows[2], rows[5])] == [
            (0.0, None, None), (None, 0.0, 0.0)]


def test_nash_reports(capsys):
    code, out = run(capsys, "nash", "--v", "0.1", "--c", "0.2")
    assert code == 0
    payload = json.loads(out)
    supports = {tuple(r["support"]) for r in payload["reports"]}
    assert supports == {("DH",), ("HD",)}
    assert payload["notes"] == []

    code, out = run(capsys, "nash", "--v", "0.2", "--c", "0.1")
    payload = json.loads(out)
    assert {tuple(r["support"]) for r in payload["reports"]} == {("HH",)}
    assert payload["notes"]                      # disputed region annotated
    assert not payload["degenerate"]


def test_nash_zero_game_degenerate(capsys):
    code, out = run(capsys, "nash", "--v", "0", "--c", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["degenerate"]
    assert all(chk["margin"] == 0.0 for chk in payload["pure_strategy_checks"])
    assert payload["reports"] == []


def test_nash_degenerate_flag_is_scale_free(capsys):
    # the margins scale with (v, c); an absolute floor called (1e-16, 2e-16) degenerate
    for v, c in (("0.1", "0.2"), ("1e-16", "2e-16"), ("1e-300", "2e-300"), ("1e11", "2e11")):
        code, out = run(capsys, "nash", f"--v={v}", f"--c={c}")
        assert code == 0
        assert not json.loads(out)["degenerate"], (v, c)


def test_two_strategy_report_and_simulation(tmp_path, capsys):
    out = tmp_path / "two"
    code, text = run(capsys, "two-strategy", "--v", "0.1", "--c", "0.2",
                     "--z0", "0.9", "--out-dir", str(out))
    assert code == 0
    payload = json.loads(text)
    tags = {e["z"]: e["tag"] for e in payload["equilibria"]}
    assert tags[0.5] == "stable"
    corr = {e["label"]: e for e in payload["correspondence"]}
    assert corr["z=v/c"]["matches"] == ["P1", "P4"]
    assert corr["z=1"]["unmapped"]
    assert abs(payload["simulations"][0]["z_final"] - 0.5) < 1e-6
    assert (out / "hawk_share_000.csv").exists()


@pytest.mark.parametrize("v, c", [("5e-324", "1e-323"), ("1e307", "2e307")])
def test_unrepresentable_physical_time_is_a_usage_error(tmp_path, capsys, v, c):
    out = tmp_path / "out"
    for argv in (("simulate", "--start", "0.2,0.3,0.4"), ("two-strategy", "--z0", "0.3")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--v={v}", f"--c={c}", "--out-dir", str(out)])
        assert exc.value.code == 2
        assert "cannot be represented" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("--random-starts", "-3"), "number of random starts must be >= 0"),
    (("--random-starts", "2", "--seed", "-1"), "seed must be >= 0"),
    # rtol, atol and t_end must be finite: an infinite tolerance turns error control off
    (("--start", "0.2,0.3,0.4", "--rtol", "inf"), "rtol must be finite and positive"),
    (("--start", "0.2,0.3,0.4", "--atol", "inf"), "atol must be finite and positive"),
    (("--start", "0.2,0.3,0.4", "--t-end", "inf"), "t_end must be finite and positive"),
])
def test_negative_random_starts_or_seed_is_a_usage_error(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--v", "0.1", "--c", "0.2", *argv, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("z0", ["1.5", "-0.5", "nan"])
def test_two_strategy_z0_off_the_unit_interval_is_a_usage_error(tmp_path, capsys, z0):
    # the valid --z0 before the bad one writes no CSV either
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["two-strategy", "--v", "0.1", "--c", "0.2", "--z0", "0.3", f"--z0={z0}",
              "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "z0 must lie in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_two_strategy_without_z0_creates_no_output_dir(tmp_path, capsys):
    out = tmp_path / "out"
    code, text = run(capsys, "two-strategy", "--v", "0.1", "--c", "0.2",
                     "--out-dir", str(out))
    assert code == 0
    assert "simulations" not in json.loads(text)
    assert not out.exists()


def test_two_strategy_z0_within_the_simplex_tolerance_runs(tmp_path, capsys):
    # the same 1e-9 tolerance as the simplex check on simulate's starts
    code, text = run(capsys, "two-strategy", "--v", "0.1", "--c", "0.2",
                     "--z0", "1.0000000005", "--out-dir", str(tmp_path))
    assert code == 0
    assert json.loads(text)["simulations"][0]["z0"] == 1.0000000005


def test_two_strategy_zero_cost_note(capsys):
    code, text = run(capsys, "two-strategy", "--v", "0.1", "--c", "0")
    assert code == 0
    payload = json.loads(text)
    assert payload["notes"]
    tags = {e["z"]: e["tag"] for e in payload["equilibria"]}
    assert set(tags) == {0.0, 1.0}
    assert tags[0.0] == "unstable"


def test_env_var_output_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HAWKDOVE_OUTDIR", str(tmp_path / "envout"))
    code, _ = run(capsys, "simulate", "--v", "0.1", "--c", "0.2",
                  "--start", "0.2,0.3,0.4")
    assert code == 0
    assert (tmp_path / "envout" / "summary.json").exists()


# ------------------------------------------------ one parser for every main()

COMMANDS = ("equilibria", "simulate", "bifurcation", "nash", "two-strategy")


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_repeated_calls_write_identical_files(tmp_path, capsys, monkeypatch):
    calls = (
        ("equilibria", "--v", "0.1", "--c", "0.3", "--format", "csv", "--out", "eq.csv"),
        ("nash", "--v", "0.1", "--c", "0.3", "--out", "nash.json"),
        ("two-strategy", "--v", "0.1", "--c", "0.3", "--z0", "0.9", "--z0", "0.05",
         "--out", "two.json", "--out-dir", "two"),
        ("simulate", "--v", "0.1", "--c", "0.3", "--random-starts", "3", "--out-dir", "sim"),
    )
    snapshots = []
    for k in range(2):
        work = tmp_path / str(k)
        work.mkdir()
        monkeypatch.chdir(work)
        for argv in calls:
            assert run(capsys, *argv)[0] == 0
        snapshots.append({p.relative_to(work): p.read_bytes()
                          for p in sorted(work.rglob("*")) if p.is_file()})
    assert len(snapshots[0]) == 1 + 1 + 3 + 4
    assert snapshots[0] == snapshots[1]


def test_repeatable_options_do_not_carry_over(tmp_path, capsys):
    two = ("two-strategy", "--v", "0.1", "--c", "0.2")
    for _ in range(2):
        text = run(capsys, *two, "--z0", "0.4", "--out-dir", str(tmp_path / "two"))[1]
        assert len(json.loads(text)["simulations"]) == 1
    assert "simulations" not in json.loads(run(capsys, *two)[1])

    sim = ("simulate", "--v", "0.1", "--c", "0.2")
    start = ("--start", "0.2,0.3,0.4")
    for k, (argv, n) in enumerate(((start, 1), (start, 1), ((), 0))):
        out = tmp_path / f"sim{k}"
        assert run(capsys, *sim, *argv, "--out-dir", str(out))[0] == 0
        assert json.loads((out / "summary.json").read_text())["n_trajectories"] == n


@pytest.mark.parametrize("argv", [
    ("equilibria", "--v", "0.1"),                              # found by argparse
    ("equilibria", "--v", "nan", "--c", "0.1"),                # found by the command
    ("bifurcation", "--point", "P8"),
    ("frobnicate",),
], ids=["missing", "nan", "choice", "command"])
def test_usage_error_after_successful_calls(tmp_path, capsys, argv):
    def usage_error():
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        return capsys.readouterr().err

    first = usage_error()
    assert first.startswith("usage: hawkdove")
    run(capsys, "equilibria", "--v", "0.1", "--c", "0.2")
    run(capsys, "two-strategy", "--v", "0.1", "--c", "0.2", "--z0", "0.9",
        "--out-dir", str(tmp_path))
    assert usage_error() == first


def test_cached_help_matches_a_fresh_parser(capsys, monkeypatch):
    def printed(parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        assert exc.value.code == 0
        return capsys.readouterr().out

    # built before COLUMNS is set, so help wrapped at build time would differ
    build_parser()
    texts = []
    for columns in ("52", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in (("--help",), ("--version",), *((cmd, "--help") for cmd in COMMANDS)):
            cached = printed(main, argv)
            assert cached == printed(build_parser.__wrapped__().parse_args, argv), argv
        texts.append(printed(main, ("simulate", "--help")))
    assert texts[0] != texts[1]


# ------------------------------------------------- paths that cannot be written

@pytest.mark.parametrize("argv, bad", [
    (("equilibria", "--out", "{missing}/x.txt"), "{missing}/x.txt"),
    (("nash", "--out", "{missing}/x.json"), "{missing}/x.json"),
    (("two-strategy", "--out", "{missing}/x.json"), "{missing}/x.json"),
    (("simulate", "--start", "0.2,0.3,0.4", "--out-dir", "{file}/sub"), "{file}/sub"),
    (("two-strategy", "--z0", "0.3", "--out-dir", "{file}/sub"), "{file}/sub"),
    (("bifurcation", "--nv", "3", "--nc", "3", "--out-dir", "{file}"), "{file}"),
], ids=["equilibria-out", "nash-out", "two-strategy-out", "simulate-out-dir",
        "two-strategy-out-dir", "bifurcation-out-dir"])
def test_unwritable_output_path_is_a_usage_error(tmp_path, capsys, argv, bad):
    regular = tmp_path / "regular"
    regular.write_text("")
    paths = {"missing": tmp_path / "missing", "file": regular}
    argv = [a.format(**paths) for a in argv]
    if argv[0] != "bifurcation":
        argv += ["--v", "0.1", "--c", "0.2"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hawkdove")
    assert bad.format(**paths) in err
    assert "Traceback" not in err


# ------------------------------------- commands compute, main writes afterwards

@pytest.mark.parametrize("argv", [
    ("equilibria", "--v", "nan", "--c", "0.1", "--out", "{out}"),
    ("simulate", "--v=5e-324", "--c=1e-323", "--start", "0.2,0.3,0.4", "--out-dir", "{dir}"),
    ("bifurcation", "--nv", "0", "--svg", "--out", "{out}", "--out-dir", "{dir}"),
    ("nash", "--v", "inf", "--c", "0.1", "--out", "{out}"),
    # the first --z0 has run when the second is rejected
    ("two-strategy", "--v", "0.1", "--c", "0.2", "--z0", "0.3", "--z0=1.5",
     "--out", "{out}", "--out-dir", "{dir}"),
], ids=COMMANDS)
def test_a_rejected_input_writes_nothing(tmp_path, capsys, argv):
    paths = {"out": tmp_path / "report.txt", "dir": tmp_path / "out"}
    with pytest.raises(SystemExit) as exc:
        main([a.format(**paths) for a in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("svg", [(), ("--svg",)], ids=["csv", "csv-and-svg"])
def test_a_file_in_a_missing_subdirectory_leaves_no_out_dir(tmp_path, capsys, svg):
    # the output directory is made only for a file directly in it, and the
    # CSV, written first, fails
    new = tmp_path / "new"
    with pytest.raises(SystemExit) as exc:
        main(["bifurcation", "--nv", "3", "--nc", "3", "--out", "sub/x.csv",
              "--out-dir", str(new), *svg])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hawkdove")
    assert err.endswith("hawkdove: error: [Errno 2] No such file or directory: "
                        f"{str(new / 'sub' / 'x.csv')!r}\n")
    assert not list(tmp_path.iterdir())


def test_main_never_creates_the_directory_of_an_out_file(tmp_path, capsys):
    # the trajectory CSV, written before the report, is kept
    missing = tmp_path / "missing"
    with pytest.raises(SystemExit) as exc:
        main(["two-strategy", "--v", "0.1", "--c", "0.2", "--z0", "0.3",
              "--out-dir", str(tmp_path / "two"), "--out", str(missing / "x.json")])
    assert exc.value.code == 2
    assert str(missing / "x.json") in capsys.readouterr().err
    assert not missing.exists()
    assert [f.name for f in (tmp_path / "two").iterdir()] == ["hawk_share_000.csv"]


# ------------------------------------------------- golden bytes of point commands

# Fixed points through the point commands: the five presets, the origin,
# one point on each of c = 0, v = c and c = 2v, and three at the ends of
# the float range.
_GOLDEN_POINTS = {
    "preset-0.1,0.2": ("0.1", "0.2"), "preset-0.2,0.3": ("0.2", "0.3"),
    "preset-0.2,0.1": ("0.2", "0.1"), "preset--0.1,0.2": ("-0.1", "0.2"),
    "preset--0.2,-0.1": ("-0.2", "-0.1"), "origin": ("0", "0"),
    "c=0": ("0.3", "0"), "v=c": ("0.25", "0.25"), "c=2v": ("-0.15", "-0.3"),
    "1e300,1e-300": ("1e300", "1e-300"), "1e308,-1e308": ("1e308", "-1e308"),
    "5e-324,5e-324": ("5e-324", "5e-324"),
}
_GOLDEN_COMMANDS = {
    "equilibria-json": ("equilibria", "--format", "json"),
    "equilibria-csv": ("equilibria", "--format", "csv"),
    "nash": ("nash",),
    "two-strategy": ("two-strategy", "--z0=0.3", "--z0=0.9", "--out-dir", "out"),
}
# SHA-256 of stdout, then of out/hawk_share_000.csv and out/hawk_share_001.csv
# where the command writes them; 2 where the command is a usage error (the
# physical time of a step cannot be represented), which writes nothing.
_GOLDEN = {
    ("equilibria-json", "preset-0.1,0.2"):
        "df835e5b055618999bb9fcb94ff538ab4f726c7c45f3d250d2dd2a76d5af6de5",
    ("equilibria-json", "preset-0.2,0.3"):
        "28422698cee6651eaf0808515e0165a2ddefbca4075754432c41d109b22ce594",
    ("equilibria-json", "preset-0.2,0.1"):
        "5d812afaf5d6a3bcf510208eb190a371b2262f9e9f176a15c7e3616adfe3e53e",
    ("equilibria-json", "preset--0.1,0.2"):
        "eeb90a8ee0b080d0da654064f1f0570cb84a5e22e9efcfae3a3451c06be49a02",
    ("equilibria-json", "preset--0.2,-0.1"):
        "32c89337ef31383b5c98cdafb38d90e6c64701091bbe213a14cfbfbbe18145ac",
    ("equilibria-json", "origin"):
        "fe1a69cef15cd6e0dcae9854a4eb248f676879e6dc635187faaa8e15e056f69c",
    ("equilibria-json", "c=0"):
        "ad6c4e03d05ba75e1c426969895e0443af0429a5152d57dcc03dd683c9077250",
    ("equilibria-json", "v=c"):
        "fd6f7f140a8a5643a7aaca37cdb0eb945d617fd8e82784dff53f98548113e677",
    ("equilibria-json", "c=2v"):
        "c4c94e17f0dbf4611cdbb79dc267ac9f1a804b601e7d0298f560d422cd5070b1",
    ("equilibria-json", "1e300,1e-300"):
        "13b8922473832df4109ad6009e6e903c90f551b8644d59f1fbcfbcdfa34f07de",
    ("equilibria-json", "1e308,-1e308"):
        "5ecceb6841bfa5acbccdea03c63d736180bc9565e80d7aa606afa0762c0d2337",
    ("equilibria-json", "5e-324,5e-324"):
        "9e07b6ed9397c4f59f89a421d23836203fcbaca9dbf90ecf26c80af043fdfc2b",
    ("equilibria-csv", "preset-0.1,0.2"):
        "ade3e5a6d7623a2c13e744a424478bb1b8862c80cf839e1a586185dc6dcd985f",
    ("equilibria-csv", "preset-0.2,0.3"):
        "a9a6517fac592f3a559dec4404c22ceed637c9282e54f1ef04c3f1cbab3ebd64",
    ("equilibria-csv", "preset-0.2,0.1"):
        "4c756644d4c795274abd7294854c6d642efe952cf01cc9bae78bcaf3138f7dcb",
    ("equilibria-csv", "preset--0.1,0.2"):
        "253473446b4a026357e3db189259cf91d1a5abd571fe7dc65a78e5babbe0f89a",
    ("equilibria-csv", "preset--0.2,-0.1"):
        "11d2bd3acba039c6f263685c0b55cffbe31f0b851c47814287125c6dc90420fe",
    ("equilibria-csv", "origin"):
        "c4199d4c98de17891deb2380d430cc6888cdac5ff6eeb45a39a3fc81832c38ab",
    ("equilibria-csv", "c=0"):
        "1609a835ebbe06a506b7b93377bfa3123ff5b45af897cb609df474f23cb87aa2",
    ("equilibria-csv", "v=c"):
        "555d281da9951cc897395ea1978587d40c2c4843c2625c2729a79cfa8cae71d1",
    ("equilibria-csv", "c=2v"):
        "9c6e657398a50abe80477a407999b4c8f9cf75ebae36fed33fba9e473472109e",
    ("equilibria-csv", "1e300,1e-300"):
        "029b0eccb7d42d136ac3b1b8981ee811ed127d4e81d69728e3569b0019d6abda",
    ("equilibria-csv", "1e308,-1e308"):
        "fd152f0b37e18d9e4b7bb8d892b698602530a99b4562bae0ba5e4b188d407df9",
    ("equilibria-csv", "5e-324,5e-324"):
        "c1d85878b069ec20fa80e87f6621abcd14cb48cbc6d34b28ecd2013bae64b430",
    ("nash", "preset-0.1,0.2"):
        "3ce7c6def9bb298093a2a9b0eed5b97848c01cbc307b828ad688c71cd586f99a",
    ("nash", "preset-0.2,0.3"):
        "5bd1670a5b31f4d3e8704095274392f76d2ac0d7d205fd300c69a3876d16e664",
    ("nash", "preset-0.2,0.1"):
        "12d910807d21394b5ed8d79932deeb9360162c76ed5269f63dd95a6ab9a961fa",
    ("nash", "preset--0.1,0.2"):
        "030c1c92b8570e381db81fd2204a2cf0afe9f5d0a3e9dc3084c33bb4802984e0",
    ("nash", "preset--0.2,-0.1"):
        "b0af9849e146caae255192daaaa8cddf90275ac904d3d69bb23d0e4452ff5c85",
    ("nash", "origin"):
        "1d1c7744368634f3eecd77f3253d915d78eb52a6b52ae189986f2170196131b9",
    ("nash", "c=0"):
        "c28b1b8bb24fc13d48f295807b1f5d440935f9644b0c18a90ed05134da95f94d",
    ("nash", "v=c"):
        "a6c6d68c588d95962a65e8e9437c786e7d751f69664a695c697527a7b76cf8ef",
    ("nash", "c=2v"):
        "636679558883534741865a8ae0d19e9bcfa730c85d03bb59011405100258dacb",
    ("nash", "1e300,1e-300"):
        "51c367cf6c4eebbba2ce19e93c884c7cd04968e0cbc84158f46f8eb91f9c4fef",
    ("nash", "1e308,-1e308"):
        "ea6aabe1c58a6c7b4ab3ce66f57a964a08a2eba1c6fa2adb0809306cadbddca8",
    ("nash", "5e-324,5e-324"):
        "4dec2876a669731b42325230f4c687b0948d0dea159c56edfdac70e3e2cc9ed0",
    ("two-strategy", "preset-0.1,0.2"): (
        "f7488800d05733f681d48cd2315efae668e935ef6505595fa6e86bda0c80dc1b",
        "2b8001c2f7b3d428627c90a986f7dbdc4df9251386c0833fc7c75f7c443b4c1d",
        "4dccfd0239dc9a6ac6ee7daf273f5a5df532b283f6cfab8bfdbc4fb2be712c03",
    ),
    ("two-strategy", "preset-0.2,0.3"): (
        "7e6dc5b312ef26ee4d26c8e27bf6813321ff736a47dab0b4de9ea79591b03f8b",
        "d3315788563db0a109a160b3e96fabb9e29f26ef0a3bb32ef348086e3b0bbc74",
        "4d72b3d5217e9014f023a9546238fc4ff88c33c889d02b8d125e88ce4bf850ac",
    ),
    ("two-strategy", "preset-0.2,0.1"): (
        "853843a1c7350cecb1f3a4d64f6c49c50c15ab3b38b17f4177bd4155ebccd38a",
        "8ec5abf9e53921c6f7b6bce3afd8254157f22eef7cf51fe39b173de80ead82ef",
        "9ec5fffb0be612b870fc9d3edc5b56da93ab0f170b9157542d2da84454175f96",
    ),
    ("two-strategy", "preset--0.1,0.2"): (
        "d344f786a952cc9f944b1e6cc4ed7c15a9273938338f47814e0e48ee71fe8373",
        "92f67cb37645982175f3024eafd67d152bb7b8bbb993efb0c27ea9da4d656f70",
        "91e7906f7d0d60e3914e19c71befef061682705927dc5c02d8f670b3f0819060",
    ),
    ("two-strategy", "preset--0.2,-0.1"): (
        "7feed61ef5620fbe33b11c79a03246edeee9e3ca4a7dd3bfb8191d1daf058bb4",
        "bac0bd14025fdca4c159c3f297fcef4c173f5080deeb395be61680b2a1e36eda",
        "b11c9b4aaaf36246246a7042e348f2535ed5e6aef95284fc43027d23aa8da1f3",
    ),
    ("two-strategy", "origin"): (
        "3c29d0cd445a74b907d225456794d10c61e1bd21e07047fb55518f934c45e863",
        "19c479025fe7b67c1bfa67fbec79ab00ed15a7a87e244730c7ff3718137f70e6",
        "3fe5c7bf442159faf771e6f2a9e9fd4a1a750b1262fb93b170c797086d501253",
    ),
    ("two-strategy", "c=0"): (
        "c163ad6f7eee2ed772324723f375b3331586d3bd43786f6e770fa80db9de604c",
        "4d1356220cb225550fbd627f161e87252d8b558605da7bbd85bee73787a037da",
        "2adaac0054ff71fef015d7b27477600be3fd0594647c518438c455987a60fc70",
    ),
    ("two-strategy", "v=c"): (
        "3b581031974e8600607ef0ec12452ae697fe99adcaee2a21174570ea50fcc0a6",
        "f2bef33884a6fbc90ee93c532f8a7d3952a589a7b8044773a1dde4c0365d4a3f",
        "cd42988ffd06897698dbe363e32922d565559db1437ae7f05d891f345148816b",
    ),
    ("two-strategy", "c=2v"): (
        "90cac44acb05912f0c0d89477f532d1d15788064e646268931d7dad99825f74c",
        "98c3e31ca972a93664029f585a597861f8d78ee2cd07a901ef36e5768102af5e",
        "b5b19f27853efdd413fa834266af997564360a5968e72c1489abe00952ae22f9",
    ),
    ("two-strategy", "1e300,1e-300"): 2,
    ("two-strategy", "1e308,-1e308"): 2,
    ("two-strategy", "5e-324,5e-324"): 2,
}


@pytest.mark.parametrize("command, point", list(_GOLDEN))
def test_point_commands_write_their_golden_bytes(tmp_path, capsys, monkeypatch, command, point):
    monkeypatch.chdir(tmp_path)
    name, *options = _GOLDEN_COMMANDS[command]
    v, c = _GOLDEN_POINTS[point]
    try:
        code = main([name, f"--v={v}", f"--c={c}", *options])
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    written = sorted(str(f.relative_to(tmp_path)) for f in tmp_path.rglob("*") if f.is_file())
    golden = _GOLDEN[command, point]
    if golden == 2:
        assert (code, out, written) == (2, "", [])
        return
    golden = (golden,) if isinstance(golden, str) else golden
    digests = [hashlib.sha256(out.encode()).hexdigest()]
    digests += [hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in written]
    assert code == 0
    assert written == [f"out/hawk_share_{i:03d}.csv" for i in range(len(golden) - 1)]
    assert tuple(digests) == golden


def test_no_command_imports_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call in a process, 7-11 ms
    # that every command-line run would pay; no command needs it.  NumPy
    # imports numpy.ma lazily only from 2.0 on.
    out = run_fresh("-c", f"""if True:
        import contextlib, io, json, sys
        import numpy
        eager = "numpy.ma" in sys.modules
        from hawkdove.cli import main
        out = {str(tmp_path)!r}
        runs = (["bifurcation", "--svg", "--out-dir", out],
                ["equilibria", "--v", "0.1", "--c", "0.2", "--format", "json"],
                ["nash", "--v", "0.1", "--c", "0.2"],
                ["two-strategy", "--v", "0.1", "--c", "0.2", "--z0", "0.3", "--out-dir", out],
                ["simulate", "--v", "0.1", "--c", "0.2", "--random-starts", "5", "--seed", "1",
                 "--svg", "--out-dir", out])
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in runs]
        print(json.dumps([eager, codes, "numpy.ma" in sys.modules]))
        """)
    eager, codes, imported = json.loads(out)
    if eager:
        pytest.skip("this NumPy imports numpy.ma along with numpy")
    assert codes == [0] * 5 and not imported
