"""hawkdove benchmark: end-to-end and per-layer metrics for three workloads.

Usage (from the repository root):

    python3 bench/run.py --workload region_map --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload

Each rep runs a workload's commands through ``hawkdove.cli.main`` in a
fresh interpreter (``bench/child.py``) with BLAS threads pinned to 1.  A
run makes several import-only probes for set-up time, one warm-up rep
whose outputs are checked against the oracles in ``bench/oracles.py``,
then timed reps until ``--seconds`` is used.  Every timed rep must write
byte-identical files to the warm-up rep.  Medians over reps are reported,
with times rescaled to a nominal host speed (see ``bench/child.py``).

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
set-up time, ops per second, peak RSS and the share of ops that pass the
oracles.  With ``--trace 1`` the timed reps alternate between traced and
untraced, and the last line reports the per-layer metrics of
``bench/tracing.py`` plus the tracing overhead.  Details (host, digests,
failure reasons, every rep) go to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
MIN_TIMED_REPS = 3
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("HAWKDOVE_OUTDIR", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def host_record() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__}


def _digest(rep: Path) -> str:
    """sha256 over every output file of a rep, keyed by relative path."""
    h = hashlib.sha256()
    for path in sorted(p for p in rep.rglob("*") if p.is_file()):
        rel = path.relative_to(rep).as_posix()
        if rel.startswith("starts_"):
            continue   # inputs
        h.update(rel.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


class Runner:
    def __init__(self, name: str, seed: int, deadline: float):
        self.w = workloads.build(name, seed)
        self.deadline = deadline
        self.work = OUT / f"work-{name}-{seed}-{os.getpid()}"
        self.rep = self.work / "rep"
        self.spans_path = OUT / "results" / f"{name}-seed{seed}-spans.json"
        self.env = _child_env()

    def prepare(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.rep.mkdir(parents=True)
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        workloads.write_inputs(self.w, self.rep)

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def spawn(self, commands, trace: bool) -> dict:
        """One child interpreter; returns its result plus set-up and RSS."""
        for stale in ("out", "stdout.txt", "stderr.txt"):
            target = self.rep / stale
            if target.is_dir():
                shutil.rmtree(target)
            elif target.exists():
                target.unlink()
        (self.rep / "out").mkdir()
        job = {"commands": commands, "trace": trace,
               "result_path": str(self.work / "result.json"),
               "spans_path": str(self.spans_path)}
        (self.work / "job.json").write_text(json.dumps(job), encoding="utf-8")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run budget exhausted")
        with open(self.work / "child.log", "w", encoding="utf-8") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(self.work / "job.json")],
                cwd=self.rep, env=self.env, stdin=subprocess.DEVNULL, stdout=log,
                stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=timeout)
        except BaseException as exc:
            proc.kill()
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError("a rep overran the run budget") from None
            raise
        if proc.returncode != 0:
            tail = (self.work / "child.log").read_text(encoding="utf-8")[-2000:]
            raise BenchError(f"benchmark child exited {proc.returncode}:\n{tail}")
        result = json.loads((self.work / "result.json").read_text(encoding="utf-8"))
        if not Path(result["hawkdove_file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"hawkdove imported from {result['hawkdove_file']}, not {SRC}")
        scale = result["setup_scale"]   # host-speed factor, as for command time
        result["setup_s"] = (result["t_ready"] - t_spawn) * scale
        result["import_numpy_s"] = (result["t_numpy"] - result["t_start"]) * scale
        result["import_hawkdove_s"] = (result["t_ready"] - result["t_numpy"]) * scale
        result["wall_s"] = time.monotonic() - t_spawn
        return result


def run_workload(name: str, seed: int, seconds: int, trace: bool, deadline: float):
    r = Runner(name, seed, deadline)
    w = r.w
    r.prepare()
    try:
        probes = [r.spawn([], False) for _ in range(SETUP_PROBES)]
        warm = r.spawn(w.commands, False)
        failures, problems = checks.CHECKS[name](r.rep, w, warm["statuses"])
        digest = _digest(r.rep)

        timed, traced = [], []
        window = time.monotonic()
        while True:
            n = len(timed) + len(traced)
            enough = (len(timed) >= 1 and len(traced) >= 1) if trace \
                else len(timed) >= MIN_TIMED_REPS
            last = (timed + traced)[-1]["wall_s"] if n else 0.0
            if enough and time.monotonic() - window + last > seconds:
                break
            traced_rep = trace and n % 2 == 1
            res = r.spawn(w.commands, traced_rep)
            (traced if traced_rep else timed).append(res)
            if _digest(r.rep) != digest:
                problems.append("outputs differ between reps of one seed")
            if res["statuses"] != warm["statuses"]:
                problems.append("command statuses differ between reps of one seed")
    finally:
        r.cleanup()

    reps = [warm] + timed + traced
    defects = {}
    unexpected = {}
    for op, reason in failures.items():
        cls = checks.known_defect(w, op, reason)
        bucket = defects if cls else unexpected
        bucket.setdefault(cls or reason, []).append(op)
    errors = {}
    for argv, status in zip(w.commands, warm["statuses"]):
        if status["exit"] != 0:
            key = f"{argv[0]} {status.get('error') or 'exit ' + str(status['exit'])}"
            errors[key] = errors.get(key, 0) + 1
    setups = [p["setup_s"] for p in probes + reps]
    summary = {
        "workload": name, "seed": seed, "ops": w.ops, "failed": len(failures),
        "correct": not problems and not unexpected,
        "problems": sorted(set(problems)),
        "known_defects": {k: len(v) for k, v in defects.items()},
        "unexpected_failures": {k: v[:20] for k, v in unexpected.items()},
        "command_errors": errors,
        "failure_examples": {str(op): failures[op] for op in sorted(failures)[:20]},
        "digest": digest,
        "setup_samples_s": setups,
        "timed_compute_s": [t["compute_s"] for t in timed],
        "timed_scaled_s": [t["scaled_s"] for t in timed],
        "traced_compute_s": [t["compute_s"] for t in traced],
        "raw_ops_per_s": statistics.median(w.ops / t["compute_s"] for t in timed),
        "warmup_compute_s": warm["compute_s"],
    }
    if trace:
        # Layer times get their rep's host-speed factor, like ops_per_s.
        layers = {k: statistics.median(
                      t["layers"][k] * (t["scaled_s"] / t["compute_s"] if k.endswith("_s") else 1)
                      for t in traced)
                  for k in traced[0]["layers"]}
        layers["setup.import_numpy_s"] = statistics.median(
            p["import_numpy_s"] for p in probes + reps)
        layers["setup.import_hawkdove_s"] = statistics.median(
            p["import_hawkdove_s"] for p in probes + reps)
        layers["trace.overhead_ratio"] = (
            statistics.median(t["scaled_s"] for t in traced)
            / statistics.median(t["scaled_s"] for t in timed))
        summary["missing_hooks"] = traced[0]["missing_hooks"]
        summary["metrics"] = layers
    else:
        summary["metrics"] = {
            "setup_s": statistics.median(setups),
            "ops_per_s": statistics.median(w.ops / t["scaled_s"] for t in timed),
            "peak_rss_mb": statistics.median(t["peak_rss_mb"] for t in timed),
            "correct_ops_ratio": 1.0 - len(failures) / w.ops,
        }
    return summary


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(s: dict, host: dict, trace: bool) -> dict:
    m = s["metrics"]
    units = declared_metrics(trace)
    if set(units) != set(m):
        raise BenchError(f"measured metrics {sorted(set(m) ^ set(units))} "
                         "do not match BENCHMARK.json")
    out = {k: {"value": m[k], "unit": unit} for k, unit in units.items()}
    if not trace:
        print(f"{s['workload']} seed={s['seed']}: "
              f"setup_s={m['setup_s']:.4f} s  ops_per_s={m['ops_per_s']:.2f} 1/s  "
              f"peak_rss_mb={m['peak_rss_mb']:.1f} MiB  "
              f"failed_ops_ratio={s['failed'] / s['ops']:.4f} ({s['failed']}/{s['ops']})  "
              f"correct_ops_ratio={m['correct_ops_ratio']:.4f}")
    else:
        for k, v in m.items():
            print(f"{s['workload']} {k} = {v:.6g} {units[k]}")
        if s["missing_hooks"]:
            print(f"trace hooks not found: {', '.join(s['missing_hooks'])}")
    print(f"  unscaled ops_per_s={s['raw_ops_per_s']:.2f} 1/s; "
          f"reps: {len(s['timed_compute_s'])} timed, {len(s['traced_compute_s'])} traced; "
          f"outputs sha256 {s['digest']}")
    for cls, count in s["known_defects"].items():
        print(f"  known defect, {count} ops: {cls}")
    for what, count in s["command_errors"].items():
        print(f"  {count} commands failed: {what}")
    for reason, ops in s["unexpected_failures"].items():
        print(f"  UNEXPECTED failure at ops {ops}: {reason}")
    for problem in s["problems"]:
        print(f"  PROBLEM: {problem}")
    path = OUT / "results" / f"{s['workload']}-seed{s['seed']}-trace{int(trace)}.json"
    path.write_text(json.dumps({"host": host, **s}, indent=1) + "\n", encoding="utf-8")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running rep gets killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "hawkdove" / "cli.py").is_file():
        print(f"error: no hawkdove sources at {SRC}", file=sys.stderr)
        return 2
    names = sorted(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    host = host_record()
    print(f"host: nproc={host['nproc']} cpu={host['cpu_model']!r} "
          f"python={host['python']} numpy={host['numpy']}")
    results = []
    for name in names:
        deadline = time.monotonic() + RUN_BUDGET_S
        try:
            s = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            results.append((s, report(s, host, bool(args.trace))))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    if len(results) == 1:
        s, metrics = results[0]
    else:
        s = {"correct": all(x["correct"] for x, _ in results),
             "ops": sum(x["ops"] for x, _ in results),
             "failed": sum(x["failed"] for x, _ in results)}
        metrics = {f"{x['workload']}.{k}": v for x, m in results for k, v in m.items()}
    print(json.dumps({"correct": s["correct"], "attempted": s["ops"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
