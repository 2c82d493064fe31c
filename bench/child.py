"""One benchmark rep in a fresh interpreter.

Usage: python3 child.py JOB_JSON

The job file names the argv lists to run through ``hawkdove.cli.main``
in-process, whether to trace, and where to write the result.  With no
commands the child only imports and reports its set-up timestamps.
Timestamps use the system-wide monotonic clock so the parent can measure
set-up from before it spawned this process.

Peak RSS is the child's own VmHWM.  The ``ru_maxrss`` that ``os.wait4``
reports for a child on Linux also covers the parent's pages at fork: a
child with a 13.5 MB peak reports 321 MB under a 300 MB parent.

Host speed on the benchmark machine swings by up to ~1.9x over seconds
(other tenants share its cores), so a fixed slice of pure-Python work,
the reference kernel, is timed every 0.25 s of wall time from a SIGALRM
handler, on the same core and inside long commands too.  Command time
(handler time excluded) is also reported rescaled to the kernel's nominal
speed.  Set-up gets the factor of a kernel timing taken right after the
imports.
"""

import time

T_START = time.monotonic()
import numpy  # noqa: E402,F401  (timed on its own: most of set-up)

T_NUMPY = time.monotonic()
import hawkdove.cli  # noqa: E402

T_READY = time.monotonic()

import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402


REF_LOOP = 40_000
REF_NOMINAL_S = 0.0028   # kernel time at full speed on the 2-core Xeon used to calibrate
REF_EVERY_S = 0.25


def reference_kernel() -> float:
    """Seconds for a fixed slice of pure-Python work; the best of three."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_LOOP):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedSampler:
    """Times the reference kernel every REF_EVERY_S while active.

    The timer is one-shot and re-armed after each sample, so samples never
    pile up.  No sample is taken while tracemalloc traces (around ``scan``
    in traced reps): it would slow the kernel, not the host.
    """

    def __init__(self) -> None:
        self.speeds: list[float] = []   # nominal over measured kernel time
        self.spent = 0.0                # wall time spent sampling
        self.active = False

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.speeds.append(REF_NOMINAL_S / reference_kernel())
        self.spent += time.perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        if not self.active:
            return
        if not tracemalloc.is_tracing():
            self.sample()
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S)

    def __enter__(self) -> "SpeedSampler":
        self.active = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)


def _run_one(main, argv) -> dict:
    try:
        code = main(argv)
    except SystemExit as exc:
        return {"exit": exc.code if isinstance(exc.code, int) else 1}
    except Exception as exc:  # one failing op must not stop the rep
        return {"exit": None, "error": type(exc).__name__, "message": str(exc)[:300],
                "where": traceback.extract_tb(exc.__traceback__)[-1].name}
    return {"exit": code}


def _run(commands, main):
    """Run every command; returns statuses, command time (sampling
    excluded) and that time rescaled to the kernel's nominal speed."""
    sampler = SpeedSampler()
    sampler.sample()
    sampler.spent = 0.0
    with sampler:
        t0 = time.perf_counter()
        statuses = [_run_one(main, argv) for argv in commands]
        raw = time.perf_counter() - t0 - sampler.spent
    sampler.sample()
    return statuses, raw, raw * statistics.fmean(sampler.speeds)


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0   # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result = {"t_start": T_START, "t_numpy": T_NUMPY, "t_ready": T_READY,
              "setup_scale": REF_NOMINAL_S / reference_kernel(),
              "hawkdove_file": hawkdove.cli.__file__}
    commands = job["commands"]
    if commands:
        tracer = None
        main_fn = hawkdove.cli.main
        if job["trace"]:
            import tracing
            tracer = tracing.Tracer()
            undo = tracing.install(tracer)
            main_fn = tracer.command(main_fn)
        with open("stdout.txt", "w", encoding="utf-8") as out, \
                open("stderr.txt", "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            statuses, raw, scaled = _run(commands, main_fn)
        result.update(statuses=statuses, compute_s=raw, scaled_s=scaled)
        if tracer is not None:
            for restore in undo:
                restore()
            result["layers"] = tracer.metrics()
            result["missing_hooks"] = tracer.missing
            tracer.write_spans(job["spans_path"])
    result["peak_rss_mb"] = peak_rss_mb()
    with open(job["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
