"""Spans and counters around calls into hawkdove's layers.

The tracer wraps public functions at the module attribute their callers
look up (``hawkdove.integrator.catalog``, ``hawkdove.cli.scan``, ...), so
nothing under ``src/`` changes.  A span records (name, start, end, parent,
op); the part of a span covered by child spans and hot-leaf calls is
subtracted to give self time.  Hot leaves (``field_3d``,
``_crossed_lines``) only count calls and accumulate time: a span per
call would cost more than the call.  Everything stays in memory until
``write_spans`` runs at the end of the rep.

Span names are ``<layer>.<function>``, the layer being the module the
function belongs to.
"""

from __future__ import annotations

import importlib
import json
import os
import time
import tracemalloc
from collections import Counter

_clock = time.perf_counter

# (module, attribute, span name); the attribute is replaced in place.
SPANS = (
    ("hawkdove.cli", "catalog", "equilibrium_catalog.catalog"),
    ("hawkdove.integrator", "catalog", "equilibrium_catalog.catalog"),
    ("hawkdove.nash", "catalog", "equilibrium_catalog.catalog"),
    ("hawkdove.bifurcation", "classification_codes", "equilibrium_catalog.classification_codes"),
    ("hawkdove.equilibrium_catalog", "jacobian", "linear_analysis.jacobian"),
    ("hawkdove.equilibrium_catalog", "eigenvalues", "linear_analysis.eigenvalues"),
    ("hawkdove.equilibrium_catalog", "classify", "linear_analysis.classify"),
    ("hawkdove.equilibrium_catalog", "eig_zero_tol", "linear_analysis.eig_zero_tol"),
    ("hawkdove.equilibrium_catalog", "count_zero_eigs", "linear_analysis.count_zero_eigs"),
    ("hawkdove.equilibrium_catalog", "jacobian_entries", "linear_analysis.jacobian_entries"),
    ("hawkdove.equilibrium_catalog", "char_coefficients", "linear_analysis.char_coefficients"),
    ("hawkdove.equilibrium_catalog", "cubic_roots", "linear_analysis.cubic_roots"),
    ("hawkdove.cli", "scan", "bifurcation.scan"),
    ("hawkdove.cli", "detect_transitions", "bifurcation.detect_transitions"),
    ("hawkdove.cli", "write_region_csv", "bifurcation.write_region_csv"),
    ("hawkdove.cli", "batch_integrate", "integrator.batch_integrate"),
    ("hawkdove.integrator", "adaptive_integrate", "integrator.adaptive_integrate"),
    ("hawkdove.cli", "write_trajectory_csv", "integrator.write_trajectory_csv"),
    ("hawkdove.cli", "nash_via_stability", "nash.nash_via_stability"),
    ("hawkdove.cli", "best_response_check", "nash.best_response_check"),
    ("hawkdove.nash", "best_response_check", "nash.best_response_check"),
    ("hawkdove.cli", "reports_to_json", "nash.reports_to_json"),
    ("hawkdove.cli", "classify_1d", "two_strategy.classify_1d"),
    ("hawkdove.cli", "correspondence", "two_strategy.correspondence"),
    ("hawkdove.cli", "simulate_hawk_share", "two_strategy.simulate_hawk_share"),
    ("hawkdove.svg.Canvas", "write", "svg.write"),
)
# (module, attribute, counter name) for hot leaves.
LEAVES = (
    ("hawkdove.integrator", "field_3d", "replicator_field.field_3d"),
    ("hawkdove.bifurcation", "_crossed_lines", "bifurcation.crossed_lines"),
)

_NAME, _START, _END, _PARENT, _OP, _COVERED = range(6)


def _resolve(path: str):
    """Module or class object for a dotted path such as hawkdove.svg.Canvas."""
    try:
        return importlib.import_module(path)
    except ImportError:
        mod, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.leaf_s: Counter = Counter()
        self.values: dict[str, float] = {}
        self.catalog_keys: set = set()
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------
    def _enter(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        rec = [name, _clock(), 0.0, parent, self.op, 0.0]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _exit(self, rec: list) -> None:
        rec[_END] = _clock()
        self._open.pop()
        if rec[_PARENT] >= 0:
            self.spans[rec[_PARENT]][_COVERED] += rec[_END] - rec[_START]

    def _bookkeeping(self, t0: float) -> None:
        # Tracer work after a call is charged to no layer.
        if self._open:
            self.spans[self._open[-1]][_COVERED] += _clock() - t0

    def span(self, name: str, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(rec)
            if after is not None:
                t0 = _clock()
                after(args, kwargs, result)
                tracer._bookkeeping(t0)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = _clock()
            result = fn(*args, **kwargs)
            dt = _clock() - t0
            tracer.counts[name] += 1
            tracer.leaf_s[name] += dt
            if tracer._open:
                tracer.spans[tracer._open[-1]][_COVERED] += dt
            return result

        return wrapper

    def command(self, main):
        """Wrap cli.main; each call is one command and sets the op id."""
        wrapped = self.span("cli.main", main)

        def run(argv):
            self.op += 1
            return wrapped(argv)

        return run

    # -- per-call counts ---------------------------------------------------
    def _after(self, name: str):
        counts = self.counts

        def on_catalog(args, kwargs, result):
            p = args[0] if args else kwargs["p"]
            self.catalog_keys.add(tuple(float(t) for t in p))

        def on_eigenvalues(args, kwargs, result):
            counts["linear_analysis.eig_solves"] += 1

        def on_cubic_roots(args, kwargs, result):
            counts["linear_analysis.eig_solves"] += int(result.size // 3)

        def on_detect(args, kwargs, result):
            n_v, n_c = args[0].spec.n_v, args[0].spec.n_c
            counts["bifurcation.edges_examined"] += (n_v - 1) * n_c + n_v * (n_c - 1)

        def on_region_csv(args, kwargs, result):
            counts["bifurcation.csv_bytes"] += os.path.getsize(args[1])

        def on_batch(args, kwargs, result):
            for traj in result:
                counts["integrator.trajectories"] += 1
                counts["integrator.accepted_steps"] += traj.steps
                counts["integrator.rejected_steps"] += traj.rejected
                counts["integrator.clamps"] += traj.clamp_count
                counts["integrator.converged"] += traj.terminal.name == "CONVERGED"

        def on_traj_csv(args, kwargs, result):
            counts["integrator.csv_bytes"] += os.path.getsize(args[1])

        def on_hawk_share(args, kwargs, result):
            counts["two_strategy.samples"] += len(result)

        def on_svg(args, kwargs, result):
            with open(args[1], "rb") as fh:
                data = fh.read()
            counts["svg.bytes"] += len(data)
            # one element per line between the <svg> and </svg> lines
            counts["svg.elements"] += data.count(b"\n") - 2

        return {
            "equilibrium_catalog.catalog": on_catalog,
            "linear_analysis.eigenvalues": on_eigenvalues,
            "linear_analysis.cubic_roots": on_cubic_roots,
            "bifurcation.detect_transitions": on_detect,
            "bifurcation.write_region_csv": on_region_csv,
            "integrator.batch_integrate": on_batch,
            "integrator.write_trajectory_csv": on_traj_csv,
            "two_strategy.simulate_hawk_share": on_hawk_share,
            "svg.write": on_svg,
        }.get(name)

    def _scan_with_alloc_peak(self, scan):
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return scan(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.values["bifurcation.scan_alloc_peak_mb"] = max(
                    self.values.get("bifurcation.scan_alloc_peak_mb", 0.0), peak / 2**20)
        return wrapper

    # -- results -----------------------------------------------------------
    def _sum(self, prefix: str, self_time: bool, names=None) -> float:
        total = 0.0
        for rec in self.spans:
            name = rec[_NAME]
            if not name.startswith(prefix) or (names is not None and name not in names):
                continue
            if not self_time and rec[_PARENT] >= 0 and \
                    self.spans[rec[_PARENT]][_NAME].startswith(prefix):
                continue   # busy time: count nested spans of one layer once
            dur = rec[_END] - rec[_START]
            total += dur - rec[_COVERED] if self_time else dur
        return total

    def _n(self, name: str) -> int:
        return sum(1 for rec in self.spans if rec[_NAME] == name)

    def metrics(self) -> dict[str, float]:
        c = self.counts
        catalog_calls = self._n("equilibrium_catalog.catalog")
        edges = c["bifurcation.edges_examined"]
        changed = c["bifurcation.crossed_lines"]
        trajectories = c["integrator.trajectories"]
        steps = c["integrator.accepted_steps"] + c["integrator.rejected_steps"]

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "cli.self_s": self._sum("cli.", True),
            "cli.commands": self._n("cli.main"),
            "linear_analysis.busy_s": self._sum("linear_analysis.", False),
            "linear_analysis.eig_solves": c["linear_analysis.eig_solves"],
            "equilibrium_catalog.self_s": self._sum("equilibrium_catalog.", True),
            "equilibrium_catalog.catalog_calls": catalog_calls,
            "equilibrium_catalog.catalog_distinct_ratio":
                ratio(len(self.catalog_keys), catalog_calls),
            "bifurcation.scan_s": self._sum("bifurcation.scan", False),
            "bifurcation.detect_transitions_s":
                self._sum("bifurcation.detect_transitions", False),
            "bifurcation.write_region_csv_s": self._sum("bifurcation.write_region_csv", False),
            "bifurcation.csv_bytes": c["bifurcation.csv_bytes"],
            "bifurcation.edges_examined": edges,
            "bifurcation.changed_edges": changed,
            "bifurcation.changed_edge_ratio": ratio(changed, edges),
            "bifurcation.scan_alloc_peak_mb": self.values.get("bifurcation.scan_alloc_peak_mb", 0.0),
            "integrator.self_s": self._sum("integrator.", True, names=(
                "integrator.batch_integrate", "integrator.adaptive_integrate")),
            "integrator.trajectories": trajectories,
            "integrator.accepted_steps": c["integrator.accepted_steps"],
            "integrator.rejected_steps": c["integrator.rejected_steps"],
            "integrator.step_accept_ratio": ratio(c["integrator.accepted_steps"], steps),
            "integrator.clamps": c["integrator.clamps"],
            "integrator.converged_ratio": ratio(c["integrator.converged"], trajectories),
            "integrator.write_csv_s": self._sum("integrator.write_trajectory_csv", False),
            "integrator.csv_bytes": c["integrator.csv_bytes"],
            "replicator_field.field_evals": c["replicator_field.field_3d"],
            "replicator_field.busy_s": self.leaf_s["replicator_field.field_3d"],
            "nash.self_s": self._sum("nash.", True),
            "nash.best_response_checks": self._n("nash.best_response_check"),
            "two_strategy.busy_s": self._sum("two_strategy.", False),
            "two_strategy.simulations": self._n("two_strategy.simulate_hawk_share"),
            "two_strategy.samples": c["two_strategy.samples"],
            "svg.elements": c["svg.elements"],
            "svg.bytes": c["svg.bytes"],
            "svg.write_s": self._sum("svg.write", False),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "covered"],
                       "spans": self.spans,
                       "counts": dict(self.counts),
                       "leaf_s": dict(self.leaf_s)}, fh)


def install(tracer: Tracer) -> list:
    """Patch every hook point; returns callables that undo the patches.

    A hook point that no longer exists is skipped and listed in
    ``tracer.missing``, so a refactor shows up as a missing hook rather
    than as a crash.
    """
    undo = []

    def patch(owner_path, attr, make):
        try:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            tracer.missing.append(f"{owner_path}.{attr}")
            return
        setattr(owner, attr, make(original))
        undo.append(lambda: setattr(owner, attr, original))

    for owner, attr, name in SPANS:
        def make(fn, name=name):
            if name == "bifurcation.scan":
                fn = tracer._scan_with_alloc_peak(fn)
            return tracer.span(name, fn, tracer._after(name))
        patch(owner, attr, make)
    for owner, attr, name in LEAVES:
        patch(owner, attr, lambda fn, name=name: tracer.leaf(name, fn))
    return undo
