import importlib
import pkgutil

import pytest

import hawkdove
from hawkdove import (GridSpec, IntegrationConfig, Params, ReducedState, SimplexState,
                      best_response_check, catalog, detect_transitions, integrate, scan)
from hawkdove.two_strategy import correspondence

from util import run_fresh

MODULES = ["hawkdove"] + [f"hawkdove.{m.name}" for m in pkgutil.iter_modules(hawkdove.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is deleted fails here
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())     # the cli module has none
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == [], (name, missing)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def _records():
    p = Params(0.1, 0.2)
    m = scan(GridSpec(-0.3, 0.3, -0.3, 0.3, 5, 5))
    return {
        "Params": (p, ("v", "c")),
        "SimplexState": (SimplexState(0.25, 0.25, 0.25, 0.25), ("x", "y", "z", "w")),
        "ReducedState": (ReducedState(0.2, 0.3, 0.4), ("x", "y", "z")),
        "GridSpec": (m.spec, ("v_min", "v_max", "c_min", "c_max", "n_v", "n_c")),
        "CorrespondenceEntry": (correspondence(p)[0], ("label", "z", "matches")),
        "RegionMap": (m, ("spec", "v_values", "c_values", "directions")),
        "BifurcationLine": (detect_transitions(m)[0], ("id", "affected", "on_line")),
        "EquilibriumRecord": (catalog(p)[0], (
            "id", "coords", "defined", "in_simplex", "eigenvalues", "classification",
            "paper_region_class", "coincides_with")),
        "IntegrationConfig": (IntegrationConfig(), (
            "rtol", "atol", "t_end", "max_step", "record_stride")),
        "Trajectory": (integrate(p, (0.2, 0.3, 0.4), IntegrationConfig(t_end=5.0)), (
            "samples", "terminal", "nearest", "clamp_count", "steps", "rejected", "closest",
            "closest_distance", "final_field_norm")),
        "NashReport": (best_response_check(p, (0.0, 0.0, 1.0, 0.0)), (
            "candidate", "via_stability", "via_best_response", "support", "margin")),
    }


def test_every_record_is_a_named_tuple_with_its_documented_fields():
    records = _records()
    assert len(records) == 11
    for name, (rec, fields) in records.items():
        assert type(rec).__name__ == name
        assert isinstance(rec, tuple) and type(rec)._fields == fields, name
        for attr in (fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(rec, attr, None)


def test_nash_report_replace_keeps_every_other_field():
    report = best_response_check(Params(0.1, 0.2), (0.0, 0.0, 1.0, 0.0))
    marked = report._replace(via_stability=True)
    assert (report.via_stability, marked.via_stability) == (False, True)
    assert marked._replace(via_stability=False) == report


def test_the_command_line_imports_neither_dataclasses_nor_copy():
    # the records are named tuples: a frozen dataclass would import both
    # and generate its methods with exec on every command-line run
    out = run_fresh("-c", "import sys, hawkdove.cli; "
                          "print(sorted({'dataclasses', 'copy'} & set(sys.modules)))")
    assert out.strip() == "[]"
