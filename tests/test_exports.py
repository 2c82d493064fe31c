import importlib
import pkgutil

import pytest

import hawkdove

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
