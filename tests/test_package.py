import importlib
import pkgutil

import pytest

import dyner

# __main__ is left out: importing it runs the CLI
MODULES = ["dyner"] + [f"dyner.{m.name}" for m in pkgutil.iter_modules(dyner.__path__)
                       if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    # perfbench's tracer looks up every __all__ entry by name
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
