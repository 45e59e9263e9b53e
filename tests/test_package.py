import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

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


@pytest.mark.parametrize("name", MODULES)
def test_public_functions_have_docstrings(name):
    module = importlib.import_module(name)
    public = [getattr(module, n) for n in getattr(module, "__all__", [])]
    assert [f.__name__ for f in public if inspect.isfunction(f) and not f.__doc__] == []


def test_import_builds_and_loads_no_compiled_code():
    # a fresh interpreter imports every module; the compiled walk is built
    # and loaded on a run's first use, never at import, and the process pool
    # is imported only by a run that fans out.  numpy may import ctypes
    # itself, so ctypes is checked against numpy's own import.
    code = "\n".join([
        "import subprocess, sys",
        "started = []",
        "subprocess.Popen.__init__ = lambda self, *a, **k: started.append(a)",
        "import numpy",
        "by_numpy = 'ctypes' in sys.modules",
        *(f"import {name}" for name in MODULES),
        "from dyner import simulate",
        "pool = {'concurrent.futures', 'multiprocessing'} & sys.modules.keys()",
        "print(by_numpy == ('ctypes' in sys.modules), started,",
        "      simulate._compiled_walk.cache_info().currsize, sorted(pool))",
    ])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(dyner.__path__[0]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.split() == ["True", "[]", "0", "[]"]
