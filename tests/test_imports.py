"""Runtime dependencies: numpy and the standard library, nothing else."""

import json
import subprocess
import sys
from pathlib import Path

import numpy

import trajkit

# Run with -I -S: no site hooks or .pth files load anything first, and the
# path holds only the standard library, trajkit's source and numpy's folder.
_IMPORT_ALL = """
import importlib, json, pkgutil, sys
sys.path[:0] = {paths!r}
before = set(sys.modules)
import trajkit
for info in pkgutil.iter_modules(trajkit.__path__):
    importlib.import_module("trajkit." + info.name)
print(json.dumps(sorted({{name.partition(".")[0] for name in set(sys.modules) - before}})))
"""


def test_trajkit_loads_only_numpy_and_the_standard_library():
    paths = [str(Path(module.__file__).resolve().parents[1]) for module in (trajkit, numpy)]
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _IMPORT_ALL.format(paths=paths)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert {"numpy", "trajkit"} <= loaded
    assert loaded - set(sys.stdlib_module_names) - {"numpy", "trajkit"} == set()
