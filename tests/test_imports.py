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


def _loaded_top_level_modules():
    """Top-level names of the modules importing trajkit and each of its submodules loads."""
    paths = [str(Path(module.__file__).resolve().parents[1]) for module in (trajkit, numpy)]
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _IMPORT_ALL.format(paths=paths)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def test_trajkit_loads_only_numpy_and_the_standard_library():
    loaded = _loaded_top_level_modules()
    assert {"numpy", "trajkit"} <= loaded
    assert loaded - set(sys.stdlib_module_names) - {"numpy", "trajkit"} == set()


def test_trajkit_loads_no_fcntl():
    # The cache takes no file lock, so trajkit needs no POSIX-only module for one.
    assert "fcntl" not in _loaded_top_level_modules()
