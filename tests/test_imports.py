"""Runtime dependencies: numpy and the standard library, nothing else; and
no output depends on which BLAS kernel numpy picks for the CPU."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

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


# One small agent-centric export and a stack of rotated boxes, each moved by its
# own length or width so that the pairs touch up to rounding; prints a digest of
# the export's files, of the corners and of the overlap verdicts.
_KERNEL_PROBE = """
import hashlib, math, tempfile
from pathlib import Path
import numpy as np
from conftest import random_scene
from trajkit.analysis import obb_corners, obb_intersect
from trajkit.batching import WindowSpec, build_index, export_batches
from trajkit.ingest import SceneCache

export = hashlib.sha256()
with tempfile.TemporaryDirectory() as tmp:
    cache, rng = SceneCache(Path(tmp) / "cache"), np.random.default_rng(5)
    for k in range(4):
        cache.write(random_scene(rng, n_agents=8, n_timesteps=60, scene_id=f"s{k}"))
    export_batches(build_index(cache, ["rand"], "agent", WindowSpec((0.5, 1.0), (0.5, 1.0))), Path(tmp) / "out")
    for path in sorted((Path(tmp) / "out").iterdir()):
        export.update(path.name.encode() + path.read_bytes())
rng = np.random.default_rng(11)
x, y = rng.uniform(-20.0, 20.0, size=(2, 2000))
yaw, length, width = rng.uniform(-math.pi, math.pi, 2000), rng.uniform(1.0, 5.0, 2000), rng.uniform(0.5, 2.0, 2000)
c, s = np.cos(yaw), np.sin(yaw)
a = obb_corners(x, y, yaw, length, width)
corners, verdicts = hashlib.sha256(a.tobytes()), hashlib.sha256()
for dx, dy in ((length * c, length * s), (-width * s, width * c)):
    b = obb_corners(x + dx, y + dy, yaw, length, width)
    corners.update(b.tobytes())
    verdicts.update(obb_intersect(a, b).tobytes())
print("export", export.hexdigest())
print("corners", corners.hexdigest())
print("verdicts", verdicts.hexdigest())
"""


def _uses_openblas() -> bool:
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        numpy.show_config()
    return "openblas" in text.getvalue().lower()


@pytest.mark.skipif(not _uses_openblas(), reason="numpy is not linked against OpenBLAS, whose kernel the test switches")
def test_outputs_do_not_depend_on_the_openblas_kernel():
    # OpenBLAS picks its kernel for the CPU at run time unless OPENBLAS_CORETYPE
    # names one; Sandybridge has no FMA, so a matrix product rounds differently there.
    paths = os.pathsep.join(str(p) for p in (Path(trajkit.__file__).parents[1], Path(__file__).parent))
    default = {name: value for name, value in os.environ.items() if name != "OPENBLAS_CORETYPE"}
    runs = []
    for kernel in ({}, {"OPENBLAS_CORETYPE": "Sandybridge"}):
        env = dict(default, PYTHONPATH=paths, OPENBLAS_NUM_THREADS="1", **kernel)
        done = subprocess.run([sys.executable, "-c", _KERNEL_PROBE], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        runs.append(done.stdout.splitlines())
    assert runs[0] == runs[1]
