"""Standing checks on the package sources.

Outside core, code reads a scene's agent columns and public fields only. The
AgentMetadata records are built on the first read of scene.agents, so a module
that reads them, or builds one, pays per-agent Python that the columns avoid.

Outside vecmap, code reads a map through its queries only. The RoadLane
records are built on the first read of vmap.lanes, so a module that reads
them, or builds one, pays per-lane Python that the lane table avoids. The
segment index (vmap._index, a _SegmentIndex) is vecmap's own too: its block
layout can change with the query kernel, so nothing else may depend on it.

No module takes a matrix product. numpy hands one to BLAS, which picks its
kernel for the CPU at run time, and the kernels round differently; rotations
go through core.rotate, which multiplies and adds element by element.

Every module-level name a module binds by import or assignment is read in
that module or imported from it by another module of the package; a name
nothing reads is dead weight that still has to be kept in step.

An analysis run is one pass over the cache: analysis.py reads scenes through
one iter_scenes call, in run_analysis, and no other function of it takes a
SceneCache, so no second path can come to hold a dataset's scenes at once.

The batch manifest is encoded by json's C encoder: every json.dumps in
batching.py passes separators= and no indent=. An indent switches json to its
pure-Python encoder, which took five times as long on a 984-element manifest.

Every program name that the traced benchmark run wraps (bench/spans.py,
TARGETS) resolves: a rename or removal in the package that the benchmark
still names fails here, not only in bench/selftest.py.

SceneCache reads a scene file in one method: it opens the file once, checks
its header and reads the payload from that same open file. A second method
that opens a file could decode a file that a concurrent writer replaced
under the tag its first read saw, or come to hold more than one file's
bytes. cache_load and scene_from_bytes stay the byte-level entry points
outside the class.

The package forks in one place, core's _Worker, and the child branch
of that fork ends in a finally that calls os._exit: a child that returned
or raised into its caller would run the parent's code a second time (a
test runner's, a benchmark's), and one that left by sys.exit would flush
buffers and run exit handlers the parent owns. No module starts a thread or
another process: a thread beside the fork would make Python 3.12 and later
warn, and each worker is one the run reaps.
"""

import ast
import dataclasses
import importlib.util
import io
import re
import tokenize
from pathlib import Path

import pytest

import trajkit
from trajkit.core import SceneFrame

_PACKAGE = Path(trajkit.__file__).parent
_PRIVATE_FIELDS = [f.name for f in dataclasses.fields(SceneFrame) if f.name.startswith("_")]
_CORE_ONLY = re.compile("|".join([r"\.agents\b", r"\bAgentMetadata\(", *(rf"\.{name}\b" for name in _PRIVATE_FIELDS)]))
_VECMAP_ONLY = re.compile(r"\.lanes\b|\bRoadLane\(|\._index\b|\b_SegmentIndex\b")


def _uses(path: Path, pattern: re.Pattern) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [f"{path.name}:{n}: {line.strip()}" for n, line in enumerate(lines, 1) if pattern.search(line)]


@pytest.mark.parametrize("module", sorted(p.stem for p in _PACKAGE.glob("*.py") if p.stem != "core"))
def test_module_reads_only_the_agent_columns(module):
    assert _uses(_PACKAGE / f"{module}.py", _CORE_ONLY) == []


def test_the_check_sees_a_record_read():
    assert _CORE_ONLY.search("dims = [m.extent for m in scene.agents]")
    assert _CORE_ONLY.search("AgentMetadata(agent_id, t, None, 0, 1)")
    assert _CORE_ONLY.search("rows = scene._row0[j] + ts")
    assert not _CORE_ONLY.search("scene.agents_present_at(ts) and header['agents']")


@pytest.mark.parametrize("module", sorted(p.stem for p in _PACKAGE.glob("*.py") if p.stem != "vecmap"))
def test_module_reads_no_lane_record(module):
    assert _uses(_PACKAGE / f"{module}.py", _VECMAP_ONLY) == []


def test_the_check_sees_a_lane_record_read():
    assert _VECMAP_ONLY.search("length = sum(lane.centerline.arclength() for lane in vmap.lanes.values())")
    assert _VECMAP_ONLY.search("succ = vmap.lanes[lane_id].successors")
    assert _VECMAP_ONLY.search("lane = RoadLane(lane_id, Polyline(pts))")
    assert not _VECMAP_ONLY.search("ids = vmap.lanes_within(point, 5.0) | header['lanes']")


def test_the_check_sees_a_segment_index_read():
    assert _VECMAP_ONLY.search("ords, d2 = vmap._index.walk(px, py, r2)")
    assert _VECMAP_ONLY.search("boxes = self.vmap._index._boxes")
    assert _VECMAP_ONLY.search("from trajkit.vecmap import _SegmentIndex")
    assert _VECMAP_ONLY.search("index = _SegmentIndex(ax, ay, bx, by, lane_ord)")
    assert not _VECMAP_ONLY.search("index = build_index(cache, tags, centric=args.centric)")
    assert not _VECMAP_ONLY.search("row = scene._index_of[agent_id] + self.segment_index")


_MATRIX_PRODUCTS = frozenset({"matmul", "dot", "vdot", "einsum", "tensordot", "inner"})


def _matrix_products(source: str) -> list[str]:
    """Lines of source that take a matrix product: the @ or @= operator (not a
    decorator), or an attribute such as np.matmul or a.dot."""
    found, prev = [], None  # prev: the last token other than a comment or a blank line
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.NL, tokenize.COMMENT):
            continue
        line_start = prev is None or prev.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
        operator = tok.string in ("@", "@=") and not line_start  # at a line's start, @ is a decorator
        attribute = tok.type == tokenize.NAME and tok.string in _MATRIX_PRODUCTS and prev is not None and prev.string == "."
        if operator or attribute:
            found.append(f"{tok.start[0]}: {tok.line.strip()}")
        prev = tok
    return found


@pytest.mark.parametrize("module", sorted(p.stem for p in _PACKAGE.glob("*.py")))
def test_module_takes_no_matrix_product(module):
    assert _matrix_products((_PACKAGE / f"{module}.py").read_text(encoding="utf-8")) == []


def test_the_check_sees_a_matrix_product():
    for code in ("a @ b", "c = a@b", "a @= b", "np.matmul(x, y)", "np.dot(a, b)", "a.dot(b)", "np.einsum('ij,j', a, b)",
                 "np.tensordot(a, b, 1)", "np.inner(a, b)", "class K:\n    def f(self):\n        return self.m @ v\n"):
        assert _matrix_products(code), code
    for code in ("@dataclass(frozen=True)\nclass A:\n    pass\n", "@functools.cache\ndef f():\n    pass\n",
                 'FORMAT = "trajkit-batch@1"', "# corners @ axis, once\nx = 1\n", "class K:\n    @property\n    def f(self):\n        pass\n",
                 "inner = dot = 1"):
        assert _matrix_products(code) == [], code


# ingest.complete_track: the traced benchmark run (bench/spans.py) wraps it by this path.
_READ_OUTSIDE_THE_PACKAGE = frozenset({"ingest.complete_track"})


def _unused_names(sources: dict[str, str]) -> list[str]:
    """module.name of each name a module binds at module level by import or
    assignment that neither that module reads nor another module of sources
    imports from it (by a relative import or one from trajkit)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    imported = {
        (node.module.removeprefix("trajkit."), alias.name)
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and (node.level == 1 or node.module.startswith("trajkit."))
        for alias in node.names
    }
    found = []
    for module, tree in trees.items():
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [(alias.asname or alias.name).partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                continue
            found += [f"{module}.{name}" for name in bound if name not in read and (module, name) not in imported]
    return sorted(found)


def test_every_module_level_name_is_read():
    # __init__ binds the package's public names, which its users read.
    sources = {p.stem: p.read_text(encoding="utf-8") for p in _PACKAGE.glob("*.py") if p.stem != "__init__"}
    assert [name for name in _unused_names(sources) if name not in _READ_OUTSIDE_THE_PACKAGE] == []


def test_the_check_sees_an_unused_name():
    a = (
        "from __future__ import annotations\nimport logging\nimport os.path\nimport json as codec\n"
        "from .b import used, unused\nfrom trajkit.b import LIMIT\n"
        "log = logging.getLogger(__name__)\nTOTAL: int = 3\nx, (y, z) = 1, (2, 3)\nrows = [0]\nrows[0] = y\n"
        "def f():\n    return used + LIMIT + os.path.sep\n"
    )
    b = "used = unused = 1\nLIMIT = 2\nfrom .a import TOTAL, x\n"
    assert _unused_names({"a": a, "b": b}) == ["a.codec", "a.log", "a.unused", "a.z", "b.TOTAL", "b.x"]


def _cache_readers(source: str) -> tuple[int, list[str]]:
    """(calls of an iter_scenes attribute, names of the functions with a
    parameter annotated SceneCache or named cache) in source."""
    tree = ast.parse(source)
    calls = sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "iter_scenes" for n in ast.walk(tree))
    takers = [
        f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
        and any(a.arg == "cache" or (a.annotation is not None and "SceneCache" in ast.unparse(a.annotation))
                for a in (*f.args.posonlyargs, *f.args.args, *f.args.kwonlyargs))
    ]
    return calls, takers


def test_analysis_reads_the_cache_in_one_pass():
    assert _cache_readers((_PACKAGE / "analysis.py").read_text(encoding="utf-8")) == (1, ["run_analysis"])


def test_the_check_sees_a_second_cache_reader():
    one_pass = "def run_analysis(cache: SceneCache, tags):\n    for scene in cache.iter_scenes(tags):\n        pass\n"
    assert _cache_readers(one_pass) == (1, ["run_analysis"])
    pooled = "def density(store: 'SceneCache', tags):\n    return [s for s in store.iter_scenes(tags)]\n"
    assert _cache_readers(one_pass + pooled) == (2, ["run_analysis", "density"])
    assert _cache_readers(one_pass + "def by_dataset(cache, tags):\n    return {}\n") == (1, ["run_analysis", "by_dataset"])


def _slow_json_encodes(source: str) -> list[str]:
    """Lines of source with a json.dumps (or bare dumps) call that omits
    separators=, or passes indent= or a **mapping that may hold one: json
    encodes those in pure Python, not with its C encoder."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == "dumps":
            keywords = {k.arg for k in node.keywords}  # None stands for a **mapping
            if "separators" not in keywords or keywords & {"indent", None}:
                found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_batch_manifest_stays_on_the_c_encoder():
    assert _slow_json_encodes((_PACKAGE / "batching.py").read_text(encoding="utf-8")) == []


def test_the_check_sees_a_slow_encode():
    for code in ("json.dumps(m, sort_keys=True, indent=1)", "json.dumps(m, sort_keys=True)", "dumps(m, indent=None, separators=(',', ':'))",
                 "json.dumps(m, separators=(',', ':'), **pretty)", "text = codec.dumps(m)"):
        assert _slow_json_encodes(code), code
    for code in ("json.dumps(m, sort_keys=True, separators=(',', ':'))", "dumps(m, separators=(',', ':'))", "json.loads(text)",
                 "pickle.dump(m, f)"):
        assert _slow_json_encodes(code) == [], code


# Calls that open a file for reading, or read one through a helper that does.
_READ_CALLS = {"open", "read_bytes", "read_text", "fromfile", "memmap", "cache_load"}


def _file_openers(source: str, cls: str = "SceneCache") -> list[str]:
    """Names of the methods of class cls in source that open a file for
    reading: an open call whose mode is absent or not a write-only literal,
    or a call of another name in _READ_CALLS; nested functions count for
    their method."""
    def reads(call: ast.Call) -> bool:
        name = call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
        if name != "open":
            return name in _READ_CALLS
        mode = next((k.value for k in call.keywords if k.arg == "mode"), call.args[1] if len(call.args) > 1 else None)
        return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str) and "r" not in mode.value and "+" not in mode.value)

    (body,) = [node.body for node in ast.parse(source).body if isinstance(node, ast.ClassDef) and node.name == cls]
    return [f.name for f in body if isinstance(f, ast.FunctionDef)
            and any(isinstance(n, ast.Call) and reads(n) for n in ast.walk(f))]


def test_one_method_of_the_cache_opens_a_scene_file():
    assert _file_openers((_PACKAGE / "ingest.py").read_text(encoding="utf-8")) == ["_read_file"]


def test_the_check_sees_a_second_opener():
    head = (
        "class SceneCache:\n"
        "    def _read_file(path, decode):\n        with open(path, 'rb') as f:\n            return f.read()\n"
        "    def write(self, path, data):\n        with open(path, mode='wb') as f:\n            f.write(data)\n"
    )
    tail = "def cache_load(path):\n    return scene_from_bytes(Path(path).read_bytes())\n"
    assert _file_openers(head + tail) == ["_read_file"]
    for name, second in (
        ("load_path", "    def load_path(self, path):\n        return scene_from_bytes(Path(path).read_bytes())\n"),
        ("load_path", "    def load_path(self, path):\n        return cache_load(path)\n"),
        ("peek", "    def peek(self, path):\n        def head():\n            return io.open(path).read(18)\n        return head()\n"),
        ("patch", "    def patch(self, path):\n        with path.open('r+b') as f:\n            f.write(b'')\n"),
    ):
        assert _file_openers(head + second + tail) == ["_read_file", name]


def _unresolved(targets) -> list[str]:
    """module.attribute path of each target (span name, module, attribute
    path, counter) in a trajkit module that does not resolve: the module,
    then each dotted attribute."""
    missing = []
    for _, module_name, attr_path, _ in targets:
        if not module_name.startswith("trajkit."):  # the benchmark's own modules
            continue
        try:
            owner = importlib.import_module(module_name)
        except ModuleNotFoundError:
            missing.append(f"{module_name}.{attr_path}")
            continue
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{attr_path}")
    return missing


def test_every_name_the_traced_benchmark_wraps_resolves():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert len(spans.TARGETS) > 30
    assert _unresolved(spans.TARGETS) == []


def test_the_check_sees_a_name_that_is_gone():
    targets = [
        ("kept", "trajkit.ingest", "complete_track", None),
        ("kept", "trajkit.ingest", "SceneCache.write", None),
        ("method", "trajkit.ingest", "SceneCache.gone", None),
        ("class", "trajkit.vecmap", "Gone.closest_lane_with_distance", None),
        ("module", "trajkit.gone", "run", None),
        ("outside", "workloads", "_policy", None),
    ]
    assert _unresolved(targets) == ["trajkit.ingest.SceneCache.gone", "trajkit.vecmap.Gone.closest_lane_with_distance", "trajkit.gone.run"]


# Modules whose use starts a thread or a process, and os calls that start or replace a process.
_STARTER_MODULES = frozenset({"threading", "_thread", "multiprocessing", "concurrent", "subprocess", "asyncio", "pty"})
_STARTER_CALLS = re.compile(r"(system|popen|spawn\w*|posix_spawnp?|exec\w*|forkpty|fork)$")


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _is_exit(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
            and ast.unparse(stmt.value.func) == "os._exit")


def _forks(source: str) -> list[tuple[int, bool]]:
    """(line, child leaves by os._exit) of each os.fork call in source: the
    call's result is bound to a name that an `if <name> == 0:` tests, and
    that branch ends in a try whose finally ends in os._exit."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and ast.unparse(node.func) == "os.fork"):
            continue
        # The innermost function holding the call: ast.walk reaches an outer one first.
        owner = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.Module)) and node in ast.walk(f)][-1]
        names = {t.id for a in ast.walk(owner) if isinstance(a, ast.Assign) and a.value is node for t in a.targets if isinstance(t, ast.Name)}
        branches = [b.body for b in ast.walk(owner) if isinstance(b, ast.If) and isinstance(b.test, ast.Compare)
                    and ast.unparse(b.test) in {f"{name} == 0" for name in names}]
        ok = len(branches) == 1 and isinstance(branches[0][-1], ast.Try) and bool(branches[0][-1].finalbody) \
            and _is_exit(branches[0][-1].finalbody[-1])
        found.append((node.lineno, ok))
    return sorted(found)


def _starters(source: str) -> list[str]:
    """Lines of source that import a module that starts threads or processes,
    or call an os function (other than fork) that starts or replaces a process."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
            if any(m.partition(".")[0] in _STARTER_MODULES for m in modules):
                found.append(f"{node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.Call) and ast.unparse(node.func).startswith("os.") and _STARTER_CALLS.match(_called_name(node) or "") \
                and _called_name(node) != "fork":
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_one_fork_whose_child_leaves_by_os_exit():
    forks = {p.stem: _forks(p.read_text(encoding="utf-8")) for p in _PACKAGE.glob("*.py")}
    forks = {module: sites for module, sites in forks.items() if sites}
    assert list(forks) == ["core"] and len(forks["core"]) == 1, forks
    assert forks["core"][0][1]


@pytest.mark.parametrize("module", sorted(p.stem for p in _PACKAGE.glob("*.py")))
def test_module_starts_no_thread_or_process(module):
    assert _starters((_PACKAGE / f"{module}.py").read_text(encoding="utf-8")) == []


_FORKING = """
import os

class Worker:
    def __init__(self, job):
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                job()
                status = 0
            finally:
                os._exit(status)
        self.pid = pid
"""


def test_the_check_sees_a_child_that_can_return():
    assert _forks(_FORKING) == [(7, True)]
    assert [ok for _, ok in _forks(_FORKING + "\ndef again():\n    return os.fork()\n")] == [True, False]
    for child in (
        "        if pid == 0:\n            job()\n            os._exit(0)\n",                       # job() may raise past the exit
        "        if pid == 0:\n            try:\n                job()\n            finally:\n                sys.exit(0)\n",
        "        if pid == 0:\n            try:\n                job()\n            except Exception:\n                os._exit(1)\n",
        "        if pid != 0:\n            self.pid = pid\n",
    ):
        head, _, _ = _FORKING.partition("        if pid == 0:")
        assert _forks(head + child) == [(7, False)], child


def test_the_check_sees_a_thread_or_process_starter():
    for code in ("import threading", "from threading import Thread", "import concurrent.futures", "from concurrent.futures import ProcessPoolExecutor",
                 "import multiprocessing as mp", "import subprocess", "import _thread", "os.system('ls')", "os.posix_spawn(p, [p], {})",
                 "os.execv(p, [p])", "os.spawnlp(os.P_NOWAIT, 'ls')", "os.popen('ls')", "os.forkpty()"):
        assert _starters(code), code
    for code in ("import os", "pid = os.fork()", "os.waitpid(pid, 0)", "os.sched_getaffinity(0)", "os.pipe()", "from os import path",
                 "x.system = 1", "spawn(p)"):
        assert _starters(code) == [], code
