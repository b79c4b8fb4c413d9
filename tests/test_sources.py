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
"""

import dataclasses
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
