"""Standing checks on the package sources: outside core, code reads a scene's
agent columns and public fields only. The AgentMetadata records are built on
the first read of scene.agents, so a module that reads them, or builds one,
pays per-agent Python that the columns avoid."""

import dataclasses
import re
from pathlib import Path

import pytest

import trajkit
from trajkit.core import SceneFrame

_PACKAGE = Path(trajkit.__file__).parent
_PRIVATE_FIELDS = [f.name for f in dataclasses.fields(SceneFrame) if f.name.startswith("_")]
_CORE_ONLY = re.compile("|".join([r"\.agents\b", r"\bAgentMetadata\(", *(rf"\.{name}\b" for name in _PRIVATE_FIELDS)]))


def _core_only_uses(path: Path) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [f"{path.name}:{n}: {line.strip()}" for n, line in enumerate(lines, 1) if _CORE_ONLY.search(line)]


@pytest.mark.parametrize("module", sorted(p.stem for p in _PACKAGE.glob("*.py") if p.stem != "core"))
def test_module_reads_only_the_agent_columns(module):
    assert _core_only_uses(_PACKAGE / f"{module}.py") == []


def test_the_check_sees_a_record_read():
    assert _CORE_ONLY.search("dims = [m.extent for m in scene.agents]")
    assert _CORE_ONLY.search("AgentMetadata(agent_id, t, None, 0, 1)")
    assert _CORE_ONLY.search("rows = scene._row0[j] + ts")
    assert not _CORE_ONLY.search("scene.agents_present_at(ts) and header['agents']")
