"""In-memory span tracer and the timing wrappers of the traced run.

A span is (name, start, end, parent). The traced run replaces public module
and class attributes of the program with wrappers that open and close spans
around the original call; nothing in the program's source changes, and
``Tracer.uninstall`` puts the originals back. Self time of a span is its
duration minus the durations of its direct children (the program is single
threaded, so children nest strictly).
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict

# Counters turn a call's arguments and result into (counter name, amount)
# pairs, recorded where the work happens.
def _parsed_rows(args, result):
    scenes = result if isinstance(result, list) else [result]
    return [("ingest.parse.rows", sum(int(s.columns.observed.sum()) for s in scenes))]


def _validated_rows(args, result):
    return [("core.validate.rows", len(args[0].columns))]


def _encoded_bytes(args, result):
    return [("ingest.encode.bytes", len(result))]


def _decoded_bytes(args, result):
    return [("ingest.decode.bytes", len(args[0]))]


def _resampled_rows(args, result):
    return [("kinematics.resample.rows", len(result.columns))]


def _index_counts(args, result):
    anchors = len(result.entries) if result.centric == "agent" else sum(len(e[3]) for e in result.entries)
    rows = sum(len(ctx.scene.columns) for ctx in result.contexts.values())
    return [("batching.build_index.elements", len(result)), ("batching.build_index.anchors", anchors),
            ("batching.build_index.candidate_rows", rows)]


# (span name, module, attribute path, counter) of every wrapped callable.
TARGETS = [
    ("cli.main", "trajkit.cli", "main", None),
    ("ingest.parse", "trajkit.cli", "parse_canonical_csv_many", _parsed_rows),
    ("ingest.parse", "trajkit.cli", "parse_frame_text", _parsed_rows),
    ("kinematics.complete_track", "trajkit.ingest", "complete_track", None),
    ("core.validate", "trajkit.ingest", "scene_validate", _validated_rows),
    ("ingest.encode", "trajkit.ingest", "scene_to_bytes", _encoded_bytes),
    ("ingest.cache_write", "trajkit.ingest", "SceneCache.write", None),
    ("ingest.decode", "trajkit.ingest", "scene_from_bytes", _decoded_bytes),
    ("ingest.load", "trajkit.ingest", "SceneCache.load_path", None),
    ("ingest.resolve", "trajkit.ingest", "SceneCache.resolve", None),
    ("kinematics.resample", "trajkit.batching", "resample_scene", _resampled_rows),
    ("vecmap.map_load", "trajkit.cli", "map_deserialize", None),
    ("vecmap.closest_lane", "trajkit.vecmap", "VectorMap.closest_lane_with_distance", None),
    ("vecmap.lanes_within", "trajkit.vecmap", "VectorMap.lanes_within", None),
    ("vecmap.in_drivable", "trajkit.vecmap", "VectorMap.point_in_drivable_area", None),
    ("batching.build_index", "trajkit.cli", "build_index", _index_counts),
    ("batching.get_element", "trajkit.batching", "get_element", None),
    ("batching.collate", "trajkit.batching", "collate", None),
    ("batching.export", "trajkit.cli", "export_batches", None),
    ("analysis.run_analysis", "trajkit.cli", "run_analysis", None),
    ("analysis.population", "trajkit.analysis", "agent_population", None),
    ("analysis.simultaneous", "trajkit.analysis", "simultaneous_agents", None),
    ("analysis.density", "trajkit.analysis", "agent_density", None),
    ("analysis.ego_distances", "trajkit.analysis", "ego_agent_distances", None),
    ("analysis.dynamics", "trajkit.analysis", "dynamics_distributions", None),
    ("analysis.stationary", "trajkit.analysis", "stationary_fraction", None),
    ("analysis.heading_deltas", "trajkit.analysis", "heading_deltas", None),
    ("analysis.path_efficiency", "trajkit.analysis", "path_efficiency", None),
    ("analysis.collision", "trajkit.analysis", "collision_rate", None),
    # sim_score runs the same per-scene collision kernel as collision_rate.
    ("analysis.collision", "trajkit.simulation", "_scene_collisions", None),
    ("analysis.harsh_accel", "trajkit.analysis", "harsh_accel_rate", None),
    ("analysis.offroad", "trajkit.analysis", "offroad_rate", None),
    ("analysis.emit_report", "trajkit.cli", "emit_report", None),
    ("simulation.reset", "trajkit.simulation", "sim_reset", None),
    ("simulation.step", "trajkit.simulation", "sim_step", None),
    ("simulation.score", "trajkit.simulation", "sim_score", None),
    ("simulation.export", "trajkit.simulation", "sim_export", None),
    # The replay workload's own policy, so the lane queries nest under it.
    ("replay.policy", "workloads", "_policy", None),
]


class Tracer:
    """Records spans and counters in memory; nothing is written until the end."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                for key, amount in counter(args, result):
                    self.counters[key] += amount
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for name, module_name, attr_path, counter in TARGETS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = attr_path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr_path}")
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- derived numbers ------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        child_time = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child_time[i]
        return out

    def top_level_seconds(self) -> float:
        return sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents) if p < 0)

    def memo_hits(self) -> tuple[int, int]:
        """(loads served from the memo, loads): a load with no decode under it was a hit."""
        decoded_under = {self.parents[i] for i, n in enumerate(self.names) if n == "ingest.decode"}
        loads = [i for i, n in enumerate(self.names) if n == "ingest.load"]
        return sum(1 for i in loads if i not in decoded_under), len(loads)

    def spans(self) -> list[tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))
