"""Dataset statistics over cached scenes: population, density, dynamics,
nonlinearity, and self-consistency (collision / off-road / harsh acceleration)
metrics, emitted as histogram CSVs and a scalar-rate JSON.

An analysis run is one pass over the cache. run_analysis decodes a scene,
passes it to each requested metric and drops it, so a process holds one
decoded scene at a time. Each metric is a function of one scene that returns
integer counts: histogram bins with underflow and overflow, per-type rate
numerators and denominators, and tallies. run_analysis adds them up per
(metric, dataset, type). Every sample is binned on its own, so the report
does not depend on the order of the scenes, and a run of many files counts
contiguous shares of them in forked workers with the same report bytes.

Rates use a per-agent "any timestep" event definition by default; a
per-timestep variant sits behind AnalysisConfig.per_timestep_rates.
Thresholds compare with strict inequality.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import TYPE_NAMES as _TYPE_NAMES, SceneFrame, SceneTag, _checked_object, _cpus, _fork_is_quiet, _Worker, load_json, rotate, wrap_angle
from .ingest import SceneCache
from .kinematics import derive_derivative, unwrap_segments
from .vecmap import VectorMap

HARSH_ACCEL_DEFAULT = 3.924  # 0.4 g (0.4 * 9.81); kept as a literal so the contract value is exact
OFFROAD_TYPES = ("vehicle", "motorcycle")
_OFFROAD_BLOCK = 256  # points per drivable-area test in _offroad_counts

METRIC_NAMES = (
    "population",
    "simultaneous",
    "density",
    "ego_distances",
    "speed",
    "accel",
    "jerk",
    "stationary",
    "heading_deltas",
    "path_efficiency",
    "collision",
    "harsh_accel",
    "offroad",
)


def _default_bins() -> dict[str, list[float]]:
    return {
        "speed": [0.5 * i for i in range(81)],            # 0..40 m/s
        "accel": [0.25 * i for i in range(81)],           # 0..20 m/s^2
        "jerk": [0.5 * i for i in range(101)],            # 0..50 m/s^3
        "heading_delta": list(np.linspace(-math.pi, math.pi, 65)),
        "heading_raw": list(np.linspace(-math.pi, math.pi, 65)),
        "path_efficiency": [float(i) for i in range(101)],  # percent
        "simultaneous": [float(i) for i in range(257)],
        "density": list(np.linspace(0.0, 2.0, 201)),      # agents/m^2
        "ego_distance": [float(i) for i in range(251)],   # m
    }


# AnalysisConfig fields and the JSON types they take.
_CONFIG_KINDS = {
    "stationary_threshold": (int, float),
    "harsh_accel_threshold": (int, float),
    "density_min_agents": int,
    "per_timestep_rates": bool,
    "cumulative_heading": bool,
    "offroad_types": list,
    "histogram_bins": dict,
}


@dataclass
class AnalysisConfig:
    """Thresholds and histogram bin edges for an analysis run."""

    stationary_threshold: float = 1.0          # m of lifetime displacement
    harsh_accel_threshold: float = HARSH_ACCEL_DEFAULT
    density_min_agents: int = 2
    per_timestep_rates: bool = False
    cumulative_heading: bool = False
    offroad_types: tuple[str, ...] = OFFROAD_TYPES
    histogram_bins: dict[str, list[float]] = field(default_factory=_default_bins)

    def __post_init__(self):
        if not self.stationary_threshold > 0.0:
            raise ValueError("stationary_threshold must be > 0")
        if not self.harsh_accel_threshold > 0.0:
            raise ValueError("harsh_accel_threshold must be > 0")
        if self.density_min_agents < 1:
            raise ValueError("density_min_agents must be >= 1")
        unknown = sorted(set(self.histogram_bins) - set(_default_bins()))
        if unknown:
            raise ValueError(f"histogram_bins {unknown[0]!r} names no histogram; valid names: {', '.join(_default_bins())}")
        for name, edges in self.histogram_bins.items():
            _checked_edges(edges, f"histogram_bins {name!r}")

    def edges(self, metric: str) -> np.ndarray:
        return np.asanyarray(self.histogram_bins[metric], dtype=np.float64)

    def to_dict(self) -> dict:
        """asdict(self), built field by field, with list copies of offroad_types and of each bin list."""
        bins = {name: list(edges) for name, edges in self.histogram_bins.items()}
        return {**{f.name: getattr(self, f.name) for f in fields(self)}, "offroad_types": list(self.offroad_types), "histogram_bins": bins}

    @classmethod
    def from_json(cls, text: str) -> "AnalysisConfig":
        """Config from a JSON object; unknown keys are ignored and histogram_bins
        entries override the default edges one metric at a time. ValueError
        names a field whose value has the wrong type."""
        raw = _checked_object(load_json(text), _CONFIG_KINDS, (), "analysis config")
        if not all(isinstance(t, str) for t in raw.get("offroad_types", [])):
            raise ValueError(f"analysis config key 'offroad_types' must list type names, got {raw['offroad_types']!r}")
        for name, edges in raw.get("histogram_bins", {}).items():
            if not isinstance(edges, list) or not all(isinstance(e, (int, float)) and not isinstance(e, bool) for e in edges):
                raise ValueError(f"analysis config key 'histogram_bins' must map {name!r} to a list of numbers, got {edges!r}")
        kwargs = {f.name: raw[f.name] for f in fields(cls) if f.name in raw}
        if "offroad_types" in kwargs:
            kwargs["offroad_types"] = tuple(kwargs["offroad_types"])
        kwargs["histogram_bins"] = {**_default_bins(), **raw.get("histogram_bins", {})}
        return cls(**kwargs)


class _Edges(np.ndarray):
    """Read-only float64 bin edges, checked when they were made (_run_edges),
    so that binning a scene takes them without checking them again."""


def _checked_edges(values, what: str = "histogram edges") -> np.ndarray:
    """values as float64 bin edges; ValueError naming what unless there are 2 or more, each > the one before (so no NaN)."""
    if isinstance(values, _Edges):
        return values.view(np.ndarray)
    edges = np.asarray(values, dtype=np.float64)
    if len(edges) < 2 or not (edges[1:] > edges[:-1]).all():
        raise ValueError(f"{what} must hold 2 or more edges, each greater than the one before, got {edges.tolist()}")
    return edges


def _run_edges(values, what: str) -> _Edges:
    """A checked read-only copy of values, binned without a further check."""
    edges = _checked_edges(np.array(values, dtype=np.float64), what).view(_Edges)
    edges.flags.writeable = False
    return edges


@dataclass
class Histogram:
    """Binned samples for one (metric, dataset, type) population.

    Out-of-range samples are folded into the boundary bins and tallied in
    n_underflow/n_overflow, so counts always sum to the number of finite
    contributing samples.
    """

    name: str
    dataset: str
    agent_type: str
    edges: np.ndarray
    counts: np.ndarray
    n_underflow: int = 0
    n_overflow: int = 0

    @property
    def n_samples(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_samples(cls, name: str, dataset: str, agent_type: str, samples, edges, weights=None) -> "Histogram":
        """The histogram of samples, each counted once or, with int64 weights,
        weights[k] times."""
        edges = _checked_edges(edges)
        s = np.asarray(samples, dtype=np.float64)
        w = None if weights is None else np.asarray(weights, dtype=np.int64)
        finite = np.isfinite(s)
        if not finite.all():
            s, w = s[finite], None if w is None else w[finite]
        if w is None:
            s, n = np.sort(s), len(s)
        else:
            order = np.argsort(s)
            s, w = s[order], w[order]
        # p[k]: the samples below edges[k], and p[-1] those up to edges[-1]: bin k,
        # as in np.histogram, holds p[k + 1] - p[k]. With weights, summed weights.
        p = s.searchsorted(edges)
        p[-1] = s.searchsorted(edges[-1], side="right")
        if w is not None:
            cum = np.concatenate(([0], np.cumsum(w)))  # int64: exact
            p, n = cum[p], cum[-1]
        under, over = int(p[0]), int(n - p[-1])
        p[0], p[-1] = 0, n  # fold the samples beyond the edges into the boundary bins
        counts = p[1:] - p[:-1]
        return cls(name, dataset, agent_type, edges, counts, under, over)

    def add(self, other: "Histogram") -> None:
        """Add the counts of other, a histogram over the same edges; ValueError
        when the total count passes 2**63 - 1."""
        self.counts += other.counts
        self.n_underflow += other.n_underflow
        self.n_overflow += other.n_overflow
        total = int(self.counts.sum())
        if total < 0:  # the int64 sum of two totals up to 2**63 - 1 wrapped; only timestep-weighted counts come near
            raise ValueError(f"dataset {self.dataset}: its scenes span {total + 2**64} timesteps in all, more than the 2**63 - 1 a count holds")


@dataclass
class MetricReport:
    """Everything one analysis run produced, plus provenance."""

    config: dict
    tags: list[str]
    histograms: list[Histogram] = field(default_factory=list)
    rates: dict = field(default_factory=dict)          # metric -> dataset -> type -> entry
    population: dict = field(default_factory=dict)     # dataset -> counts/proportions
    tallies: dict = field(default_factory=dict)
    unavailable: list[str] = field(default_factory=list)


def _rate_entry(num: int, den: int) -> dict:
    return {"rate": num / den, "num": num, "den": den}


# ---------------------------------------------------------------------------
# Population / density / duration
# ---------------------------------------------------------------------------

def agent_population(scene: SceneFrame) -> dict[str, int]:
    """The type code of each of the scene's agent ids."""
    return dict(zip(scene.agent_ids, scene.type_code.tolist()))


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Index of the first entry of each run of equal values in keys."""
    change = np.ones(len(keys), dtype=bool)
    change[1:] = keys[1:] != keys[:-1]
    return np.flatnonzero(change)


def _observed_runs(scene: SceneFrame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scene's observed rows, and the start and end (exclusive) of each
    agent's run of them."""
    rows = np.flatnonzero(scene.columns.observed)
    starts = _run_starts(scene.columns.agent_index[rows])
    return rows, starts, np.append(starts[1:], len(rows))


def _alive_runs(scene: SceneFrame) -> tuple[np.ndarray, np.ndarray]:
    """The agents alive over each run of the scene's timesteps 0 ..
    n_timesteps - 1 that no lifetime starts or ends inside, and the runs'
    lengths: 2 runs per agent, some of length 0."""
    bounds = np.concatenate([[0], scene.first_ts, scene.last_ts + 1])
    order = np.argsort(bounds, kind="stable")
    step = np.repeat(np.array([0, 1, -1]), [1, scene.n_agents, scene.n_agents])  # at ts 0, each start, after each end
    return np.cumsum(step[order])[:-1], np.diff(bounds[order])


def simultaneous_agents(scene: SceneFrame, dataset: str, cfg: AnalysisConfig) -> list[Histogram]:
    """The scene's simultaneous-agent count at each timestep, and its maximum.
    Each run of timesteps with one count is a sample weighted by its length,
    so the work grows with the agents, not with the timesteps."""
    alive, length = _alive_runs(scene)
    edges = cfg.edges("simultaneous")
    return [Histogram.from_samples("simultaneous_per_ts", dataset, "all", alive, edges, weights=length),
            Histogram.from_samples("simultaneous_scene_max", dataset, "all", [alive[length > 0].max(initial=0)], edges)]


def agent_density(scene: SceneFrame, dataset: str, cfg: AnalysisConfig) -> tuple[list[Histogram], int]:
    """Agents per m^2 of their axis-aligned bounding rectangle, per timestep.

    Timesteps with fewer than density_min_agents agents are skipped; those
    with a degenerate (zero-area) rectangle are skipped and counted.
    """
    cols = scene.columns
    order = np.argsort(cols.ts, kind="stable")  # by timestep, by agent within one
    starts = _run_starts(cols.ts[order])
    n = np.diff(np.append(starts, len(order)))
    xs, ys = cols.x[order], cols.y[order]
    width = np.maximum.reduceat(xs, starts) - np.minimum.reduceat(xs, starts)
    height = np.maximum.reduceat(ys, starts) - np.minimum.reduceat(ys, starts)
    enough = n >= cfg.density_min_agents
    n, area = n[enough], (width * height)[enough]
    degenerate = area <= 0.0
    hist = Histogram.from_samples("density", dataset, "all", n[~degenerate] / area[~degenerate], cfg.edges("density"))
    return [hist], int(np.count_nonzero(degenerate))


def ego_agent_distances(scene: SceneFrame, dataset: str, cfg: AnalysisConfig, ego_id: str = "ego") -> tuple[list[Histogram], int]:
    """Euclidean xy distances from the ego agent to every other agent at
    shared timesteps, and 1 for a scene without the ego (no samples)."""
    missing = ego_id not in scene.agent_ids
    samples = np.zeros(0)
    if not missing:
        ego_idx = scene.agent_ids.index(ego_id)
        cols = scene.columns
        ego_rows, alive = scene.lifetime_rows(ego_idx, cols.ts)
        rows = np.flatnonzero(alive & (cols.agent_index != ego_idx))
        ego_rows = ego_rows[rows]
        samples = np.hypot(cols.x[rows] - cols.x[ego_rows], cols.y[rows] - cols.y[ego_rows])
    return [Histogram.from_samples("ego_distance", dataset, "all", samples, cfg.edges("ego_distance"))], int(missing)


# ---------------------------------------------------------------------------
# Motion complexity
# ---------------------------------------------------------------------------

def _type_histograms(dataset: str, code: np.ndarray, pools: dict[str, np.ndarray], cfg: AnalysisConfig,
                     sizes: np.ndarray | None = None) -> list[Histogram]:
    """For each type in code, one histogram per metric of pools (metric ->
    samples). The samples come in runs of one type, one run per entry of code:
    sizes[k] samples (without sizes, one) of type code[k]. Several types are
    cut from one sort by code."""
    counts = np.bincount(code, sizes, len(_TYPE_NAMES)).astype(np.int64)
    present = np.flatnonzero(counts)
    order = np.argsort(code if sizes is None else np.repeat(code, sizes), kind="stable") if len(present) > 1 else None
    ends = np.cumsum(counts)[present]
    hists = []
    for metric, samples in pools.items():
        if order is not None:
            samples = samples[order]
        edges = cfg.edges(metric)
        hists += [Histogram.from_samples(metric, dataset, _TYPE_NAMES[c], samples[b - counts[c] : b], edges) for c, b in zip(present, ends)]
    return hists


def dynamics_distributions(scene: SceneFrame, dataset: str, accel: np.ndarray, cfg: AnalysisConfig) -> list[Histogram]:
    """Speed, |acceleration| (accel, per row), and |jerk| distributions per type.

    Jerk is derived on the fly by finite-differencing the acceleration columns.
    """
    cols = scene.columns
    jerk = np.hypot(*(derive_derivative(a, scene.dt, scene.agent_offsets) for a in (cols.ax, cols.ay)))
    pools = {"speed": np.hypot(cols.vx, cols.vy), "accel": accel, "jerk": jerk}
    return _type_histograms(dataset, scene.type_code, pools, cfg, np.diff(scene.agent_offsets))


def stationary_fraction(scene: SceneFrame, cfg: AnalysisConfig) -> np.ndarray:
    """[[agents whose displacement from their first observed position never
    reaches stationary_threshold], [agents with an observed row]]."""
    cols = scene.columns
    rows, starts, ends = _observed_runs(scene)
    first = np.repeat(rows[starts], ends - starts)
    disp = np.hypot(cols.x[rows] - cols.x[first], cols.y[rows] - cols.y[first])
    return np.array([[np.count_nonzero(np.maximum.reduceat(disp, starts) < cfg.stationary_threshold)], [len(starts)]])


def heading_deltas(scene: SceneFrame, dataset: str, cfg: AnalysisConfig) -> list[Histogram]:
    """Heading change relative to each agent's first timestep, plus raw headings.

    Deltas are wrapped to (-pi, pi] by default; cfg.cumulative_heading switches
    to the unwrapped cumulative change.
    """
    cols, off = scene.columns, scene.agent_offsets
    h = cols.heading
    if cfg.cumulative_heading:
        dh = unwrap_segments(h, off) - h[off[cols.agent_index]]
    else:
        dh = wrap_angle(h - h[off[cols.agent_index]])
    return _type_histograms(dataset, scene.type_code, {"heading_delta": dh, "heading_raw": h}, cfg, np.diff(off))


def _run_sums(values: np.ndarray, firsts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """np.sum(values[f : f + n]) for each (f, n) of firsts and lengths, bit for
    bit: one np.add.reduce per run (np.add.reduceat does not add in np.sum's order)."""
    return np.array([np.add.reduce(values[f : f + n]) for f, n in zip(firsts.tolist(), lengths.tolist())], dtype=np.float64)


def path_efficiency(scene: SceneFrame, dataset: str, cfg: AnalysisConfig) -> tuple[list[Histogram], int]:
    """100 * endpoint distance / traveled length per agent with 2 or more
    observed rows, per type.

    Agents whose observed path length is under 1e-6 m are defined stationary,
    assigned 100%, and counted.
    """
    cols = scene.columns
    rows, starts, ends = _observed_runs(scene)
    xs, ys = cols.x[rows], cols.y[rows]
    enough = ends - starts >= 2
    lo, hi = starts[enough], ends[enough] - 1  # first and last observed row of each agent
    path = _run_sums(np.hypot(np.diff(xs), np.diff(ys)), lo, hi - lo)
    direct = np.array(list(map(math.hypot, (xs[hi] - xs[lo]).tolist(), (ys[hi] - ys[lo]).tolist())), dtype=np.float64)
    still = path < 1e-6
    eff = np.where(still, 100.0, 100.0 * direct / np.where(still, 1.0, path))
    return _type_histograms(dataset, scene.type_code[cols.agent_index[rows[lo]]], {"path_efficiency": eff}, cfg), int(np.count_nonzero(still))


# ---------------------------------------------------------------------------
# Self-consistency: collisions, harsh acceleration, off-road
# ---------------------------------------------------------------------------

def obb_corners(cx, cy, yaw, length, width) -> np.ndarray:
    """Corners of oriented boxes: center, heading along +length; (n, 4, 2)
    for arrays of n boxes, (4, 2) for one box."""
    shape = np.shape(cx) + (4, 2)
    cx, cy, yaw, hl, hw = (np.ravel(v) for v in (cx, cy, yaw, 0.5 * length, 0.5 * width))
    c, s = (np.array(list(map(f, yaw.tolist())), dtype=np.float64) for f in (math.cos, math.sin))
    x, y = rotate(np.stack((-hl, -hl, hl, hl), axis=-1), np.stack((-hw, hw, hw, -hw), axis=-1), c[:, None], s[:, None])
    return np.stack((x + cx[:, None], y + cy[:, None]), axis=-1).reshape(shape)


def obb_intersect(corners_a: np.ndarray, corners_b: np.ndarray) -> np.ndarray | bool:
    """Separating-axis test for convex quadrilaterals (touching counts as
    overlap): one bool per pair of (n, 4, 2) stacks, a bool for two (4, 2)."""
    # Box last: x and y are (corner, ...) and the axes (4, ...), so each
    # operation runs one inner loop over the boxes, not 4n loops of 8.
    x, y = np.ascontiguousarray(np.concatenate((corners_a, corners_b), axis=-2).T)  # a's corners, then b's
    ex, ey = x[[1, 2, 5, 6]] - x[[0, 1, 4, 5]], y[[1, 2, 5, 6]] - y[[0, 1, 4, 5]]  # two edges of each box
    ax, ay = -ey[:, None], ex[:, None]  # each edge's normal is an axis
    proj = x * ax + y * ay  # (axis, corner, ...)
    pa, pb = proj[:, :4], proj[:, 4:]
    hit = ~((pa.max(1) < pb.min(1)) | (pb.max(1) < pa.min(1))).any(0)
    return hit if hit.ndim else bool(hit)


def _agent_counts(scene: SceneFrame, rows: np.ndarray, events: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(event rows, selected rows) per agent index; rows and events are row masks."""
    idx, n = scene.columns.agent_index, scene.n_agents
    return np.bincount(idx[rows & events], minlength=n), np.bincount(idx[rows], minlength=n)


def _rates(scene: SceneFrame, events: np.ndarray, selected: np.ndarray, per_timestep: bool) -> np.ndarray:
    """[[events], [selected]] per type code, from each agent's event and
    selected row counts. By default an agent counts once, as an event if any
    of its selected rows is one ("any timestep"); per_timestep counts rows.
    Agents without a selected row add nothing."""
    if not per_timestep:
        events, selected = events > 0, selected > 0
    return np.array([np.bincount(scene.type_code, v, len(_TYPE_NAMES)) for v in (events, selected)]).astype(np.int64)


def _scene_collisions(scene: SceneFrame) -> tuple[np.ndarray, np.ndarray]:
    """(colliding rows, rows) per agent index over the rows of extent-bearing
    agents; an agent has one row per timestep, so these count timesteps."""
    cols = scene.columns
    # Length and width of each agent; NaN for one without an extent, which no box reads.
    dims = scene.extent[:, :2]
    rows = ~np.isnan(dims[:, 0])[cols.agent_index]
    hit = np.zeros(len(cols), dtype=bool)
    box = np.flatnonzero(rows)
    if not len(box):
        return _agent_counts(scene, rows, hit)
    box = box[np.argsort(cols.ts[box], kind="stable")]  # by timestep: offset k pairs each box with the k-th after it there
    agent, ts, x, y = cols.agent_index[box], cols.ts[box], cols.x[box], cols.y[box]
    # Validation keeps these out of cached scenes and rollouts; a scene built
    # in memory would otherwise fail inside math.cos with no agent named.
    bad = np.flatnonzero(~np.isfinite(cols.heading[box]))
    if len(bad):
        k = box[bad[0]]
        raise ValueError(
            f"agent {scene.agent_ids[cols.agent_index[k]]!r}: non-finite heading {float(cols.heading[k])} at ts {int(cols.ts[k])}"
        )
    radius = 0.5 * np.array(list(map(math.hypot, *dims.T.tolist())), dtype=np.float64)[agent]
    corners = obb_corners(x, y, cols.heading[box], dims[agent, 0], dims[agent, 1])
    for k in range(1, len(box)):
        a = np.flatnonzero(ts[k:] == ts[:-k])
        if not len(a):
            break
        # Pairs (a, a + k). Beyond a relative 1e-9 band (far above the rounding
        # of d2) a squared distance decides; an overflowed d2 is inf and far.
        # Inside it, and where the band's square could be subnormal, math.hypot
        # decides as in the reference loop: np.hypot can differ in the last bit.
        dx, dy, rsum = x[a] - x[a + k], y[a] - y[a + k], radius[a] + radius[a + k]
        with np.errstate(over="ignore"):
            band = (rsum * (1.0 + 1e-9)) ** 2
            near = ~((dx * dx + dy * dy > band) & (band > 1e-290))  # a NaN stays near
        a, dx, dy, rsum = a[near], dx[near], dy[near], rsum[near]
        dist = np.array(list(map(math.hypot, dx.tolist(), dy.tolist())), dtype=np.float64)
        a = a[~(dist > rsum)]  # a NaN distance is tested, not skipped
        meet = a[obb_intersect(corners[a], corners[a + k])]
        hit[box[meet]] = hit[box[meet + k]] = True
    return _agent_counts(scene, rows, hit)


def _offroad_rows(scene: SceneFrame, types: Iterable[str]) -> np.ndarray:
    """Row mask over the rows of every agent whose type name is in types."""
    allowed = set(types)
    by_code = np.array([t in allowed for t in _TYPE_NAMES])
    return by_code[scene.type_code][scene.columns.agent_index]


def _offroad_counts(scene: SceneFrame, vmap: VectorMap, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(off-road rows, selected rows) per agent index; a row is off-road when
    its center lies outside the drivable area. The centers are tested
    _OFFROAD_BLOCK at a time, which bounds the edge rows one test gathers."""
    cols = scene.columns
    off = np.zeros(len(cols), dtype=bool)
    sel = np.flatnonzero(rows)
    xy = np.column_stack([cols.x[sel], cols.y[sel]])
    for k in range(0, len(sel), _OFFROAD_BLOCK):
        off[sel[k : k + _OFFROAD_BLOCK]] = ~vmap.points_in_drivable_area(xy[k : k + _OFFROAD_BLOCK])
    return _agent_counts(scene, rows, off)


def collision_rate(scene: SceneFrame, cfg: AnalysisConfig) -> tuple[np.ndarray, int]:
    """Extent-bearing agents whose oriented box ever intersects another's, per
    type (_rates), and the number of extent-less agents, which are left out."""
    return _rates(scene, *_scene_collisions(scene), cfg.per_timestep_rates), int(np.isnan(scene.extent[:, 0]).sum())


def harsh_accel_rate(scene: SceneFrame, accel: np.ndarray, cfg: AnalysisConfig) -> np.ndarray:
    """Agents whose |acceleration| (accel, per row) exceeds the harsh-acceleration
    threshold at an observed timestep, per type (_rates)."""
    return _rates(scene, *_agent_counts(scene, scene.columns.observed, accel > cfg.harsh_accel_threshold), cfg.per_timestep_rates)


def offroad_rate(scene: SceneFrame, vmap: VectorMap, cfg: AnalysisConfig) -> np.ndarray:
    """Agents of cfg.offroad_types (by default vehicles and motorcycles) whose
    center leaves the map's drivable area at an observed timestep, per type (_rates)."""
    rows = scene.columns.observed & _offroad_rows(scene, cfg.offroad_types)
    return _rates(scene, *_offroad_counts(scene, vmap, rows), cfg.per_timestep_rates)


# ---------------------------------------------------------------------------
# Report assembly and emission
# ---------------------------------------------------------------------------

# The tally each metric counts beside its histograms or rates.
_TALLIES = {"density": "density_skipped_degenerate", "ego_distances": "ego_distance_scenes_missing_ego",
            "path_efficiency": "path_efficiency_zero_path_agents", "collision": "collision_agents_without_extent"}
# The rate metrics and the names of their counts' entries.
_RATE_NAMES = {"stationary": ("all",), "collision": _TYPE_NAMES, "harsh_accel": _TYPE_NAMES, "offroad": _TYPE_NAMES}
# Scene files per process at least: forking a worker costs about as much as counting one scene.
_MIN_SHARE = 8


class _Counts:
    """The integer counts of a run's scenes, or of one share of them:
    histograms by (name, dataset, type), rate numerators and denominators by
    metric and dataset, tallies, and by dataset each agent id's ((tag, scene
    id) of its first scene, type code there). Adding them up in any order
    gives the same counts."""

    def __init__(self, wanted: set[str]):
        self.hists: dict[tuple[str, str, str], Histogram] = {}
        self.rates: dict[str, dict[str, np.ndarray]] = {m: {} for m in _RATE_NAMES if m in wanted}
        self.tallies = {name: 0 for metric, name in _TALLIES.items() if metric in wanted}
        self.first: dict[str, dict[str, tuple]] = {}

    def add(self, dataset: str, metric: str, counts: list[Histogram] | np.ndarray, tally: int = 0) -> None:
        if metric in _TALLIES:
            self.tallies[_TALLIES[metric]] += tally
        if metric in self.rates:
            self.rates[metric][dataset] = self.rates[metric].get(dataset, 0) + counts
        else:
            self.add_hists(counts)

    def add_hists(self, hists: Iterable[Histogram]) -> None:
        for h in hists:
            kept = self.hists.setdefault((h.name, h.dataset, h.agent_type), h)
            if kept is not h:
                kept.add(h)

    def add_first(self, dataset: str, entries: Iterable[tuple[str, tuple]]) -> None:
        seen = self.first.setdefault(dataset, {})
        for agent_id, entry in entries:
            if seen.setdefault(agent_id, entry)[0] > entry[0]:
                seen[agent_id] = entry

    def merge(self, other: "_Counts") -> None:
        """Add the counts of another share of the run."""
        for name, tally in other.tallies.items():
            self.tallies[name] += tally
        for metric, by_dataset in other.rates.items():
            for dataset, counts in by_dataset.items():
                self.add(dataset, metric, counts)
        self.add_hists(other.hists.values())
        for dataset, seen in other.first.items():
            self.add_first(dataset, seen.items())

    def count(self, scene: SceneFrame, wanted: set[str], cfg: AnalysisConfig, vmap: VectorMap | None, ego_id: str) -> None:
        """Count one scene with each wanted metric."""
        dataset = SceneTag.parse(scene.dataset_tag).dataset
        add = functools.partial(self.add, dataset)
        accel = np.hypot(scene.columns.ax, scene.columns.ay) if wanted & {"speed", "accel", "jerk", "harsh_accel"} else None
        if "population" in wanted:
            key = (scene.scene_tag().render(), scene.scene_id)
            self.add_first(dataset, ((agent_id, (key, code)) for agent_id, code in agent_population(scene).items()))
        if "simultaneous" in wanted:
            add("simultaneous", simultaneous_agents(scene, dataset, cfg))
        if "density" in wanted:
            add("density", *agent_density(scene, dataset, cfg))
        if "ego_distances" in wanted:
            add("ego_distances", *ego_agent_distances(scene, dataset, cfg, ego_id))
        if wanted & {"speed", "accel", "jerk"}:
            add("dynamics", [h for h in dynamics_distributions(scene, dataset, accel, cfg) if h.name in wanted])
        if "stationary" in wanted:
            add("stationary", stationary_fraction(scene, cfg))
        if "heading_deltas" in wanted:
            add("heading_deltas", heading_deltas(scene, dataset, cfg))
        if "path_efficiency" in wanted:
            add("path_efficiency", *path_efficiency(scene, dataset, cfg))
        if "collision" in wanted:
            add("collision", *collision_rate(scene, cfg))
        if "harsh_accel" in wanted:
            add("harsh_accel", harsh_accel_rate(scene, accel, cfg))
        if "offroad" in wanted:
            add("offroad", offroad_rate(scene, vmap, cfg))


def _shares(paths: list[Path]) -> list[list[Path]]:
    """paths cut into contiguous shares of about equal bytes, one for each
    process that counts them: one process per CPU this one may run on, each
    with _MIN_SHARE files or more, and a single one where forking is not quiet."""
    n = min(_cpus(), len(paths) // _MIN_SHARE) if _fork_is_quiet() else 1
    if n < 2:
        return [paths]
    ends = np.cumsum([path.stat().st_size for path in paths])
    cuts = np.minimum(np.searchsorted(ends, ends[-1] * np.arange(1, n) / n) + 1, len(paths))
    bounds = sorted({0, len(paths), *cuts.tolist()})
    return [paths[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


class _ShareReads:
    """A worker's reads of its share of a run's files: the tag of each file it
    read, by path, and its first fault as (the file read last, the
    exception); a fault on a file whose tag was read came from counting it."""

    def __init__(self, share: list[Path]):
        self.share = frozenset(share)
        self.tags: dict[Path, SceneTag] = {}
        self.fault: tuple[Path | None, Exception] | None = None
        self.last: Path | None = None

    def read(self, path: Path, decode) -> tuple | None:
        """SceneCache._read_file for a file of the share, None for any other."""
        if path not in self.share:
            return None
        self.last = path
        got = SceneCache._read_file(path, decode)
        self.tags[path] = got[0]
        return got


def run_analysis(cache: SceneCache, tags: Sequence[str], metrics: Sequence[str], cfg: AnalysisConfig | None = None,
                 vmap: VectorMap | None = None, ego_id: str = "ego") -> MetricReport:
    """Run the named metrics in one pass over the scenes the tags select and
    assemble a MetricReport. Each scene is decoded, counted by every named
    metric and dropped; the counts are added per (metric, dataset, type), so
    the report does not depend on the order of the scenes. Off-road is
    unavailable without a map that has a drivable area.

    Where os.fork is at hand and quiet (_fork_is_quiet), a run of 2 *
    _MIN_SHARE files or more is cut into contiguous shares of about equal
    bytes, one per CPU the process may run on (_shares). One worker is forked
    per share after the first; each counts its share and pipes its counts
    back, while this process counts the first share. The report's bytes are
    those of a run in one process: this process walks every file in order,
    taking the tags the workers read in place of reading their files again,
    so each file is opened once, and the first fault in that order is
    raised: a file's CacheError, a count's error or an UnknownTagError once
    its dataset is read. A worker that ends without its counts raises
    ChildProcessError naming its exit code or signal (core._Worker). Every
    worker is reaped before the run returns or raises."""
    cfg = cfg or AnalysisConfig()
    unknown = [m for m in metrics if m not in METRIC_NAMES]
    if unknown:
        raise ValueError(f"unknown metric(s) {unknown}; valid names: {', '.join(METRIC_NAMES)}")
    report = MetricReport(config=cfg.to_dict(), tags=list(tags))
    cfg = replace(cfg, histogram_bins={name: _run_edges(edges, f"histogram_bins {name!r}") for name, edges in cfg.histogram_bins.items()})
    wanted = set(metrics)
    if "offroad" in wanted and (vmap is None or not vmap.has_drivable_area):
        wanted.remove("offroad")
        report.unavailable.append("offroad")
        if vmap is not None:
            report.tallies["offroad_unsupported_map"] = 1
    counts = _Counts(wanted)

    def count(source) -> None:
        """Count each scene of source's walk; a worker's fault in place of a scene is raised."""
        for scene in source.iter_scenes(tags):
            if isinstance(scene, Exception):
                raise scene
            if scene is not None:
                counts.count(scene, wanted, cfg, vmap, ego_id)
            del scene  # before the next scene is decoded

    def count_share(reads: _ShareReads):
        try:
            count(cache.reading(reads.read))
        except Exception as exc:
            reads.fault = (reads.last, exc)
        return counts, reads.tags, reads.fault

    def replay(path: Path, decode) -> tuple | None:
        """A file of a worker's share as the worker read it: its tag, and as its
        scene None or the fault of counting it; the fault of reading it raised."""
        worker = owners.get(path)
        if worker is None:
            return SceneCache._read_file(path, decode)
        if worker.result is None:
            counts.merge(worker.receive()[0])
        _, read, fault = worker.result
        if path in read:
            return read[path], None, fault[1] if fault and fault[0] == path else None
        if fault:
            raise fault[1]
        return SceneCache._read_file(path, decode)  # listed since the worker walked

    shares = _shares(cache.walk_files(tags))
    owners: dict[Path, _Worker] = {}
    try:
        for share in shares[1:]:
            try:
                worker = _Worker(functools.partial(count_share, _ShareReads(share)))
            except OSError:  # no process to spare: this one counts the shares left
                break
            owners.update(dict.fromkeys(share, worker))
        count(cache.reading(replay) if owners else cache)
    finally:
        for worker in set(owners.values()):
            worker.stop()

    report.tallies.update(counts.tallies)
    report.histograms = sorted(counts.hists.values(), key=lambda h: (h.name, h.dataset, h.agent_type))
    for metric, by_dataset in counts.rates.items():
        names = _RATE_NAMES[metric]
        entries = {ds: {names[c]: _rate_entry(int(num[c]), int(den[c])) for c in np.flatnonzero(den)} for ds, (num, den) in by_dataset.items()}
        report.rates[metric] = {ds: e for ds, e in entries.items() if e or metric != "stationary"}  # stationary lists only datasets with an observed agent
    for dataset, seen in counts.first.items():
        n = np.bincount(np.array([code for _, code in seen.values()], dtype=np.int64), minlength=len(_TYPE_NAMES))
        type_counts = {_TYPE_NAMES[c]: int(n[c]) for c in np.flatnonzero(n)}
        report.population[dataset] = {"unique_agents": len(seen), "type_counts": type_counts,
                                      "type_fractions": {k: v / len(seen) for k, v in type_counts.items()}}
    return report


def emit_report(report: MetricReport, out_dir: str | Path) -> list[Path]:
    """Write one CSV per histogram plus rates.json; deterministic bytes.

    Histogram CSVs are named ``<metric>__<dataset>__<type>.csv`` with rows
    ``edge_lo,edge_hi,count``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    hists = sorted(report.histograms, key=lambda h: (h.name, h.dataset, h.agent_type))
    bins: dict[tuple[str, bytes], list[str]] = {}  # edges -> the "lo,hi," text of each bin
    for hist in hists:
        path = out / f"{hist.name}__{hist.dataset}__{hist.agent_type}.csv"
        key = (hist.edges.dtype.str, hist.edges.tobytes())
        if key not in bins:
            text = list(map(repr, hist.edges.tolist()))
            bins[key] = [f"{lo},{hi}," for lo, hi in zip(text[:-1], text[1:])]
        rows = "".join(f"{bounds}{count}\n" for bounds, count in zip(bins[key], hist.counts.tolist()))
        path.write_text("edge_lo,edge_hi,count\n" + rows, encoding="utf-8")
        written.append(path)

    payload = {
        "config": report.config,
        "tags": report.tags,
        "rates": report.rates,
        "population": report.population,
        "tallies": report.tallies,
        "unavailable": sorted(report.unavailable),
        "histograms": [
            {"name": h.name, "dataset": h.dataset, "agent_type": h.agent_type, "n_samples": h.n_samples,
             "n_underflow": h.n_underflow, "n_overflow": h.n_overflow}
            for h in hists
        ],
    }
    rates_path = out / "rates.json"
    rates_path.write_text(json.dumps(payload, sort_keys=True, indent=1), encoding="utf-8")
    written.append(rates_path)
    return written
