"""Dataset statistics over cached scenes: population, density, dynamics,
nonlinearity, and self-consistency (collision / off-road / harsh acceleration)
metrics, emitted as histogram CSVs and a scalar-rate JSON.

Rates use a per-agent "any timestep" event definition by default; a
per-timestep variant sits behind AnalysisConfig.per_timestep_rates.
Thresholds compare with strict inequality.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import TYPE_NAMES as _TYPE_NAMES, SceneFrame, _checked_object, load_json, rotate, wrap_angle
from .ingest import SceneCache
from .kinematics import derive_derivative
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

    def edges(self, metric: str) -> np.ndarray:
        return np.asarray(self.histogram_bins[metric], dtype=np.float64)

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
        kwargs = {f.name: raw[f.name] for f in fields(cls) if f.name in raw and f.name != "histogram_bins"}
        if "offroad_types" in kwargs:
            kwargs["offroad_types"] = tuple(kwargs["offroad_types"])
        cfg = cls(**kwargs)
        for name, edges in raw.get("histogram_bins", {}).items():
            cfg.histogram_bins[name] = list(edges)
        return cfg


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
        edges = np.asarray(edges, dtype=np.float64)
        if len(edges) < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("histogram edges must be strictly increasing with >= 2 entries")
        s = np.asarray(samples, dtype=np.float64)
        w = None if weights is None else np.asarray(weights, dtype=np.int64)
        finite = np.isfinite(s)
        if not finite.all():
            s, w = s[finite], None if w is None else w[finite]
        low, high = s < edges[0], s > edges[-1]
        under = int(np.count_nonzero(low) if w is None else w[low].sum())
        over = int(np.count_nonzero(high) if w is None else w[high].sum())
        # Counts samples in [edges[0], edges[-1]], exactly: int64 weights are summed as int64.
        counts = np.histogram(s, bins=edges, weights=w)[0].astype(np.int64)
        counts[0] += under  # and folds the rest into the boundary bins
        counts[-1] += over
        return cls(name, dataset, agent_type, edges, counts, under, over)


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


Datasets = Mapping[str, Sequence[SceneFrame]]  # dataset name -> its scenes


def _scenes_by_dataset(cache: SceneCache, tags: Sequence[str]) -> dict[str, list[SceneFrame]]:
    """The scenes the tags select, each loaded once, grouped by dataset."""
    out: dict[str, list[SceneFrame]] = {}
    for scene in cache.iter_scenes(tags):
        out.setdefault(scene.scene_tag().dataset, []).append(scene)
    return out


def _rate_entry(num: int, den: int) -> dict:
    return {"rate": num / den, "num": num, "den": den}


# ---------------------------------------------------------------------------
# Population / density / duration
# ---------------------------------------------------------------------------

def agent_population(datasets: Datasets) -> dict:
    """Unique-agent counts and per-type proportions per dataset.

    Agents are deduplicated by agent_id within a dataset, so a recurring id
    (like a data-collection ego vehicle) counts once.
    """
    out: dict[str, dict] = {}
    for dataset, scenes in sorted(datasets.items()):
        codes: dict[str, int] = {}
        for scene in scenes:
            for agent_id, code in zip(scene.agent_ids, scene.type_code.tolist()):
                codes.setdefault(agent_id, code)
        total = len(codes)
        n = np.bincount(np.array(list(codes.values()), dtype=np.int64), minlength=len(_TYPE_NAMES))
        counts = {_TYPE_NAMES[c]: int(n[c]) for c in np.flatnonzero(n)}
        out[dataset] = {"unique_agents": total, "type_counts": counts, "type_fractions": {k: v / total for k, v in counts.items()}}
    return out


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


def simultaneous_agents(datasets: Datasets, cfg: AnalysisConfig) -> list[Histogram]:
    """Per-(scene, ts) simultaneous-agent counts and per-scene maxima. Each
    run of timesteps with one count is a sample weighted by its length, so
    the work grows with the agents, not with the timesteps. The weights of a
    dataset sum to its scenes' timesteps, which must fit in int64."""
    hists = []
    for dataset, scenes in sorted(datasets.items()):
        total = sum(scene.n_timesteps for scene in scenes)
        if total > 2**63 - 1:
            raise ValueError(f"dataset {dataset}: its scenes span {total} timesteps in all, more than the 2**63 - 1 a count holds")
        runs = [_alive_runs(s) for s in scenes]
        maxima = [int(alive[length > 0].max(initial=0)) for alive, length in runs]
        edges = cfg.edges("simultaneous")
        alive, length = (np.concatenate(parts) for parts in zip(*runs))
        hists.append(Histogram.from_samples("simultaneous_per_ts", dataset, "all", alive, edges, weights=length))
        hists.append(Histogram.from_samples("simultaneous_scene_max", dataset, "all", maxima, edges))
    return hists


def agent_density(datasets: Datasets, cfg: AnalysisConfig) -> tuple[list[Histogram], dict]:
    """Agents per m^2 of their axis-aligned bounding rectangle, per (scene, ts).

    Timesteps with fewer than density_min_agents agents or a degenerate
    (zero-area) rectangle are skipped and tallied.
    """
    hists = []
    skipped = 0
    for dataset, scenes in sorted(datasets.items()):
        samples: list[np.ndarray] = []
        for scene in scenes:
            order = np.argsort(scene.columns.ts, kind="stable")  # by timestep, by agent within one
            starts = _run_starts(scene.columns.ts[order])
            n = np.diff(np.append(starts, len(order)))
            xs, ys = scene.columns.x[order], scene.columns.y[order]
            width = np.maximum.reduceat(xs, starts) - np.minimum.reduceat(xs, starts)
            height = np.maximum.reduceat(ys, starts) - np.minimum.reduceat(ys, starts)
            enough = n >= cfg.density_min_agents
            n, area = n[enough], (width * height)[enough]
            degenerate = area <= 0.0
            skipped += int(np.count_nonzero(degenerate))
            samples.append(n[~degenerate] / area[~degenerate])
        hists.append(Histogram.from_samples("density", dataset, "all", np.concatenate(samples), cfg.edges("density")))
    return hists, {"density_skipped_degenerate": skipped}


def ego_agent_distances(datasets: Datasets, cfg: AnalysisConfig, ego_id: str = "ego") -> tuple[list[Histogram], dict]:
    """Euclidean xy distances from the ego agent to every other agent at shared timesteps."""
    hists = []
    missing_ego = 0
    for dataset, scenes in sorted(datasets.items()):
        samples: list[np.ndarray] = []
        for scene in scenes:
            if ego_id not in scene.agent_ids:
                missing_ego += 1
                continue
            ego_idx = scene.agent_ids.index(ego_id)
            cols = scene.columns
            ego_rows, alive = scene.lifetime_rows(ego_idx, cols.ts)
            rows = np.flatnonzero(alive & (cols.agent_index != ego_idx))
            ego_rows = ego_rows[rows]
            samples.append(np.hypot(cols.x[rows] - cols.x[ego_rows], cols.y[rows] - cols.y[ego_rows]))
        pooled = np.concatenate(samples) if samples else np.zeros(0)
        hists.append(Histogram.from_samples("ego_distance", dataset, "all", pooled, cfg.edges("ego_distance")))
    return hists, {"ego_distance_scenes_missing_ego": missing_ego}


# ---------------------------------------------------------------------------
# Motion complexity
# ---------------------------------------------------------------------------

def _type_histograms(dataset: str, codes: list[np.ndarray], pools: dict[str, list[np.ndarray]], cfg: AnalysisConfig) -> list[Histogram]:
    """For each type in codes, in sorted order, one histogram per metric of pools
    (metric -> sample parts; codes holds the parts' type codes). One metric's
    parts are joined at a time; several types are cut from one sort by code."""
    code = np.concatenate(codes)
    counts = np.bincount(code, minlength=len(_TYPE_NAMES))
    present = np.flatnonzero(counts)
    order = np.argsort(code, kind="stable") if len(present) > 1 else None
    ends = np.cumsum(counts)[present]
    per_metric = []
    for metric, parts in pools.items():
        samples = np.concatenate(parts)
        if order is not None:
            samples = samples[order]
        edges = cfg.edges(metric)
        per_metric.append([
            Histogram.from_samples(metric, dataset, _TYPE_NAMES[c], samples[b - counts[c] : b], edges)
            for c, b in zip(present, ends)
        ])
    return [h for per_type in zip(*per_metric) for h in per_type]


def dynamics_distributions(datasets: Datasets, cfg: AnalysisConfig) -> list[Histogram]:
    """Speed, |acceleration|, and |jerk| distributions per (dataset, type).

    Jerk is derived on the fly by finite-differencing the acceleration columns.
    """
    hists = []
    for dataset, scenes in sorted(datasets.items()):
        codes: list[np.ndarray] = []
        pools: dict[str, list[np.ndarray]] = {"speed": [], "accel": [], "jerk": []}
        for scene in scenes:
            cols = scene.columns
            codes.append(scene.type_code[cols.agent_index])
            pools["speed"].append(np.hypot(cols.vx, cols.vy))
            pools["accel"].append(np.hypot(cols.ax, cols.ay))
            pools["jerk"].append(np.hypot(*(derive_derivative(a, scene.dt, scene.agent_offsets) for a in (cols.ax, cols.ay))))
        hists += _type_histograms(dataset, codes, pools, cfg)
    return hists


def stationary_fraction(datasets: Datasets, cfg: AnalysisConfig) -> dict:
    """Fraction of agents whose displacement from their first observed position
    never reaches stationary_threshold."""
    out: dict[str, dict] = {}
    for dataset, scenes in sorted(datasets.items()):
        num = den = 0
        for scene in scenes:
            cols = scene.columns
            rows, starts, ends = _observed_runs(scene)
            first = np.repeat(rows[starts], ends - starts)
            disp = np.hypot(cols.x[rows] - cols.x[first], cols.y[rows] - cols.y[first])
            den += len(starts)
            num += int(np.count_nonzero(np.maximum.reduceat(disp, starts) < cfg.stationary_threshold))
        if den:
            out[dataset] = _rate_entry(num, den)
    return out


def heading_deltas(datasets: Datasets, cfg: AnalysisConfig) -> list[Histogram]:
    """Heading change relative to each agent's first timestep, plus raw headings.

    Deltas are wrapped to (-pi, pi] by default; cfg.cumulative_heading switches
    to the unwrapped cumulative change.
    """
    hists = []
    for dataset, scenes in sorted(datasets.items()):
        codes: list[np.ndarray] = []
        pools: dict[str, list[np.ndarray]] = {"heading_delta": [], "heading_raw": []}
        for scene in scenes:
            cols, off = scene.columns, scene.agent_offsets
            h = cols.heading
            if cfg.cumulative_heading:
                parts = [np.unwrap(h[a:b]) - h[a] for a, b in zip(off[:-1], off[1:])]
                dh = np.concatenate(parts) if parts else h
            else:
                dh = wrap_angle(h - h[off[cols.agent_index]])
            codes.append(scene.type_code[cols.agent_index])
            pools["heading_delta"].append(dh)
            pools["heading_raw"].append(h)
        hists += _type_histograms(dataset, codes, pools, cfg)
    return hists


def _run_sums(values: np.ndarray, firsts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """np.sum(values[f : f + n]) for each (f, n) of firsts and lengths, bit for
    bit: the runs of one length are summed as the rows of one (k, n) gather,
    and a row sum adds in np.sum's order (np.add.reduceat does not)."""
    out = np.empty(len(firsts))
    order = np.argsort(lengths, kind="stable")
    starts = _run_starts(lengths[order])
    for a, b in zip(starts, np.append(starts[1:], len(order))):
        group = order[a:b]
        out[group] = values[firsts[group, None] + np.arange(lengths[group[0]])].sum(axis=1)
    return out


def path_efficiency(datasets: Datasets, cfg: AnalysisConfig) -> tuple[list[Histogram], dict]:
    """100 * endpoint distance / traveled length per agent, pooled per type.

    Agents whose observed path length is under 1e-6 m are defined stationary,
    assigned 100%, and tallied separately.
    """
    hists = []
    zero_path = 0
    for dataset, scenes in sorted(datasets.items()):
        steps, firsts, n_steps, dx, dy, codes = [], [], [], [], [], []
        n_before = 0  # steps of the dataset's earlier scenes
        for scene in scenes:
            cols = scene.columns
            rows, starts, ends = _observed_runs(scene)
            xs, ys = cols.x[rows], cols.y[rows]
            enough = ends - starts >= 2
            lo, hi = starts[enough], ends[enough] - 1  # first and last observed row of each agent
            steps.append(np.hypot(np.diff(xs), np.diff(ys)))
            firsts.append(lo + n_before)
            n_before += len(steps[-1])
            n_steps.append(hi - lo)
            dx.append(xs[hi] - xs[lo])
            dy.append(ys[hi] - ys[lo])
            codes.append(scene.type_code[cols.agent_index[rows[lo]]])
        path = _run_sums(*(np.concatenate(parts) for parts in (steps, firsts, n_steps)))
        direct = np.array(list(map(math.hypot, np.concatenate(dx).tolist(), np.concatenate(dy).tolist())), dtype=np.float64)
        still = path < 1e-6
        zero_path += int(np.count_nonzero(still))
        eff = np.where(still, 100.0, 100.0 * direct / np.where(still, 1.0, path))
        hists += _type_histograms(dataset, codes, {"path_efficiency": [eff]}, cfg)
    return hists, {"path_efficiency_zero_path_agents": zero_path}


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


AgentCounter = Callable[[SceneFrame], tuple[np.ndarray, np.ndarray]]


def _rates(datasets: Datasets, counts: AgentCounter, per_timestep: bool) -> dict:
    """{dataset: {type: entry}} from counts(scene), its per-agent (event rows, selected rows).

    Agents without a selected row are left out. By default an agent counts
    once, as an event if any of its selected rows is one ("any timestep");
    per_timestep counts rows. Every dataset of datasets gets an entry.
    """
    out: dict[str, dict] = {}
    for dataset, scenes in sorted(datasets.items()):
        codes, events, selected = [], [], []
        for scene in scenes:
            ev, sel = counts(scene)
            codes.append(scene.type_code)
            events.append(ev if per_timestep else ev > 0)
            selected.append(sel if per_timestep else sel > 0)
        code = np.concatenate(codes)
        num, den = (np.bincount(code, np.concatenate(v), len(_TYPE_NAMES)).astype(np.int64) for v in (events, selected))
        out[dataset] = {_TYPE_NAMES[c]: _rate_entry(int(num[c]), int(den[c])) for c in np.flatnonzero(den)}
    return out


def _scene_collisions(scene: SceneFrame) -> tuple[np.ndarray, np.ndarray]:
    """(colliding rows, rows) per agent index over the rows of extent-bearing
    agents; an agent has one row per timestep, so these count timesteps."""
    cols = scene.columns
    # Length and width of each agent; NaN for one without an extent, which no box reads.
    dims = scene.extent[:, :2]
    rows = ~np.isnan(dims[:, 0])[cols.agent_index]
    hit = np.zeros(len(cols), dtype=bool)
    box = np.flatnonzero(rows)
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


def collision_rate(datasets: Datasets, cfg: AnalysisConfig) -> tuple[dict, dict]:
    """Fraction of extent-bearing agents whose oriented box ever intersects another's.

    Extent-less agents are excluded from numerator and denominator and tallied.
    """
    no_extent = sum(int(np.isnan(scene.extent[:, 0]).sum()) for scenes in datasets.values() for scene in scenes)
    return _rates(datasets, _scene_collisions, cfg.per_timestep_rates), {"collision_agents_without_extent": no_extent}


def harsh_accel_rate(datasets: Datasets, cfg: AnalysisConfig) -> dict:
    """Fraction of agents exceeding the harsh-acceleration threshold at any
    observed timestep (strict inequality at the threshold)."""

    def counts(scene: SceneFrame):
        cols = scene.columns
        return _agent_counts(scene, cols.observed, np.hypot(cols.ax, cols.ay) > cfg.harsh_accel_threshold)

    return _rates(datasets, counts, cfg.per_timestep_rates)


def offroad_rate(datasets: Datasets, vmap: VectorMap | None, cfg: AnalysisConfig) -> tuple[dict | None, dict]:
    """Fraction of (by default) vehicles/motorcycles whose center leaves the
    drivable area at any observed timestep. None when no map is given or it
    has no drivable area (tallied), whatever agent types the data holds."""
    if vmap is None:
        return None, {}
    if not vmap.has_drivable_area:
        return None, {"offroad_unsupported_map": 1}

    def counts(scene: SceneFrame):
        return _offroad_counts(scene, vmap, scene.columns.observed & _offroad_rows(scene, cfg.offroad_types))

    return _rates(datasets, counts, cfg.per_timestep_rates), {}


# ---------------------------------------------------------------------------
# Report assembly and emission
# ---------------------------------------------------------------------------

def run_analysis(cache: SceneCache, tags: Sequence[str], metrics: Sequence[str], cfg: AnalysisConfig | None = None,
                 vmap: VectorMap | None = None, ego_id: str = "ego") -> MetricReport:
    """Run the named metrics and assemble a MetricReport."""
    cfg = cfg or AnalysisConfig()
    unknown = [m for m in metrics if m not in METRIC_NAMES]
    if unknown:
        raise ValueError(f"unknown metric(s) {unknown}; valid names: {', '.join(METRIC_NAMES)}")
    report = MetricReport(config=cfg.to_dict(), tags=list(tags))

    wanted = set(metrics)
    datasets = _scenes_by_dataset(cache, tags)

    def add(hists: list[Histogram], tallies: dict) -> None:
        report.histograms += hists
        report.tallies.update(tallies)

    if "population" in wanted:
        report.population = agent_population(datasets)
    if "simultaneous" in wanted:
        report.histograms += simultaneous_agents(datasets, cfg)
    if "density" in wanted:
        add(*agent_density(datasets, cfg))
    if "ego_distances" in wanted:
        add(*ego_agent_distances(datasets, cfg, ego_id))
    dyn_wanted = wanted & {"speed", "accel", "jerk"}
    if dyn_wanted:
        report.histograms += [h for h in dynamics_distributions(datasets, cfg) if h.name in dyn_wanted]
    if "stationary" in wanted:
        report.rates["stationary"] = {ds: {"all": entry} for ds, entry in stationary_fraction(datasets, cfg).items()}
    if "heading_deltas" in wanted:
        report.histograms += heading_deltas(datasets, cfg)
    if "path_efficiency" in wanted:
        add(*path_efficiency(datasets, cfg))
    if "collision" in wanted:
        report.rates["collision"], tallies = collision_rate(datasets, cfg)
        report.tallies.update(tallies)
    if "harsh_accel" in wanted:
        report.rates["harsh_accel"] = harsh_accel_rate(datasets, cfg)
    if "offroad" in wanted:
        rates, tallies = offroad_rate(datasets, vmap, cfg)
        report.tallies.update(tallies)
        if rates is None:
            report.unavailable.append("offroad")
        else:
            report.rates["offroad"] = rates
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
