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
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import AgentMetadata, AgentType, SceneFrame, wrap_angle
from .ingest import SceneCache
from .kinematics import derive_derivative
from .vecmap import DrivableAreaUnsupported, VectorMap

GRAVITY = 9.81
HARSH_ACCEL_DEFAULT = 3.924  # 0.4 g (0.4 * 9.81); kept as a literal so the contract value is exact
OFFROAD_TYPES = ("vehicle", "motorcycle")

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
        return {**asdict(self), "offroad_types": list(self.offroad_types)}

    @classmethod
    def from_json(cls, text: str) -> "AnalysisConfig":
        """Config from JSON; unknown keys are ignored and histogram_bins entries
        override the default edges one metric at a time."""
        raw = json.loads(text)
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
    def from_samples(cls, name: str, dataset: str, agent_type: str, samples, edges) -> "Histogram":
        edges = np.asarray(edges, dtype=np.float64)
        if len(edges) < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("histogram edges must be strictly increasing with >= 2 entries")
        s = np.asarray(samples, dtype=np.float64)
        s = s[np.isfinite(s)]
        under = int(np.count_nonzero(s < edges[0]))
        over = int(np.count_nonzero(s > edges[-1]))
        counts, _ = np.histogram(np.clip(s, edges[0], edges[-1]), bins=edges)
        return cls(name, dataset, agent_type, edges, counts.astype(np.int64), under, over)


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


def _scenes_by_dataset(cache: SceneCache, tags: Sequence[str]) -> dict[str, list[SceneFrame]]:
    out: dict[str, list[SceneFrame]] = {}
    for scene in cache.iter_scenes(tags):
        out.setdefault(scene.scene_tag().dataset, []).append(scene)
    return out


def _rate_entry(num: int, den: int) -> dict:
    return {"rate": num / den, "num": num, "den": den}


# ---------------------------------------------------------------------------
# Population / density / duration
# ---------------------------------------------------------------------------

def agent_population(cache: SceneCache, tags: Sequence[str]) -> dict:
    """Unique-agent counts and per-type proportions per dataset.

    Agents are deduplicated by agent_id within a dataset, so a recurring id
    (like a data-collection ego vehicle) counts once.
    """
    out: dict[str, dict] = {}
    for dataset, scenes in sorted(_scenes_by_dataset(cache, tags).items()):
        types: dict[str, AgentType] = {}
        for scene in scenes:
            for meta in scene.agents:
                types.setdefault(meta.agent_id, meta.agent_type)
        total = len(types)
        counts: dict[str, int] = {}
        for t in types.values():
            counts[str(t)] = counts.get(str(t), 0) + 1
        out[dataset] = {
            "unique_agents": total,
            "type_counts": dict(sorted(counts.items())),
            "type_fractions": {k: v / total for k, v in sorted(counts.items())},
        }
    return out


def _presence_counts(scene: SceneFrame) -> np.ndarray:
    counts = np.zeros(scene.n_timesteps, dtype=np.int64)
    for meta in scene.agents:
        counts[meta.first_ts : meta.last_ts + 1] += 1
    return counts


def simultaneous_agents(cache: SceneCache, tags: Sequence[str], cfg: AnalysisConfig) -> list[Histogram]:
    """Per-(scene, ts) simultaneous-agent counts and per-scene maxima."""
    hists = []
    for dataset, scenes in sorted(_scenes_by_dataset(cache, tags).items()):
        per_ts: list[np.ndarray] = []
        maxima: list[int] = []
        for scene in scenes:
            counts = _presence_counts(scene)
            per_ts.append(counts)
            maxima.append(int(counts.max()) if len(counts) else 0)
        edges = cfg.edges("simultaneous")
        hists.append(Histogram.from_samples("simultaneous_per_ts", dataset, "all", np.concatenate(per_ts), edges))
        hists.append(Histogram.from_samples("simultaneous_scene_max", dataset, "all", maxima, edges))
    return hists


def _rows_by_ts(scene: SceneFrame) -> dict[int, np.ndarray]:
    ts = scene.columns.ts
    order = np.argsort(ts, kind="stable")
    sorted_ts = ts[order]
    uniq, starts = np.unique(sorted_ts, return_index=True)
    out = {}
    for i, t in enumerate(uniq):
        end = starts[i + 1] if i + 1 < len(starts) else len(order)
        out[int(t)] = order[starts[i] : end]
    return out


def agent_density(
    cache: SceneCache, tags: Sequence[str], cfg: AnalysisConfig
) -> tuple[list[Histogram], dict]:
    """Agents per m^2 of their axis-aligned bounding rectangle, per (scene, ts).

    Timesteps with fewer than density_min_agents agents or a degenerate
    (zero-area) rectangle are skipped and tallied.
    """
    hists = []
    skipped = 0
    for dataset, scenes in sorted(_scenes_by_dataset(cache, tags).items()):
        samples: list[float] = []
        for scene in scenes:
            cols = scene.columns
            for _, rows in sorted(_rows_by_ts(scene).items()):
                if len(rows) < cfg.density_min_agents:
                    continue
                xs, ys = cols.x[rows], cols.y[rows]
                area = float((xs.max() - xs.min()) * (ys.max() - ys.min()))
                if area <= 0.0:
                    skipped += 1
                    continue
                samples.append(len(rows) / area)
        hists.append(Histogram.from_samples("density", dataset, "all", samples, cfg.edges("density")))
    return hists, {"density_skipped_degenerate": skipped}


def ego_agent_distances(
    cache: SceneCache, tags: Sequence[str], cfg: AnalysisConfig, ego_id: str = "ego"
) -> tuple[list[Histogram], dict]:
    """Euclidean xy distances from the ego agent to every other agent at shared timesteps."""
    hists = []
    missing_ego = 0
    for dataset, scenes in sorted(_scenes_by_dataset(cache, tags).items()):
        samples: list[np.ndarray] = []
        for scene in scenes:
            ego_idx = next((i for i, m in enumerate(scene.agents) if m.agent_id == ego_id), None)
            if ego_idx is None:
                missing_ego += 1
                continue
            cols = scene.columns
            ego = scene.agents[ego_idx]
            ego_sl = scene.rows_for_agent(ego_idx)
            for j, meta in enumerate(scene.agents):
                if j == ego_idx:
                    continue
                lo = max(ego.first_ts, meta.first_ts)
                hi = min(ego.last_ts, meta.last_ts)
                if lo > hi:
                    continue
                er = ego_sl.start + (lo - ego.first_ts)
                jr = scene.rows_for_agent(j).start + (lo - meta.first_ts)
                n = hi - lo + 1
                dx = cols.x[jr : jr + n] - cols.x[er : er + n]
                dy = cols.y[jr : jr + n] - cols.y[er : er + n]
                samples.append(np.hypot(dx, dy))
        pooled = np.concatenate(samples) if samples else np.zeros(0)
        hists.append(Histogram.from_samples("ego_distance", dataset, "all", pooled, cfg.edges("ego_distance")))
    return hists, {"ego_distance_scenes_missing_ego": missing_ego}


# ---------------------------------------------------------------------------
# Motion complexity
# ---------------------------------------------------------------------------

def _pooled_by_type(scenes: Iterable[SceneFrame]) -> dict[str, dict[str, list[np.ndarray]]]:
    """speed/accel/jerk magnitude samples pooled per agent type."""
    pools: dict[str, dict[str, list[np.ndarray]]] = {}
    for scene in scenes:
        cols = scene.columns
        for i, meta in enumerate(scene.agents):
            sl = scene.rows_for_agent(i)
            pool = pools.setdefault(str(meta.agent_type), {"speed": [], "accel": [], "jerk": []})
            pool["speed"].append(np.hypot(cols.vx[sl], cols.vy[sl]))
            pool["accel"].append(np.hypot(cols.ax[sl], cols.ay[sl]))
            jx = derive_derivative(cols.ax[sl], scene.dt)
            jy = derive_derivative(cols.ay[sl], scene.dt)
            pool["jerk"].append(np.hypot(jx, jy))
    return pools


def dynamics_distributions(cache: SceneCache, tags: Sequence[str], cfg: AnalysisConfig) -> list[Histogram]:
    """Speed, |acceleration|, and |jerk| distributions per (dataset, type).

    Jerk is derived on the fly by finite-differencing the acceleration columns.
    """
    hists = []
    for dataset, scenes in sorted(_scenes_by_dataset(cache, tags).items()):
        for agent_type, pool in sorted(_pooled_by_type(scenes).items()):
            for metric in ("speed", "accel", "jerk"):
                samples = np.concatenate(pool[metric]) if pool[metric] else np.zeros(0)
                hists.append(Histogram.from_samples(metric, dataset, agent_type, samples, cfg.edges(metric)))
    return hists


def stationary_fraction(cache: SceneCache, tags: Sequence[str], cfg: AnalysisConfig) -> dict:
    """Fraction of agents whose displacement from their first observed position
    never reaches stationary_threshold."""
    out: dict[str, dict] = {}
    for dataset, scenes in sorted(_scenes_by_dataset(cache, tags).items()):
        num = den = 0
        for scene in scenes:
            cols = scene.columns
            for i in range(scene.n_agents):
                sl = scene.rows_for_agent(i)
                obs = cols.observed[sl]
                if not obs.any():
                    continue
                xs, ys = cols.x[sl][obs], cols.y[sl][obs]
                disp = np.hypot(xs - xs[0], ys - ys[0])
                den += 1
                if float(disp.max()) < cfg.stationary_threshold:
                    num += 1
        if den:
            out[dataset] = _rate_entry(num, den)
    return out


def heading_deltas(cache: SceneCache, tags: Sequence[str], cfg: AnalysisConfig) -> list[Histogram]:
    """Heading change relative to each agent's first timestep, plus raw headings.

    Deltas are wrapped to (-pi, pi] by default; cfg.cumulative_heading switches
    to the unwrapped cumulative change.
    """
    hists = []
    for dataset, scenes in sorted(_scenes_by_dataset(cache, tags).items()):
        deltas: dict[str, list[np.ndarray]] = {}
        raws: dict[str, list[np.ndarray]] = {}
        for scene in scenes:
            cols = scene.columns
            for i, meta in enumerate(scene.agents):
                sl = scene.rows_for_agent(i)
                h = cols.heading[sl]
                if cfg.cumulative_heading:
                    dh = np.unwrap(h) - h[0]
                else:
                    dh = wrap_angle(h - h[0])
                deltas.setdefault(str(meta.agent_type), []).append(dh)
                raws.setdefault(str(meta.agent_type), []).append(h)
        for agent_type in sorted(deltas):
            hists.append(
                Histogram.from_samples(
                    "heading_delta", dataset, agent_type, np.concatenate(deltas[agent_type]), cfg.edges("heading_delta")
                )
            )
            hists.append(
                Histogram.from_samples(
                    "heading_raw", dataset, agent_type, np.concatenate(raws[agent_type]), cfg.edges("heading_raw")
                )
            )
    return hists


def path_efficiency(
    cache: SceneCache, tags: Sequence[str], cfg: AnalysisConfig
) -> tuple[list[Histogram], dict]:
    """100 * endpoint distance / traveled length per agent, pooled per type.

    Agents whose observed path length is under 1e-6 m are defined stationary,
    assigned 100%, and tallied separately.
    """
    hists = []
    zero_path = 0
    for dataset, scenes in sorted(_scenes_by_dataset(cache, tags).items()):
        per_type: dict[str, list[float]] = {}
        for scene in scenes:
            cols = scene.columns
            for i, meta in enumerate(scene.agents):
                sl = scene.rows_for_agent(i)
                obs = cols.observed[sl]
                if np.count_nonzero(obs) < 2:
                    continue
                xs, ys = cols.x[sl][obs], cols.y[sl][obs]
                path = float(np.sum(np.hypot(np.diff(xs), np.diff(ys))))
                if path < 1e-6:
                    zero_path += 1
                    eff = 100.0
                else:
                    eff = 100.0 * math.hypot(xs[-1] - xs[0], ys[-1] - ys[0]) / path
                per_type.setdefault(str(meta.agent_type), []).append(eff)
        for agent_type in sorted(per_type):
            hists.append(
                Histogram.from_samples(
                    "path_efficiency", dataset, agent_type, per_type[agent_type], cfg.edges("path_efficiency")
                )
            )
    return hists, {"path_efficiency_zero_path_agents": zero_path}


# ---------------------------------------------------------------------------
# Self-consistency: collisions, harsh acceleration, off-road
# ---------------------------------------------------------------------------

def obb_corners(cx: float, cy: float, yaw: float, length: float, width: float) -> np.ndarray:
    """Corners of an oriented box: center, heading along +length."""
    hl, hw = 0.5 * length, 0.5 * width
    c, s = math.cos(yaw), math.sin(yaw)
    local = np.array([(-hl, -hw), (-hl, hw), (hl, hw), (hl, -hw)])
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + (cx, cy)


def obb_intersect(corners_a: np.ndarray, corners_b: np.ndarray) -> bool:
    """Separating-axis test for two convex quadrilaterals (touching counts as overlap)."""
    for corners in (corners_a, corners_b):
        edges = np.roll(corners, -1, axis=0) - corners
        axes = np.stack([-edges[:2, 1], edges[:2, 0]], axis=1)  # two unique normals per rectangle
        for axis in axes:
            pa = corners_a @ axis
            pb = corners_b @ axis
            if pa.max() < pb.min() or pb.max() < pa.min():
                return False
    return True


def _agent_rows(scene: SceneFrame, keep: Callable[[AgentMetadata], bool]) -> np.ndarray:
    """Row mask over the rows of every agent whose metadata passes keep."""
    return np.array([bool(keep(m)) for m in scene.agents], dtype=bool)[scene.columns.agent_index]


def _agent_counts(scene: SceneFrame, rows: np.ndarray, events: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(event rows, selected rows) per agent index; rows and events are row masks."""
    idx, n = scene.columns.agent_index, scene.n_agents
    return np.bincount(idx[rows & events], minlength=n), np.bincount(idx[rows], minlength=n)


AgentCounter = Callable[[SceneFrame], tuple[np.ndarray, np.ndarray]]


def _rates(scenes: Iterable[tuple[str, SceneFrame]], counts: AgentCounter, per_timestep: bool) -> dict:
    """{dataset: {type: entry}} from counts(scene), its per-agent (event rows, selected rows).

    Agents without a selected row are left out. By default an agent counts
    once, as an event if any of its selected rows is one ("any timestep");
    per_timestep counts rows. Every dataset seen gets an entry.
    """
    num: dict[str, dict[str, int]] = {}
    den: dict[str, dict[str, int]] = {}
    for dataset, scene in scenes:
        events, selected = counts(scene)
        if not per_timestep:
            events, selected = events > 0, selected > 0
        n, d = num.setdefault(dataset, {}), den.setdefault(dataset, {})
        for i in np.flatnonzero(selected):
            t = str(scene.agents[i].agent_type)
            d[t] = d.get(t, 0) + int(selected[i])
            n[t] = n.get(t, 0) + int(events[i])
    return {ds: {t: _rate_entry(num[ds][t], d[t]) for t in sorted(d)} for ds, d in sorted(den.items())}


def _dataset_scenes(cache: SceneCache, tags: Sequence[str]) -> list[tuple[str, SceneFrame]]:
    return [(ds, scene) for ds, scenes in sorted(_scenes_by_dataset(cache, tags).items()) for scene in scenes]


def _scene_collisions(scene: SceneFrame) -> tuple[np.ndarray, np.ndarray]:
    """(colliding rows, rows) per agent index over the rows of extent-bearing
    agents; an agent has one row per timestep, so these count timesteps."""
    cols = scene.columns
    rows = _agent_rows(scene, lambda m: m.extent is not None)
    hit = np.zeros(len(cols), dtype=bool)
    radius = [0.0 if m.extent is None else 0.5 * math.hypot(m.extent.length, m.extent.width) for m in scene.agents]
    for ts_rows in _rows_by_ts(scene).values():
        pairs = [(int(cols.agent_index[r]), r) for r in ts_rows if rows[r]]
        corners: dict[int, np.ndarray] = {}
        for a in range(len(pairs)):
            ia, ra = pairs[a]
            for b in range(a + 1, len(pairs)):
                ib, rb = pairs[b]
                dist = math.hypot(cols.x[ra] - cols.x[rb], cols.y[ra] - cols.y[rb])
                if dist > radius[ia] + radius[ib]:
                    continue
                for i, r in ((ia, ra), (ib, rb)):
                    if r not in corners:
                        ext = scene.agents[i].extent
                        corners[r] = obb_corners(cols.x[r], cols.y[r], cols.heading[r], ext.length, ext.width)
                if obb_intersect(corners[ra], corners[rb]):
                    hit[ra] = hit[rb] = True
    return _agent_counts(scene, rows, hit)


def _offroad_rows(scene: SceneFrame, types: Iterable[str]) -> np.ndarray:
    allowed = set(types)
    return _agent_rows(scene, lambda m: str(m.agent_type) in allowed)


def _offroad_counts(scene: SceneFrame, vmap: VectorMap, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(off-road rows, selected rows) per agent index; a row is off-road when
    its center lies outside the drivable area."""
    cols = scene.columns
    off = np.zeros(len(cols), dtype=bool)
    off[rows] = [not vmap.point_in_drivable_area((x, y)) for x, y in zip(cols.x[rows], cols.y[rows])]
    return _agent_counts(scene, rows, off)


def collision_rate(cache: SceneCache, tags: Sequence[str], cfg: AnalysisConfig) -> tuple[dict, dict]:
    """Fraction of extent-bearing agents whose oriented box ever intersects another's.

    Extent-less agents are excluded from numerator and denominator and tallied.
    """
    scenes = _dataset_scenes(cache, tags)
    no_extent = sum(1 for _, scene in scenes for m in scene.agents if m.extent is None)
    return _rates(scenes, _scene_collisions, cfg.per_timestep_rates), {"collision_agents_without_extent": no_extent}


def harsh_accel_rate(cache: SceneCache, tags: Sequence[str], cfg: AnalysisConfig) -> dict:
    """Fraction of agents exceeding the harsh-acceleration threshold at any
    observed timestep (strict inequality at the threshold)."""

    def counts(scene: SceneFrame):
        cols = scene.columns
        return _agent_counts(scene, cols.observed, np.hypot(cols.ax, cols.ay) > cfg.harsh_accel_threshold)

    return _rates(_dataset_scenes(cache, tags), counts, cfg.per_timestep_rates)


def offroad_rate(
    cache: SceneCache, tags: Sequence[str], vmap: VectorMap | None, cfg: AnalysisConfig
) -> tuple[dict | None, dict]:
    """Fraction of (by default) vehicles/motorcycles whose center leaves the
    drivable area at any observed timestep. None when no usable map is given."""
    if vmap is None:
        return None, {}

    def counts(scene: SceneFrame):
        return _offroad_counts(scene, vmap, scene.columns.observed & _offroad_rows(scene, cfg.offroad_types))

    try:
        return _rates(_dataset_scenes(cache, tags), counts, cfg.per_timestep_rates), {}
    except DrivableAreaUnsupported:
        return None, {"offroad_unsupported_map": 1}


# ---------------------------------------------------------------------------
# Report assembly and emission
# ---------------------------------------------------------------------------

def run_analysis(
    cache: SceneCache,
    tags: Sequence[str],
    metrics: Sequence[str],
    cfg: AnalysisConfig | None = None,
    vmap: VectorMap | None = None,
    ego_id: str = "ego",
) -> MetricReport:
    """Run the named metrics and assemble a MetricReport."""
    cfg = cfg or AnalysisConfig()
    unknown = [m for m in metrics if m not in METRIC_NAMES]
    if unknown:
        raise ValueError(f"unknown metric(s) {unknown}; valid names: {', '.join(METRIC_NAMES)}")
    report = MetricReport(config=cfg.to_dict(), tags=list(tags))

    wanted = set(metrics)
    if "population" in wanted:
        report.population = agent_population(cache, tags)
    if "simultaneous" in wanted:
        report.histograms += simultaneous_agents(cache, tags, cfg)
    if "density" in wanted:
        hists, tallies = agent_density(cache, tags, cfg)
        report.histograms += hists
        report.tallies.update(tallies)
    if "ego_distances" in wanted:
        hists, tallies = ego_agent_distances(cache, tags, cfg, ego_id)
        report.histograms += hists
        report.tallies.update(tallies)
    dyn_wanted = wanted & {"speed", "accel", "jerk"}
    if dyn_wanted:
        report.histograms += [h for h in dynamics_distributions(cache, tags, cfg) if h.name in dyn_wanted]
    if "stationary" in wanted:
        report.rates["stationary"] = {ds: {"all": entry} for ds, entry in stationary_fraction(cache, tags, cfg).items()}
    if "heading_deltas" in wanted:
        report.histograms += heading_deltas(cache, tags, cfg)
    if "path_efficiency" in wanted:
        hists, tallies = path_efficiency(cache, tags, cfg)
        report.histograms += hists
        report.tallies.update(tallies)
    if "collision" in wanted:
        rates, tallies = collision_rate(cache, tags, cfg)
        report.rates["collision"] = rates
        report.tallies.update(tallies)
    if "harsh_accel" in wanted:
        report.rates["harsh_accel"] = harsh_accel_rate(cache, tags, cfg)
    if "offroad" in wanted:
        rates, tallies = offroad_rate(cache, tags, vmap, cfg)
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
    for hist in sorted(report.histograms, key=lambda h: (h.name, h.dataset, h.agent_type)):
        path = out / f"{hist.name}__{hist.dataset}__{hist.agent_type}.csv"
        lines = ["edge_lo,edge_hi,count"]
        for lo, hi, count in zip(hist.edges[:-1], hist.edges[1:], hist.counts):
            lines.append(f"{lo!r},{hi!r},{int(count)}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)

    payload = {
        "config": report.config,
        "tags": report.tags,
        "rates": report.rates,
        "population": report.population,
        "tallies": report.tallies,
        "unavailable": sorted(report.unavailable),
        "histograms": [
            {
                "name": h.name,
                "dataset": h.dataset,
                "agent_type": h.agent_type,
                "n_samples": h.n_samples,
                "n_underflow": h.n_underflow,
                "n_overflow": h.n_overflow,
            }
            for h in sorted(report.histograms, key=lambda h: (h.name, h.dataset, h.agent_type))
        ],
    }
    rates_path = out / "rates.json"
    rates_path.write_text(json.dumps(payload, sort_keys=True, indent=1), encoding="utf-8")
    written.append(rates_path)
    return written
