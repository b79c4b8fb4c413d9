"""Command-line front end: ingest, analyze, map queries, batch export, and
replay simulation.

Logs go to stderr, data to files or stdout. Exit codes are a stable contract
for scripting: 0 success, 2 input/parse, 3 validation, 4 empty result,
5 I/O, 64 usage.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import logging
import os
import re
import sys
from pathlib import Path

from .analysis import METRIC_NAMES, AnalysisConfig, emit_report, run_analysis
from .batching import EmptyIndexError, FilterSpec, WindowSpec, build_index, export_batches
from .ingest import (
    CacheError,
    ParseError,
    SceneCache,
    SceneMetaRecord,
    UnknownTagError,
    ValidationError,
    ingest_scenes,
    parse_canonical_csv_many,
    parse_frame_text,
)
from .simulation import sim_export, sim_reset, sim_score, sim_step
from .vecmap import MapError, map_deserialize

log = logging.getLogger("trajkit")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_EMPTY = 4
EXIT_IO = 5
EXIT_USAGE = 64

CACHE_ENV_VAR = "TRAJKIT_CACHE"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems as exit code 64, not 2.

    An argument that starts with a minus and a number ("-5,3", "-.5,2",
    "-inf,0") is a value, not an option, so negative coordinates need no "=".
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and nothing in it reads the environment."""
    parser = _Parser(prog="trajkit", description=__doc__)
    parser.add_argument("-v", "--verbose", action="count", default=0, help="increase log verbosity (-v, -vv)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="parse trajectory files into the scene cache")
    p.add_argument("--input", required=True, help="input data file")
    p.add_argument("--format", required=True, choices=["canonical-csv", "frame-text"])
    p.add_argument("--meta", required=True, help="scene metadata sidecar JSON")
    p.add_argument("--cache")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("analyze", help="compute dataset metrics over cached scenes")
    p.add_argument("--cache")
    p.add_argument("--tags", required=True, help="comma-separated scene tags")
    p.add_argument("--metrics", required=True, help=f"comma-separated metric names from: {', '.join(METRIC_NAMES)}")
    p.add_argument("--map", default=None, help="serialized vector map (needed by offroad)")
    p.add_argument("--config", default=None, help="AnalysisConfig JSON file")
    p.add_argument("--ego-id", default="ego", help="agent id of the data-collecting ego")
    p.add_argument("--out", required=True, help="output directory for report files")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("map", help="query a serialized vector map")
    p.add_argument("--map", required=True)
    map_sub = p.add_subparsers(dest="map_command", required=True, parser_class=_Parser)
    q = map_sub.add_parser("closest-lane", help="print the closest lane id and distance")
    q.add_argument("--point", required=True, help="query point as x,y[,z]")
    q.set_defaults(func=cmd_map_closest)
    q = map_sub.add_parser("stats", help="print map statistics as JSON")
    q.set_defaults(func=cmd_map_stats)

    p = sub.add_parser("batch", help="export padded batch containers")
    p.add_argument("--cache")
    p.add_argument("--tags", required=True)
    p.add_argument("--centric", default="agent", choices=["agent", "scene"])
    p.add_argument("--history", required=True, help="history window seconds as min,max")
    p.add_argument("--future", required=True, help="future window seconds as min,max")
    p.add_argument("--dt", type=float, default=None, help="resample scenes to this timestep first")
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("sim-replay", help="replay a cached scene through the simulation interface")
    p.add_argument("--cache")
    p.add_argument("--scene", required=True, help="scene_id to replay")
    p.add_argument("--init-ts", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory for metrics and rollout CSV")
    p.set_defaults(func=cmd_sim_replay)

    return parser


def _require_cache(args) -> SceneCache:
    """The cache of --cache, else of $TRAJKIT_CACHE as it is at this call; an
    empty --cache is a usage error even when the variable is set."""
    cache_dir = args.cache if args.cache is not None else os.environ.get(CACHE_ENV_VAR)
    if not cache_dir:
        raise _UsageError(f"--cache is required (or set {CACHE_ENV_VAR})")
    return SceneCache(cache_dir)


def _names(text: str, flag: str) -> list[str]:
    """The names a comma-separated list flag holds; a list that names nothing is a usage error."""
    names = [name for name in text.split(",") if name]
    if not names:
        raise _UsageError(f"{flag} names nothing: {text!r}")
    return names


def _numbers(text: str, flag: str, counts: tuple[int, ...], form: str) -> tuple[float, ...]:
    """The numbers a comma-separated flag holds; a count not in counts or a non-number is a usage error."""
    parts = text.split(",")
    if len(parts) not in counts:
        raise _UsageError(f"{flag} expects {form}, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"{flag} expects numbers, got {text!r}") from None


def cmd_ingest(args) -> int:
    cache = _require_cache(args)
    meta = SceneMetaRecord.from_json(Path(args.meta).read_text(encoding="utf-8"))
    text = Path(args.input).read_text(encoding="utf-8")
    if args.format == "canonical-csv":
        scenes = parse_canonical_csv_many(text, meta)
    else:
        scenes = [parse_frame_text(text, meta)]
    ingest_scenes(scenes, cache.cache_dir)
    n_agents = sum(s.n_agents for s in scenes)
    print(f"ingested {len(scenes)} scenes, {n_agents} agents")
    return EXIT_OK


def cmd_analyze(args) -> int:
    cache = _require_cache(args)
    tags = _names(args.tags, "--tags")
    metrics = _names(args.metrics, "--metrics")
    unknown = [m for m in metrics if m not in METRIC_NAMES]
    if unknown:
        raise _UsageError(f"unknown metric(s) {', '.join(unknown)}; valid names: {', '.join(METRIC_NAMES)}")
    cfg = AnalysisConfig()
    if args.config:
        cfg = AnalysisConfig.from_json(Path(args.config).read_text(encoding="utf-8"))
    vmap = _load_map(args) if args.map else None
    report = run_analysis(cache, tags, metrics, cfg, vmap=vmap, ego_id=args.ego_id)
    written = emit_report(report, args.out)
    for name in report.unavailable:
        log.warning("metric %s unavailable (no usable map)", name)
    print(f"wrote {len(written)} report files to {args.out}")
    return EXIT_OK


def _load_map(args):
    return map_deserialize(Path(args.map).read_bytes())


def cmd_map_closest(args) -> int:
    vmap = _load_map(args)
    lane_id, dist = vmap.closest_lane_with_distance(_numbers(args.point, "--point", (2, 3), "x,y[,z]"))
    print(f"{lane_id} {dist!r}")
    return EXIT_OK


def cmd_map_stats(args) -> int:
    vmap = _load_map(args)
    payload = vmap.stats().to_dict()
    payload["road_area_includes_overlaps"] = True
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_batch(args) -> int:
    cache = _require_cache(args)
    if args.batch_size < 1:
        raise _UsageError("--batch-size must be >= 1")
    tags = _names(args.tags, "--tags")
    pair = "two comma-separated numbers"
    window = WindowSpec(history=_numbers(args.history, "--history", (2,), pair), future=_numbers(args.future, "--future", (2,), pair))
    index = build_index(cache, tags, centric=args.centric, window=window, filt=FilterSpec(), desired_dt=args.dt)
    manifest = export_batches(index, args.out, batch_size=args.batch_size)
    print(f"wrote {len(index)} elements to {manifest}")
    return EXIT_OK


def cmd_sim_replay(args) -> int:
    cache = _require_cache(args)
    if args.steps < 1:
        raise _UsageError("--steps must be >= 1")
    path = cache.locate(args.scene)
    if path is None:
        raise ParseError(f"scene {args.scene!r} not found in cache {cache.cache_dir}")
    scene = cache.load_path(path)
    end_ts = args.init_ts + args.steps
    if not (0 <= args.init_ts < scene.n_timesteps) or end_ts >= scene.n_timesteps:
        raise ParseError(
            f"replay window [{args.init_ts}, {end_ts}] outside scene range [0, {scene.n_timesteps})"
        )

    controlled = list(itertools.compress(scene.agent_ids, (scene.first_ts <= args.init_ts) & (scene.last_ts >= end_ts)))
    state, _ = sim_reset(scene, args.init_ts, controlled)
    cols = scene.columns
    for ts in range(args.init_ts + 1, end_ts + 1):
        rows = {agent_id: scene.row_at(i, ts) for agent_id, i in state.controlled_idx.items()}
        state, _ = sim_step(state, {a: (cols.x[r], cols.y[r], cols.heading[r]) for a, r in rows.items()})

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    metrics = sim_score(state, None)
    (out / "metrics.json").write_text(json.dumps(metrics.to_dict(), sort_keys=True, indent=1), encoding="utf-8")
    sim_export(state, out / "rollout.csv")
    print(f"replayed {args.steps} steps of {args.scene}; outputs in {out}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        level = logging.WARNING
        if args.verbose == 1:
            level = logging.INFO
        elif args.verbose >= 2:
            level = logging.DEBUG
        # basicConfig adds the stderr handler only while the root logger has none, so the level is set here on every call.
        logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
        logging.getLogger().setLevel(level)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except EmptyIndexError as exc:
        print(f"empty result: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except (CacheError, MapError, UnknownTagError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
