"""trajkit: a unified trajectory-dataset engine.

Compiles heterogeneous trajectory data into one canonical columnar scene
format with a polyline vector-map model, provides batching and simulation
interfaces, and computes a catalogue of dataset-analysis metrics.
"""

from .core import (
    AgentMetadata,
    AgentType,
    Extent,
    SceneFrame,
    SceneTag,
    agent_lifetime_seconds,
    scene_validate,
    wrap_angle,
)
from .kinematics import (
    ResamplePlan,
    ResampleRatioError,
    derive_derivative,
    derive_heading,
    impute_linear,
    plan_resample,
    resample_scene,
)
from .ingest import (
    CacheChecksumError,
    CacheError,
    CacheTruncatedError,
    CacheVersionError,
    ParseError,
    SceneCache,
    SceneMetaRecord,
    UnknownTagError,
    ValidationError,
    cache_load,
    cache_write,
    parse_canonical_csv,
    parse_frame_text,
    synth_scene,
)
from .vecmap import (
    MapStats,
    Polyline,
    PolygonArea,
    RoadLane,
    TrafficLightStatus,
    VectorMap,
    map_deserialize,
    map_serialize,
    polygon_area,
)
from .batching import (
    AgentBatch,
    AgentBatchElement,
    ElementIndex,
    FilterSpec,
    WindowSpec,
    augment_noise,
    build_index,
    collate,
    get_element,
)
from .analysis import AnalysisConfig, Histogram, MetricReport, emit_report, run_analysis
from .simulation import SimMetrics, SimState, sim_export, sim_reset, sim_score, sim_step

__version__ = "0.1.0"
