"""Stock-and-flow simulation with time-varying feedback loop dominance
analysis: parse a model, run it, score every causal link per timestep,
discover the feedback loops that were active (exhaustively when the loop
count is small, by pruned strongest-path search when it is not), and rank
the loops by their share of behavior over time.
"""

from .analysis import (
    AnalysisError,
    CompletenessReport,
    LoopProfile,
    build_profiles,
    classify_polarity,
    compare_catalogs,
    loop_score_series,
    profiles_to_csv,
    rank_and_filter,
    ranking_to_json_dict,
    relative_scores,
)
from .discovery import (
    LoopCatalog,
    LoopRecord,
    MalformedCycleError,
    WeightedDigraph,
    canonical_form,
    composite_graph,
    discover,
    enumerate_loops,
    step_graph,
    strongest_path_pass,
)
from .dsl import (
    Diagnostic,
    Digraph,
    Model,
    ModelError,
    RunSpec,
    Variable,
    dependency_graph,
    parse_model,
    validate,
)
from .engine import (
    RunResult,
    SimulationError,
    evaluation_order,
    run_to_csv,
    simulate,
)
from .fixtures import (
    ARMS_RACE,
    GREEDY_MISS_EDGES,
    TWO_STOCK,
    Fixture,
    SyntheticSpec,
    gen_synthetic,
)
from .scoring import (
    LinkScoreSeries,
    composite_scores,
    link_score_step,
    score_all,
    series_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "ARMS_RACE",
    "CompletenessReport",
    "Diagnostic",
    "Digraph",
    "Fixture",
    "GREEDY_MISS_EDGES",
    "LinkScoreSeries",
    "LoopCatalog",
    "LoopProfile",
    "LoopRecord",
    "MalformedCycleError",
    "Model",
    "ModelError",
    "RunResult",
    "RunSpec",
    "SimulationError",
    "SyntheticSpec",
    "TWO_STOCK",
    "Variable",
    "WeightedDigraph",
    "build_profiles",
    "canonical_form",
    "classify_polarity",
    "compare_catalogs",
    "composite_graph",
    "composite_scores",
    "dependency_graph",
    "discover",
    "enumerate_loops",
    "evaluation_order",
    "gen_synthetic",
    "link_score_step",
    "loop_score_series",
    "parse_model",
    "profiles_to_csv",
    "rank_and_filter",
    "ranking_to_json_dict",
    "relative_scores",
    "run_to_csv",
    "score_all",
    "series_to_csv",
    "simulate",
    "step_graph",
    "strongest_path_pass",
    "validate",
    "__version__",
]
