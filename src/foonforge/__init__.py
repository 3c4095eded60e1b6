"""Toolkit for generating, validating, and scoring cooking task trees.

The core model is a bipartite object-motion graph made of functional
units (inputs, one motion, outputs). The package covers the full loop:
render prompts under three strategies, obtain model responses through a
live or replay backend, persist validated task trees with a text
fallback, and score the results.
"""

from .client import (
    Backend,
    FinishReason,
    GenerationParams,
    LiveClient,
    ModelResponse,
    ReplayClient,
    load_fixture,
    record_fixture,
)
from .errors import FoonForgeError
from .foon import (
    FoonGraph,
    FunctionalUnit,
    MotionNode,
    ObjectNode,
    RetrievalFailure,
    TaskTree,
    ValidationReport,
    Violation,
    make_unit,
    parse_foon_text,
    parse_task_tree_json,
    retrieve_task_tree,
    serialize_foon_text,
    serialize_task_tree_json,
    validate_graph,
    validate_task_tree,
)
from .metrics import (
    MetricScores,
    StrategyComparison,
    compare_strategies,
    score_accuracy,
    score_completeness,
    summarize_run,
)
from .pipeline import (
    InputManifest,
    Outcome,
    OutputRecord,
    RunReport,
    handle_response,
    load_run_report,
    read_manifest,
    run_generation,
    sanitize_filename,
)
from .prompts import (
    DishSpec,
    PromptBundle,
    Strategy,
    load_examples,
    render_for_dish,
)

__version__ = "0.1.0"

__all__ = [
    "Backend",
    "FinishReason",
    "GenerationParams",
    "LiveClient",
    "ModelResponse",
    "ReplayClient",
    "load_fixture",
    "record_fixture",
    "FoonForgeError",
    "FoonGraph",
    "FunctionalUnit",
    "MotionNode",
    "ObjectNode",
    "RetrievalFailure",
    "TaskTree",
    "ValidationReport",
    "Violation",
    "make_unit",
    "parse_foon_text",
    "parse_task_tree_json",
    "retrieve_task_tree",
    "serialize_foon_text",
    "serialize_task_tree_json",
    "validate_graph",
    "validate_task_tree",
    "MetricScores",
    "StrategyComparison",
    "compare_strategies",
    "score_accuracy",
    "score_completeness",
    "summarize_run",
    "InputManifest",
    "Outcome",
    "OutputRecord",
    "RunReport",
    "handle_response",
    "load_run_report",
    "read_manifest",
    "run_generation",
    "sanitize_filename",
    "DishSpec",
    "PromptBundle",
    "Strategy",
    "load_examples",
    "render_for_dish",
]
