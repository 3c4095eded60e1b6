"""Object-motion graph model, formats, validation, and retrieval."""

from .model import (
    FoonGraph,
    FunctionalUnit,
    MotionNode,
    NodeKey,
    ObjectNode,
    TaskTree,
    make_unit,
    normalize_token,
)
from .retrieval import RetrievalFailure, retrieve_task_tree
from .text_format import parse_foon_text, serialize_foon_text
from .tree_json import parse_task_tree_json, serialize_task_tree_json
from .validation import (
    RULE_BIPARTITE,
    RULE_CYCLE,
    RULE_DISCONNECTED,
    RULE_EMPTY_UNIT,
    RULE_GOAL,
    RULE_NOOP_UNIT,
    ValidationReport,
    Violation,
    validate_graph,
    validate_task_tree,
)

__all__ = [
    "FoonGraph",
    "FunctionalUnit",
    "MotionNode",
    "NodeKey",
    "ObjectNode",
    "TaskTree",
    "make_unit",
    "normalize_token",
    "RetrievalFailure",
    "retrieve_task_tree",
    "parse_foon_text",
    "serialize_foon_text",
    "parse_task_tree_json",
    "serialize_task_tree_json",
    "RULE_BIPARTITE",
    "RULE_CYCLE",
    "RULE_DISCONNECTED",
    "RULE_EMPTY_UNIT",
    "RULE_GOAL",
    "RULE_NOOP_UNIT",
    "ValidationReport",
    "Violation",
    "validate_graph",
    "validate_task_tree",
]
