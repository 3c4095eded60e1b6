"""The package's work leaves no cyclic garbage.

``cli.main`` runs an offline command with the cyclic garbage collector
paused, which is safe only if the objects a command builds and drops
form no reference cycles: with the collector off, a cycle is freed only
when the process ends. Each case here runs with the collector off and
``gc.DEBUG_SAVEALL`` set, so that one ``gc.collect()`` afterwards puts
every unreachable object in ``gc.garbage``, which must stay empty.
"""

from __future__ import annotations

import gc
import json
import threading
from collections import Counter

import pytest

from foonforge.cli import main
from foonforge.client import FinishReason, ModelResponse, ReplayClient
from foonforge.errors import FoonForgeError
from foonforge.foon.model import FoonGraph, ObjectNode, make_unit
from foonforge.foon.retrieval import RetrievalFailure, retrieve_task_tree
from foonforge.foon.text_format import parse_foon_text
from foonforge.foon.tree_json import serialize_task_tree_json
from foonforge.foon.validation import validate_graph
from foonforge.metrics import compare_strategies, summarize_run
from foonforge.pipeline import (
    REPORT_FILENAME,
    FallbackReason,
    handle_response,
    load_run_report,
    read_manifest,
    run_generation,
)
from foonforge.prompts import DishSpec, Strategy, load_examples
from foonforge.resources import data_path

from .graphgen import MUTATORS, chain_tree, mutate_add_cycle


def _cyclic_garbage(call, *args) -> Counter:
    """The objects, by type name, that ``call(*args)`` leaves in cycles.

    The result is dropped, and so is an error of the package's, so that
    anything either holds in a cycle is garbage too.
    """
    # a thread ending meanwhile would drop its objects into this check
    assert threading.active_count() == 1, threading.enumerate()
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        try:
            call(*args)
        except FoonForgeError:
            pass
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if enabled:
            gc.enable()


_GOOD = serialize_task_tree_json(chain_tree(4))


def _edited(edit) -> str:
    payload = json.loads(_GOOD)
    edit(payload)
    return json.dumps(payload)


def _first_input(payload) -> dict:
    return payload["functional_units"][0]["inputs"][0]

# (text, finish reason, the fallback reason handle_response must give)
_RESPONSES = {
    "json-ok": (_GOOD, FinishReason.COMPLETE, None),
    "json-syntax": ('{"goal": ', FinishReason.COMPLETE, FallbackReason.JSON_SYNTAX),
    "schema-not-an-object": ("[1, 2]", FinishReason.COMPLETE, FallbackReason.SCHEMA),
    "schema-goal-empty-name": (
        _edited(lambda p: p["goal"].update(name=" ")),
        FinishReason.COMPLETE,
        FallbackReason.SCHEMA,
    ),
    "schema-unit": (
        _edited(lambda p: p["functional_units"].insert(1, 5)),
        FinishReason.COMPLETE,
        FallbackReason.SCHEMA,
    ),
    "schema-node-tab": (
        _edited(lambda p: _first_input(p).update(name="egg\twhite")),
        FinishReason.COMPLETE,
        FallbackReason.SCHEMA,
    ),
    "schema-node-state-not-a-string": (
        _edited(lambda p: _first_input(p).update(states=[5])),
        FinishReason.COMPLETE,
        FallbackReason.SCHEMA,
    ),
    "schema-motion": (
        _edited(lambda p: p["functional_units"][0].update(motion="")),
        FinishReason.COMPLETE,
        FallbackReason.SCHEMA,
    ),
    "structural": (
        serialize_task_tree_json(mutate_add_cycle(chain_tree(4))[0]),
        FinishReason.COMPLETE,
        FallbackReason.STRUCTURAL,
    ),
    "truncated": (_GOOD, FinishReason.TRUNCATED, FallbackReason.TRUNCATED),
    "model-error": ("model error: offline", FinishReason.ERROR, FallbackReason.MODEL_ERROR),
}


@pytest.mark.parametrize("case", _RESPONSES)
def test_handle_response_leaves_no_cycles(tmp_path, case):
    text, finish, reason = _RESPONSES[case]
    dish = DishSpec("pasta", "mac and cheese", ("macaroni",))
    # the case gives the fallback it is named for
    assert handle_response(ModelResponse(text, finish), dish, tmp_path).fallback_reason is reason
    response = ModelResponse(text, finish)
    assert _cyclic_garbage(handle_response, response, dish, tmp_path) == Counter()


_BAD_FOON = {
    "no-units": "//\n",
    "no-tab": "O\tegg\nM\tboil\nO egg\n",
    "state-first": "S\traw\nO\tegg\nM\tboil\nO\tegg\nS\tcooked\n",
    "ingredients-first": "I\tsalt\nO\tegg\nM\tboil\nO\tegg\nS\tcooked\n",
    "two-ingredients": "O\tbowl\nI\tsalt\nI\tegg\nM\tmix\nO\tbowl\nS\tmixed\n",
    "two-motions": "O\tegg\nM\tboil\nM\tfry\nO\tegg\nS\tcooked\n",
    "bad-motion": "O\tegg\nM\t \nO\tegg\nS\tcooked\n",
    "unknown-tag": "O\tegg\nX\tboil\nO\tegg\n",
    "no-motion": "O\tegg\nO\tpan\n",
    "no-inputs": "M\tboil\nO\tegg\nS\tcooked\n",
    "no-outputs": "O\tegg\nM\tboil\n",
    "bad-object": "O\tegg\nS\traw\nS\traw\nM\tboil\nO\tegg\nS\tcooked\n",
}


@pytest.mark.parametrize("case", ["good", *_BAD_FOON])
def test_parse_foon_text_leaves_no_cycles(sample_graph_text, case):
    text = sample_graph_text if case == "good" else _BAD_FOON[case]
    if case != "good":
        with pytest.raises(FoonForgeError):
            parse_foon_text(text)
    assert _cyclic_garbage(parse_foon_text, text) == Counter()


@pytest.mark.parametrize("mutate", MUTATORS, ids=lambda mutate: mutate.__name__)
def test_validate_graph_leaves_no_cycles_on_a_mutant(mutate):
    mutant, rule = mutate(chain_tree(6))
    assert rule in {v.rule for v in validate_graph(mutant.graph, mutant.goal).violations}
    assert _cyclic_garbage(validate_graph, mutant.graph, mutant.goal) == Counter()


def test_a_plain_validate_command_leaves_no_cycles(capsys):
    # the command line is read without building an argument parser, whose
    # actions and groups refer to each other
    argv = ["validate", str(data_path("macaroni.foon"))]
    assert _cyclic_garbage(main, argv) == Counter()
    assert capsys.readouterr().out == "valid\n"


def test_validate_graph_leaves_no_cycles_out_of_order():
    # acyclic, but listed goal first: the unit-order test fails and the
    # Kahn pass settles it
    tree = chain_tree(6, goal_first=True)
    assert validate_graph(tree.graph, tree.goal).ok
    assert _cyclic_garbage(validate_graph, tree.graph, tree.goal) == Counter()


@pytest.mark.parametrize(
    "available, found", [(("water", "macaroni", "cheese"), True), ((), False)]
)
def test_retrieve_task_tree_leaves_no_cycles(sample_graph_text, available, found):
    graph = parse_foon_text(sample_graph_text)
    goal = ObjectNode("mac and cheese")
    result = retrieve_task_tree(graph, goal, available)
    assert isinstance(result, RetrievalFailure) is not found
    assert _cyclic_garbage(retrieve_task_tree, graph, goal, available) == Counter()


def _parted_graphs():
    """A graph of eight independent two-way ties, searched part by part,
    and one whose parts feed each other in a cycle, searched jointly."""
    parts = [ObjectNode("part", (f"p{j}",)) for j in range(8)]
    makers = [make_unit([ObjectNode(item)], "grind", [part]) for part in parts
              for item in ("salt", "sugar")]
    yield FoonGraph((make_unit(parts, "mix", [ObjectNode("dish")]), *makers))
    a, b, z, w, extra = (ObjectNode(name) for name in ("a", "b", "z", "w", "extra"))
    yield FoonGraph(
        (
            make_unit([a, b, extra], "mix", [ObjectNode("dish")]),
            make_unit([ObjectNode("salt")], "split", [extra, z, w]),
            make_unit([w], "press", [a, z]),
            make_unit([z], "roll", [b, w]),
            make_unit([ObjectNode("sugar")], "grind", [a]),
            make_unit([ObjectNode("sugar")], "melt", [b]),
        )
    )


@pytest.mark.parametrize("graph", list(_parted_graphs()), ids=["ties", "cycle-across-parts"])
def test_retrieval_in_parts_leaves_no_cycles(graph):
    goal, available = ObjectNode("dish"), ("salt", "sugar")
    assert not isinstance(retrieve_task_tree(graph, goal, available), RetrievalFailure)
    assert _cyclic_garbage(retrieve_task_tree, graph, goal, available) == Counter()


def test_shipped_runs_leave_no_cycles(tmp_path, runs_metadata):
    manifest = read_manifest(data_path(runs_metadata["manifest"]))
    examples = load_examples(data_path(runs_metadata["examples_dir"]))
    runs = [
        (Strategy(name), data_path(*rel.split("/")), tmp_path / rel.rsplit("/", 1)[-1])
        for name, fixtures in runs_metadata["strategies"].items()
        for rel in fixtures
    ]
    assert len(runs) == 9

    def generate():
        for strategy, fixture, out in runs:
            run_generation(
                manifest,
                strategy,
                ReplayClient(fixture, strict=True),
                out,
                examples=examples,
                instructions=runs_metadata["instructions"],
            )

    def evaluate():
        grouped: dict = {}
        for _, _, out in runs:
            report = load_run_report(out / REPORT_FILENAME)
            grouped.setdefault(report.strategy, []).append(report)
            summarize_run(report)
        compare_strategies(grouped)

    assert _cyclic_garbage(generate) == Counter()
    assert _cyclic_garbage(evaluate) == Counter()
    # neither step stopped at an error the check drops
    assert [load_run_report(out / REPORT_FILENAME).total for _, _, out in runs] == [34] * 9
