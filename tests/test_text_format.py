from __future__ import annotations

import json
import random

import pytest

from foonforge.errors import FoonSyntaxError, TaskTreeSchemaError
from foonforge.foon.model import ObjectNode, TaskTree
from foonforge.foon.text_format import parse_foon_text, serialize_foon_text
from foonforge.foon.tree_json import parse_task_tree_json, serialize_task_tree_json

from .graphgen import random_graph


def test_parse_sample_graph(sample_graph_text):
    graph = parse_foon_text(sample_graph_text)
    assert len(graph.units) == 3
    # hand count of the sample's distinct (name, states) identities
    assert len(graph.node_index) == 6

    first = graph.units[0]
    assert [n.key for n in first.inputs] == [("water", ()), ("macaroni", ("raw",))]
    assert first.motion.name == "pour+boil"
    assert [n.key for n in first.outputs] == [("macaroni", ("cooked",))]
    assert graph.units[2].outputs[0].name == "mac and cheese"


def test_sample_serializes_byte_identical(sample_graph_text):
    graph = parse_foon_text(sample_graph_text)
    assert serialize_foon_text(graph) == sample_graph_text


def test_empty_source_rejected():
    with pytest.raises(FoonSyntaxError, match="no functional units found"):
        parse_foon_text("")
    with pytest.raises(FoonSyntaxError, match="no functional units found"):
        parse_foon_text("\n\n//\n")


def test_serialize_empty_graph_is_empty_string():
    from foonforge.foon.model import FoonGraph

    assert serialize_foon_text(FoonGraph()) == ""


@pytest.mark.parametrize(
    "source, fragment, line",
    [
        ("O water\nM\tmix\nO\tx", "expected '<tag>", 1),
        ("S\traw\nM\tmix\nO\tx", "state line without", 1),
        ("O\tx\nI\ta\nI\tb\nM\tmix\nO\ty", "duplicate ingredients", 3),
        ("O\tx\nM\tmix\nM\tstir\nO\ty", "duplicate motion", 3),
        ("O\tx\nX\tfoo\nM\tmix\nO\ty", "unknown record tag", 2),
        ("O\tx\nO\ty", "no motion line", 1),
        ("M\tmix\nO\tx", "no input objects", 1),
        ("O\tx\nM\tmix", "no output objects", 2),
        ("O\tx\nS\tr\nS\tr\nM\tmix\nO\ty", "duplicate states", 1),
    ],
)
def test_syntax_errors_carry_line_numbers(source, fragment, line):
    with pytest.raises(FoonSyntaxError, match=fragment) as exc_info:
        parse_foon_text(source)
    assert exc_info.value.line == line


def test_ingredients_line_parsed_and_canonicalized():
    source = "O\tbowl\nS\tclean\nI\tsalt, egg\nM\tmix\nO\tbatter\n"
    graph = parse_foon_text(source)
    bowl = graph.units[0].inputs[0]
    assert bowl.ingredients == ("egg", "salt")
    # canonical form puts I before S; reparse stays equal
    text = serialize_foon_text(graph)
    assert "O\tbowl\nI\tegg,salt\nS\tclean" in text
    assert parse_foon_text(text) == graph


def test_crlf_and_trailing_separator_tolerated(sample_graph_text):
    crlf = sample_graph_text.replace("\n", "\r\n") + "//\r\n"
    assert parse_foon_text(crlf) == parse_foon_text(sample_graph_text)


def test_names_keep_internal_spaces():
    graph = parse_foon_text("O\tmac and cheese\nM\tserve\nO\tplated dish\n")
    assert graph.units[0].inputs[0] == ObjectNode("mac and cheese")


def test_round_trip_is_fixed_point_100_cases():
    rng = random.Random(2024)
    for _ in range(100):
        graph = random_graph(rng, max_units=10)
        once = serialize_foon_text(graph)
        reparsed = parse_foon_text(once)
        assert reparsed == graph
        assert serialize_foon_text(reparsed) == once


# every character at which str.splitlines breaks a line, apart from "\n"
_LINE_BREAKS = ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("token", ["egg white", *(f"egg{c}white" for c in _LINE_BREAKS)])
def test_json_to_foon_to_json_round_trips_whatever_json_accepts(token):
    for node in (
        {"name": token},
        {"name": "egg", "states": [token]},
        {"name": "bowl", "ingredients": [token]},
    ):
        payload = {
            "goal": {"name": "meal"},
            "functional_units": [
                {"inputs": [node], "motion": "cook", "outputs": [{"name": "omelette"}]},
                {"inputs": [{"name": "omelette"}], "motion": token, "outputs": [{"name": "meal"}]},
            ],
        }
        try:
            tree = parse_task_tree_json(json.dumps(payload))
        except TaskTreeSchemaError as exc:
            assert "must not contain tabs or newlines" in str(exc)
            continue
        assert token == "egg white"
        graph = parse_foon_text(serialize_foon_text(tree.graph))
        again = serialize_task_tree_json(TaskTree(graph, tree.goal))
        assert again == serialize_task_tree_json(tree)
