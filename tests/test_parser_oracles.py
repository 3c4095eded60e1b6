"""The one-pass parsers and the Kahn cycle check against their originals.

Every source goes through the parser and through the original kept in
``graphgen``: both must raise the same exception type with the same
message, pointer, line and violations, or build equal trees, with equal
hashes, reprs and node keys.
"""

from __future__ import annotations

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from foonforge.errors import FoonForgeError
from foonforge.foon.model import FoonGraph, ObjectNode, TaskTree
from foonforge.foon.text_format import parse_foon_text, serialize_foon_text
from foonforge.foon.tree_json import parse_task_tree_json, serialize_task_tree_json
from foonforge.foon.validation import RULE_CYCLE, find_cycle, validate_graph

from .graphgen import (
    MUTATORS,
    chain_tree,
    mutate_add_cycle,
    random_graph,
    random_task_tree,
    reference_find_cycle,
    reference_parse_foon_text,
    reference_parse_task_tree_json,
    reference_validate_graph,
)


def _outcome(parse, source):
    try:
        return parse(source)
    except FoonForgeError as exc:
        return (
            type(exc),
            str(exc),
            getattr(exc, "pointer", None),
            getattr(exc, "line", None),
            getattr(exc, "violations", None),
        )


def _nodes(result):
    graph = result.graph if isinstance(result, TaskTree) else result
    nodes = [result.goal] if isinstance(result, TaskTree) else []
    for unit in graph.units:
        nodes.extend((*unit.inputs, *unit.outputs))
    return nodes


def _assert_same(parse, reference, source):
    got = _outcome(parse, source)
    want = _outcome(reference, source)
    if isinstance(want, tuple):
        assert got == want, source
        return
    assert got == want, source
    assert hash(got) == hash(want)
    assert repr(got) == repr(want)
    assert [n.key for n in _nodes(got)] == [n.key for n in _nodes(want)]
    assert [n.ingredients for n in _nodes(got)] == [n.ingredients for n in _nodes(want)]


def _assert_same_json(source):
    _assert_same(parse_task_tree_json, reference_parse_task_tree_json, source)


def _assert_same_text(source):
    _assert_same(parse_foon_text, reference_parse_foon_text, source)


# --- seeded random trees, written untidily ------------------------------

def _untidy(rng, token):
    """The token as a model might write it: other case, stray spaces."""
    if rng.random() < 0.3:
        token = token.upper() if rng.random() < 0.5 else token.title()
    if rng.random() < 0.3:
        token = " " * rng.randint(1, 2) + token + " " * rng.randint(0, 2)
    return token


def _node_payload(rng, node):
    payload = {"name": _untidy(rng, node.name)}
    states = [_untidy(rng, s) for s in node.states]
    rng.shuffle(states)
    if states or rng.random() < 0.5:
        payload["states"] = states
    ingredients = [_untidy(rng, s) for s in node.ingredients]
    if ingredients and rng.random() < 0.3:
        ingredients.append(_untidy(rng, ingredients[0]))  # a repeat is dropped
    if ingredients or rng.random() < 0.2:
        payload["ingredients"] = ingredients
    return payload


def _tree_json(rng, tree):
    return json.dumps({
        "goal": _node_payload(rng, tree.goal),
        "functional_units": [
            {
                "inputs": [_node_payload(rng, n) for n in unit.inputs],
                "motion": _untidy(rng, unit.motion.name),
                "outputs": [_node_payload(rng, n) for n in unit.outputs],
            }
            for unit in tree.units
        ],
    })


def _graph_text(rng, graph):
    blocks = []
    for unit in graph.units:
        lines = []
        for side, nodes in enumerate((unit.inputs, unit.outputs)):
            if side:
                lines.append(f"M\t{_untidy(rng, unit.motion.name)}")
            for node in nodes:
                payload = _node_payload(rng, node)
                lines.append(f"O\t{payload['name']}")
                states = payload.get("states", [])
                ingredients = payload.get("ingredients")
                at = rng.randint(0, len(states))
                lines.extend(f"S\t{s}" for s in states[:at])
                if ingredients:
                    lines.append("I\t" + ",".join(ingredients))
                lines.extend(f"S\t{s}" for s in states[at:])
        blocks.append("\n".join(lines))
    return "\n//\n".join(blocks) + rng.choice(["\n", "\n//\n", "\n\n"])


def test_random_trees_both_ways_match_the_original_parsers():
    rng = random.Random(61)
    for i in range(400):
        if i % 2:
            tree = random_task_tree(rng, max_units=6)
        else:
            graph = random_graph(rng, max_units=6)
            tree = TaskTree(graph, graph.units[-1].outputs[0])
        _assert_same_json(serialize_task_tree_json(tree))
        _assert_same_json(_tree_json(rng, tree))
        _assert_same_text(serialize_foon_text(tree.graph))
        _assert_same_text(_graph_text(rng, tree.graph))


def test_mutants_match_the_original_parsers():
    rng = random.Random(62)
    for _ in range(20):
        tree = random_task_tree(rng, max_units=6)
        for mutate in MUTATORS:
            mutant, _ = mutate(tree)
            _assert_same_json(serialize_task_tree_json(mutant))
            _assert_same_json(_tree_json(rng, mutant))
            _assert_same_text(serialize_foon_text(mutant.graph))


def test_parsed_repeats_share_one_node():
    tree = chain_tree(5)
    parsed = parse_task_tree_json(serialize_task_tree_json(tree))
    for before, after in zip(parsed.units, parsed.units[1:]):
        assert before.outputs[0] is after.inputs[0]
    graph = parse_foon_text(serialize_foon_text(tree.graph))
    assert graph.units[0].outputs[0] is graph.units[1].inputs[0]


# --- bad payloads ---------------------------------------------------------

# Each token below goes into every field of one node of an otherwise
# valid tree, after a good node that the memo already holds.
_TOKENS = [
    "egg", " EGG ", "Raw", "raw ", "\tegg", "egg\n", "", "  ", "\t", " \t ", "a\tb",
    "a\nb", "a,b", ",", "\ud800", "x\udc00", "é", "İ",
]
_NOT_STRINGS = [None, 1, 1.5, True, [], ["egg"], {"name": "egg"}]


def _bad_nodes():
    for token in _TOKENS:
        yield {"name": token}
        yield {"name": "egg", "states": [token]}
        yield {"name": "Egg", "states": ["raw", token]}
        yield {"name": "egg", "ingredients": [token]}
        yield {"name": "egg", "states": ["raw"], "ingredients": ["salt", token]}
    for value in _NOT_STRINGS:
        yield {"name": value}
        yield {"name": "egg", "states": value}
        yield {"name": "egg", "states": ["raw", value]}
        yield {"name": "egg", "ingredients": value}
        yield {"name": "egg", "ingredients": [value]}
        yield {"name": "egg", "states": [value], "ingredients": [value]}
        yield value


def _tree_around(node, motion="cook"):
    good = {"name": "egg", "states": ["raw"]}
    return json.dumps({
        "goal": {"name": "omelette"},
        "functional_units": [
            {"inputs": [good, {"name": "salt"}], "motion": "mix", "outputs": [{"name": "batter"}]},
            {"inputs": [{"name": "batter"}, good, node], "motion": motion,
             "outputs": [{"name": "omelette"}]},
        ],
    })


def test_each_bad_node_fails_as_the_original_parser_fails():
    for node in _bad_nodes():
        _assert_same_json(_tree_around(node))
    for motion in [*_TOKENS, *_NOT_STRINGS]:
        _assert_same_json(_tree_around({"name": "pan"}, motion))


def test_each_bad_object_line_fails_as_the_original_parser_fails():
    for token in _TOKENS:
        if "\n" in token:
            continue
        for lines in (
            [f"O\t{token}"],
            ["O\tegg", f"S\t{token}"],
            ["O\tEgg", "S\traw", f"S\t{token}"],
            ["O\tegg", f"I\t{token}"],
            ["O\tegg", "S\traw", f"I\tsalt,{token}"],
        ):
            source = "\n".join(
                ["O\tegg", "S\traw", "M\tmix", "O\tbatter", "//", "O\tbatter", "O\tegg",
                 "S\traw", *lines, "M\tcook", "O\tomelette"]
            )
            _assert_same_text(source)
        _assert_same_text(f"O\tpan\nM\t{token}\nO\thot pan\n")


# Tokens that pass (most of them), tokens that pass only after trimming,
# tokens that are empty or hold a tab or newline once trimmed, states that
# repeat once lowercased, commas, lone surrogates, and values that are
# not strings at all.
_TEXT = st.sampled_from([
    "egg", "Egg", " EGG ", "raw", "Raw", "raw ", "cooked", "salt", "a b", "é", "É", "😀",
    "egg", "raw", "salt", "cooked", "\tegg", "egg\n",
    "", "  ", "\t", " \t ", "a\tb", "a\nb", "a,b", ",", "\ud800", "x\udc00",
])
_VALUE = st.one_of(
    _TEXT,
    st.sampled_from([None, 0, 1.5, True, [], ["egg"], {}, {"name": "egg"}]),
)
_STRINGS = st.one_of(st.lists(_TEXT, max_size=3), st.lists(_VALUE, max_size=3), _VALUE)
_NODE = st.one_of(
    st.fixed_dictionaries({"name": _TEXT}, optional={"states": _STRINGS, "ingredients": _STRINGS}),
    st.fixed_dictionaries({}, optional={"name": _VALUE, "states": _STRINGS}),
    _VALUE,
)
_NODE_LIST = st.one_of(st.lists(_NODE, min_size=1, max_size=3), _VALUE)
_UNIT = st.one_of(
    st.fixed_dictionaries(
        {"inputs": _NODE_LIST, "motion": _TEXT, "outputs": _NODE_LIST},
        optional={"note": _VALUE},
    ),
    st.fixed_dictionaries({}, optional={"inputs": _NODE_LIST, "motion": _VALUE}),
    _VALUE,
)
_PAYLOAD = st.one_of(
    st.fixed_dictionaries({"goal": _NODE, "functional_units": st.lists(_UNIT, max_size=4)}),
    st.fixed_dictionaries({}, optional={"goal": _NODE, "functional_units": _VALUE}),
    _VALUE,
)


@settings(max_examples=400, deadline=None)
@given(_PAYLOAD)
def test_bad_payloads_fail_as_the_original_parser_fails(payload):
    _assert_same_json(json.dumps(payload))


@settings(max_examples=100, deadline=None)
@given(st.lists(_NODE, min_size=1, max_size=6), st.data())
def test_repeated_nodes_fail_as_the_original_parser_fails(nodes, data):
    # the memo must not let a repeat of a good node hide a bad one
    picks = data.draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=6))
    units = [
        {"inputs": [picks[i]], "motion": "mix", "outputs": [picks[i + 1]]}
        for i in range(len(picks) - 1)
    ]
    _assert_same_json(json.dumps({"goal": picks[-1], "functional_units": units}))


_LINE = st.one_of(
    st.builds(
        lambda tag, value: f"{tag}\t{value}",
        st.sampled_from(["O", "O", "S", "S", "I", "M", "X", ""]),
        st.one_of(_TEXT, st.sampled_from(["egg, salt", "Salt,egg,,", "a, ,b"])),
    ),
    st.sampled_from(["//", "", "   ", "O egg", "O\t", "M\tmix", "O\tegg", "S\traw"]),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_LINE, max_size=12), st.sampled_from(["\n", "\r\n"]))
def test_bad_text_fails_as_the_original_parser_fails(lines, newline):
    _assert_same_text(newline.join(lines))


# --- the Kahn pass and its hand-off to graphlib ---------------------------

def test_find_cycle_matches_graphlib_on_random_digraphs():
    rng = random.Random(63)
    cycles = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        edges = {i: set() for i in rng.sample(range(n), n)}
        for _ in range(rng.randint(0, 2 * n)):
            src, dest = rng.randrange(n), rng.randrange(n)
            if src != dest or rng.random() < 0.1:
                edges[src].add(dest)
        want = reference_find_cycle(edges)
        assert find_cycle(edges) == want
        cycles += want is not None
    assert 50 < cycles < 250


def test_cycle_mutants_name_the_same_cycle():
    rng = random.Random(64)
    trees = [random_task_tree(rng, max_units=8) for _ in range(30)]
    trees += [chain_tree(n, goal_first=first) for n in (2, 40, 300) for first in (False, True)]
    for tree in trees:
        mutant, _ = mutate_add_cycle(tree)
        units = list(mutant.units)
        # a second cycle, away from the first, and a shuffled order
        if len(units) > 3:
            rework = units[-2]
            units.append(type(rework)(rework.outputs, rework.motion, rework.inputs))
        rng.shuffle(units)
        graph = FoonGraph(tuple(units))
        got = validate_graph(graph, goal=mutant.goal)
        want = reference_validate_graph(graph, goal=mutant.goal)
        cycle = [(v.message, v.unit_index) for v in got.violations if v.rule == RULE_CYCLE]
        assert len(cycle) == 1
        assert cycle == [(v.message, v.unit_index) for v in want.violations if v.rule == RULE_CYCLE]
        assert got == want


def test_objects_outside_a_unit_list_still_build():
    # the node constructor takes any iterable, as before the one-pass check
    node = ObjectNode(" Bowl ", iter(["Warm", "clean"]), ["Salt", "egg", "salt"])
    assert node == ObjectNode("bowl", ("clean", "warm"), ("egg", "salt"))
    assert node.key == ("bowl", ("clean", "warm"))
