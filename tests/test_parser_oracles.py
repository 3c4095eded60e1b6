"""The one-pass parsers and the validator against their originals.

Every source goes through the parser and through the original kept in
``graphgen``: both must raise the same exception type with the same
message, pointer, line and violations, or build equal trees, with equal
hashes, reprs and node keys. The one-pass :class:`DishSpec` is held to
its original per-field checks the same way.
"""

from __future__ import annotations

import json
import random
from dataclasses import astuple
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foonforge.errors import (
    FoonForgeError,
    FoonSyntaxError,
    InvalidNodeError,
    TaskTreeJsonError,
    TaskTreeSchemaError,
)
from foonforge.foon import validation
from foonforge.foon.model import FoonGraph, FunctionalUnit, ObjectNode, TaskTree
from foonforge.foon.text_format import parse_foon_text, serialize_foon_text
from foonforge.foon.tree_json import parse_task_tree_json, serialize_task_tree_json
from foonforge.foon.validation import (
    RULE_BIPARTITE,
    RULE_CYCLE,
    RULE_NOOP_UNIT,
    find_cycle,
    validate_graph,
)
from foonforge.prompts import DishSpec

from .graphgen import (
    MUTATORS,
    ReferenceDish,
    chain_tree,
    mutate_add_cycle,
    mutate_noop,
    random_graph,
    random_task_tree,
    reference_find_cycle,
    reference_object,
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


# --- node construction ---------------------------------------------------

# (name, states, ingredients) as a model might write them: each side of
# every fast path of the node check, and values it must refuse.
_RAW_NODES = [
    ("Egg", [], []),
    ("Egg", ["Raw"], []),
    ("Egg", [" Raw ", "chopped", "WARM"], []),
    ("pan", ["Hot", "hot"], []),
    ("pan", ["hot", "HOT", "clean"], []),
    ("pan", ["  "], []),
    ("pan", ["hot", " \t "], []),
    ("egg\t", [], []),
    ("egg", ["raw\t"], []),
    ("egg\x85white", [], []),
    ("egg", ["raw\u2028"], []),
    ("egg\ud800", [], []),
    ("egg", ["\udc00"], []),
    ("bowl", [], ["salt", "x\ud800"]),
    ("Jalapeño", ["Diced"], []),
    ("bowl", ["full"], ["Jalapeño", "salt"]),
    ("salt, coarse", ["Fine, dry"], []),
    ("bowl", [], ["salt,pepper"]),
    ("bowl", ["mixed"], ["Salt", "salt ", "egg"]),
    ("bowl", ["mixed"], [""]),
    ("", [], []),
    ("egg", [5], []),
    ("egg", [["raw"]], []),
    ("egg", "raw", []),
    ("bowl", [], [None]),
    ("bowl", [], "salt"),
]


def _tree_with(name, states, ingredients) -> str:
    """A valid tree but for the node, which unit 0 takes in first and
    unit 1 takes in again: the repeat is a memo hit."""
    node = {"name": name, "states": states, "ingredients": ingredients}
    return json.dumps({
        "goal": {"name": "omelette"},
        "functional_units": [
            {"inputs": [node, {"name": "salt"}], "motion": "mix", "outputs": [{"name": "batter"}]},
            {"inputs": [{"name": "batter"}, node], "motion": "cook",
             "outputs": [{"name": "omelette"}]},
        ],
    })


def _text_with(name, states, ingredients) -> str:
    lines = [f"O\t{name}", *(f"S\t{s}" for s in states)]
    if ingredients:
        lines.insert(1, "I\t" + ",".join(ingredients))
    return "\n".join(
        [*lines, "O\tsalt", "M\tmix", "O\tbatter", "//", "O\tbatter", *lines, "M\tcook",
         "O\tomelette"]
    ) + "\n"


def _assert_node_built_whole(node, name, states, ingredients):
    direct = ObjectNode(name, states, ingredients)
    assert type(node) is type(direct) is ObjectNode
    # the same tuple, item by item: name, states, ingredients and key
    assert tuple(node) == tuple(direct) == (node.name, node.states, node.ingredients, node.key)
    assert [type(item) for item in node] == [str, tuple, tuple, tuple]
    assert (node.key, repr(node), hash(node)) == (direct.key, repr(direct), hash(direct))
    assert node.key == (node.name, node.states)


def test_each_raw_node_builds_as_the_original_parsers_build_it():
    accepted = 0
    for name, states, ingredients in _RAW_NODES:
        source = _tree_with(name, states, ingredients)
        _assert_same_json(source)
        result = _outcome(parse_task_tree_json, source)
        if isinstance(result, TaskTree):
            accepted += 1
            node = result.units[0].inputs[0]
            assert result.units[1].inputs[1] is node
            _assert_node_built_whole(node, name, states, ingredients)
            for unit in result.units:
                direct = FunctionalUnit(unit.inputs, unit.motion, unit.outputs)
                assert type(unit) is FunctionalUnit
                assert tuple(unit) == tuple(direct)  # the key sets too
        tokens = [name, *states, *ingredients] if isinstance(states, list) else [None]
        if isinstance(ingredients, list) and all(isinstance(t, str) for t in tokens):
            text = _text_with(name, states, ingredients)
            _assert_same_text(text)
            graph = _outcome(parse_foon_text, text)
            if isinstance(graph, FoonGraph):
                node = graph.units[0].inputs[0]
                assert graph.units[1].inputs[1] is node
                if "," not in "".join(ingredients):  # the text format splits at a comma
                    _assert_node_built_whole(node, name, states, ingredients)
    assert accepted >= 10


def test_objects_built_directly_match_the_original_checks():
    for name, states, ingredients in _RAW_NODES:
        try:
            want = reference_object(name, states, ingredients)
        except InvalidNodeError as exc:
            with pytest.raises(InvalidNodeError) as caught:
                ObjectNode(name, states, ingredients)
            assert str(caught.value) == str(exc)
        else:
            got = ObjectNode(name, states, ingredients)
            assert (got, got.key) == (want, want.key)


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


# --- the token check of a whole source ---------------------------------------

# Each character a token may not hold: a tab, every line break of
# str.splitlines, and a lone surrogate. Only a source that cannot hold one
# (ASCII JSON without a backslash, ASCII text with one tab per record line)
# skips the per-node scan for them.
_FORBIDDEN = [
    "\t", "\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\ud800",
]


def _with_char(char):
    """(name, states, ingredients) with ``char`` inside and at the end of
    a name, a state and an ingredient; trimming strips a trailing one
    unless it is a surrogate."""
    for token in (f"a{char}b", f"egg{char}"):
        yield token, ["raw"], ["salt"]
        yield "egg", ["raw", token], ["salt"]
        yield "egg", ["raw"], ["salt", token]


def _json_with(name, states, ingredients, *, ascii_only: bool) -> str:
    return json.dumps(json.loads(_tree_with(name, states, ingredients)), ensure_ascii=ascii_only)


def test_each_forbidden_character_parses_as_the_per_node_scan_parses_it():
    for char in _FORBIDDEN:
        for name, states, ingredients in _with_char(char):
            escaped = _json_with(name, states, ingredients, ascii_only=True)
            assert "\\" in escaped
            _assert_same_json(escaped)
            raw = _json_with(name, states, ingredients, ascii_only=False)
            if char < " ":  # a raw control character is not JSON
                raw = raw.replace(json.dumps(char)[1:-1], char)
                assert _outcome(parse_task_tree_json, raw)[0] is TaskTreeJsonError
            else:
                assert char in raw and not raw.isascii()
            _assert_same_json(raw)
            _assert_same_text(_text_with(name, states, ingredients))


def test_the_source_check_keeps_each_outcome():
    node = parse_task_tree_json(_tree_with("egg\t", ["Raw\t"], [])).units[0].inputs[0]
    assert node == ObjectNode("egg", ("raw",))  # trimmed, as before
    for source, pointer in (
        (_tree_with("a\u2028b", [], []), "/functional_units/0/inputs/0"),
        (_json_with("a\u2028b", [], [], ascii_only=False), "/functional_units/0/inputs/0"),
        (_tree_with("egg", ["raw", "x\ud800"], []), "/functional_units/0/inputs/0"),
    ):
        with pytest.raises(TaskTreeSchemaError) as caught:
            parse_task_tree_json(source)
        assert caught.value.pointer == pointer
    assert str(caught.value).endswith("state must be valid Unicode text: 'x\\ud800'")
    with pytest.raises(FoonSyntaxError) as failed:
        parse_foon_text("O\tegg\twhite\nM\tmix\nO\tbatter\n")
    assert (str(failed.value), failed.value.line) == (
        "line 1: object name must not contain tabs or newlines: 'egg\\twhite'", 1
    )
    # a record line without a tab, after one with two: the first error still wins
    text = "O\tegg\twhite\nM\tmix\nO\tbatter\n//\nO\tbatter\nM mix\nO\tcake\n"
    _assert_same_text(text)
    assert _outcome(parse_foon_text, text)[3] == 1


def test_only_a_source_that_cannot_hold_a_forbidden_character_skips_the_scan(monkeypatch):
    from foonforge.foon import model, text_format, tree_json

    calls = []

    def counted(*key):
        calls.append(key)
        return model.scanned_node(*key)

    monkeypatch.setattr(tree_json, "scanned_node", counted)
    monkeypatch.setattr(text_format, "scanned_node", counted)
    tree = chain_tree(4)
    for source, scanned in (
        (serialize_task_tree_json(tree), True),
        (serialize_task_tree_json(tree).replace("flour", "fl\\u006fur"), False),
        (serialize_task_tree_json(tree).replace("flour", "flöur"), False),
        (serialize_foon_text(tree.graph), True),
        (serialize_foon_text(tree.graph) + "\t\n", False),
        (serialize_foon_text(tree.graph).replace("flour", "flöur"), False),
    ):
        calls.clear()
        parse = parse_task_tree_json if source.startswith("{") else parse_foon_text
        parse(source)
        assert len(calls) == (len(tree.graph.node_index) if scanned else 0), source


_TOKEN = st.text(st.sampled_from(["a", "B", " ", ",", "\\", '"', "é", *_FORBIDDEN]), max_size=4)


@settings(max_examples=300, deadline=None)
@given(_TOKEN, st.lists(_TOKEN, max_size=3), st.lists(_TOKEN, max_size=2), st.booleans())
def test_any_token_parses_as_the_original_parsers_parse_it(name, states, ingredients, ascii_only):
    _assert_same_json(_json_with(name, states, ingredients, ascii_only=ascii_only))
    _assert_same_text(_text_with(name, states, ingredients))


_UNITS = "O\tegg\nM\tmix\nO\tbatter\n//\nO\tbatter\nM\tbake\nO\tcake\n"


@pytest.mark.parametrize(
    "source",
    [
        # a whitespace line holding a tab, inside a unit and between units
        "O\tegg\n\t\nM\tmix\n \t \nO\tbatter\n\t\n//\n\t\nO\tbatter\nM\tbake\nO\tcake\n",
        # as many tabs as record lines, one of which has none
        "O\tegg\n\t\nM mix\nO\tbatter\n",
        # a separator first, last, and twice in a row
        "//\n" + _UNITS.replace("//", "//\n//") + "//\n",
        "//\n//\n",
        # a separator with a trailing space is a record line
        _UNITS.replace("//", "// "),
        _UNITS.replace("\n", "\r\n"),
        _UNITS.replace("\n", "\r\n").replace("//", "\r\n//\r\n"),
        _UNITS.rstrip("\n"),
        _UNITS.rstrip("\n") + "\t",
        "O\tcrème\nS\tfraîche\nM\tfouetter\nO\tcrème fouettée\n\u3000\n//\n\xa0\n" + _UNITS,
    ],
)
def test_edge_lines_parse_as_the_original_parser_parses_them(source):
    _assert_same_text(source)


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


# --- the unit-order test and its hand-off to the Kahn pass ----------------

def _assert_validates_as_the_original(graph, goal):
    assert validate_graph(graph, goal) == reference_validate_graph(graph, goal)
    assert validate_graph(graph) == reference_validate_graph(graph)


def test_permuted_units_validate_as_the_original_validator():
    rng = random.Random(65)
    for i in range(300):
        if i % 3:
            tree = random_task_tree(rng, max_units=8)
        else:
            graph = random_graph(rng, max_units=8)
            tree = TaskTree(graph, rng.choice(graph.units).outputs[0])
        units = list(tree.units)
        rng.shuffle(units)
        _assert_validates_as_the_original(tree.graph, tree.goal)
        _assert_validates_as_the_original(FoonGraph(tuple(units)), tree.goal)
    for n in (1, 2, 3, 40):
        for first in (False, True):
            tree = chain_tree(n, goal_first=first)
            _assert_validates_as_the_original(tree.graph, tree.goal)


def test_mutants_validate_as_the_original_validator():
    rng = random.Random(66)
    for _ in range(30):
        tree = random_task_tree(rng, max_units=6)
        for mutate in MUTATORS:
            mutant, _ = mutate(tree)
            units = list(mutant.units)
            rng.shuffle(units)
            _assert_validates_as_the_original(mutant.graph, mutant.goal)
            _assert_validates_as_the_original(FoonGraph(tuple(units)), mutant.goal)
        # a unit that leaves a node unchanged also feeds itself
        mutant, _ = mutate_noop(tree)
        rules = validate_graph(mutant.graph, mutant.goal).rules
        assert {RULE_NOOP_UNIT, RULE_CYCLE} <= rules


class _Stray:
    """Not an object node, though it carries a node's key."""

    key = ("stage", ("s0",))

    def describe(self) -> str:
        return "stray"


def test_a_stray_node_with_a_key_is_still_reported():
    tree = chain_tree(3)
    first, *rest = tree.units
    confused = FunctionalUnit((*first.inputs, _Stray()), first.motion, first.outputs)
    assert confused.input_keys == first.input_keys
    for units in ((confused, *rest), (*rest, confused)):
        graph = FoonGraph(units)
        _assert_validates_as_the_original(graph, tree.goal)
        assert RULE_BIPARTITE in validate_graph(graph, tree.goal).rules
    motionless = FunctionalUnit(first.inputs, "mix", first.outputs)
    _assert_validates_as_the_original(FoonGraph((motionless, *rest)), tree.goal)


def test_only_units_out_of_order_run_the_kahn_pass(monkeypatch):
    calls = []
    monkeypatch.setattr(
        validation, "find_cycle", lambda edges: calls.append(edges) or find_cycle(edges)
    )
    for first in (False, True):
        tree = chain_tree(5, goal_first=first)
        assert validate_graph(tree.graph, tree.goal).ok
    assert len(calls) == 1  # the goal-first chain: acyclic, but edges point back


# --- dish specs -------------------------------------------------------------

_CATEGORIES = ["Main", " MAIN ", "", "  ", "plats cuisinés", "İ", "x\ud800"]
_DISH_NAMES = ["Soup", " soup ", "SOUP", "", " \t ", "crème brûlée", "İstanbul", "\udc00"]
_INGREDIENT_LISTS = [
    [], ["salt"], ["salt", "pepper"], [" Salt", "salt "], ["salt", ""], ["", "salt"],
    ["salt", "  "], ["Salt", "pepper", "SALT"], ["é", "É", "e"], ["İ", "i̇"],
    ["salt", "x\ud800"], ["\udc00", ""], ["a b", "a  b", "A B "],
]
_TOOL_LISTS = [
    [], ["pan"], ["Pan", " pan"], ["", "pan"], ["  "], ["pot", "Pan", "POT", ""],
    ["wok", "\ud800"], ["\udc00 ", "pan"], ["é", "É"], ["pan", "pan", "pan"],
]
_NOT_TEXTS = [None, 5, ["salt"], b"salt"]


def _dish_outcome(build, *args):
    try:
        return build(*args)
    except (InvalidNodeError, TypeError) as exc:
        return type(exc), str(exc), getattr(exc, "pointer", None)


def _assert_same_dish(*args):
    got = _dish_outcome(DishSpec, *args)
    want = _dish_outcome(ReferenceDish, *args)
    if isinstance(want, tuple):
        assert got == want, args
        return
    fields = astuple(want)
    assert astuple(got) == fields, args
    assert all(type(value) is type(kept) for value, kept in zip(astuple(got), fields))
    rebuilt = DishSpec(*fields)
    assert (got, hash(got)) == (rebuilt, hash(rebuilt))
    assert repr(got) == repr(want).replace("ReferenceDish(", "DishSpec(", 1)


def test_dish_specs_build_as_the_original_checks_build_them():
    accepted = 0
    for category, name, ingredients, tools in product(
        _CATEGORIES, _DISH_NAMES, _INGREDIENT_LISTS, _TOOL_LISTS
    ):
        _assert_same_dish(category, name, ingredients, tools)
        _assert_same_dish(category, name, tuple(ingredients), tuple(tools))
        accepted += not isinstance(_dish_outcome(DishSpec, category, name, ingredients), tuple)
    assert accepted >= 300


def test_dishes_with_a_non_text_field_fail_as_the_original_checks_fail():
    for bad in _NOT_TEXTS:
        for args in (
            (bad, "soup", ["salt"]),
            ("main", bad, ["salt"]),
            ("main", "soup", bad),
            ("main", "soup", [bad]),
            ("main", "soup", ["salt"], bad),
            ("main", "soup", ["salt"], ["pan", bad]),
        ):
            _assert_same_dish(*args)


_DISH_TEXT = st.sampled_from([
    "salt", "Salt", " SALT ", "pepper", "pan", "a b", "é", "É", "İ", "😀", "",
    "  ", "\t", "\ud800", "x\udc00",
])


@settings(max_examples=400, deadline=None)
@given(
    _DISH_TEXT,
    _DISH_TEXT,
    st.lists(_DISH_TEXT, max_size=5),
    st.lists(_DISH_TEXT, max_size=5),
)
def test_random_dishes_build_as_the_original_checks_build_them(category, name, ingredients, tools):
    _assert_same_dish(category, name, ingredients, tools)
