"""Scoring and reporting for generated task trees.

Accuracy is the fraction of five equally weighted format rules a tree
satisfies, so it is always a multiple of 0.2. Completeness averages
ingredient coverage and tool coverage. Both metrics are this toolkit's
operationalization of informally named qualities; the rule lists are
documented here, not claimed from elsewhere. Fallback records score 0 on
both metrics rather than being excluded, so strategy comparisons pay for
invalid output.

Two rules are true for every tree a run's records hold. Structural
validity: a record holds a tree only when its parse, which validates,
succeeded; ``load_run_report`` rebuilds every tree from the record's
``raw_text`` by that same parse, once per distinct text in a command,
so the records that repeat a text share its tree and its validation.
Motions present: :class:`MotionNode` refuses an empty verb, so no
parsed tree holds a unit without one. So the two rules add 0.4 to
every successful output, and mean accuracy over successes is at least
0.4; the lowest score in the nine shipped runs is exactly that. The score keeps both rules so that figures stay
comparable across runs. A tree built by hand may break either: a unit
whose motion is not a :class:`MotionNode` fails the motions rule, and
an item that is not an :class:`ObjectNode` is skipped by every rule,
as the unit's key sets skip it.

Cost: scoring is split in two. What the scores read from a tree alone
(the goal's name; motions present, structural validity and no dangling
product; the leaf names with the contents they list, the covered names
and all names) is gathered in one walk over its units, once per
distinct tree in a command: ``evaluate`` shares one tree among the
records that repeat its answer text, and keeps each tree's facts in
the command's ``scored`` map, next to the scores of each distinct
(tree, dish) pair. A pair then costs one name comparison and four set
operations: the union of the dish's ingredients and tools, one subset
test of the leaf names against it, which copies none of them, and two
intersection counts, which are exact because a :class:`DishSpec` lists
each item once. ``evaluate_s.p50`` shows the cost end to end and
``metrics.score.busy_s`` per layer; ``metrics.score.calls`` counts the
distinct pairs. Completeness alone does not validate.
"""

from __future__ import annotations

import csv
import io
import statistics
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .errors import FoonForgeError
from .foon.model import MotionNode, NodeKey, ObjectNode, TaskTree
from .foon.validation import validate_task_tree
from .pipeline import Outcome, OutputRecord, RunReport
from .prompts import DishSpec, Strategy

ACCURACY_RULE_COUNT = 5

BAND_HIGH = 0.75
BAND_MEDIUM = 0.5

RELIABILITY_CONSISTENT = 0.05
RELIABILITY_VARIABLE = 0.15


@dataclass(frozen=True)
class MetricScores:
    accuracy: float
    completeness: float


@dataclass(frozen=True)
class StrategyEntry:
    strategy: Strategy
    runs: int
    mean_accuracy: float
    mean_completeness: float
    accuracy_band: str
    completeness_band: str
    reliability: str
    single_run: bool

    @property
    def reliability_label(self) -> str:
        return f"{self.reliability} (single run)" if self.single_run else self.reliability


@dataclass(frozen=True)
class StrategyComparison:
    entries: tuple[StrategyEntry, ...]

    def entry(self, strategy: Strategy) -> StrategyEntry:
        for e in self.entries:
            if e.strategy is strategy:
                return e
        raise KeyError(strategy)


class _TreeFacts(NamedTuple):
    """What the scores read from a tree alone, gathered in one walk."""

    goal_name: str
    # motions present, structurally valid and no dangling product, summed
    rules: int
    # names of the inputs that no unit makes, and the contents they list
    leaf_names: set[str]
    # input names and the contents any node lists
    covered_names: set[str]
    # every object name
    all_names: set[str]


def _tree_facts(tree: TaskTree, validate: bool = True) -> _TreeFacts:
    """The tree's facts; ``validate=False`` leaves structural validity
    out of ``rules``, for a caller that reads only the names."""
    goal_key = tree.goal.key
    produced: set[NodeKey] = set()
    consumed: set[NodeKey] = set()
    # outputs of the units that do not make the goal
    side: set[NodeKey] = set()
    # contents listed by any node
    held: set[str] = set()
    containers = []
    motions_present = True
    # a unit is (inputs, motion, outputs, input_keys, output_keys) and a
    # node (name, states, ingredients, key): reads by index cost less than
    # unpacking a tuple subclass whole. An item that is not a node is
    # skipped, as the unit's key sets skip it
    for unit in tree.graph.units:
        outputs = unit[4]
        produced |= outputs
        consumed |= unit[3]
        if goal_key not in outputs:
            side |= outputs
        motion = unit[1]
        if not (isinstance(motion, MotionNode) and motion.name):
            motions_present = False
        for node in unit[0]:
            if isinstance(node, ObjectNode) and node[2]:
                containers.append(node)
        for node in unit[2]:
            if isinstance(node, ObjectNode) and node[2]:
                held.update(node[2])
    input_names = {key[0] for key in consumed}
    leaf_names = {key[0] for key in consumed - produced}
    for _, _, contents, key in containers:
        held.update(contents)
        if key not in produced:
            leaf_names.update(contents)
    # every side product of a non-final step must feed a later step
    rules = motions_present + (side <= consumed)
    if validate:
        rules += validate_task_tree(tree).ok
    all_names = input_names.union([key[0] for key in produced])
    return _TreeFacts(tree.goal.name, rules, leaf_names, input_names | held, all_names)


def _accuracy(facts: _TreeFacts, dish: DishSpec) -> float:
    # leaf inputs are the raw items the plan starts from; anything not in
    # the dish spec counts as hallucinated. A subset test, not a
    # difference: that would copy every leaf name of a large tree
    no_hallucination = facts.leaf_names <= set(dish.ingredients).union(dish.tools)
    rules = facts.rules + (facts.goal_name == dish.name) + no_hallucination
    return rules / ACCURACY_RULE_COUNT


def _completeness(facts: _TreeFacts, dish: DishSpec) -> float:
    # a DishSpec lists each ingredient and each tool once, so the size of
    # an intersection counts the listed items a tree covers
    ingredients, tools = dish.ingredients, dish.tools
    ingredient_part = len(facts.covered_names.intersection(ingredients)) / len(ingredients)
    if not tools:
        return ingredient_part
    tool_part = len(facts.all_names.intersection(tools)) / len(tools)
    return (ingredient_part + tool_part) / 2


def score_accuracy(tree: TaskTree, dish: DishSpec) -> float:
    """Fraction of format rules satisfied; a multiple of 1/5.

    Rules: goal name matches the dish, every unit has a motion verb, no
    hallucinated raw inputs, structural validity, and no dangling
    intermediate products.
    """
    return _accuracy(_tree_facts(tree), dish)


def score_completeness(tree: TaskTree, dish: DishSpec) -> float:
    """Coverage of the dish spec by the tree.

    Mean of the fraction of ingredients appearing as an input object name
    or container ingredient, and the fraction of tools appearing as an
    object name; ingredient coverage alone when the dish lists no tools.
    """
    return _completeness(_tree_facts(tree, validate=False), dish)


def score_record(record: OutputRecord, scored: dict | None = None) -> MetricScores:
    """Scores for one record; fallbacks score 0 on both metrics.

    ``scored`` is the map of :func:`_scores`: the tree's facts are
    gathered once per map, under the tree's identity, with the tree
    held in the entry. Without one, they are gathered for this call.
    """
    tree = record.tree
    if tree is None:
        return MetricScores(0.0, 0.0)
    if scored is None:
        facts = _tree_facts(tree)
    else:
        entry = scored.get(id(tree))
        if entry is None:
            entry = scored[id(tree)] = (_tree_facts(tree), tree)
        facts = entry[0]
    return MetricScores(_accuracy(facts, record.dish), _completeness(facts, record.dish))


def _scores(records: Sequence[OutputRecord], scored: dict | None) -> list[MetricScores]:
    """Each record's scores, with :func:`score_record` called once per
    distinct (tree, dish) pair in ``scored``, which also keeps each
    tree's facts, so a tree that meets several dishes is walked once.

    A pair is keyed by identity: records that share a tree and a dish
    share their scores, and hashing a tree would walk all of it. Each
    entry holds its tree and dish, so no key outlives its objects.
    With no map, the call shares pair scores among its records and
    keeps no facts: a ``generate`` summary meets each tree once, and
    holding the facts of all its trees at once would only raise its
    memory.
    """
    pairs = {} if scored is None else scored
    out = []
    for record in records:
        tree, dish = record.tree, record.dish
        key = (id(tree), id(dish))
        entry = pairs.get(key)
        if entry is None:
            entry = pairs[key] = (score_record(record, scored), tree, dish)
        out.append(entry[0])
    return out


def run_mean_scores(report: RunReport, *, scored: dict | None = None) -> MetricScores:
    """Mean scores over every record in a run, fallbacks included.
    ``scored`` is the caller's map of the (tree, dish) pairs it has
    scored (see :func:`_scores`); by default the call starts from an
    empty one."""
    if not report.records:
        return MetricScores(0.0, 0.0)
    scores = _scores(report.records, scored)
    return MetricScores(
        statistics.mean(s.accuracy for s in scores),
        statistics.mean(s.completeness for s in scores),
    )


@dataclass(frozen=True)
class SummaryRow:
    metric: str
    value: str
    notes: str


def summarize_run(report: RunReport, *, scored: dict | None = None) -> list[SummaryRow]:
    """The run's headline counts plus derived rates and mean scores.
    ``scored`` is shared as by :func:`run_mean_scores`, so a command
    that summarizes several runs scores each (tree, dish) pair once."""
    rows = [
        SummaryRow(
            "Total recipes generated",
            str(report.total),
            "dishes attempted from the input manifest",
        ),
        SummaryRow(
            "Successful JSON outputs",
            str(report.json_ok),
            "responses saved as validated task-tree JSON",
        ),
        SummaryRow(
            "Text outputs (due to errors)",
            str(report.text_fallback),
            "responses preserved as text after a parse or validation failure",
        ),
    ]
    if report.total:
        rate = report.json_ok / report.total
        rows.append(
            SummaryRow("Success rate", f"{rate:.3f}", f"{report.json_ok}/{report.total}")
        )
    else:
        rows.append(SummaryRow("Success rate", "n/a", "no records"))

    ok_records = [r for r in report.records if r.outcome is Outcome.JSON_OK]
    if ok_records:
        scores = _scores(ok_records, scored)
        rows.append(
            SummaryRow(
                "Mean accuracy",
                f"{statistics.mean(s.accuracy for s in scores):.3f}",
                "over successful outputs",
            )
        )
        rows.append(
            SummaryRow(
                "Mean completeness",
                f"{statistics.mean(s.completeness for s in scores):.3f}",
                "over successful outputs",
            )
        )
    else:
        rows.append(SummaryRow("Mean accuracy", "n/a", "no successful outputs"))
        rows.append(SummaryRow("Mean completeness", "n/a", "no successful outputs"))
    return rows


def band(value: float) -> str:
    if value >= BAND_HIGH:
        return "High"
    if value >= BAND_MEDIUM:
        return "Medium"
    return "Low"


def _reliability(per_run_accuracy: Sequence[float]) -> tuple[str, bool]:
    if len(per_run_accuracy) < 2:
        # nothing to measure spread on; flagged so reports can say so
        return "Consistent", True
    spread = statistics.stdev(per_run_accuracy)
    if spread <= RELIABILITY_CONSISTENT:
        return "Consistent", False
    if spread <= RELIABILITY_VARIABLE:
        return "Variable", False
    return "Inconsistent", False


def compare_strategies(
    runs: Mapping[Strategy, Sequence[RunReport]],
) -> StrategyComparison:
    """Per-strategy means, qualitative bands, and reliability labels.

    The strategy mean weights each run equally (mean of per-run means).
    Reliability comes from the sample standard deviation of per-run mean
    accuracy. Strategies appear in their conventional comparison order.
    Each distinct (tree, dish) pair across all the runs is scored once.
    """
    if not runs or all(not reports for reports in runs.values()):
        raise FoonForgeError("compare_strategies needs at least one run per strategy")
    scored: dict = {}
    entries: list[StrategyEntry] = []
    for strategy in Strategy:
        reports = list(runs.get(strategy, ()))
        if not reports:
            continue
        per_run = [run_mean_scores(r, scored=scored) for r in reports]
        accuracies = [s.accuracy for s in per_run]
        completenesses = [s.completeness for s in per_run]
        mean_acc = statistics.mean(accuracies)
        mean_comp = statistics.mean(completenesses)
        reliability, single = _reliability(accuracies)
        entries.append(
            StrategyEntry(
                strategy=strategy,
                runs=len(reports),
                mean_accuracy=mean_acc,
                mean_completeness=mean_comp,
                accuracy_band=band(mean_acc),
                completeness_band=band(mean_comp),
                reliability=reliability,
                single_run=single,
            )
        )
    return StrategyComparison(tuple(entries))


def comparison_rows(comparison: StrategyComparison) -> list[SummaryRow]:
    return [
        SummaryRow(
            entry.strategy.value,
            f"{entry.accuracy_band}/{entry.completeness_band}/{entry.reliability_label}",
            f"accuracy {entry.mean_accuracy:.3f}, completeness "
            f"{entry.mean_completeness:.3f}, {entry.runs} run(s)",
        )
        for entry in comparison.entries
    ]


def format_text_table(rows: Sequence[SummaryRow]) -> str:
    """Aligned three-column rendering for terminals."""
    header = SummaryRow("Metric", "Value", "Notes")
    all_rows = [header, *rows]
    widths = [
        max(len(r.metric) for r in all_rows),
        max(len(r.value) for r in all_rows),
    ]
    lines = [
        f"{r.metric:<{widths[0]}}  {r.value:<{widths[1]}}  {r.notes}".rstrip()
        for r in all_rows
    ]
    return "\n".join(lines)


def format_csv_table(rows: Sequence[SummaryRow]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["metric", "value", "notes"])
    for row in rows:
        writer.writerow([row.metric, row.value, row.notes])
    return buffer.getvalue()
