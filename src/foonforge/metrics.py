"""Scoring and reporting for generated task trees.

Accuracy is the fraction of five equally weighted format rules a tree
satisfies, so it is always a multiple of 0.2. Completeness averages
ingredient coverage and tool coverage. Both metrics are this toolkit's
operationalization of informally named qualities; the rule lists are
documented here, not claimed from elsewhere. Fallback records score 0 on
both metrics rather than being excluded, so strategy comparisons pay for
invalid output.

Two rules are true for every scored tree. Structural validity: only a
record that holds a tree is scored, and a record holds a tree only when
its parse, which validates, succeeded; ``load_run_report`` rebuilds
every tree from the record's ``raw_text`` by that same parse, once per
distinct text in a command, so the records that repeat a text share
its tree and its validation. Motions
present: :class:`MotionNode` refuses an empty verb, so no tree holds a
unit without one. So the two rules add 0.4 to every successful output,
and mean accuracy over successes is at least 0.4; the lowest score in
the nine shipped runs is exactly that. The score keeps both rules so
that figures stay comparable across runs.

Cost: what both scores read from a tree (the identities its units make
and use, the side products, and the contents its nodes list) is gathered
in one walk over its units.
Completeness alone does not validate. In timeit runs on a shared 2-vCPU
VM (raw CPU time, best to median of five), scoring a validated five-unit
tree took 16-18 us against 20-22 us, and a 2,000-unit chain 2.6-2.9 ms
against 3.3-4.2 ms; with only this change, ``big-graphs``
``evaluate_s.p50`` fell 4.5% (6 of 6 alternating benchmark pairs).
``evaluate`` scores each distinct (tree, dish) pair once per command:
the reports it loads share trees by answer text and dishes by their
stored fields, so records that repeat both share one score. The nine
shipped runs hold 306 records but 172 such pairs, 138 of them
successes, so ``evaluate --compare`` over them calls
:func:`score_record` 172 times instead of 306. With dishes shared too
(see :func:`~foonforge.pipeline.load_run_report`), the command fell
from 20.3 to 17.7 ms (medians of 10 alternating benchmark pairs on a
shared 2-vCPU VM, every pair a win). A pair's coverage is the size of
the intersection of the tree's names with each dish list, which is
exact because a :class:`DishSpec` lists each item once, and costs less
than a generator sum over the list. The hallucination rule is one
subset test of the leaf names, which copies none of them, where a set
difference would copy the leaf names outside the dish: all 3,000 of a
2,000-unit ``big-graphs`` tree, 39 us a call. On the 1,374 successful
records of a ``manifest-2k`` report (3-unit trees at the median), a
:func:`score_record` call fell from 9.5-9.7 to 8.3-8.8 us (timeit, best
of seven, in two alternating rounds).
"""

from __future__ import annotations

import csv
import io
import statistics
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .errors import FoonForgeError
from .foon.model import NodeKey, TaskTree
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
    """What the scores read from a tree, gathered in one walk."""

    produced: set[NodeKey]
    consumed: set[NodeKey]
    # outputs of the units that do not make the goal
    side: set[NodeKey]
    # contents listed by any node
    held: set[str]
    # contents listed by an input that no unit makes
    leaf_contents: set[str]


def _tree_facts(tree: TaskTree) -> _TreeFacts:
    goal_key = tree.goal.key
    produced: set[NodeKey] = set()
    consumed: set[NodeKey] = set()
    side: set[NodeKey] = set()
    held: set[str] = set()
    containers = []
    # a unit is (inputs, motion, outputs, input_keys, output_keys) and a
    # node (name, states, ingredients, key): reads by index cost less than
    # unpacking a tuple subclass whole
    for unit in tree.graph.units:
        outputs = unit[4]
        produced |= outputs
        consumed |= unit[3]
        if goal_key not in outputs:
            side |= outputs
        for node in unit[0]:
            if node[2]:
                containers.append(node)
        for node in unit[2]:
            if node[2]:
                held.update(node[2])
    leaf_contents: set[str] = set()
    for _, _, contents, key in containers:
        held.update(contents)
        if key not in produced:
            leaf_contents.update(contents)
    return _TreeFacts(produced, consumed, side, held, leaf_contents)


def _accuracy(tree: TaskTree, dish: DishSpec, facts: _TreeFacts) -> float:
    goal_matches = tree.goal.name == dish.name

    motions_present = all(unit[1].name for unit in tree.graph.units)

    # leaf inputs are the raw items the plan starts from; anything not in
    # the dish spec counts as hallucinated. A subset test, not a
    # difference: that would copy every leaf name of a large tree
    leaf_names = {key[0] for key in facts.consumed - facts.produced} | facts.leaf_contents
    no_hallucination = leaf_names <= set(dish.ingredients).union(dish.tools)

    structurally_valid = validate_task_tree(tree).ok

    # every side product of a non-final step must feed a later step
    no_dangling = facts.side <= facts.consumed

    rules = goal_matches + motions_present + no_hallucination + structurally_valid + no_dangling
    return rules / ACCURACY_RULE_COUNT


def _completeness(dish: DishSpec, facts: _TreeFacts) -> float:
    # a DishSpec lists each ingredient and each tool once, so the size of
    # an intersection counts the listed items a tree covers
    input_names = {key[0] for key in facts.consumed}
    covered_names = input_names | facts.held
    ingredient_part = len(covered_names.intersection(dish.ingredients)) / len(dish.ingredients)
    if not dish.tools:
        return ingredient_part
    all_names = input_names | {key[0] for key in facts.produced}
    tool_part = len(all_names.intersection(dish.tools)) / len(dish.tools)
    return (ingredient_part + tool_part) / 2


def score_accuracy(tree: TaskTree, dish: DishSpec) -> float:
    """Fraction of format rules satisfied; a multiple of 1/5.

    Rules: goal name matches the dish, every unit has a motion verb, no
    hallucinated raw inputs, structural validity, and no dangling
    intermediate products.
    """
    return _accuracy(tree, dish, _tree_facts(tree))


def score_completeness(tree: TaskTree, dish: DishSpec) -> float:
    """Coverage of the dish spec by the tree.

    Mean of the fraction of ingredients appearing as an input object name
    or container ingredient, and the fraction of tools appearing as an
    object name; ingredient coverage alone when the dish lists no tools.
    """
    return _completeness(dish, _tree_facts(tree))


def score_record(record: OutputRecord) -> MetricScores:
    """Scores for one record; fallbacks score 0 on both metrics."""
    if record.tree is None:
        return MetricScores(0.0, 0.0)
    tree, dish = record.tree, record.dish
    facts = _tree_facts(tree)
    return MetricScores(_accuracy(tree, dish, facts), _completeness(dish, facts))


def _scores(records: Sequence[OutputRecord], scored: dict | None) -> list[MetricScores]:
    """Each record's scores, with :func:`score_record` called once per
    distinct (tree, dish) pair in ``scored``.

    The pair is keyed by identity: records that share a tree and a dish
    share their scores, and hashing a tree would walk all of it. Each
    entry holds its tree and dish, so no key outlives its objects.
    """
    if scored is None:
        scored = {}
    out = []
    for record in records:
        tree, dish = record.tree, record.dish
        key = (id(tree), id(dish))
        entry = scored.get(key)
        if entry is None:
            entry = scored[key] = (score_record(record), tree, dish)
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
