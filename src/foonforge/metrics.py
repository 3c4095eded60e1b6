"""Scoring and reporting for generated task trees.

Accuracy is the fraction of five equally weighted format rules a tree
satisfies, so it is always a multiple of 0.2. Completeness averages
ingredient coverage and tool coverage. Both metrics are this toolkit's
operationalization of informally named qualities; the rule lists are
documented here, not claimed from elsewhere. Fallback records score 0 on
both metrics rather than being excluded, so strategy comparisons pay for
invalid output.

The structural-validity rule is true for every scored tree: a record is
``JSON_OK`` only with a tree that passed validation, and
``load_run_report`` validates every tree again as it reparses it. So
the rule adds 0.2 to every successful output, and mean accuracy over
successes is at least 0.2. The score keeps the rule so that figures stay
comparable across runs.
"""

from __future__ import annotations

import csv
import io
import statistics
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import FoonForgeError
from .foon.model import TaskTree
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


def _accuracy_rules(tree: TaskTree, dish: DishSpec) -> list[bool]:
    graph = tree.graph
    produced = graph.produced_keys

    goal_matches = tree.goal.name == dish.name

    motions_present = all(unit.motion.name for unit in graph.units)

    # leaf inputs are the raw items the plan starts from; anything not in
    # the dish spec counts as hallucinated
    allowed = set(dish.ingredients) | set(dish.tools)
    leaf_names: set[str] = set()
    for unit in graph.units:
        for node in unit.inputs:
            if node.key not in produced:
                leaf_names.add(node.name)
                leaf_names.update(node.ingredients)
    no_hallucination = leaf_names <= allowed

    structurally_valid = validate_task_tree(tree).ok

    # every side product of a non-final step must feed a later step
    consumed = frozenset().union(*(unit.input_keys for unit in graph.units))
    no_dangling = all(
        unit.output_keys <= consumed
        for unit in graph.units
        if tree.goal.key not in unit.output_keys
    )

    return [goal_matches, motions_present, no_hallucination, structurally_valid, no_dangling]


def score_accuracy(tree: TaskTree, dish: DishSpec) -> float:
    """Fraction of format rules satisfied; a multiple of 1/5.

    Rules: goal name matches the dish, every unit has a motion verb, no
    hallucinated raw inputs, structural validity, and no dangling
    intermediate products.
    """
    rules = _accuracy_rules(tree, dish)
    return sum(rules) / ACCURACY_RULE_COUNT


def score_completeness(tree: TaskTree, dish: DishSpec) -> float:
    """Coverage of the dish spec by the tree.

    Mean of the fraction of ingredients appearing as an input object name
    or container ingredient, and the fraction of tools appearing as an
    object name; ingredient coverage alone when the dish lists no tools.
    """
    covered_names = {node.name for unit in tree.units for node in unit.inputs}
    covered_names |= {
        ing
        for unit in tree.units
        for node in (*unit.inputs, *unit.outputs)
        for ing in node.ingredients
    }
    ingredient_part = sum(1 for i in dish.ingredients if i in covered_names) / len(
        dish.ingredients
    )
    if not dish.tools:
        return ingredient_part
    all_names = {node.name for unit in tree.units for node in (*unit.inputs, *unit.outputs)}
    tool_part = sum(1 for t in dish.tools if t in all_names) / len(dish.tools)
    return (ingredient_part + tool_part) / 2


def score_record(record: OutputRecord) -> MetricScores:
    """Scores for one record; fallbacks score 0 on both metrics."""
    if record.outcome is not Outcome.JSON_OK or record.tree is None:
        return MetricScores(0.0, 0.0)
    return MetricScores(
        score_accuracy(record.tree, record.dish),
        score_completeness(record.tree, record.dish),
    )


def run_mean_scores(report: RunReport) -> MetricScores:
    """Mean scores over every record in a run, fallbacks included."""
    if not report.records:
        return MetricScores(0.0, 0.0)
    scored = [score_record(r) for r in report.records]
    return MetricScores(
        statistics.mean(s.accuracy for s in scored),
        statistics.mean(s.completeness for s in scored),
    )


@dataclass(frozen=True)
class SummaryRow:
    metric: str
    value: str
    notes: str


def summarize_run(report: RunReport) -> list[SummaryRow]:
    """The run's headline counts plus derived rates and mean scores."""
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
        scored = [score_record(r) for r in ok_records]
        rows.append(
            SummaryRow(
                "Mean accuracy",
                f"{statistics.mean(s.accuracy for s in scored):.3f}",
                "over successful outputs",
            )
        )
        rows.append(
            SummaryRow(
                "Mean completeness",
                f"{statistics.mean(s.completeness for s in scored):.3f}",
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
    """
    if not runs or all(not reports for reports in runs.values()):
        raise FoonForgeError("compare_strategies needs at least one run per strategy")
    entries: list[StrategyEntry] = []
    for strategy in Strategy:
        reports = list(runs.get(strategy, ()))
        if not reports:
            continue
        per_run = [run_mean_scores(r) for r in reports]
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
