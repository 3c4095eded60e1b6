"""Command-line entry point.

Subcommands: ``generate``, ``validate``, ``evaluate``, ``convert``,
``retrieve``. Machine output goes to stdout or files, diagnostics to
stderr. Exit codes: 0 success, 1 usage or configuration error, 2 IO or
input-data error, 3 fixture miss under ``--strict-replay``.

Cost: a call builds the parser of the one subcommand it names and
parses with it. Help, a missing or unknown subcommand and leftover
arguments go to the full parser, so its usage line and messages are
the ones printed. Building and running the full parser cost about
1.3 ms of CPU per call (6 parsers and 31 arguments, each making a help
formatter that reads the terminal size), more than the work of a small
``validate``, ``convert`` or ``retrieve``; one command's parser costs
about 0.25 ms. On the ``replay-34`` benchmark workload,
the median ``validate`` call fell from 1.17 to 0.43 ms of CPU time
(medians of 10 alternating pairs of 30 s runs on a shared 2-vCPU VM),
and ``convert`` and ``retrieve`` by as much. No parser is cached across
calls: a fresh process builds one either way, so a cache would only
move the cost out of the benchmark's timed calls, while every
``foonforge`` run still pays it.

Cost: the handler runs with Python's cyclic garbage collector paused,
and ``main`` restores the caller's setting on every exit (a caller
that had it off keeps it off). A command builds thousands of small
objects (nodes, units, key sets, records), and the collector walked
them again and again while they lived: on the ``big-graphs`` benchmark
workload, 259 collections took 12% of the CPU time of a ``generate``
and 225 took 15% of an ``evaluate``; 3% and 8% on ``manifest-2k``. With
the pause, ``big-graphs`` ``evaluate`` fell from 137.6 to 117.7 ms of
CPU and ``generate`` from 196 to 175 ms (medians of 10 alternating
pairs of 30 s runs on a shared 2-vCPU VM, every pair a win). Pausing is safe
because that data holds no reference cycle, so reference counting
frees all of it: nodes, units, trees and records are frozen values
that refer only to values built before them, and no error keeps the
frame that raised it (see ``tree_json._parse_node``).
``tests/test_cycle_free.py`` runs every parse outcome, validation,
retrieval and the nine shipped runs with the collector off and finds
nothing for it to free. The one cyclic object of a call is argparse's
parser, built before the pause. ``generate --live`` keeps the
collector on: it waits on the network, so the pause would save little,
and it runs ``urllib`` and thread-pool code whose cycles nobody checks.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .client import DEFAULT_MAX_IN_FLIGHT, FixtureMissError, LiveClient, ReplayClient
from .errors import ClientError, FoonForgeError, PromptError, RetrievalError, TaskTreeStructureError
from .foon.model import FoonGraph, ObjectNode, TaskTree
from .foon.retrieval import RetrievalFailure, retrieve_task_tree
from .foon.text_format import parse_foon_text, serialize_foon_text
from .foon.tree_json import parse_task_tree_json, serialize_task_tree_json
from .foon.validation import ValidationReport, validate_graph, validate_task_tree
from .metrics import (
    compare_strategies,
    comparison_rows,
    format_csv_table,
    format_text_table,
    summarize_run,
)
from .pipeline import load_run_report, read_manifest, run_generation
from .prompts import Strategy, load_examples
from .resources import data_path

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_FIXTURE_MISS = 3


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 on usage errors, per our code scheme."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


class _Command(NamedTuple):
    """One subcommand: its help line, what adds its arguments, and its handler."""

    help: str
    add_arguments: Callable[[_Parser], None]
    handler: Callable[[argparse.Namespace], int]


def _at_least_one(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number of at least 1, got {text!r}")
    return int(text)


def _generate_arguments(gen: _Parser) -> None:
    gen.add_argument("--manifest", required=True, help="input manifest JSON")
    gen.add_argument(
        "--strategy",
        required=True,
        choices=[s.value for s in Strategy],
    )
    gen.add_argument("--out", required=True, help="output directory")
    backend = gen.add_mutually_exclusive_group(required=True)
    backend.add_argument("--fixture", help="replay fixture JSON (no network)")
    backend.add_argument("--live", action="store_true", help="call the configured endpoint")
    gen.add_argument(
        "--examples",
        help="directory of example task trees (example-based only; packaged default)",
    )
    gen.add_argument("--instructions", help="verbatim user instructions (user-guided only)")
    gen.add_argument("--template", help="prompt template file overriding the packaged one")
    gen.add_argument(
        "--strict-replay",
        action="store_true",
        help="abort on a fixture miss instead of recording a fallback",
    )
    gen.add_argument(
        "--max-in-flight",
        type=_at_least_one,
        help=f"requests open at once, --live only (default {DEFAULT_MAX_IN_FLIGHT})",
    )


def _validate_arguments(val: _Parser) -> None:
    val.add_argument("path")
    val.add_argument(
        "--format",
        choices=["auto", "foon", "json"],
        default="auto",
        help="input format; auto picks json for .json files",
    )
    val.add_argument(
        "--as-task-tree",
        action="store_true",
        help="also check acyclicity, goal, and connectivity (foon input needs --goal)",
    )
    val.add_argument("--goal", help="goal object name, required by --as-task-tree on foon input")


def _evaluate_arguments(ev: _Parser) -> None:
    ev.add_argument("reports", nargs="+", help="run_report.json paths")
    ev.add_argument(
        "--compare",
        action="store_true",
        help="group reports by strategy and emit the comparison table",
    )
    ev.add_argument("--csv", help="also write the table as CSV to this path")


def _convert_arguments(conv: _Parser) -> None:
    conv.add_argument("source")
    conv.add_argument("dest")
    conv.add_argument("--to", required=True, choices=["json", "foon"])
    conv.add_argument("--goal", help="goal object name (required for --to json)")


def _retrieve_arguments(ret: _Parser) -> None:
    ret.add_argument("--graph", required=True, help="graph file in text format")
    ret.add_argument("--goal", required=True, help="goal object name")
    ret.add_argument(
        "--available",
        default="",
        help="comma-separated names of raw items on hand",
    )
    ret.add_argument("--out", help="write the tree JSON here instead of stdout")


def _build_parser() -> _Parser:
    # the paragraphs above "Cost:" are the --help description
    parser = _Parser(prog="foonforge", description=__doc__.partition("\n\nCost:")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        command.add_arguments(sub.add_parser(name, help=command.help))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` as the full parser does, building only what it needs.

    A known subcommand with nothing left over is parsed by that
    command's parser alone, built as the full parser's subparser is: the
    same ``prog``, arguments and error handling. Everything else (no
    command, help, an unknown command, leftover arguments) goes to the
    full parser, so its usage line and messages are the ones printed.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is not None:
        parser = _Parser(prog=f"foonforge {argv[0]}")
        command.add_arguments(parser)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    # see "Cost:" above
    paused = gc.isenabled() and not (args.command == "generate" and args.live)
    if paused:
        gc.disable()
    try:
        return _COMMANDS[args.command].handler(args)
    except FixtureMissError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FIXTURE_MISS
    except (PromptError, ClientError, RetrievalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FoonForgeError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        if paused:
            gc.enable()


def cmd_generate(args) -> int:
    if args.fixture and args.max_in_flight is not None:
        print("error: --max-in-flight applies to --live only", file=sys.stderr)
        return EXIT_CONFIG
    manifest = read_manifest(args.manifest)
    if args.live:
        backend = LiveClient(max_in_flight=args.max_in_flight or DEFAULT_MAX_IN_FLIGHT)
    else:
        backend = ReplayClient(args.fixture)

    strategy = Strategy(args.strategy)
    examples = ()
    if strategy is Strategy.EXAMPLE_BASED:
        examples = load_examples(args.examples or data_path("examples"))

    template = None
    if args.template:
        template = Path(args.template).read_text(encoding="utf-8")

    report = run_generation(
        manifest,
        strategy,
        backend,
        args.out,
        examples=examples,
        instructions=args.instructions,
        template=template,
        strict_replay=args.strict_replay,
    )
    print(format_text_table(summarize_run(report)))
    print(f"total={report.total} json_ok={report.json_ok} text_fallback={report.text_fallback}")
    return EXIT_OK


def _print_report(report: ValidationReport) -> None:
    if report.ok:
        print("valid")
        return
    print(f"invalid ({len(report.violations)} violation(s))")
    for v in report.violations:
        where = f" [unit {v.unit_index}]" if v.unit_index is not None else ""
        print(f"  {v.rule}: {v.message}{where}")


def _resolve_goal(graph: FoonGraph, name: str) -> ObjectNode:
    wanted = name.strip().lower()
    candidates = [node for node in graph.object_nodes() if node.name == wanted]
    if not candidates:
        raise RetrievalError(f"goal {name!r} names no object in the graph")
    stateless = [node for node in candidates if not node.states]
    if len(candidates) == 1 or stateless:
        return stateless[0] if stateless else candidates[0]
    variants = "; ".join(node.describe() for node in candidates)
    raise PromptError(f"goal {name!r} is ambiguous, variants: {variants}")


def cmd_validate(args) -> int:
    path = Path(args.path)
    fmt = args.format
    if fmt == "auto":
        fmt = "json" if path.suffix.lower() == ".json" else "foon"
    if args.goal is not None and fmt == "json":
        print("error: --goal applies to foon input only; a JSON tree names its goal",
              file=sys.stderr)
        return EXIT_CONFIG
    if args.goal is not None and not args.as_task_tree:
        print("error: --goal needs --as-task-tree", file=sys.stderr)
        return EXIT_CONFIG
    text = path.read_text(encoding="utf-8")

    if fmt == "json":
        try:
            report = parse_task_tree_json(text).validation
        except TaskTreeStructureError as exc:
            report = ValidationReport(exc.violations)
        _print_report(report)
        return EXIT_OK

    graph = parse_foon_text(text)
    goal = None
    if args.as_task_tree:
        if not args.goal:
            raise PromptError("--as-task-tree on a foon file requires --goal")
        goal = _resolve_goal(graph, args.goal)
    _print_report(validate_graph(graph, goal))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if args.csv and len(args.reports) > 1 and not args.compare:
        print("error: --csv with several reports needs --compare", file=sys.stderr)
        return EXIT_CONFIG
    reports = [load_run_report(p) for p in args.reports]
    if args.compare:
        grouped: dict[Strategy, list] = {}
        for report in reports:
            grouped.setdefault(report.strategy, []).append(report)
        rows = comparison_rows(compare_strategies(grouped))
        print(format_text_table(rows))
    else:
        for path, report in zip(args.reports, reports):
            if len(reports) > 1:
                print(f"# {path}")
            rows = summarize_run(report)
            print(format_text_table(rows))
    if args.csv:
        Path(args.csv).write_text(format_csv_table(rows), encoding="utf-8")
    return EXIT_OK


def cmd_convert(args) -> int:
    source = Path(args.source).read_text(encoding="utf-8")
    if args.to == "json":
        if not args.goal:
            raise PromptError("--to json requires --goal")
        graph = parse_foon_text(source)
        goal = _resolve_goal(graph, args.goal)
        tree = TaskTree(graph, goal)
        report = validate_task_tree(tree)
        if not report.ok:
            print("cannot convert: graph is not a valid task tree", file=sys.stderr)
            for v in report.violations:
                print(f"  {v.rule}: {v.message}", file=sys.stderr)
            return EXIT_IO
        Path(args.dest).write_text(serialize_task_tree_json(tree) + "\n", encoding="utf-8")
    else:
        tree = parse_task_tree_json(source)
        Path(args.dest).write_text(serialize_foon_text(tree.graph), encoding="utf-8")
    print(f"wrote {args.dest}")
    return EXIT_OK


def cmd_retrieve(args) -> int:
    graph = parse_foon_text(Path(args.graph).read_text(encoding="utf-8"))
    goal = _resolve_goal(graph, args.goal)
    available = [part for part in args.available.split(",") if part.strip()]
    result = retrieve_task_tree(graph, goal, available)
    if isinstance(result, RetrievalFailure):
        print(json.dumps({"failure": result.message, "missing": result.missing}))
        return EXIT_OK
    rendered = serialize_task_tree_json(result) + "\n"
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(rendered, end="")
    return EXIT_OK


_COMMANDS = {
    "generate": _Command(
        "generate recipes for every dish in a manifest", _generate_arguments, cmd_generate
    ),
    "validate": _Command("validate a graph or task-tree file", _validate_arguments, cmd_validate),
    "evaluate": _Command(
        "summarize run reports or compare strategies", _evaluate_arguments, cmd_evaluate
    ),
    "convert": _Command(
        "convert between graph text and task-tree JSON", _convert_arguments, cmd_convert
    ),
    "retrieve": _Command(
        "retrieve a minimal task tree from a graph", _retrieve_arguments, cmd_retrieve
    ),
}


if __name__ == "__main__":
    raise SystemExit(main())
