"""Command-line entry point.

Subcommands: ``generate``, ``validate``, ``evaluate``, ``convert``,
``retrieve``. Machine output goes to stdout or files, diagnostics to
stderr. Exit codes: 0 success, 1 usage or configuration error, 2 IO or
input-data error, 3 fixture miss under ``--strict-replay``.

Cost: every subcommand's arguments are declared once, as data, in
``_COMMANDS``. A plain command line is read straight from that table
with no parser built (see ``_read_plain``). Anything else, such as help,
``--``, ``--x=y``, an abbreviation, a repeat, or an unknown, missing or
bad argument, goes to the full argparse parser built from the same
table, so every usage line, message, exit code and ``--help`` text is
argparse's own. Building even one command's parser (its arguments, and
a help formatter for each that reads the terminal size) costs more than
the work of a small ``validate``, ``convert`` or ``retrieve``, while
reading a plain line from the table costs a small fraction of it; it
shows in ``validate_s``, ``convert_s`` and ``retrieve_s`` of
``replay-34``. No parser is cached across calls: a fresh process
builds one either way, so a cache would only move the cost out of the
benchmark's timed calls, while every ``foonforge`` run still pays it.

Cost: the handler runs with Python's cyclic garbage collector paused,
and ``main`` restores the caller's setting on every exit (a caller
that had it off keeps it off). A command builds thousands of small
objects (nodes, units, key sets, records), and the collector walked
them again and again while they lived, most of all on the large trees
of ``big-graphs``, where it shows in ``generate_s`` and
``evaluate_s``. Pausing is safe because that data holds no reference
cycle, so reference counting frees all of it: nodes, units, trees and
records are frozen values that refer only to values built before them,
and no error keeps the frame that raised it (see
``tree_json._parse_node``).
``tests/test_cycle_free.py`` runs every parse outcome, validation,
retrieval and the nine shipped runs with the collector off and finds
nothing for it to free. A plain command line builds no parser, so no
cyclic object at all; the full parser, which has cycles, is built only
for help and usage errors, before the pause. ``generate --live`` keeps
the collector on: it waits on the network, so the pause would save
little, and it runs ``urllib`` and thread-pool code whose cycles nobody
checks.
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
from .resources import data_path, read_text, write_text

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


class _Arg(NamedTuple):
    """One argument of a subcommand, as its ``add_argument`` call takes it.

    ``flag`` is a long option (``--goal``) or a positional's dest
    (``path``). ``switch`` makes a ``store_true`` option, and ``one_of``
    puts the option in its command's required group, of which exactly
    one must be given.
    """

    flag: str
    help: str | None = None
    required: bool = False
    choices: tuple[str, ...] | None = None
    default: str | None = None
    type: Callable[[str], object] | None = None
    switch: bool = False
    nargs: str | None = None
    one_of: bool = False

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


class _Command(NamedTuple):
    """One subcommand: its help line, its arguments in order, and its handler."""

    help: str
    arguments: tuple[_Arg, ...]
    handler: Callable[[argparse.Namespace], int]


def _at_least_one(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number of at least 1, got {text!r}")
    return int(text)


def _build_parser() -> _Parser:
    # the paragraphs above "Cost:" are the --help description
    parser = _Parser(prog="foonforge", description=__doc__.partition("\n\nCost:")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub_parser = sub.add_parser(name, help=command.help)
        group = None
        for arg in command.arguments:
            if arg.one_of and group is None:
                group = sub_parser.add_mutually_exclusive_group(required=True)
            kwargs = {"help": arg.help}
            if arg.switch:
                kwargs["action"] = "store_true"
            if arg.required:
                kwargs["required"] = True
            for key in ("choices", "default", "type", "nargs"):
                if getattr(arg, key) is not None:
                    kwargs[key] = getattr(arg, key)
            (group if arg.one_of else sub_parser).add_argument(arg.flag, **kwargs)
    return parser


def _value(arg: _Arg, text: str):
    """``text`` converted and checked as argparse does, or None if it fails."""
    if arg.type is not None:
        try:
            text = arg.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
    if arg.choices is not None and text not in arg.choices:
        return None
    return text


def _read_plain(argv: list[str]) -> argparse.Namespace | None:
    """Read ``argv`` from the argument table, or None if it is not plain.

    A plain argv is a known command, then its exact long options, each
    at most once, each value one token that does not start with ``-``,
    and its positionals as one contiguous run; every required argument
    is there, every value passes its type and choices, and exactly one
    option of the required group is given. On such an argv the full
    parser gives this same namespace, so none is built. Anything else
    (help, ``--``, ``--x=y``, an abbreviation, a repeat, an unknown or
    missing argument, a bad value) returns None for the full parser to
    read or refuse in its own words.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    options = {arg.flag: arg for arg in command.arguments if arg.flag.startswith("-")}
    values: dict = {}
    run: list[str] = []
    run_ended = False
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if run_ended:
                return None
            run.append(token)
            continue
        run_ended = bool(run)
        arg = options.get(token)
        if arg is None or arg.dest in values:
            return None
        if arg.switch:
            values[arg.dest] = True
            continue
        text = next(tokens, "-")  # a missing value reads as an option
        value = None if text.startswith("-") else _value(arg, text)
        if value is None:
            return None
        values[arg.dest] = value
    group = [arg for arg in command.arguments if arg.one_of]
    if group and sum(arg.dest in values for arg in group) != 1:
        return None

    for arg in command.arguments:
        if arg.flag in options:
            if arg.required and arg.dest not in values:
                return None
            values.setdefault(arg.dest, False if arg.switch else arg.default)
            continue
        taken, run = (run, []) if arg.nargs == "+" else (run[:1], run[1:])
        checked = [_value(arg, text) for text in taken]
        if not taken or None in checked:
            return None
        values[arg.dest] = checked if arg.nargs == "+" else checked[0]
    if run:
        return None
    return argparse.Namespace(command=argv[0], **values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _read_plain(argv) or _build_parser().parse_args(argv)
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
    if args.live and args.strict_replay:
        print("error: --strict-replay applies to --fixture only", file=sys.stderr)
        return EXIT_CONFIG
    manifest = read_manifest(args.manifest)
    if args.live:
        backend = LiveClient(max_in_flight=args.max_in_flight or DEFAULT_MAX_IN_FLIGHT)
    else:
        backend = ReplayClient(args.fixture, strict=args.strict_replay)

    strategy = Strategy(args.strategy)
    examples = None
    if strategy is Strategy.EXAMPLE_BASED:
        examples = load_examples(args.examples or data_path("examples"))

    template = None
    if args.template:
        template = _read_source(args.template)

    report = run_generation(
        manifest,
        strategy,
        backend,
        args.out,
        examples=examples,
        instructions=args.instructions,
        template=template,
    )
    print(format_text_table(summarize_run(report)))
    print(f"total={report.total} json_ok={report.json_ok} text_fallback={report.text_fallback}")
    return EXIT_OK


def _read_source(path: str | Path) -> str:
    """The text of an input file; one that is not UTF-8 is refused by name."""
    try:
        return read_text(path)
    except UnicodeDecodeError as exc:
        raise FoonForgeError(f"{path} is not UTF-8 text: {exc}") from exc


def _print_report(report: ValidationReport) -> None:
    print("valid" if report.ok else f"invalid ({len(report.violations)} violation(s))")
    _print_violations(report)


def _print_violations(report: ValidationReport, file=None) -> None:
    """One line per violation, to ``file`` (stdout by default)."""
    for v in report.violations:
        where = f" [unit {v.unit_index}]" if v.unit_index is not None else ""
        print(f"  {v.rule}: {v.message}{where}", file=file)


def _resolve_goal(graph: FoonGraph, name: str) -> ObjectNode:
    """The node ``--goal`` names: its variant without states, or its only
    variant, as first mentioned. Several variants that all have states
    are ambiguous, and the error lists them in first-mention order: unit
    order, inputs before outputs.

    :meth:`FoonGraph.nodes_named` finds the variants by a scan that
    builds no node index, which costs less than building
    :attr:`FoonGraph.node_index` to read its nodes; it shows in
    ``retrieve_s`` of ``big-graphs``.
    """
    wanted = name.strip().lower()
    candidates = graph.nodes_named(wanted)
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
    text = _read_source(path)

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
    shared: dict = {}  # trees and dishes, for the reports of this command only
    reports = [load_run_report(p, shared=shared) for p in args.reports]
    if args.compare:
        grouped: dict[Strategy, list] = {}
        for report in reports:
            grouped.setdefault(report.strategy, []).append(report)
        rows = comparison_rows(compare_strategies(grouped))
        print(format_text_table(rows))
    else:
        scored: dict = {}  # pair scores and tree facts of this command only
        for path, report in zip(args.reports, reports):
            if len(reports) > 1:
                print(f"# {path}")
            rows = summarize_run(report, scored=scored)
            print(format_text_table(rows))
    if args.csv:
        write_text(args.csv, format_csv_table(rows))
    return EXIT_OK


def cmd_convert(args) -> int:
    if args.goal is not None and args.to == "foon":
        print("error: --goal applies to --to json only; a JSON tree names its goal",
              file=sys.stderr)
        return EXIT_CONFIG
    source = _read_source(args.source)
    if args.to == "json":
        if not args.goal:
            raise PromptError("--to json requires --goal")
        graph = parse_foon_text(source)
        goal = _resolve_goal(graph, args.goal)
        tree = TaskTree(graph, goal)
        report = validate_task_tree(tree)
        if not report.ok:
            print("cannot convert: graph is not a valid task tree", file=sys.stderr)
            _print_violations(report, sys.stderr)
            return EXIT_IO
        write_text(args.dest, serialize_task_tree_json(tree) + "\n")
    else:
        tree = parse_task_tree_json(source)
        write_text(args.dest, serialize_foon_text(tree.graph))
    print(f"wrote {args.dest}")
    return EXIT_OK


def cmd_retrieve(args) -> int:
    graph = parse_foon_text(_read_source(args.graph))
    goal = _resolve_goal(graph, args.goal)
    available = [part for part in args.available.split(",") if part.strip()]
    result = retrieve_task_tree(graph, goal, available)
    if isinstance(result, RetrievalFailure):
        print(json.dumps({"failure": result.message, "missing": result.missing}))
        return EXIT_OK
    rendered = serialize_task_tree_json(result) + "\n"
    if args.out:
        write_text(args.out, rendered)
        print(f"wrote {args.out}")
    else:
        print(rendered, end="")
    return EXIT_OK


_COMMANDS = {
    "generate": _Command(
        "generate recipes for every dish in a manifest",
        (
            _Arg("--manifest", "input manifest JSON", required=True),
            _Arg("--strategy", required=True, choices=tuple(s.value for s in Strategy)),
            _Arg("--out", "output directory", required=True),
            _Arg("--fixture", "replay fixture JSON (no network)", one_of=True),
            _Arg("--live", "call the configured endpoint", switch=True, one_of=True),
            _Arg(
                "--examples",
                "directory of example task trees (example-based only; packaged default)",
            ),
            _Arg("--instructions", "verbatim user instructions (user-guided only)"),
            _Arg("--template", "prompt template file overriding the packaged one"),
            _Arg(
                "--strict-replay",
                "abort on a fixture miss instead of recording a fallback",
                switch=True,
            ),
            _Arg(
                "--max-in-flight",
                f"requests open at once, --live only (default {DEFAULT_MAX_IN_FLIGHT})",
                type=_at_least_one,
            ),
        ),
        cmd_generate,
    ),
    "validate": _Command(
        "validate a graph or task-tree file",
        (
            _Arg("path"),
            _Arg(
                "--format",
                "input format; auto picks json for .json files",
                choices=("auto", "foon", "json"),
                default="auto",
            ),
            _Arg(
                "--as-task-tree",
                "also check acyclicity, goal, and connectivity (foon input needs --goal)",
                switch=True,
            ),
            _Arg("--goal", "goal object name, required by --as-task-tree on foon input"),
        ),
        cmd_validate,
    ),
    "evaluate": _Command(
        "summarize run reports or compare strategies",
        (
            _Arg("reports", "run_report.json paths", nargs="+"),
            _Arg(
                "--compare",
                "group reports by strategy and emit the comparison table",
                switch=True,
            ),
            _Arg("--csv", "also write the table as CSV to this path"),
        ),
        cmd_evaluate,
    ),
    "convert": _Command(
        "convert between graph text and task-tree JSON",
        (
            _Arg("source"),
            _Arg("dest"),
            _Arg("--to", required=True, choices=("json", "foon")),
            _Arg("--goal", "goal object name (required for --to json)"),
        ),
        cmd_convert,
    ),
    "retrieve": _Command(
        "retrieve a minimal task tree from a graph",
        (
            _Arg("--graph", "graph file in text format", required=True),
            _Arg("--goal", "goal object name", required=True),
            _Arg("--available", "comma-separated names of raw items on hand", default=""),
            _Arg("--out", "write the tree JSON here instead of stdout"),
        ),
        cmd_retrieve,
    ),
}


if __name__ == "__main__":
    raise SystemExit(main())
