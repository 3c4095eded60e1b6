"""End-to-end and per-layer benchmark of the foonforge command line.

Usage, from the root of a source checkout (every workload in turn):

    for w in replay-34 manifest-2k big-graphs; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 0
    done

The benchmark imports the package from ``src/`` of the checkout it lives
in, builds the workload's inputs from the seed, and then calls
``foonforge.cli.main`` in-process with the CLI's defaults, one command at
a time (a closed loop with one caller), for about ``--seconds`` seconds.
Every call's output is checked; a wrong output, a non-zero exit, an
exception or an attempt to open a socket counts as a failed operation and
the run goes on. ``error_rate`` is failed over attempted operations.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics: ``<command>_s.p50`` and ``.p90`` are percentiles of
single command latencies over the run (the sample counts are printed
above it; on workloads whose commands each take seconds, a run holds
fewer than 100 of them and its p90 is close to the maximum);
``generate_dishes_per_s`` is dishes generated over time spent in
``generate``; ``setup_s`` is the median time to build the inputs, which
is repeated. ``error_rate`` is printed above the JSON line; the line
itself carries it as ``failed`` and ``attempted``.

With ``--trace 1`` the run alternates untraced and traced iterations.
Traced ones wrap the package's layer functions in spans (see
``spans.py``), and the last line holds the per-layer metrics, medians
over the traced iterations of per-iteration sums. The spans, each with
its self time, are written to ``.bench_work/traces/`` when the run ends.

Every time is the CPU time of the process (user and system, all
threads), not wall time: on a shared virtual machine the hypervisor
steals CPU in bursts, and a stolen CPU that holds the interpreter lock
stalls the generation pool, so wall time measured the neighbours as much
as the program. The wall time spent per command kind is printed too.

The end-to-end times are also scaled to one reference speed of the
machine (see ``clock.py``): a shared host runs the same code at speeds
that differ by up to a factor of two, in phases, so the raw times of
short commands jumped between two levels from run to run. The medians of
the raw CPU times are printed above the result line. Per-layer times of
the traced run are raw CPU times. The process runs on one CPU, so the
generation pool's threads take turns on the CPU whose speed is measured,
rather than handing the interpreter lock across two.

A first pass over the workload is checked but not timed. Every pass
writes into the same directory, and the files in it are emptied before
the next pass, so the commands rewrite files rather than create them.
Before each command the benchmark collects garbage and its own objects
are frozen out of the collector, so each command starts with empty young
generations, as in a fresh process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import os
import platform
import resource
import socket
import statistics
import sys
import time
from pathlib import Path

from clock import REFERENCE_S, ScaledClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up is repeated at least this often, and for at least this long, to take a median
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0


class NetworkGuard:
    """Replaces ``socket.socket`` and counts every attempt to use it."""

    def __init__(self):
        self.attempts = 0
        self._saved = None

    def _refuse(self, *args, **kwargs):
        self.attempts += 1
        raise OSError("the benchmark forbids network access")

    def __enter__(self):
        self._saved = socket.socket
        socket.socket = self._refuse
        return self

    def __exit__(self, *exc):
        socket.socket = self._saved
        return False


class Runner:
    """Calls the CLI, times each call, and checks its output."""

    def __init__(self, main, guard: NetworkGuard):
        self.main = main
        self.guard = guard
        self.samples: dict[str, list] = {}
        self.raw: dict[str, list] = {}
        self.calibrations: list = []
        self.wall: dict[str, float] = {}
        self.dishes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer = None
        self.generated: list[Path] = []
        # False during the warm-up pass: its commands are checked but not timed
        self.timed = True
        # False in a traced run: speed samples would add to the untraced passes that
        # trace.overhead_s is measured against
        self.scale = True

    def op(self, kind: str, argv: list, check, dishes: int = 0, out_dir: Path | None = None):
        out, err = io.StringIO(), io.StringIO()
        attempts = self.guard.attempts
        rc, problem = None, None
        if self.tracer is not None:
            self.tracer.op = f"{kind}#{self.attempted}"
        # each command starts with empty young generations, as in a fresh process
        gc.collect()
        clock = ScaledClock(sample=self.timed and self.scale)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), clock:
                if self.tracer is not None:
                    rc = self.tracer.span(f"cli.{kind}", self.main, argv)
                else:
                    rc = self.main(argv)
        except (Exception, SystemExit) as exc:
            problem = f"{kind} raised {type(exc).__name__}: {exc}"
        if self.timed:
            self.wall[kind] = self.wall.get(kind, 0.0) + clock.wall_s
            self.raw.setdefault(kind, []).append(clock.cpu_s)
            self.samples.setdefault(kind, []).append(clock.scaled_s)
            self.dishes += dishes
        if clock.sample:
            self.calibrations.append(clock.calibration_s)
        if problem is None and self.guard.attempts != attempts:
            problem = f"{kind} tried to open a socket"
        if problem is None and rc != 0:
            problem = f"{kind} exited {rc}: {err.getvalue().strip()[:200]}"
        if problem is None:
            try:
                problem = check(rc, out.getvalue())
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problem = f"{kind} output unreadable: {type(exc).__name__}: {exc}"
        if out_dir is not None:
            self.generated.append(out_dir)
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(problem)

    def unreadable(self, path: Path, exc: Exception) -> None:
        """Counts a failed operation: a command's output that later commands need is unreadable."""
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{path}: unreadable output: {type(exc).__name__}: {exc}")


def percentile(values: list, share: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(share * 100) - 1]


def tree_bytes(path: Path) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def generated_counts(dirs: list) -> tuple[int, int, int]:
    json_ok = records = size = 0
    for out_dir in dirs:
        report = json.loads((out_dir / "run_report.json").read_text(encoding="utf-8"))
        json_ok += report["json_ok"]
        records += report["total"]
        size += tree_bytes(out_dir)
    return json_ok, records, size


def per_layer(iterations: list, overhead: float) -> dict:
    """Medians over traced iterations of each layer's numbers."""
    def med(fn):
        return statistics.median(fn(it) for it in iterations)

    def calls(name):
        return lambda it: it["calls"].get(name, 0)

    def busy(name):
        return lambda it: it["busy"].get(name, 0.0)

    m = {}
    for layer in ("prompts.render", "client.lookup", "pipeline.handle_response", "tree_json.parse",
                  "validation.validate", "retrieval.retrieve", "metrics.score"):
        m[f"{layer}.calls"] = (med(calls(layer)), "count")
    for layer in ("prompts.render", "prompts.hash", "prompts.load_examples", "client.fixture_load",
                  "client.lookup", "pipeline.read_manifest", "pipeline.fence", "pipeline.report",
                  "pipeline.handle_response", "pipeline.load_run_report", "tree_json.parse",
                  "tree_json.serialize", "validation.validate", "text_format.parse",
                  "text_format.serialize", "retrieval.retrieve", "metrics.score",
                  "metrics.compare", "metrics.summarize"):
        m[f"{layer}.busy_s"] = (med(busy(layer)), "s")
    m["client.lookup.misses"] = (med(lambda it: it["misses"]), "count")
    m["pipeline.handle_response.self_s"] = (med(lambda it: it["handle_self"]), "s")
    m["pipeline.orchestration_s"] = (med(lambda it: it["orchestration"]), "s")
    m["pipeline.json_ok"] = (med(lambda it: it["json_ok"]), "count")
    m["pipeline.records"] = (med(lambda it: it["records"]), "count")
    m["pipeline.json_ok_ratio"] = (med(lambda it: it["json_ok"] / max(it["records"], 1)), "ratio")
    m["pipeline.bytes_written"] = (med(lambda it: it["bytes"]), "B")
    m["validation.units"] = (med(lambda it: it["units"]), "count")
    m["validation.us_per_unit"] = (
        med(lambda it: 1e6 * it["busy"].get("validation.validate", 0.0) / max(it["units"], 1)),
        "us")
    m["retrieval.cone_units"] = (med(lambda it: it["cones"]), "count")
    m["trace.overhead_s"] = (overhead, "s")
    return m


def end_to_end(runner: Runner, setup_times: list) -> dict:
    """The end-to-end metrics; a command kind that failed before it ran gives none."""
    s = runner.samples
    m = {"setup_s": (statistics.median(setup_times), "s")}
    if s.get("generate"):
        m["generate_dishes_per_s"] = (runner.dishes / sum(s["generate"]), "1/s")
    for kind, p90 in (("generate", True), ("evaluate", False), ("validate", True),
                      ("convert", False), ("retrieve", True)):
        if not s.get(kind):
            continue
        m[f"{kind}_s.p50"] = (statistics.median(s[kind]), "s")
        if p90:
            m[f"{kind}_s.p90"] = (percentile(s[kind], 0.9), "s")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return m


def write_spans(traced: list, path: Path) -> None:
    """One JSON line per span, with its self time: CPU time minus its children's."""
    fields = ("id", "name", "parent", "op", "dish", "start", "end", "cpu_s", "units", "error")
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for iteration, spans in traced:
            child_cpu: dict = {}
            for span in spans:
                child_cpu[span[2]] = child_cpu.get(span[2], 0.0) + span[7]
            for span in spans:
                record = dict(zip(fields, span), iteration=iteration)
                record["self_s"] = span[7] - child_cpu.get(span[0], 0.0)
                handle.write(json.dumps(record) + "\n")


def load_package():
    """Import foonforge from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "foonforge" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src / 'foonforge'}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import foonforge
    import foonforge.cli
    if Path(foonforge.__file__).resolve().parent != (src / "foonforge").resolve():
        raise SystemExit(f"error: imported foonforge from {foonforge.__file__}")
    return foonforge


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one CPU: the generation pool's threads then take turns on the CPU that the
    # calibration loop measures, instead of handing the interpreter lock across two
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    package = load_package()
    import workloads
    from spans import Tracer, layer_metrics
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    workloads.clear(work)
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)

    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        workloads.clear(work / "inputs")
        gc.collect()
        with ScaledClock() as clock:
            workload.setup(work / "inputs")
        setup_times.append(clock.scaled_s)

    guard = NetworkGuard()
    runner = Runner(package.cli.main, guard)
    runner.scale = not args.trace
    traced_iterations, iteration_cpu = [], {False: [], True: []}
    all_spans = []
    # Every pass writes into the same directory, whose files are emptied in between.
    # Creating a file cost 0.3-0.5 ms of kernel time on the VM the benchmark was
    # written on, varying sixfold from second to second, against 0.03 ms to rewrite
    # one; and an output a command failed to write is left empty, which its check sees.
    it_dir = work / "out"

    def one_pass(n: int, traced: bool) -> None:
        workloads.empty_files(it_dir)
        workload.it_dir, workload.cones = it_dir, []
        runner.generated = []
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        runner.tracer = tracer
        start = time.process_time()
        try:
            workload.iteration(runner, it_dir)
        finally:
            if tracer is not None:
                tracer.uninstall()
            runner.tracer = None
        if not runner.timed:
            return
        iteration_cpu[traced].append(time.process_time() - start)
        if tracer is not None:
            numbers = layer_metrics(tracer.spans)
            numbers["json_ok"], numbers["records"], numbers["bytes"] = \
                generated_counts(runner.generated)
            numbers["cones"] = sum(workload.cones)
            traced_iterations.append(numbers)
            all_spans.append((n, tracer.spans))
            if tracer.missing:
                print(f"warning: not traced, gone from the package: {tracer.missing}",
                      file=sys.stderr)

    with guard:
        # the benchmark's own objects are not the program's garbage to scan
        gc.freeze()
        # a warm-up pass, checked but not timed, creates the output files and fills caches
        runner.timed = False
        one_pass(-1, traced=False)
        runner.timed = True

        # stop where the next iteration would end nearer past the deadline than before it
        deadline = time.perf_counter() + args.seconds
        n = 0
        last = time.perf_counter()
        while n < (2 if args.trace else 1) or time.perf_counter() + (
                time.perf_counter() - last) / 2 < deadline:
            last = time.perf_counter()
            one_pass(n, traced=bool(args.trace) and n % 2 == 1)
            n += 1

    for problem in runner.problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    if not runner.attempted:
        print("error: no operation was attempted", file=sys.stderr)
        return 2

    if args.trace:
        overhead = statistics.median(iteration_cpu[True]) - statistics.median(iteration_cpu[False])
        metrics = per_layer(traced_iterations, overhead)
        traces = ROOT / ".bench_work" / "traces"
        write_spans(all_spans, traces / f"{args.workload}-{args.seed}.jsonl.gz")
    else:
        metrics = end_to_end(runner, setup_times)
    workloads.clear(work)

    counts = {k: f"{len(v)} calls, {sum(v):.3f} s CPU, {runner.wall[k]:.3f} s wall, "
                 f"median {statistics.median(v):.6g} s CPU unscaled"
              for k, v in runner.raw.items()}
    print(f"# {args.workload} seed={args.seed} ops={counts} inputs={json.dumps(workload.sizes)}")
    for traced, times in iteration_cpu.items():
        if times:
            print(f"# {'traced' if traced else 'untraced'} iterations (CPU s): "
                  + " ".join(f"{t:.3f}" for t in times))
    print(f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"platform={platform.platform()}")
    if runner.calibrations:
        quartiles = statistics.quantiles(runner.calibrations, n=4) \
            if len(runner.calibrations) > 1 else runner.calibrations * 3
        print(f"# calibration (CPU s, reference {REFERENCE_S:g}): "
              + " ".join(f"{q:.6g}" for q in quartiles))
    if not args.trace:
        print(f"{'error_rate':40s} {runner.failed / runner.attempted:>14.6g} ratio "
              f"({runner.failed}/{runner.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>14.6g} {unit}")
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
