#!/usr/bin/env python3
"""dynachrome benchmark: four certified workloads, end to end and per layer.

    python3 perfbench/run.py --workload kneser --seed 0 --seconds 10 --trace 0

Each workload is a closed loop over a fixed instance list: one
``dynachrome.cli.main`` call at a time, in this process, on one thread,
with stdout captured and every output re-certified by checker.py.  A run
repeats the pass at least three times and for at least ``--seconds``;
later passes must reproduce the first pass's outputs byte for byte, and
times are taken from each instance's fastest call (see ``fastest_pass``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes traced by tracing.py and prints per-layer
metrics (medians over the traced passes), including the tracing overhead
(traced minus untraced pass wall time).  At the default seed every outcome is compared with golden.json.

Human-readable detail goes to stderr; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no caches in the checkout; every import compiles alike

import argparse
import hashlib
import importlib
import io
import json
import resource
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import workloads
from checker import SOLVED, References, classify
from tracing import COUNTERS, LAYERS, Tracer, layer_metrics, write_spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
GOLDEN = BENCH_DIR / "golden.json"
MIN_PASSES = 3
SETUP_REPEATS = 3       # at least this many set-ups, and at least SETUP_SECONDS of them
SETUP_SECONDS = 1.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "solved_rate": "ratio",
    "ok_rate": "ratio",
    "palette_mean": "colors",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        for key in COUNTERS[layer]:
            units[f"{layer}.{key}"] = "bytes" if key.startswith("bytes") else "count"
    units.update({
        "graphs.edges_per_s": "1/s",
        "verify.items_per_s": "1/s",
        "exact.nodes_per_s": "1/s",
        "exact.decided_ratio": "ratio",
        "lll.resamples_per_s": "1/s",
        "experiments.trials_per_s": "1/s",
        "formats.bytes_per_s": "bytes/s",
        "cli.output_bytes": "bytes",
        "trace.overhead_s": "s",
        "trace.spans": "count",
    })
    return units


# ----------------------------------------------------------------------
# Driving the CLI
# ----------------------------------------------------------------------


def import_dynachrome():
    """A fresh import of ``dynachrome.cli`` from this checkout's ``src``."""
    for name in [k for k in sys.modules if k == "dynachrome" or k.startswith("dynachrome.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("dynachrome.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"dynachrome was imported from {cli.__file__}, not from {src}")
    return cli


@dataclass
class Call:
    code: object        # exit code, or the exception that escaped cli.main
    stdout: str
    wall: float
    cpu: float

    def digest(self) -> str:
        code = type(self.code).__name__ if isinstance(self.code, BaseException) else self.code
        return hashlib.sha256(f"{code}\0{self.stdout}".encode()).hexdigest()[:16]


def _on_reserved_stack(fn):
    return fn()


# CPython 3.11 keeps frames in chunks of 16 KiB or more and frees a chunk as
# soon as the stack unwinds below it, so a recursive search that keeps
# crossing a chunk boundary pays an mmap/munmap pair per crossing and runs up
# to five times slower, at depths set by whatever the caller's stack holds.
# A frame declaring 2**17 stack slots is placed on a fresh 2 MiB chunk with
# about 1 MiB left above it, more than a call can use before the recursion
# limit, so no chunk boundary falls inside a measured call.
_on_reserved_stack.__code__ = _on_reserved_stack.__code__.replace(co_stacksize=1 << 17)


def invoke(cli, argv) -> Call:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            code = _on_reserved_stack(lambda: cli.main(list(argv)))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # escaped the CLI's contract: an `error` outcome
            # Keep the exception but not its frames: a RecursionError's
            # traceback holds a thousand frames and their locals, which every
            # later pass would otherwise keep alive.
            exc.__traceback__ = exc.__context__ = exc.__cause__ = None
            code = exc
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    return Call(code, out.getvalue(), wall, cpu)


def setup(workload: str, seed: int, tiny: bool):
    """Import dynachrome and build the workload's inputs; returns the pieces."""
    cli = import_dynachrome()
    refs = References()
    if workload == "gnp":
        workdir = OUT_DIR / f"inputs-{workload}-seed{seed}{'-tiny' if tiny else ''}"

        def run_cli(argv):
            call = invoke(cli, argv)
            return call.code, call.stdout

        instances = workloads.gnp(seed, tiny, workdir, refs, run_cli)
    else:
        instances = getattr(workloads, workload)(seed, tiny)
    return cli, refs, instances


def run_pass(cli, instances, tracer: Tracer | None = None) -> list[Call]:
    calls = []
    for i, inst in enumerate(instances):
        if tracer is not None:
            tracer.instance = i
        calls.append(invoke(cli, inst.argv))
    return calls


# ----------------------------------------------------------------------
# Checks: certification, repeatability, golden outcomes
# ----------------------------------------------------------------------


def golden_problems(workload: str, instances, outcomes) -> list[str]:
    """A certified result may not change value or become unsolved; an
    exhausted or invalid one may not become an error.  Unsolved to solved
    is allowed."""
    table = json.loads(GOLDEN.read_text())[workload]
    rank = {"error": 0, "invalid": 1, "exhausted": 1}
    problems = []
    for inst, got in zip(instances, outcomes):
        want = table.get(inst.label)
        if want is None:
            problems.append(f"{inst.label}: no golden outcome recorded")
        elif want["outcome"] in SOLVED:
            if got.outcome not in SOLVED or got.value != want["value"]:
                problems.append(f"{inst.label}: golden {want}, got {got.outcome} {got.value!r}")
        elif got.outcome not in SOLVED and rank[got.outcome] < rank[want["outcome"]]:
            problems.append(f"{inst.label}: golden {want['outcome']}, got {got.outcome}")
    return problems


def repeat_problems(tag: str, first: list[Call], later: list[Call], instances) -> list[str]:
    return [
        f"{inst.label}: {tag} output differs from the first pass"
        for inst, a, b in zip(instances, first, later)
        if a.digest() != b.digest()
    ]


def fingerprint(instances, outcomes, calls: list[Call]) -> str:
    rows = [(i.label, o.outcome, o.value, c.digest()) for i, o, c in zip(instances, outcomes, calls)]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# A run
# ----------------------------------------------------------------------


def fastest_pass(passes: list[list[Call]], attr: str) -> float:
    """One pass's time, estimated as the sum of each instance's fastest call.

    The sandbox runs at one of two speeds about 1.4x apart and switches
    every few seconds, so noise only ever adds time; the per-instance
    minimum halves the run-to-run spread that per-instance medians leave.
    """
    return sum(min(getattr(p[i], attr) for p in passes) for i in range(len(passes[0])))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 check_golden: bool = True, log=sys.stderr) -> dict:
    repeats, min_seconds = (1, 0.0) if trace else (SETUP_REPEATS, SETUP_SECONDS)
    setup_times = []
    while len(setup_times) < repeats or sum(setup_times) < min_seconds:
        t0 = time.perf_counter()
        cli, refs, instances = setup(workload, seed, tiny)
        setup_times.append(time.perf_counter() - t0)

    start = time.perf_counter()
    first = run_pass(cli, instances)
    outcomes = [classify(inst.check, c.code, c.stdout, refs) for inst, c in zip(instances, first)]
    problems = [f"{inst.label}: {p}" for inst, o in zip(instances, outcomes) for p in o.problems]
    if check_golden and seed == workloads.DEFAULT_SEED and not tiny:
        problems += golden_problems(workload, instances, outcomes)

    # A traced run alternates untraced and traced passes, two of each at least.
    untraced, traced, span_passes = [first], [], []
    tracer = Tracer()
    min_passes = 4 if trace else MIN_PASSES
    while len(untraced) + len(traced) < min_passes or time.perf_counter() - start < seconds:
        if trace and len(traced) < len(untraced):
            tracer.install()
            try:
                calls = run_pass(cli, instances, tracer)
            finally:
                tracer.uninstall()
            traced.append(calls)
            span_passes.append(tracer.take())
            problems += repeat_problems("traced", first, calls, instances)
        else:
            calls = run_pass(cli, instances)
            untraced.append(calls)
            problems += repeat_problems(f"pass {len(untraced)}", first, calls, instances)

    n_passes = len(untraced) + len(traced)
    errors = sum(o.outcome == "error" for o in outcomes)
    print(f"{workload} seed {seed}: {len(instances)} instances x {n_passes} passes", file=log)
    for i, (inst, o) in enumerate(zip(instances, outcomes)):
        walls = sorted(p[i].wall for p in untraced)
        print(f"  {walls[0]:8.3f} s (median {statistics.median(walls):.3f}, max {walls[-1]:.3f})"
              f"  {o.outcome:9s} {str(o.value):>5s}  {inst.label}", file=log)
    walls = " ".join(f"{sum(c.wall for c in p):.3f}" for p in untraced)
    print(f"untraced pass walls (s): {walls}", file=log)
    if traced:
        walls = " ".join(f"{sum(c.wall for c in p):.3f}" for p in traced)
        print(f"traced pass walls (s): {walls}", file=log)
    prints = fingerprint(instances, outcomes, first)
    print(f"fingerprint {prints}", file=log)

    if trace:
        layers = [layer_metrics(spans) for spans in span_passes]
        for a, b in zip(layers, layers[1:]):
            for layer in LAYERS:
                for key in COUNTERS[layer]:
                    name = f"{layer}.{key}"
                    if a[name] != b[name]:
                        problems.append(f"counter {name} differs between traced passes")
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["cli.output_bytes"] = sum(len(c.stdout.encode()) for c in first)
        metrics["trace.overhead_s"] = fastest_pass(traced, "wall") - fastest_pass(untraced, "wall")
        metrics["trace.spans"] = len(span_passes[0])
        write_spans(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl", span_passes)
        units = per_layer_units()
    else:
        palettes = [p for o in outcomes for p in o.palettes]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": fastest_pass(untraced, "wall"),
            "cpu_s": fastest_pass(untraced, "cpu"),
            "solved_rate": sum(o.outcome in SOLVED for o in outcomes) / len(outcomes),
            "ok_rate": 1 - errors / len(outcomes),
            "palette_mean": sum(palettes) / len(palettes) if palettes else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS

    for p in problems:
        print(f"CHECK FAILED {p}", file=log)
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}", file=log)
    return {
        "correct": not problems,
        "attempted": len(instances) * n_passes,
        "failed": errors * n_passes,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "_fingerprint": prints,
        "_outcomes": outcomes,
        "_instances": instances,
    }


def record_golden(workload: str, result: dict) -> None:
    table = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    table[workload] = {
        inst.label: {"outcome": o.outcome, "value": o.value}
        for inst, o in zip(result["_instances"], result["_outcomes"])
    }
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite this workload's golden outcomes (default seed only)")
    args = parser.parse_args(argv)
    if args.record_golden and args.seed != workloads.DEFAULT_SEED:
        parser.error("golden outcomes are recorded at the default seed")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          check_golden=not args.record_golden)
    if args.record_golden:
        record_golden(args.workload, result)
    print(json.dumps({k: v for k, v in result.items() if not k.startswith("_")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
