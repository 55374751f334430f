"""Command-line surface: gen, solve, bounds, construct, verify, experiment.

Exit codes: 0 success, 1 invalid input or unsatisfiable request, 2 budget
or resample cap exhausted, 3 output failed its own verification (a bug in
this package, please report it).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

from . import constructions, exact, experiments, formats
from .graphs import Graph, KneserSpec, from_spec
from .lll import DegenerateParamsError
from .verify import (
    check_domination,
    check_dynamic,
    check_proper,
    violations_to_json,
)


class _ExitCode:
    OK = 0
    INVALID = 1
    EXHAUSTED = 2
    CERTIFICATION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_ExitCode.INVALID)


def _load_graph(value: str, seed: int) -> Graph:
    path = Path(value)
    if path.exists():
        return formats.read_graph_text(path.read_text())
    return from_spec(value, seed)


def _emit(payload: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(text_lines))


# ----------------------------------------------------------------------
# Subcommand handlers
# ----------------------------------------------------------------------


def _cmd_gen(args) -> int:
    g = from_spec(args.spec, args.seed)
    text = (
        formats.write_dimacs(g)
        if args.output_format == "dimacs"
        else formats.write_edge_list(g)
    )
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return _ExitCode.OK


def _certify(violations: list, what: str) -> None:
    """Refuse to print a solver's answer that fails its own check."""
    if violations:
        raise constructions.CertificationError(f"{what} failed its check", violations)


def _cmd_solve(args) -> int:
    g = _load_graph(args.graph, args.seed)
    if args.problem == "chi":
        res = exact.chromatic_number(g, args.budget)
    elif args.problem == "chid":
        res = exact.dynamic_chromatic_number(g, args.budget)
    else:  # double-total
        subset = constructions.double_total_subset(g, args.budget, args.seed)
        if subset is not None:
            _certify(check_domination(g, subset, "double_total"), "double total set")
        payload = {
            "found": subset is not None,
            "members": list(subset) if subset is not None else None,
        }
        lines = (
            [f"double total dominating set: {list(subset)}"]
            if subset is not None
            else ["no double total dominating set exists (certified)"]
        )
        _emit(payload, args.format, lines)
        return _ExitCode.OK
    payload = res.to_json_dict()
    if res.exhausted:
        lines = [f"budget exhausted after {res.nodes_explored} nodes; bounds {res.bounds}"]
        _emit(payload, args.format, lines)
        return _ExitCode.EXHAUSTED
    checker = check_proper if args.problem == "chi" else check_dynamic
    _certify(checker(g, res.witness), f"{args.problem} witness")
    lines = [
        f"{args.problem} = {res.value} ({res.nodes_explored} nodes explored)",
        f"witness: {list(res.witness.colors)}",
    ]
    _emit(payload, args.format, lines)
    return _ExitCode.OK


def _cmd_bounds(args) -> int:
    g = _load_graph(args.graph, args.seed)
    report = constructions.bound_report(g, budget=args.budget)
    payload = report.to_json_dict()
    lines = [f"graph: {payload['graph']}"]
    for rec in report.records:
        status = f"<= {rec.value}" if rec.applicable else "not applicable"
        basis = f" [{rec.basis}]" if rec.basis else ""
        lines.append(f"  {rec.name}: {status}{basis}  ({rec.source})")
    best = report.best()
    lines.append(f"best applicable bound: {best}")
    _emit(payload, args.format, lines)
    return _ExitCode.OK


def _output_coloring(g: Graph, coloring, fmt: str, extra: Optional[dict] = None) -> None:
    violations = check_dynamic(g, coloring)
    certificates = [{"check": "dynamic", "violations": len(violations)}]
    payload = formats.coloring_to_json_dict(g, coloring, certificates)
    if extra:
        payload.update(extra)
    lines = [
        f"palette_size: {coloring.palette_size}, colors_used: {coloring.colors_used}",
        f"dynamic check violations: {len(violations)}",
        f"assignment: {list(coloring.colors)}",
    ]
    _emit(payload, fmt, lines)


def _cmd_construct(args) -> int:
    budget = args.budget
    if args.kind == "kneser":
        result = constructions.kneser_dynamic_coloring(
            KneserSpec(args.m, args.n), budget=budget, seed=args.seed
        )
        extra = {
            "colors_used": result.colors_used,
            "max_colors": result.max_colors,
            "gap": result.gap,
        }
        _output_coloring(result.graph, result.coloring, args.format, extra)
        return _ExitCode.OK

    g = _load_graph(args.graph, args.seed)
    if args.kind == "product":
        coloring = constructions.neighborhood_product_coloring(g, budget, args.seed)
        _output_coloring(g, coloring, args.format)
        return _ExitCode.OK

    if args.kind == "compose":
        coloring, subset = constructions.double_total_coloring(g, budget, args.seed)
        _output_coloring(g, coloring, args.format, {"subset": list(subset)})
        return _ExitCode.OK

    # balanced
    try:
        result = constructions.balanced_coloring(
            g, budget, args.seed, args.c_prime, args.clamp_p
        )
    except DegenerateParamsError:
        raise ValueError(
            f"membership probability c' ln(k)/k >= 1 at k={g.regular_degree()}; "
            "pass --clamp-p to run a clamped experiment"
        ) from None
    params = result.resample_log.params
    if params["p_clamped"]:
        print(
            f"note: membership probability c' ln(k)/k >= 1 at k={params['k']}; "
            "clamped to 0.5",
            file=sys.stderr,
        )
    extra = {
        "subset": list(result.subset),
        "color_bound": result.color_bound,
        "resamples": result.resample_log.resample_count,
    }
    _output_coloring(g, result.coloring, args.format, extra)
    return _ExitCode.OK


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph, args.seed)
    data = json.loads(Path(args.coloring).read_text())
    coloring = formats.coloring_from_json_dict(data)
    recorded, loaded = data.get("graph_id"), formats.graph_id(g)
    if recorded is not None and recorded != loaded:
        raise formats.FormatError(
            f"coloring record is for graph_id {recorded}, not {loaded}"
        )
    checker = check_dynamic if args.check == "dynamic" else check_proper
    violations = checker(g, coloring)
    payload = {"check": args.check, "violations": violations_to_json(violations)}
    lines = [f"{args.check} check: {len(violations)} violation(s)"]
    lines.extend(f"  {v.kind} at {v.witness}" for v in violations)
    _emit(payload, args.format, lines)
    return _ExitCode.OK


def _cmd_experiment(args) -> int:
    if args.experiment == "gnp-triangles":
        report = experiments.run_gnp_triangle_experiment(
            args.n, args.p, args.trials, args.seed
        )
    else:
        family = (
            "all_cubic_connected" if args.family == "cubic" else "random_regular"
        )
        report = experiments.conjecture_scan(
            family,
            seed=args.seed,
            budget=args.budget,
            max_n=args.max_n,
            k=args.k,
            n=args.n,
            trials=args.trials,
        )
    if args.format == "csv":
        sys.stdout.write(report.to_csv())
        return _ExitCode.OK
    lines = [
        f"experiment: {report.name}",
        f"parameters: {report.parameters} (seed {report.master_seed})",
    ]
    lines.extend(f"  {key}: {value}" for key, value in report.aggregates.items())
    _emit(report.to_json_dict(), args.format, lines)
    return _ExitCode.OK


# ----------------------------------------------------------------------
# Parser assembly
# ----------------------------------------------------------------------


_SEED_HELP = "seed of randomized graph specs and of resampling (default 0)"
_BUDGET_HELP = "exact-search node budget (default: unlimited)"
_UNUSED_BUDGET_HELP = "accepted but unused: this command runs no search"
_MASTER_SEED_HELP = "master seed; each trial derives its own from it (default 0)"


def _add_common(
    p: argparse.ArgumentParser, graph: bool = True, budget_help: str = _BUDGET_HELP
) -> None:
    if graph:
        p.add_argument(
            "--graph",
            required=True,
            help="graph file (DIMACS or edge list) or generator spec like cycle:8",
        )
    p.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    p.add_argument("--budget", type=int, help=budget_help)
    p.add_argument("--format", choices=["json", "text"], default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dynachrome",
        description="dynamic graph coloring toolkit: generators, exact solvers, "
        "resampling constructions, certified bounds, experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph and write it out")
    p.add_argument("spec", help="generator spec, e.g. kneser:7,3 or gnp:200,0.5")
    p.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.add_argument(
        "--output-format", choices=["dimacs", "edgelist"], default="dimacs"
    )
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser(
        "solve",
        help="exact solvers; double-total resamples from --seed first, and "
        "--budget bounds only its exact fallback",
    )
    p.add_argument("problem", choices=["chi", "chid", "double-total"])
    _add_common(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("bounds", help="evaluate the upper-bound family")
    _add_common(p)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("construct", help="build certified dynamic colorings")
    kinds = p.add_subparsers(dest="kind", required=True)

    pk = kinds.add_parser("kneser", help="t+4 coloring of a disjointness graph")
    pk.add_argument("--m", type=int, required=True)
    pk.add_argument("--n", type=int, required=True)
    _add_common(pk, graph=False)
    pk.set_defaults(handler=_cmd_construct)

    for kind, help_text in [
        ("product", "pair a chi-witness with a neighborhood 2-coloring"),
        ("compose", "split on a double total dominating set"),
        ("balanced", "balanced-subset coloring of a regular graph"),
    ]:
        pc = kinds.add_parser(kind, help=help_text)
        _add_common(pc)
        if kind == "balanced":
            pc.add_argument("--c-prime", type=float, default=7.0)
            pc.add_argument("--clamp-p", action="store_true")
        pc.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("verify", help="check a coloring file against a graph")
    _add_common(p, budget_help=_UNUSED_BUDGET_HELP)
    p.add_argument("--coloring", required=True, help="coloring JSON file")
    p.add_argument("--check", choices=["proper", "dynamic"], default="dynamic")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("experiment", help="statistical experiments")
    ex = p.add_subparsers(dest="experiment", required=True)

    pe = ex.add_parser("gnp-triangles", help="triangle certificates on G(n,p)")
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--p", type=float, required=True)
    pe.add_argument("--trials", type=int, default=100)
    pe.add_argument("--seed", type=int, default=0, help=_MASTER_SEED_HELP)
    pe.add_argument("--budget", type=int, help=_UNUSED_BUDGET_HELP)
    pe.add_argument("--format", choices=["json", "text", "csv"], default="text")
    pe.set_defaults(handler=_cmd_experiment)

    pe = ex.add_parser("conjecture-scan", help="scan regular graphs for chi_d - chi")
    pe.add_argument("--family", choices=["cubic", "regular"], default="cubic")
    pe.add_argument("--max-n", type=int, default=12)
    pe.add_argument("--k", type=int, default=3)
    pe.add_argument("--n", type=int)
    pe.add_argument("--trials", type=int, default=50)
    pe.add_argument("--seed", type=int, default=0, help=_MASTER_SEED_HELP)
    pe.add_argument("--budget", type=int, help=_BUDGET_HELP)
    pe.add_argument("--format", choices=["json", "text", "csv"], default="text")
    pe.set_defaults(handler=_cmd_experiment)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on first use rather than at import."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command and return its exit code.

    The parser is built on the first call and reused by every later call in
    the process, so the handlers are bound then: to stub a command's work,
    patch the library functions its handler calls, not ``cli._cmd_*``.
    No environment variable sets the budget: without ``--budget`` the
    searches are unlimited, and a negative ``--budget`` exits 1.
    """
    try:
        args = _parser().parse_args(argv)
        if getattr(args, "budget", None) is not None and args.budget < 0:
            raise ValueError(f"--budget must be >= 0, got {args.budget}")
        return args.handler(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        # Covers malformed files, bad specs, and failed preconditions.
        print(f"invalid input: {exc}", file=sys.stderr)
        return _ExitCode.INVALID
    except (exact.SearchBudgetExceeded, constructions.ConstructionError) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return _ExitCode.EXHAUSTED
    except constructions.CertificationError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return _ExitCode.CERTIFICATION


if __name__ == "__main__":
    sys.exit(main())
