"""Independent re-certification of dynachrome outputs.

Nothing here imports dynachrome.  The graphs are rebuilt from the same
spec and seed by this file's own generators (the randomized ones replay
the same pseudo-random draws, so they yield the same vertex ids), and
every claim an output makes is checked against them: proper and dynamic
assignments, the record's ``graph_id``, palette bounds, exact witnesses,
and experiment aggregates recomputed from their trial rows.

``classify`` turns one CLI invocation (exit code or escaped exception,
plus captured stdout) into an ``Outcome``.  A claim that fails its check
is an ``error`` with ``problems`` set; that makes the whole run incorrect.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

SOLVED = ("certified", "value", "none", "report")


# ----------------------------------------------------------------------
# Graphs: n plus a tuple of sorted neighbor tuples
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RefGraph:
    n: int
    adj: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges) -> "RefGraph":
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        return cls(n, tuple(tuple(sorted(a)) for a in adj))

    def edges(self):
        for u, nbrs in enumerate(self.adj):
            for v in nbrs:
                if v > u:
                    yield u, v

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2


def kneser_graph(m: int, n: int) -> RefGraph:
    """n-subsets of {1..m} in lexicographic order, joined when disjoint.

    Neighbors are enumerated as n-subsets of each vertex's complement, so
    the cost is N * C(m - n, n) rather than the N^2 pair test.
    """
    subsets = list(itertools.combinations(range(1, m + 1), n))
    index = {frozenset(s): i for i, s in enumerate(subsets)}
    full = set(range(1, m + 1))
    adj = []
    for s in subsets:
        rest = sorted(full - set(s))
        adj.append(tuple(sorted(index[frozenset(c)] for c in itertools.combinations(rest, n))))
    return RefGraph(len(subsets), tuple(adj))


def gnp_graph(n: int, p: float, seed: int) -> RefGraph:
    rng = random.Random(seed)
    return RefGraph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def random_regular_graph(n: int, k: int, seed: int, max_retries: int = 1000) -> RefGraph:
    """Pairing model with repair rounds, replaying the generator's draws:
    shuffle the stubs, pair them off, throw bad pairs back for the next
    round, and restart from scratch when a round leaves only unusable pairs."""
    rng = random.Random(seed)
    for _ in range(max_retries):
        edges: set[tuple[int, int]] = set()
        stubs = list(range(n)) * k
        stuck = False
        while stubs and not stuck:
            leftover: dict[int, int] = defaultdict(int)
            rng.shuffle(stubs)
            it = iter(stubs)
            for a, b in zip(it, it):
                a, b = min(a, b), max(a, b)
                if a != b and (a, b) not in edges:
                    edges.add((a, b))
                else:
                    leftover[a] += 1
                    leftover[b] += 1
            ends = sorted(leftover)
            stuck = bool(leftover) and all(
                (a, b) in edges for i, a in enumerate(ends) for b in ends[i + 1:]
            )
            stubs = [v for v, c in leftover.items() for _ in range(c)]
        if not stuck:
            return RefGraph.from_edges(n, edges)
    raise RuntimeError(f"random_regular({n},{k}) gave up")


def graph_from_spec(spec: str, seed: int) -> RefGraph:
    family, _, args = spec.partition(":")
    a, b = args.split(",")
    if family == "kneser":
        return kneser_graph(int(a), int(b))
    if family == "random_regular":
        return random_regular_graph(int(a), int(b), seed)
    if family == "gnp":
        return gnp_graph(int(a), float(b), seed)
    raise ValueError(f"no reference generator for {spec!r}")


def graph_hash(g: RefGraph) -> str:
    """The ``graph_id`` a coloring record must carry for this graph."""
    payload = f"{g.n};" + ";".join(f"{u},{v}" for u, v in g.edges())
    return f"n{g.n}-m{g.edge_count}-{hashlib.sha256(payload.encode()).hexdigest()[:12]}"


# ----------------------------------------------------------------------
# Certificate checks; each returns a list of problem strings
# ----------------------------------------------------------------------


def assignment_problems(g: RefGraph, colors, palette: int, dynamic: bool) -> list[str]:
    if not isinstance(colors, list) or len(colors) != g.n:
        return [f"assignment must list {g.n} colors"]
    if any(not isinstance(c, int) or not 0 <= c < palette for c in colors):
        return [f"assignment leaves palette range({palette})"]
    out = [f"improper edge {u},{v}" for u, v in g.edges() if colors[u] == colors[v]]
    if dynamic:
        out += [
            f"monochromatic neighborhood at {v}"
            for v, nbrs in enumerate(g.adj)
            if len(nbrs) >= 2 and len({colors[u] for u in nbrs}) < 2
        ]
    return out[:5]


def dynamic_violation_count(g: RefGraph, colors) -> int:
    improper = sum(1 for u, v in g.edges() if colors[u] == colors[v])
    mono = sum(1 for nbrs in g.adj if len(nbrs) >= 2 and len({colors[u] for u in nbrs}) < 2)
    return improper + mono


def double_total_problems(g: RefGraph, members) -> list[str]:
    inside = set(members)
    bad = [
        v for v, nbrs in enumerate(g.adj)
        if not any(u in inside for u in nbrs) or all(u in inside for u in nbrs)
    ]
    return [f"subset misses both sides at {v}" for v in bad[:5]]


def first_fit_coloring(g: RefGraph) -> list[int]:
    colors = [-1] * g.n
    for v in range(g.n):
        used = {colors[u] for u in g.adj[v]}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


def triangle_covered(g: RefGraph) -> int:
    sets = [set(a) for a in g.adj]
    return sum(
        1 for v in range(g.n) if any(sets[v] & sets[u] for u in g.adj[v])
    )


# ----------------------------------------------------------------------
# Outcome classification
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    outcome: str
    value: object = None            # the certified value the golden table pins
    palettes: list = field(default_factory=list)
    problems: list = field(default_factory=list)


@dataclass(frozen=True)
class Check:
    """What an instance's output must satisfy.

    kind: coloring | solve | double-total | scan | gnp | verify.
    ``spec``/``seed`` name the reference graph; ``params`` carries the
    kind-specific claims (palette limits, problem name, budget, ...).
    """

    kind: str
    spec: Optional[str] = None
    seed: int = 0
    params: tuple = ()

    def param(self, key, default=None):
        return dict(self.params).get(key, default)


class References:
    """Reference graphs built on first use and kept for the whole run."""

    def __init__(self):
        self._graphs: dict[tuple[str, int], RefGraph] = {}
        self.expected_violations: dict[str, int] = {}

    def graph(self, spec: str, seed: int) -> RefGraph:
        key = (spec, seed)
        if key not in self._graphs:
            self._graphs[key] = graph_from_spec(spec, seed)
        return self._graphs[key]


def classify(check: Check, exit_code, stdout: str, refs: References) -> Outcome:
    """Outcome of one invocation; ``exit_code`` is an int or the escaped exception."""
    if isinstance(exit_code, BaseException) or exit_code == 3:
        return Outcome("error")
    if exit_code == 1:
        return Outcome("invalid")
    if exit_code not in (0, 2):
        return Outcome("error", problems=[f"unexpected exit code {exit_code}"])
    if exit_code == 2 and check.kind != "solve":
        return Outcome("exhausted")
    try:
        data = json.loads(stdout)
    except json.JSONDecodeError:
        return Outcome("error", problems=["stdout is not one JSON document"])
    try:
        out = _CHECKERS[check.kind](check, exit_code, data, refs)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return Outcome("error", problems=[f"malformed output: {exc!r}"])
    if out.problems:
        out.outcome = "error"
    return out


def _check_coloring(check: Check, exit_code, data, refs) -> Outcome:
    g = refs.graph(check.spec, check.seed)
    palette = data["palette_size"]
    problems = assignment_problems(g, data["assignment"], palette, dynamic=True)
    if data["graph_id"] != graph_hash(g):
        problems.append(f"graph_id {data['graph_id']} does not match {graph_hash(g)}")
    if data["certificates"] != [{"check": "dynamic", "violations": 0}]:
        problems.append(f"certificates claim {data['certificates']}")
    max_colors = check.param("max_colors")
    if max_colors is not None:
        if data["max_colors"] != max_colors or palette > max_colors:
            problems.append(f"palette {palette} exceeds t+4 = {max_colors}")
        if data["colors_used"] != len(set(data["assignment"])):
            problems.append("colors_used disagrees with the assignment")
    if check.param("balanced"):
        # Any greedy chi witness has at most k + 1 colors, so the claimed
        # bound can never exceed (k + 1) + floor(2 c' ln k) + 1.
        degree = len(g.adj[0])
        ceiling = degree + 2 + math.floor(2 * check.param("c_prime") * math.log(degree))
        if not palette <= data["color_bound"] <= ceiling:
            problems.append(
                f"palette {palette}, color_bound {data['color_bound']}, ceiling {ceiling}"
            )
    if "subset" in data and not check.param("balanced"):
        problems += double_total_problems(g, data["subset"])
    return Outcome("certified", palettes=[palette], problems=problems)


def _check_solve(check: Check, exit_code, data, refs) -> Outcome:
    budget = check.param("budget")
    if exit_code == 2:
        problems = []
        if not data["exhausted"] or data["value"] is not None:
            problems.append("exit 2 without an exhausted result")
        if data["nodes_explored"] <= budget:
            problems.append(f"exhausted after {data['nodes_explored']} <= budget {budget} nodes")
        low, high = data["bounds"]
        if low > high:
            problems.append(f"empty bounds {data['bounds']}")
        return Outcome("exhausted", problems=problems)
    g = refs.graph(check.spec, check.seed)
    value = data["value"]
    dynamic = check.param("problem") == "chid"
    problems = assignment_problems(g, data["witness"], value, dynamic)
    if data["exhausted"] or data["nodes_explored"] > budget:
        problems.append("decided result claims exhaustion or overran the budget")
    floor = 3 if dynamic and any(len(a) >= 2 for a in g.adj) else 2 if g.edge_count else 1
    if value < floor:
        problems.append(f"value {value} is below the trivial lower bound {floor}")
    return Outcome("value", value=value, palettes=[value], problems=problems)


def _check_double_total(check: Check, exit_code, data, refs) -> Outcome:
    if not data["found"]:
        return Outcome("none", value=None)
    g = refs.graph(check.spec, check.seed)
    return Outcome("certified", problems=double_total_problems(g, data["members"]))


def _check_scan(check: Check, exit_code, data, refs) -> Outcome:
    rows = data["trials"]
    agg = data["aggregates"]
    n, k, master = check.param("n"), check.param("k"), data["master_seed"]
    problems = []
    if len(rows) != check.param("trials") or agg["instances"] != len(rows):
        problems.append("row count disagrees with the trial count")
    decided = [r for r in rows if not r["exhausted"]]
    for i, r in enumerate(rows):
        if r["seed"] != master * 1_000_003 + i or r["n"] != n or r["edges"] != n * k // 2:
            problems.append(f"row {i} does not describe trial {i}")
        if not r["exhausted"] and (r["gap"] != r["chi_d"] - r["chi"] or r["chi"] > r["chi_d"]):
            problems.append(f"row {i} gap inconsistent")
    max_gap = max((r["gap"] for r in decided), default=None)
    if agg["max_gap"] != max_gap or agg["budget_skips"] != len(rows) - len(decided):
        problems.append("aggregates do not match the trial rows")
    if len(agg["counterexamples"]) > sum(1 for r in decided if r["gap"] > 2):
        problems.append("counterexamples without a gap above 2")
    return Outcome(
        "report", value=max_gap, palettes=[r["chi_d"] for r in decided], problems=problems
    )


def _check_gnp(check: Check, exit_code, data, refs) -> Outcome:
    rows = data["trials"]
    agg = data["aggregates"]
    n, p, trials, master = check.param("n"), check.param("p"), check.param("trials"), data["master_seed"]
    problems = []
    if len(rows) != trials:
        problems.append("row count disagrees with the trial count")
    for i, r in enumerate(rows):
        if r["seed"] != master * 1_000_003 + i:
            problems.append(f"row {i} seed is not derived from the master seed")
        if r["certified"] != (r["covered_fraction"] == 1.0):
            problems.append(f"row {i} certified flag disagrees with its coverage")
    certified = sum(1 for r in rows if r["certified"])
    expected = {
        "certified_count": certified,
        "certified_rate": certified / trials,
        "mean_covered_fraction": sum(r["covered_fraction"] for r in rows) / trials,
        "analytic_uncovered_bound": n * (1 - p**3) ** ((n - 2) / 2),
    }
    for key, want in expected.items():
        if not math.isclose(agg[key], want, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"aggregate {key} = {agg[key]}, rows give {want}")
    # One trial re-derived from scratch: its graph, coverage and palette range.
    g = gnp_graph(n, p, rows[0]["seed"])
    if triangle_covered(g) / n != rows[0]["covered_fraction"]:
        problems.append("trial 0 coverage differs from the reference graph")
    max_degree = max(len(a) for a in g.adj)
    if not 1 <= rows[0]["greedy_colors"] <= max_degree + 1:
        problems.append("trial 0 greedy palette is outside [1, max degree + 1]")
    return Outcome(
        "report", value=certified, palettes=[r["greedy_colors"] for r in rows], problems=problems
    )


def _check_verify(check: Check, exit_code, data, refs) -> Outcome:
    want = refs.expected_violations[check.param("coloring")]
    got = len(data["violations"])
    problems = [] if got == want and data["check"] == "dynamic" else [
        f"verify reports {got} violation(s), the reference check finds {want}"
    ]
    return Outcome("report", value=got, problems=problems)


_CHECKERS = {
    "coloring": _check_coloring,
    "solve": _check_solve,
    "double-total": _check_double_total,
    "scan": _check_scan,
    "gnp": _check_gnp,
    "verify": _check_verify,
}
