"""Assembling certified dynamic colorings from partitions and products.

Every routine here re-checks its own output through the verify module
before returning it: a construction whose result fails verification is an
internal bug and raises CertificationError (never a silent bad coloring).
Bad *inputs* raise PreconditionError carrying the violation list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .exact import (
    SearchBudgetExceeded,
    chromatic_number,
    exact_double_total_dominating,
    greedy_coloring,
    hypergraph_2color_exact,
    is_k_critical,
)
from .graphs import (
    Graph,
    Hypergraph,
    KneserSpec,
    VertexSubset,
    bipartition,
    dsatur_order,
    induced_subgraph,
    is_connected,
    neighborhood_hypergraph,
    vertices_in_triangles,
)
from .lll import (
    LllParams,
    ResampleLog,
    find_balanced_subset,
    find_double_total_dominating,
    moser_tardos_2color,
)
from .verify import (
    Coloring,
    Violation,
    check_domination,
    check_dynamic,
    check_hypergraph_2coloring,
    check_proper,
)

__all__ = [
    "PreconditionError",
    "ConstructionError",
    "CertificationError",
    "compose_disjoint_palettes",
    "product_coloring",
    "partial_product_coloring",
    "chi_witness",
    "hypergraph_2coloring",
    "kneser_dynamic_coloring",
    "KneserColoringResult",
    "neighborhood_product_coloring",
    "double_total_coloring",
    "balanced_subset_coloring",
    "balanced_coloring",
    "BalancedColoringResult",
    "triangle_certificate",
    "TriangleCertificate",
    "BoundRecord",
    "BoundContext",
    "BoundReport",
    "bound_report",
]

# Graphs up to this many vertices get an exact chi witness (within budget).
EXACT_LIMIT = 28
# bound_report tests k-criticality only on graphs up to this many vertices.
CRITICALITY_LIMIT = 12


class PreconditionError(ValueError):
    """An input failed its contract; ``violations`` lists the evidence."""

    def __init__(self, message: str, violations: Sequence[Violation] = ()):
        self.violations = list(violations)
        if self.violations:
            message = f"{message}: {self.violations}"
        super().__init__(message)


class ConstructionError(RuntimeError):
    """The pipeline could not produce its intermediate structure (for
    example, the resampler exhausted its cap)."""


class CertificationError(RuntimeError):
    """A construction's own output failed verification: an internal bug."""

    def __init__(self, message: str, violations: Sequence[Violation] = ()):
        self.violations = list(violations)
        super().__init__(message)


def _certify_dynamic(g: Graph, c: Coloring, what: str) -> Coloring:
    violations = check_dynamic(g, c)
    if violations:
        raise CertificationError(f"{what} failed its dynamic check", violations)
    return c


def _check_sides(g: Graph, t: VertexSubset, inside: Coloring, outside: Coloring) -> None:
    """Require ``inside`` proper on G[T] and ``outside`` on G[V - T]."""
    bad = check_proper(induced_subgraph(g, t)[0], inside)
    if bad:
        raise PreconditionError("inside coloring is not proper on G[T]", bad)
    bad = check_proper(induced_subgraph(g, t.complement())[0], outside)
    if bad:
        raise PreconditionError("outside coloring is not proper on G[V - T]", bad)


def _glue(t: VertexSubset, inside: Coloring, outside: Coloring) -> Coloring:
    """Give T's members, in ascending id order, the colors of ``inside``
    and every other vertex, likewise, the colors of ``outside`` shifted
    past the inside palette.  Ascending id order is how induced_subgraph
    numbers G[T] and G[V - T]."""
    shift = inside.palette_size
    members = t.members
    ins, outs = iter(inside.colors), iter(outside.colors)
    colors = tuple(next(ins) if v in members else shift + next(outs) for v in range(t.n))
    return Coloring(colors, shift + outside.palette_size)


# ======================================================================
# Palette compositions
# ======================================================================


def compose_disjoint_palettes(
    g: Graph, t: VertexSubset, c_in: Coloring, c_out: Coloring
) -> Coloring:
    """Glue proper colorings of G[T] and G[V - T] on disjoint palettes.

    When T and its complement both touch every neighborhood, each vertex
    sees one neighbor colored from the inside palette and one from the
    (shifted) outside palette, so the glued coloring is dynamic and uses
    palette(c_in) + palette(c_out) colors.

    ``c_in`` and ``c_out`` are indexed by the induced subgraphs' vertex
    ids, i.e. ascending original-id order on T and on its complement.
    """
    dom = check_domination(g, t, "double_total")
    if dom:
        raise PreconditionError("subset is not double total dominating", dom)
    _check_sides(g, t, c_in, c_out)
    return _certify_dynamic(g, _glue(t, c_in, c_out), "disjoint-palette composition")


def product_coloring(g: Graph, c: Coloring, f: Coloring) -> Coloring:
    """Pair a proper coloring with a 2-coloring of the neighborhood
    hypergraph into a dynamic coloring on at most twice the palette.

    Vertex v gets the injective pair code 2*c(v) + f(v).  Properness comes
    from the c component; every vertex of degree >= 2 owns a hyperedge on
    which f is not constant, which forces two distinct neighbor colors.
    Vertices of degree < 2 carry no hyperedge and are exempt anyway.
    """
    bad = check_proper(g, c)
    if bad:
        raise PreconditionError("base coloring is not proper", bad)
    h = neighborhood_hypergraph(g)
    bad = check_hypergraph_2coloring(h, f)
    if bad:
        raise PreconditionError(
            "f is not a valid 2-coloring of the neighborhood hypergraph", bad
        )
    colors = tuple(2 * c[v] + f[v] for v in range(g.n))
    paired = Coloring(colors, 2 * c.palette_size)
    return _certify_dynamic(g, paired, "product coloring")


def partial_product_coloring(
    g: Graph, t: VertexSubset, c_t: Coloring, f: Coloring, c_out: Coloring
) -> Coloring:
    """Pair colors inside a total dominating set, fresh colors outside.

    Vertices of T get 2*c_t + f where f 2-colors the hypergraph of
    neighborhoods fully contained in T; the rest get colors shifted past
    the pair palette.  A vertex whose neighborhood sits inside T sees two
    f-values; any other vertex of degree >= 2 sees both palettes.  Total
    palette: 2*palette(c_t) + palette(c_out).

    ``f`` is indexed like the target-restricted neighborhood hypergraph,
    i.e. by T's members in ascending original-id order (same order as
    ``c_t``); ``c_out`` by the complement's members likewise.
    """
    dom = check_domination(g, t, "total")
    if dom:
        raise PreconditionError("subset is not total dominating", dom)
    _check_sides(g, t, c_t, c_out)
    h_t = neighborhood_hypergraph(g, target=t)
    bad = check_hypergraph_2coloring(h_t, f)
    if bad:
        raise PreconditionError(
            "f is not a valid 2-coloring of the T-restricted neighborhood hypergraph",
            bad,
        )
    pairs = Coloring(
        tuple(2 * a + b for a, b in zip(c_t.colors, f.colors)), 2 * c_t.palette_size
    )
    return _certify_dynamic(g, _glue(t, pairs, c_out), "partial product coloring")


# ======================================================================
# Family-specific pipelines
# ======================================================================


def hypergraph_2coloring(
    h: Hypergraph, budget: Optional[int] = None, seed: int = 0
) -> Optional[Coloring]:
    """A 2-coloring of ``h`` with no monochromatic edge.

    Exact search runs first; when its budget runs out, Moser-Tardos
    resampling takes over.  None means the exact search certified that no
    such coloring exists; ConstructionError means both gave up.
    """
    try:
        return hypergraph_2color_exact(h, budget)
    except SearchBudgetExceeded:
        f, log = moser_tardos_2color(h, seed=seed)
    if f is None:
        raise ConstructionError(
            f"hypergraph 2-coloring: exact search over budget and resampling "
            f"exhausted after {log.resample_count} resamples"
        )
    return f


@dataclass(frozen=True)
class KneserColoringResult:
    """Certified dynamic coloring of a triangle-free Kneser-type graph."""

    spec: KneserSpec
    graph: Graph
    tail_subset: VertexSubset
    coloring: Coloring
    colors_used: int
    max_colors: int           # t + 4
    chromatic_number: int     # m - 2n + 2, by the known formula

    @property
    def gap(self) -> int:
        return self.colors_used - self.chromatic_number


def kneser_dynamic_coloring(
    spec: KneserSpec, budget: int = 200_000, seed: int = 0
) -> KneserColoringResult:
    """Dynamic coloring of the disjointness graph on n-subsets with at
    most t + 4 colors, in the triangle-free regime 2n < m < 3n.

    The tail subset T holds the vertices avoiding {1..t}; it is always
    total dominating, and G[T] pairs each subset with its complement
    inside {t+1..m}, so a BFS 2-coloring shows it bipartite (checked at
    runtime, not assumed).  Outside T the minimum element, shifted to
    0-based, is a proper t-coloring.  The T-restricted neighborhood
    hypergraph is 2-colored by :func:`hypergraph_2coloring`.
    """
    t = spec.t
    if not 1 <= t < spec.n:
        raise ValueError(f"need 2n < m < 3n, got m={spec.m}, n={spec.n}")
    g = spec.graph()
    subsets = spec.vertex_subsets()
    tail = VertexSubset(
        frozenset(i for i, a in enumerate(subsets) if min(a) > t), g.n
    )
    g_tail, _ = induced_subgraph(g, tail)
    two = bipartition(g_tail)
    if two is None:
        raise CertificationError(
            f"induced graph on the tail subset of KG({spec.m},{spec.n}) is not bipartite"
        )
    c_t = Coloring.total(two, 2)
    comp = tail.complement()
    c_out = Coloring.total(
        [min(subsets[old]) - 1 for old in comp.sorted_members()], t
    )
    f = hypergraph_2coloring(neighborhood_hypergraph(g, target=tail), budget, seed)
    if f is None:
        raise CertificationError(
            "T-restricted neighborhood hypergraph is not 2-colorable"
        )
    coloring = partial_product_coloring(g, tail, c_t, f, c_out)
    return KneserColoringResult(
        spec=spec,
        graph=g,
        tail_subset=tail,
        coloring=coloring,
        colors_used=coloring.colors_used,
        max_colors=t + 4,
        chromatic_number=t + 2,
    )


def neighborhood_product_coloring(
    g: Graph, budget: Optional[int] = None, seed: int = 0
) -> Coloring:
    """Dynamic coloring on twice a chi witness's palette.

    A :func:`chi_witness` of ``g`` is paired by :func:`product_coloring`
    with a 2-coloring of the neighborhood hypergraph from
    :func:`hypergraph_2coloring`.  PreconditionError means that hypergraph
    is certified not 2-colorable; ConstructionError means its search and
    resampling both gave up.
    """
    c, _ = chi_witness(g, budget)
    f = hypergraph_2coloring(neighborhood_hypergraph(g), budget, seed)
    if f is None:
        raise PreconditionError("neighborhood hypergraph is not 2-colorable (certified)")
    return product_coloring(g, c, f)


def double_total_coloring(
    g: Graph, budget: Optional[int] = None, seed: int = 0
) -> tuple[Coloring, VertexSubset]:
    """Dynamic coloring on chi witnesses of G[T] and G[V - T], and its T.

    The double total dominating T comes from resampling, or from exact
    search when resampling exhausts its cap; :func:`chi_witness` colorings
    of both sides are glued by :func:`compose_disjoint_palettes`.  A vertex
    of degree <= 1 raises InfeasibleStructureError (a ValueError), a
    certified absence of T PreconditionError, and an exact search over
    budget SearchBudgetExceeded.
    """
    subset, _ = find_double_total_dominating(g, seed=seed)
    if subset is None:
        subset = exact_double_total_dominating(g, budget)
        if subset is None:
            raise PreconditionError("no double total dominating set exists (certified)")
    (c_in, _), (c_out, _) = _split_witnesses(g, subset, budget)
    return compose_disjoint_palettes(g, subset, c_in, c_out), subset


@dataclass(frozen=True)
class BalancedColoringResult:
    """Dynamic coloring built from a balanced subset of a regular graph."""

    coloring: Coloring
    subset: VertexSubset
    resample_log: ResampleLog
    color_bound: int  # palette(chi_witness) + floor(2 c' ln k) + 1


def balanced_subset_coloring(
    g: Graph, params: LllParams, chi_witness: Coloring
) -> BalancedColoringResult:
    """Color a k-regular graph with palette(chi_witness) + O(log k) colors.

    A balanced subset T (every vertex with neighbors on both sides and
    inside-degree below 2 c' ln k) bounds the degree of G[T], so a greedy
    pass colors it with at most floor(2 c' ln k) + 1 fresh colors; the
    rest keep their chi_witness colors on a shifted palette.  Every vertex
    then sees both palettes in its neighborhood.
    """
    bad = check_proper(g, chi_witness)
    if bad:
        raise PreconditionError("chi witness is not a proper coloring", bad)
    subset, log = find_balanced_subset(g, params)
    if subset is None:
        raise ConstructionError(
            f"balanced subset unavailable: resampling exhausted after "
            f"{log.resample_count} resamples (seed {log.seed})"
        )
    g_t, _ = induced_subgraph(g, subset)
    rest = Coloring(
        tuple(chi_witness[v] for v in subset.complement()), chi_witness.palette_size
    )
    combined = _glue(subset, greedy_coloring(g_t), rest)
    _certify_dynamic(g, combined, "balanced subset coloring")
    k = params.k
    bound = chi_witness.palette_size + math.floor(2 * params.c_prime * math.log(k)) + 1
    if combined.palette_size > bound:
        raise CertificationError(
            f"palette {combined.palette_size} exceeds the bound {bound}"
        )
    return BalancedColoringResult(combined, subset, log, bound)


def balanced_coloring(
    g: Graph,
    budget: Optional[int] = None,
    seed: int = 0,
    c_prime: float = 7.0,
    clamp_p: bool = False,
) -> BalancedColoringResult:
    """Dynamic coloring of a k-regular graph on a :func:`chi_witness`
    within ``budget`` plus at most floor(2 c' ln k) + 1 colors.

    :meth:`LllParams.for_degree` sets the subset sampler's bias c' ln(k)/k
    and ``seed``; with ``clamp_p`` a bias of 1 or more is clamped to 1/2,
    which ``resample_log.params["p_clamped"]`` records.  Then
    :func:`balanced_subset_coloring` runs.  A graph that is not regular,
    and parameters that ``for_degree`` rejects, raise ValueError; an
    unclamped bias of 1 or more raises DegenerateParamsError.
    """
    k = g.regular_degree()
    if k is None:
        raise ValueError("balanced construction needs a regular graph")
    params = LllParams.for_degree(k, c_prime=c_prime, seed=seed, clamp_p=clamp_p)
    witness, _ = chi_witness(g, budget)
    return balanced_subset_coloring(g, params, witness)


# ======================================================================
# Certificates and bound reports
# ======================================================================


@dataclass(frozen=True)
class TriangleCertificate:
    """Whether every vertex lies in a triangle (making any proper coloring
    dynamic); ``uncovered`` lists the vertices outside all triangles."""

    certified: bool
    uncovered: tuple[int, ...]


def triangle_certificate(g: Graph, c: Coloring) -> TriangleCertificate:
    """Certify chi_d = chi via triangles, re-checking rather than trusting.

    When every vertex lies in a triangle, its two triangle partners are
    adjacent, hence differently colored under any proper coloring.  The
    implication is still re-verified by running the dynamic check on ``c``.
    """
    violations = check_dynamic(g, c)
    improper = [v for v in violations if v.kind == "improper_edge"]
    if improper:
        raise PreconditionError("coloring is not proper", improper)
    covered = vertices_in_triangles(g)
    uncovered = tuple(v for v in range(g.n) if v not in covered)
    certified = not uncovered
    if certified and violations:
        raise CertificationError(
            "every vertex lies in a triangle yet the proper coloring "
            "failed the dynamic check",
            violations,
        )
    return TriangleCertificate(certified, uncovered)


@dataclass(frozen=True)
class BoundRecord:
    """One upper-bound formula: whether its hypothesis holds here, and its
    value when it does.  ``basis`` notes how any chromatic numbers inside
    the formula were obtained (exact or greedy over-estimate)."""

    name: str
    applicable: bool
    value: Optional[int]
    source: str
    basis: Optional[str] = None


@dataclass(frozen=True)
class BoundContext:
    """Optional precomputed facts that unlock the subset-based bounds."""

    chi: Optional[int] = None
    double_total: Optional[VertexSubset] = None
    total: Optional[VertexSubset] = None
    kneser: Optional[KneserSpec] = None
    critical_k: Optional[int] = None


@dataclass(frozen=True)
class BoundReport:
    records: tuple[BoundRecord, ...]
    graph_summary: dict

    def applicable(self) -> list[BoundRecord]:
        return [r for r in self.records if r.applicable]

    def best(self) -> Optional[int]:
        values = [r.value for r in self.applicable() if r.value is not None]
        return min(values, default=None)

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph_summary,
            "bounds": [
                {
                    "name": r.name,
                    "applicable": r.applicable,
                    "value": r.value,
                    "source": r.source,
                    "basis": r.basis,
                }
                for r in self.records
            ],
        }


def chi_witness(g: Graph, budget: Optional[int] = None) -> tuple[Coloring, str]:
    """A proper coloring of ``g`` and how it was obtained.

    Up to EXACT_LIMIT vertices an exact solve that decides within
    ``budget`` gives a coloring on chi(g) colors ("exact"); otherwise the
    DSATUR greedy coloring stands in ("greedy", an over-estimate of chi).
    """
    if g.n <= EXACT_LIMIT:
        res = chromatic_number(g, budget)
        if not res.exhausted:
            return res.witness, "exact"
    return greedy_coloring(g, dsatur_order(g)), "greedy"


def _split_witnesses(
    g: Graph, t: VertexSubset, budget: Optional[int]
) -> tuple[tuple[Coloring, str], tuple[Coloring, str]]:
    """:func:`chi_witness` of G[T] and of G[V - T], in that order."""
    inside, _ = induced_subgraph(g, t)
    outside, _ = induced_subgraph(g, t.complement())
    return chi_witness(inside, budget), chi_witness(outside, budget)


def _record(name: str, source: str, ok: bool, evaluate, *args) -> BoundRecord:
    """One bound record; ``evaluate(*args) -> (value, basis)`` runs only
    when the hypothesis holds, since a failed hypothesis claims no value
    and no basis."""
    value, basis = evaluate(*args) if ok else (None, None)
    return BoundRecord(name, ok, value, source, basis)


def bound_report(
    g: Graph,
    context: Optional[BoundContext] = None,
    budget: Optional[int] = None,
) -> BoundReport:
    """Evaluate the family of dynamic-chromatic upper bounds on one graph.

    Each record carries its applicability predicate's outcome; a bound
    whose hypothesis fails is never claimed.  Chromatic numbers inside
    formulas use context values when given, exact solves up to
    EXACT_LIMIT vertices, and greedy over-estimates beyond (greedy keeps
    every formula a valid upper bound).  Criticality is tested only up to
    CRITICALITY_LIMIT vertices.
    """
    ctx = context or BoundContext()
    delta = g.max_degree
    connected = is_connected(g)
    is_c5 = g.n == 5 and g.edge_count == 5 and g.regular_degree() == 2 and connected
    doubling_ok = g.n > 0 and math.e * delta * delta <= 2.0 ** (g.min_degree - 1)

    def doubled_chi():
        if ctx.chi is not None:
            return 2 * ctx.chi, "exact"
        witness, basis = chi_witness(g, budget)
        return 2 * witness.palette_size, basis

    def split(t: VertexSubset, inside_weight: int):
        (c_in, b_in), (c_out, b_out) = _split_witnesses(g, t, budget)
        return c_out.palette_size + inside_weight * c_in.palette_size, f"{b_out}/{b_in}"

    double_total, total, spec = ctx.double_total, ctx.total, ctx.kneser
    records = [
        _record(
            "max_degree_plus_one",
            "Δ+1 for connected graphs with Δ ≥ 4",
            connected and delta >= 4,
            lambda: (delta + 1, None),
        ),
        _record(
            "low_max_degree",
            "4 for connected graphs with Δ ≤ 3, the 5-cycle excepted",
            connected and g.n > 0 and delta <= 3 and not is_c5,
            lambda: (4, None),
        ),
        _record(
            "five_cycle_exact", "the 5-cycle needs exactly 5 colors", is_c5, lambda: (5, None)
        ),
        _record(
            "neighborhood_two_coloring", "2χ when e·Δ² ≤ 2^(δ−1)", doubling_ok, doubled_chi
        ),
        _record(
            "double_total_split",
            "χ(G[V−T]) + χ(G[T]) for a double total dominating T",
            double_total is not None and not check_domination(g, double_total),
            split,
            double_total,
            1,
        ),
        _record(
            "total_split_doubled",
            "χ(G[V−T]) + 2χ(G[T]) for a total dominating T under e·Δ² ≤ 2^(δ−1)",
            total is not None and doubling_ok and not check_domination(g, total, "total"),
            split,
            total,
            2,
        ),
        _record(
            "kneser_partition",
            "t+4 for the disjointness graph with 2n < m < 3n",
            spec is not None and 1 <= spec.t < spec.n,
            lambda: (spec.t + 4, None),
        ),
    ]

    critical_k = ctx.critical_k
    critical_basis = "context" if critical_k is not None else None
    if critical_k is None and doubling_ok and connected and 0 < g.n <= CRITICALITY_LIMIT:
        try:
            if is_k_critical(g, budget):
                critical_k = chromatic_number(g, budget).value
                critical_basis = "computed"
        except SearchBudgetExceeded:
            critical_k = None
    records.append(
        _record(
            "critical_doubling",
            "2k−2 for k-critical graphs under e·Δ² ≤ 2^(δ−1)",
            critical_k is not None and doubling_ok and critical_k >= 2,
            lambda: (2 * critical_k - 2, critical_basis),
        )
    )

    summary = {
        "n": g.n,
        "edges": g.edge_count,
        "max_degree": delta,
        "min_degree": g.min_degree,
        "connected": connected,
    }
    return BoundReport(tuple(records), summary)
