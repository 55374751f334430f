"""Assembling certified dynamic colorings from partitions and products.

Every coloring that a composition or pipeline returns is checked once
through the verify module first: one that fails is an internal bug and
raises ``verify.CertificationError`` (never a silent bad coloring).
:func:`hypergraph_2coloring` certifies its resampled coloring with
``check_hypergraph_2coloring``, as the exact search it falls back to
certifies its own.  One routine returns a part that its callers certify:
:func:`chi_witness`, whose greedy path is unchecked.
Bad *inputs* raise PreconditionError carrying the violation list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .exact import _check_budget, chromatic_number, hypergraph_2color_exact, is_k_critical
from .graphs import (
    Coloring,
    Graph,
    Hypergraph,
    KneserSpec,
    SearchBudgetExceeded,
    VertexSubset,
    bipartition,
    dsatur,
    induced_subgraph,
    is_connected,
    neighborhood_hypergraph,
    vertices_in_triangles,
)
from .lll import (
    ResampleLog,
    balanced_window,
    find_balanced_subset,
    lll_condition_hypergraph,
    moser_tardos_2color,
)
from .verify import (
    CertificationError,
    Violation,
    certify,
    check_domination,
    check_dynamic,
    check_hypergraph_2coloring,
    check_proper,
)

__all__ = [
    "PreconditionError",
    "compose_disjoint_palettes",
    "product_coloring",
    "partial_product_coloring",
    "chi_witness",
    "hypergraph_2coloring",
    "double_total_subset",
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


def _require(violations: Sequence[Violation], message: str) -> None:
    """Refuse an input whose check found ``violations``, like ``verify.certify``."""
    if violations:
        raise PreconditionError(message, violations)


def _certify_dynamic(g: Graph, c: Coloring, what: str) -> Coloring:
    certify(check_dynamic(g, c), what)
    return c


def _check_sides(g: Graph, t: VertexSubset, inside: Coloring, outside: Coloring) -> None:
    """Require ``inside`` proper on G[T] and ``outside`` on G[V - T]."""
    _require(check_proper(induced_subgraph(g, t), inside),
             "inside coloring is not proper on G[T]")
    _require(check_proper(induced_subgraph(g, t.complement()), outside),
             "outside coloring is not proper on G[V - T]")


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


def _pair(c: Coloring, f: Coloring) -> Coloring:
    """Give v the injective pair code 2*c(v) + f(v) on 2*palette(c) colors."""
    return Coloring(tuple(2 * a + b for a, b in zip(c.colors, f.colors)), 2 * c.palette_size)


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
    _require(check_domination(g, t, "double_total"), "subset is not double total dominating")
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
    _require(check_proper(g, c), "base coloring is not proper")
    _require(check_hypergraph_2coloring(neighborhood_hypergraph(g), f),
             "f is not a valid 2-coloring of the neighborhood hypergraph")
    return _certify_dynamic(g, _pair(c, f), "product coloring")


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
    _require(check_domination(g, t, "total"), "subset is not total dominating")
    _check_sides(g, t, c_t, c_out)
    _require(check_hypergraph_2coloring(neighborhood_hypergraph(g, target=t), f),
             "f is not a valid 2-coloring of the T-restricted neighborhood hypergraph")
    return _certify_dynamic(g, _glue(t, _pair(c_t, f), c_out), "partial product coloring")


# ======================================================================
# Family-specific pipelines
# ======================================================================


def hypergraph_2coloring(
    h: Hypergraph, budget: Optional[int] = None, seed: int = 0
) -> Optional[Coloring]:
    """A 2-coloring of ``h`` with no monochromatic edge.

    The size-2 edges come first: they must get two colors, so when the
    graph they form is not bipartite no 2-coloring exists, and None is
    returned at once, with no resampling and no search.  Otherwise
    Moser-Tardos resampling from ``seed`` runs, and whenever it converges
    its coloring is returned once ``check_hypergraph_2coloring`` passes it.
    Only when it exhausts its cap does an exact search, bounded by
    ``budget`` nodes, take over; its coloring is certified there.  None
    from there means that search certified that no such coloring exists;
    SearchBudgetExceeded, carrying the search's ``nodes_explored``, means
    resampling exhausted and the search ran over budget.  A negative
    ``budget`` raises ValueError before any of this.
    """
    _check_budget(budget)
    pairs = {e for e in h.edges if len(e) == 2}  # a set: from_edges refuses repeats
    if pairs and bipartition(Graph.from_edges(h.n, pairs)) is None:
        return None
    f, log = moser_tardos_2color(h, seed=seed)
    if f is not None:
        certify(check_hypergraph_2coloring(h, f), "resampled 2-coloring")
        return f
    try:
        return hypergraph_2color_exact(h, budget)
    except SearchBudgetExceeded as exc:
        raise SearchBudgetExceeded(
            f"hypergraph 2-coloring: resampling exhausted after "
            f"{log.resample_count} resamples and exact search over budget "
            f"after {exc.nodes_explored} nodes", exc.nodes_explored
        ) from exc


def double_total_subset(
    g: Graph, budget: Optional[int] = None, seed: int = 0
) -> Optional[VertexSubset]:
    """A set T such that every vertex has neighbors both in T and outside
    it, or a certified None.

    T holds the vertices colored 1 by :func:`hypergraph_2coloring` of the
    neighborhood hypergraph, so resampling from ``seed`` runs first and an
    exact search within ``budget`` nodes second; SearchBudgetExceeded
    means both gave up.  A vertex of degree <= 1 makes the answer None at once
    (its neighborhood cannot meet both sides); the empty graph gives the
    empty set, and a negative ``budget`` raises ValueError.  A T is returned
    only once it passes ``check_domination``.
    """
    _check_budget(budget)
    if g.n and g.min_degree <= 1:
        return None
    f = hypergraph_2coloring(neighborhood_hypergraph(g), budget, seed)
    if f is None:
        return None
    t = VertexSubset(frozenset(v for v in range(g.n) if f[v] == 1), g.n)
    certify(check_domination(g, t), "double total set")
    return t


def _tail(spec: KneserSpec, subsets: Sequence[tuple[int, ...]]) -> VertexSubset:
    """The tail subset T of KG(m, n): the vertices whose least element ``a[0]`` exceeds t."""
    return VertexSubset(frozenset(i for i, a in enumerate(subsets) if a[0] > spec.t),
                        len(subsets))


@dataclass(frozen=True)
class KneserColoringResult:
    """Certified dynamic coloring of a triangle-free Kneser-type graph.

    ``graph`` is stored although ``spec`` determines it, because rebuilding
    KG(m, n) costs about as much as the whole pipeline (KG(19,9) has 92,378
    vertices); ``tail_subset`` is derived from ``spec.vertex_subsets()``.
    """

    spec: KneserSpec
    graph: Graph
    coloring: Coloring

    @property
    def tail_subset(self) -> VertexSubset:
        return _tail(self.spec, self.spec.vertex_subsets())

    @property
    def colors_used(self) -> int:
        return self.coloring.colors_used

    @property
    def max_colors(self) -> int:
        return self.spec.t + 4

    @property
    def chromatic_number(self) -> int:  # m - 2n + 2, by the known formula
        return self.spec.t + 2

    @property
    def gap(self) -> int:
        return self.colors_used - self.chromatic_number


def kneser_dynamic_coloring(
    spec: KneserSpec, budget: Optional[int] = None, seed: int = 0
) -> KneserColoringResult:
    """Dynamic coloring of the disjointness graph on n-subsets with at
    most t + 4 colors, in the triangle-free regime 2n < m < 3n.

    The tail subset T holds the vertices avoiding {1..t}; it is always
    total dominating, and G[T] pairs each subset with its complement
    inside {t+1..m}, so a BFS 2-coloring shows it bipartite (checked at
    runtime, not assumed).  Outside T the least element ``a[0]``, shifted
    to 0-based, is a proper t-coloring.  The T-restricted neighborhood
    hypergraph is 2-colored by :func:`hypergraph_2coloring`.  The parts are
    glued as in :func:`partial_product_coloring`, but certified only once glued.
    A negative ``budget`` raises ValueError before KG(m, n) is built.
    """
    _check_budget(budget)
    t = spec.t
    if not 1 <= t < spec.n:
        raise ValueError(f"need 2n < m < 3n, got m={spec.m}, n={spec.n}")
    g = spec.graph()
    subsets = spec.vertex_subsets()
    tail = _tail(spec, subsets)
    two = bipartition(induced_subgraph(g, tail))
    if two is None:
        raise CertificationError(
            f"induced graph on the tail subset of KG({spec.m},{spec.n}) is not bipartite"
        )
    c_out = Coloring(tuple(subsets[old][0] - 1 for old in tail.complement()), t)
    f = hypergraph_2coloring(neighborhood_hypergraph(g, target=tail), budget, seed)
    if f is None:
        raise CertificationError("T-restricted neighborhood hypergraph is not 2-colorable")
    pairs = _pair(two, f)
    coloring = _certify_dynamic(g, _glue(tail, pairs, c_out), "partial product coloring")
    return KneserColoringResult(spec, g, coloring)


def neighborhood_product_coloring(
    g: Graph, budget: Optional[int] = None, seed: int = 0
) -> Coloring:
    """Dynamic coloring on twice a chi witness's palette.

    A :func:`chi_witness` of ``g`` is paired, as in :func:`product_coloring`
    but without its precondition checks, with a 2-coloring of the
    neighborhood hypergraph from :func:`hypergraph_2coloring`; only the
    pair coloring is certified.  PreconditionError means that hypergraph
    is certified not 2-colorable; SearchBudgetExceeded means its search and
    resampling both gave up.
    """
    c, _ = chi_witness(g, budget)
    f = hypergraph_2coloring(neighborhood_hypergraph(g), budget, seed)
    if f is None:
        raise PreconditionError("neighborhood hypergraph is not 2-colorable (certified)")
    return _certify_dynamic(g, _pair(c, f), "product coloring")


def double_total_coloring(
    g: Graph, budget: Optional[int] = None, seed: int = 0
) -> tuple[Coloring, VertexSubset]:
    """Dynamic coloring on chi witnesses of G[T] and G[V - T], and its T.

    T comes from :func:`double_total_subset`, which certified it; the
    :func:`chi_witness` colorings of both sides are glued on disjoint
    palettes and certified dynamic.  A certified absence of T, a vertex of
    degree <= 1 included, raises PreconditionError, and resampling
    exhausted with the exact search over budget SearchBudgetExceeded.
    """
    subset = double_total_subset(g, budget, seed)
    if subset is None:
        raise PreconditionError("no double total dominating set exists (certified)")
    (c_in, _), (c_out, _) = _split_witnesses(g, subset, budget)
    glued = _glue(subset, c_in, c_out)
    return _certify_dynamic(g, glued, "double total coloring"), subset


@dataclass(frozen=True)
class BalancedColoringResult:
    """Dynamic coloring built from a balanced subset of a regular graph.

    ``subset``, the balanced subset T, is derived: it is the final state of
    ``resample_log``, which lists T's members.
    """

    coloring: Coloring
    resample_log: ResampleLog
    color_bound: int  # palette(chi_witness) + D, lll.balanced_window's degree cap

    @property
    def subset(self) -> VertexSubset:
        return VertexSubset(frozenset(self.resample_log.final_state), len(self.coloring))


def balanced_subset_coloring(
    g: Graph, chi_witness: Coloring, seed: int = 0, max_resamples: Optional[int] = None
) -> BalancedColoringResult:
    """Color a k-regular graph with palette(chi_witness) + D colors.

    A balanced subset T from :func:`find_balanced_subset` (every vertex
    with neighbors on both sides and inside-degree below D, the O(log k)
    degree cap of :func:`lll.balanced_window` (k)) bounds the degree of
    G[T], so DSATUR, a greedy coloring, colors it with at most D fresh
    colors; the rest keep their chi_witness colors on a shifted palette.
    Every vertex then sees both palettes in its neighborhood.  Resampling
    that exhausts its cap raises SearchBudgetExceeded.
    """
    _require(check_proper(g, chi_witness), "chi witness is not a proper coloring")
    return _balanced_subset(g, chi_witness, seed, max_resamples)


def _balanced_subset(
    g: Graph, witness: Coloring, seed: int, max_resamples: Optional[int]
) -> BalancedColoringResult:
    """:func:`balanced_subset_coloring` on a ``witness`` already known proper."""
    subset, log = find_balanced_subset(g, seed, max_resamples)
    if subset is None:
        raise SearchBudgetExceeded(
            f"balanced subset unavailable: resampling exhausted after "
            f"{log.resample_count} resamples (seed {log.seed})"
        )
    g_t = induced_subgraph(g, subset)
    rest = Coloring(tuple(witness[v] for v in subset.complement()), witness.palette_size)
    combined = _glue(subset, dsatur(g_t)[1], rest)
    _certify_dynamic(g, combined, "balanced subset coloring")
    bound = witness.palette_size + balanced_window(g.regular_degree())[1]
    if combined.palette_size > bound:
        raise CertificationError(
            f"palette {combined.palette_size} exceeds the bound {bound}"
        )
    return BalancedColoringResult(combined, log, bound)


def balanced_coloring(
    g: Graph,
    budget: Optional[int] = None,
    seed: int = 0,
) -> BalancedColoringResult:
    """Dynamic coloring of a k-regular graph on a :func:`chi_witness`
    within ``budget`` plus at most D colors, D from
    :func:`lll.balanced_window` (k).

    The subset is sampled from ``seed`` at the default resample cap and
    glued as in :func:`balanced_subset_coloring`, without re-checking the
    witness it just made.  A graph that is not regular, or has degree
    below 2, raises ValueError before the witness is sought.
    """
    k = g.regular_degree()
    if k is None:
        raise ValueError("balanced construction needs a regular graph")
    balanced_window(k)  # raises on k < 2
    witness, _ = chi_witness(g, budget)
    return _balanced_subset(g, witness, seed, None)


# ======================================================================
# Certificates and bound reports
# ======================================================================


@dataclass(frozen=True)
class TriangleCertificate:
    """Whether every vertex lies in a triangle (making any proper coloring
    dynamic); ``uncovered`` lists the vertices outside all triangles."""

    uncovered: tuple[int, ...]

    @property
    def certified(self) -> bool:
        return not self.uncovered


def triangle_certificate(g: Graph, c: Coloring) -> TriangleCertificate:
    """Certify chi_d = chi via triangles, re-checking rather than trusting.

    When every vertex lies in a triangle, its two triangle partners are
    adjacent, hence differently colored under any proper coloring.  The
    implication is still re-verified by running the dynamic check on ``c``.
    """
    violations = check_dynamic(g, c)
    _require([v for v in violations if v.kind == "improper_edge"], "coloring is not proper")
    covered = vertices_in_triangles(g)
    uncovered = tuple(v for v in range(g.n) if v not in covered)
    if not uncovered and violations:
        raise CertificationError(
            "every vertex lies in a triangle yet the proper coloring "
            "failed the dynamic check",
            violations,
        )
    return TriangleCertificate(uncovered)


@dataclass(frozen=True)
class BoundRecord:
    """One upper-bound formula: ``name``, ``source``, ``value`` and ``basis``
    are stored, and ``applicable`` is ``value is not None``, since a formula
    whose hypothesis fails here claims no value.  ``basis`` notes how any
    chromatic numbers inside the formula were obtained (exact or greedy
    over-estimate; "computed" for a criticality the report decided itself)."""

    name: str
    source: str
    value: Optional[int] = None
    basis: Optional[str] = None

    @property
    def applicable(self) -> bool:
        return self.value is not None


@dataclass(frozen=True)
class BoundReport:
    records: tuple[BoundRecord, ...]
    graph_summary: dict

    def applicable(self) -> list[BoundRecord]:
        return [r for r in self.records if r.applicable]

    def best(self) -> Optional[int]:
        return min((r.value for r in self.applicable()), default=None)

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
    """A proper coloring of ``g`` and how it was obtained, from at most one
    DSATUR run.

    Up to EXACT_LIMIT vertices it is an exact solve's within ``budget``: on
    chi(g) colors when the solve decides ("exact"), else the DSATUR coloring
    the solve held ("greedy", an over-estimate of chi), as beyond
    EXACT_LIMIT.  A negative ``budget`` raises ValueError.
    """
    _check_budget(budget)
    if g.n <= EXACT_LIMIT:
        res = chromatic_number(g, budget)
        return res.coloring, "greedy" if res.exhausted else "exact"
    return dsatur(g)[1], "greedy"


def _split_witnesses(
    g: Graph, t: VertexSubset, budget: Optional[int]
) -> tuple[tuple[Coloring, str], tuple[Coloring, str]]:
    """:func:`chi_witness` of G[T] and of G[V - T], in that order."""
    return (chi_witness(induced_subgraph(g, t), budget),
            chi_witness(induced_subgraph(g, t.complement()), budget))


def bound_report(
    g: Graph,
    budget: Optional[int] = None,
    *,
    double_total: Optional[VertexSubset] = None,
    total: Optional[VertexSubset] = None,
    kneser: Optional[KneserSpec] = None,
) -> BoundReport:
    """Evaluate the family of dynamic-chromatic upper bounds on one graph.

    Each record carries its applicability predicate's outcome; a bound
    whose hypothesis fails is never claimed.  The optional facts are
    checked, not trusted: ``double_total`` and ``total`` must pass
    :func:`check_domination`, and ``kneser`` counts only when ``g`` is
    its graph.  Chromatic numbers inside formulas come from
    :func:`chi_witness` (exact up to EXACT_LIMIT vertices within
    ``budget``, a greedy over-estimate otherwise, which keeps every formula
    a valid upper bound).  Criticality is computed only up to
    CRITICALITY_LIMIT vertices.  A negative ``budget`` raises ValueError.
    """
    _check_budget(budget)
    delta, dmin = g.max_degree, g.min_degree
    connected = is_connected(g)
    is_c5 = g.n == 5 and g.edge_count == 5 and g.regular_degree() == 2 and connected
    # e·Δ² ≤ 2^(δ−1) is the LLL condition on the neighborhood hypergraph (edge sizes
    # δ..Δ, degree Δ); the edgeless graph has nothing to 2-color, and δ ≤ 1 fails it.
    doubling_ok = g.n > 0 and (
        delta == 0 or dmin >= 2 and lll_condition_hypergraph(dmin, delta, delta).holds
    )

    def split(t: Optional[VertexSubset], weight: int, mode: str):
        """χ(G[V−T]) + weight·χ(G[T]) and its basis, or (None, None) unless T
        passes check_domination in ``mode``."""
        if t is None or check_domination(g, t, mode):
            return None, None
        (c_in, b_in), (c_out, b_out) = _split_witnesses(g, t, budget)
        return c_out.palette_size + weight * c_in.palette_size, f"{b_out}/{b_in}"

    witness, basis = chi_witness(g, budget) if doubling_ok else (None, None)
    critical = False
    if doubling_ok and connected and g.n <= CRITICALITY_LIMIT:
        try:
            critical = is_k_critical(g, budget)
        except SearchBudgetExceeded:
            pass
    # k = chi(g): is_k_critical decided chi within budget, and
    # CRITICALITY_LIMIT <= EXACT_LIMIT, so the witness is exact.
    critical_bound = ((2 * witness.palette_size - 2, "computed")
                      if critical and witness.palette_size >= 2 else (None, None))
    on_kneser = kneser is not None and 1 <= kneser.t < kneser.n and g == kneser.graph()
    records = (
        BoundRecord("max_degree_plus_one", "Δ+1 for connected graphs with Δ ≥ 4",
                    delta + 1 if connected and delta >= 4 else None),
        BoundRecord("low_max_degree",
                    "4 for connected graphs with Δ ≤ 3, the 5-cycle excepted",
                    4 if connected and g.n > 0 and delta <= 3 and not is_c5 else None),
        BoundRecord("five_cycle_exact", "the 5-cycle needs exactly 5 colors",
                    5 if is_c5 else None),
        BoundRecord("neighborhood_two_coloring", "2χ when e·Δ² ≤ 2^(δ−1)",
                    2 * witness.palette_size if doubling_ok else None, basis),
        BoundRecord("double_total_split",
                    "χ(G[V−T]) + χ(G[T]) for a double total dominating T",
                    *split(double_total, 1, "double_total")),
        BoundRecord("total_split_doubled",
                    "χ(G[V−T]) + 2χ(G[T]) for a total dominating T under e·Δ² ≤ 2^(δ−1)",
                    *split(total if doubling_ok else None, 2, "total")),
        BoundRecord("kneser_partition", "t+4 for the disjointness graph with 2n < m < 3n",
                    kneser.t + 4 if on_kneser else None),
        BoundRecord("critical_doubling", "2k−2 for k-critical graphs under e·Δ² ≤ 2^(δ−1)",
                    *critical_bound),
    )

    summary = {
        "n": g.n,
        "edges": g.edge_count,
        "max_degree": delta,
        "min_degree": dmin,
        "connected": connected,
    }
    return BoundReport(records, summary)
