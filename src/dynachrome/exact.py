"""Exhaustive branch-and-bound solvers: the ground truth for small instances.

Every search is one depth-first backtracker that keeps its branch state in
explicit arrays rather than on the Python call stack, so it runs on inputs
of any size.  Graph searches color vertices in DSATUR order (most distinct
neighbor colors first, ties by degree and then id) with color-symmetry
breaking; the hypergraph search keeps descending hypergraph degree (ties
by id).  Runs are deterministic, and budgets are explored node counts,
not wall-clock, again for reproducibility.  A solver that exhausts its
budget reports that distinctly from a certified "none": the two outcomes
must never be conflated, because these functions serve as oracles for the
randomized modules.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Collection, Optional, Sequence

from .graphs import Graph, Hypergraph, VertexSubset, bipartition, dsatur_order
from .graphs import induced_subgraph, is_connected, neighborhood_hypergraph
from .verify import Coloring, ListAssignment

__all__ = [
    "SolveResult",
    "SearchBudgetExceeded",
    "greedy_coloring",
    "chromatic_number",
    "dynamic_chromatic_number",
    "list_dynamic_coloring",
    "hypergraph_2color_exact",
    "is_k_critical",
    "exact_double_total_dominating",
]


class SearchBudgetExceeded(RuntimeError):
    """The node budget ran out before the search could decide."""

    def __init__(self, message: str, nodes_explored: int = 0):
        super().__init__(message)
        self.nodes_explored = nodes_explored


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact solve.

    ``value`` is the optimal invariant with ``witness`` attaining it, and
    optimality is certified by the failed exhaustive search at value - 1.
    When the budget ran out instead, ``exhausted`` is set, ``value`` is
    None, and ``bounds`` gives the best-known (lower, upper) interval.
    """

    value: Optional[int]
    witness: Optional[Coloring]
    nodes_explored: int
    exhausted: bool = False
    bounds: Optional[tuple[int, int]] = None

    def to_json_dict(self) -> dict:
        out = {
            "value": self.value,
            "witness": list(self.witness.colors) if self.witness else None,
            "nodes_explored": self.nodes_explored,
            "exhausted": self.exhausted,
        }
        if self.exhausted and self.bounds is not None:
            out["bounds"] = list(self.bounds)
        return out


def greedy_coloring(g: Graph, order: Optional[list[int]] = None) -> Coloring:
    """First-fit coloring in the given order (ascending ids by default)."""
    if order is None:
        order = list(range(g.n))
    color: list[Optional[int]] = [None] * g.n
    top = 0
    for v in order:
        used = {color[u] for u in g.adjacency[v] if color[u] is not None}
        c = 0
        while c in used:
            c += 1
        color[v] = c
        top = max(top, c + 1)
    return Coloring(tuple(color), max(top, 1) if g.n else 0)


def _search(
    order: Sequence[int],
    palettes: Sequence[Sequence[int]],
    adj: Sequence[Sequence[int]],
    groups: Sequence[Collection[int]],
    break_symmetry: bool,
    budget: Optional[int],
    nodes: int = 0,
) -> tuple[Optional[list[int]], int]:
    """Depth-first search for colors from strictly ascending per-vertex
    palettes.

    Vertices are colored in ``order``, which lists each vertex once.  A
    vertex skips colors already on a colored neighbor in ``adj``, and a
    branch dies as soon as one of ``groups`` is fully colored in a single
    color.  As the order is fixed, a group closes (becomes fully colored)
    exactly at the depth of its last member in ``order``.  Each group is
    filed once, under that depth, as the list of its other members, and a
    color tried at a depth is tested against the groups closing there and
    no others.  With ``break_symmetry`` (all palettes alike), a vertex may
    take at most one color above the largest used so far; how far into
    the palette that reaches is read from a table built once, indexed by
    the position of the largest color used.  Every color tried is one
    node, counted on from ``nodes`` against ``budget``; a negative budget
    raises ValueError.  Returns the colors by vertex (None when no branch
    survives) and the node total, or raises SearchBudgetExceeded.  The
    branch state lives in per-depth arrays, not on the Python call stack,
    so no input is too deep to search: the neighbor colors seen on entry,
    and the resume index, the palette position just past the color taken,
    where the search picks up again when it backtracks into that depth.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"node budget must be >= 0, got {budget}")
    color = [-1] * len(palettes)
    depth = len(order)
    at = [0] * len(palettes)  # at[v]: the depth at which v is colored
    for i, v in enumerate(order):
        at[v] = i
    closing: list[list[list[int]]] = [[] for _ in range(depth)]
    for grp in groups:
        if grp:
            last = max(at[u] for u in grp)
            v = order[last]
            closing[last].append([u for u in grp if u != v])
    ends: list[int] = []
    if break_symmetry and depth:
        # ends[t]: how many palette entries are open while the largest color
        # used is palette[t - 1] (t = 0: none used yet), i.e. up to one above.
        palette = palettes[order[0]]
        ends = [bisect_right(palette, 0)]
        ends.extend(bisect_right(palette, c + 1) for c in palette)
    limit = float("inf") if budget is None else budget
    top = [0] * (depth + 1)  # top[i]: ends index for the colors of order[:i]
    resume = [0] * depth  # palette index past the color taken at each depth
    used_at: list[set[int]] = [set()] * depth  # neighbor colors at entry
    i = 0
    while 0 <= i < depth:
        v = order[i]
        palette = palettes[v]
        if color[v] < 0:  # first visit at this depth
            j = 0
            used = used_at[i] = {color[u] for u in adj[v]}
        else:  # back from a dead subtree: uncolor v, resume past its color
            j = resume[i]
            color[v] = -1
            used = used_at[i]
        end = ends[top[i]] if break_symmetry else len(palette)
        closes = closing[i]
        while j < end:
            c = palette[j]
            j += 1
            if c in used:
                continue
            nodes += 1
            if nodes > limit:
                raise SearchBudgetExceeded("node budget exceeded", nodes)
            for others in closes:
                for u in others:
                    if color[u] != c:
                        break
                else:  # the group is fully colored in c alone
                    break
            else:
                color[v] = c
                break
        if color[v] < 0:
            i -= 1
        else:
            resume[i] = j
            top[i + 1] = top[i] if top[i] > j else j
            i += 1
    return (color if i == depth else None), nodes


def _min_palette(
    g: Graph, order: list[int], upper: int, budget: Optional[int], groups: Sequence
) -> SolveResult:
    """Try palettes 3, 4, ... until one admits a coloring; ``upper`` is the
    upper bound reported if the budget runs out first."""
    nodes = 0
    k = 3
    while True:
        try:
            found, nodes = _search(
                order, [range(k)] * g.n, g.adjacency, groups, True, budget, nodes
            )
        except SearchBudgetExceeded as exc:
            return SolveResult(
                None, None, exc.nodes_explored, exhausted=True, bounds=(k, upper)
            )
        if found is not None:
            return SolveResult(k, Coloring.total(found, k), nodes)
        k += 1


def chromatic_number(g: Graph, budget: Optional[int] = None) -> SolveResult:
    """Exact chromatic number with a witness coloring.

    Palette sizes 1 and 2 are decided structurally (edge presence,
    bipartiteness); from 3 upward each size is settled by exhaustive
    backtracking, so the refuted size value - 1 certifies optimality.
    """
    if g.n == 0:
        return SolveResult(0, Coloring((), 0), 0)
    if g.edge_count == 0:
        return SolveResult(1, Coloring((0,) * g.n, 1), 0)
    bip = bipartition(g)
    if bip is not None:
        return SolveResult(2, Coloring.total(bip, 2), 0)
    order = dsatur_order(g)
    upper = greedy_coloring(g, order).palette_size
    return _min_palette(g, order, upper, budget, [])


def dynamic_chromatic_number(g: Graph, budget: Optional[int] = None) -> SolveResult:
    """Exact dynamic chromatic number (proper, and every vertex of degree
    >= 2 sees two distinct neighbor colors) with a witness.

    When some vertex has degree >= 2 the value is at least 3: its two
    neighbors must differ from each other and from the vertex itself.
    That refutes palettes 1 and 2 without search.
    """
    if g.n == 0:
        return SolveResult(0, Coloring((), 0), 0)
    if g.max_degree <= 1:
        # No vertex is constrained, so this is plain proper coloring.
        if g.edge_count == 0:
            return SolveResult(1, Coloring((0,) * g.n, 1), 0)
        return SolveResult(2, Coloring.total(bipartition(g), 2), 0)
    groups = neighborhood_hypergraph(g).edges
    return _min_palette(g, dsatur_order(g), g.n, budget, groups)


def list_dynamic_coloring(
    g: Graph, lists: ListAssignment, budget: Optional[int] = None
) -> Optional[Coloring]:
    """A dynamic coloring drawing each vertex's color from its list, or a
    certified None when the exhaustive search finds no such coloring.

    Raises SearchBudgetExceeded when the budget runs out first; that is a
    distinct outcome from None.  Raises ValueError on a negative list
    color, which no Coloring can hold.
    """
    if len(lists) != g.n:
        raise ValueError("list assignment must cover all vertices")
    allowed = [sorted(lists[v]) for v in range(g.n)]
    for v, colors in enumerate(allowed):
        if colors and colors[0] < 0:
            raise ValueError(f"list of vertex {v} holds negative color {colors[0]}")
    groups = neighborhood_hypergraph(g).edges
    found, _ = _search(dsatur_order(g), allowed, g.adjacency, groups, False, budget)
    if found is None:
        return None
    palette = max((max(l, default=0) for l in allowed), default=0) + 1
    return Coloring.total(found, palette)


def hypergraph_2color_exact(
    h: Hypergraph, budget: Optional[int] = None
) -> Optional[Coloring]:
    """A 2-coloring with no monochromatic hyperedge, or a certified None.

    Vertices are taken by descending hypergraph degree (ties by id), and a
    branch dies the moment an edge is fully colored in one color.  Symmetry
    breaking pins the first vertex to color 0: swapping the two colors is
    an automorphism of the constraint.
    """
    if h.edge_count == 0:
        return Coloring((0,) * h.n, 2)
    hdeg = h.vertex_degrees()
    order = sorted(range(h.n), key=lambda v: (-hdeg[v], v))
    found, _ = _search(order, [(0, 1)] * h.n, [()] * h.n, h.edges, True, budget)
    return Coloring.total(found, 2) if found is not None else None


def is_k_critical(g: Graph, budget: Optional[int] = None) -> bool:
    """Whether chi drops on every single-vertex deletion (with k = chi(g)).

    Deleting single vertices suffices: chi is monotone under taking
    induced subgraphs, so if every one-vertex deletion lowers it, every
    proper induced subgraph does too.
    """
    if not is_connected(g):
        raise ValueError("criticality is only defined here for connected graphs")
    base = chromatic_number(g, budget)
    if base.exhausted:
        raise SearchBudgetExceeded("budget exhausted on chi(g)", base.nodes_explored)
    k = base.value
    for v in range(g.n):
        sub, _ = induced_subgraph(g, set(range(g.n)) - {v})
        res = chromatic_number(sub, budget)
        if res.exhausted:
            raise SearchBudgetExceeded(
                f"budget exhausted on chi(g - {v})", res.nodes_explored
            )
        if res.value >= k:
            return False
    return True


def exact_double_total_dominating(
    g: Graph, budget: Optional[int] = None
) -> Optional[VertexSubset]:
    """A set T such that every vertex has neighbors both in T and outside
    it, or a certified None.

    Membership in T is exactly a 2-coloring of the neighborhood hypergraph
    with no monochromatic neighborhood, so the search is an exhaustive
    backtracking over memberships with that pruning.  Any vertex of degree
    <= 1 makes the answer None immediately (its neighborhood cannot meet
    both sides).
    """
    if g.n == 0:
        return VertexSubset(frozenset(), 0)
    if g.min_degree <= 1:
        return None
    membership = hypergraph_2color_exact(neighborhood_hypergraph(g), budget)
    if membership is None:
        return None
    return VertexSubset(frozenset(v for v in range(g.n) if membership[v] == 1), g.n)
