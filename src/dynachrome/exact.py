"""Exhaustive branch-and-bound solvers: the ground truth for small instances.

Every search is one depth-first backtracker that keeps its branch state in
explicit arrays rather than on the Python call stack, so it runs on inputs
of any size.  It takes ascending per-vertex palettes (tuples or lists) and
returns a Coloring on one past the largest color any palette offers.  It
alone decides whether color symmetry may be broken: exactly when every
vertex has the same palette, and then by palette position (a vertex may
take at most one position above the largest taken so far).  chi and chi_d
pass the tuple 0..k-1 at every vertex for each k tried, and the hypergraph
search (0, 1), so they always break it; the list search passes each
vertex's sorted list, so it breaks it only when all lists are alike.
Graph searches color vertices in DSATUR order (most colors ruled out
first, ties by degree and then id).  For chi a vertex rules out its
colored neighbors' colors; the dynamic searches order by DSATUR with the
neighborhoods as groups, which also rules out the color that all the
other members of a neighborhood share when the vertex is its last
uncolored member, so a neighborhood that cannot be closed is met early.
The hypergraph search keeps descending hypergraph degree (ties by id).
Runs are deterministic, and budgets are explored node counts, not
wall-clock, again for reproducibility.  A solver that exhausts its budget
reports that distinctly from a certified "none": the two outcomes must
never be conflated, because these functions serve as oracles for the
randomized modules.  Both chromatic solvers go through one solve path,
which certifies the coloring every solve returns, an exhausted solve's
held coloring included; the list search and the hypergraph search certify
their colorings too.  The hypergraph search is also the exact fallback of
constructions.hypergraph_2coloring, which is how double total dominating
sets reach it.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Collection, Optional, Sequence

from .graphs import Coloring, Graph, Hypergraph, SearchBudgetExceeded, _check_count, bipartition
from .graphs import VertexSubset, dsatur, induced_subgraph, is_connected, neighborhood_hypergraph
from .verify import ListAssignment, Violation, certify, check_dynamic
from .verify import check_hypergraph_2coloring, check_list_respecting, check_proper

__all__ = [
    "SolveResult",
    "chromatic_number",
    "dynamic_chromatic_number",
    "list_dynamic_coloring",
    "hypergraph_2color_exact",
    "is_k_critical",
]


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact solve: the best ``coloring`` in hand, the
    smallest palette not refuted, ``lower``, and ``nodes_explored``.

    When ``lower`` meets the coloring's palette, the solve decided: the
    coloring is the optimal ``witness``, certified by the failed search at
    ``value`` - 1.  Otherwise the budget ran out: ``exhausted`` is true,
    there is no witness, ``value`` is None and ``bounds`` is (``lower``,
    palette of the held coloring the search could not beat).
    """

    coloring: Coloring
    lower: int
    nodes_explored: int

    def __post_init__(self):
        if not 0 <= self.lower <= self.coloring.palette_size:
            raise ValueError(f"lower {self.lower} outside 0..{self.coloring.palette_size}")

    @property
    def exhausted(self) -> bool:
        return self.lower < self.coloring.palette_size

    @property
    def witness(self) -> Optional[Coloring]:
        return None if self.exhausted else self.coloring

    @property
    def value(self) -> Optional[int]:
        return None if self.exhausted else self.coloring.palette_size

    @property
    def bounds(self) -> Optional[tuple[int, int]]:
        return (self.lower, self.coloring.palette_size) if self.exhausted else None

    def to_json_dict(self) -> dict:
        out = {
            "value": self.value,
            "witness": None if self.witness is None else list(self.witness.colors),
            "nodes_explored": self.nodes_explored,
            "exhausted": self.exhausted,
        }
        if self.exhausted:
            out["bounds"] = list(self.bounds)
        return out


def _check_budget(budget: Optional[int]) -> None:
    if budget is not None:
        _check_count(budget, "node budget")


def _search(
    order: Sequence[int],
    palettes: Sequence[Sequence[int]],
    adj: Sequence[Sequence[int]],
    groups: Sequence[Collection[int]],
    budget: Optional[int],
    nodes: int = 0,
) -> tuple[Optional[Coloring], int]:
    """Depth-first search for colors from strictly ascending per-vertex
    palettes, each a tuple or list of ints.

    Vertices are colored in ``order``, which lists each vertex once.  A
    vertex skips colors already on a colored neighbor in ``adj``.  When the
    search first reaches a vertex, only its neighbors that come before it in
    ``order`` can be colored (the later ones are always uncolored, -1, which
    no palette holds), so those lists are built once per call and a first
    visit reads only their colors, in one call of a per-depth
    ``operator.itemgetter`` that returns them as a tuple.  The tuple stands
    in for the set of colors a vertex must avoid: a repeated color is
    harmless, and the colors it holds stay put while the search is at that
    depth or deeper, so a backtrack reuses it.  A branch dies as soon as one of
    ``groups`` is fully colored in a single color.  As the order is fixed, a
    group closes (becomes fully colored) exactly at the depth of its last
    member in ``order``.  Each group is filed once, under that depth, as the
    list of its other members, and a color tried at a depth is tested
    against the groups closing there and no others.  When all palettes are
    alike, and only then, color symmetry is broken: a vertex may take at
    most one palette position above the largest taken so far, whatever
    colors the palette holds; how far into the palette that reaches is
    read from a table built once, indexed by one past the largest position
    taken.  Renaming colors maps colorings to colorings only when every
    vertex offers the same ones, so the rule is sound there and nowhere
    else; there it prunes only renamed images of colorings tried earlier,
    so the first coloring found is the one an unbroken search finds.
    Every color tried is one node, counted on from ``nodes`` against
    ``budget``, which the public callers have checked.  Returns the Coloring
    found, on one past the largest color any palette offers (None when no
    branch survives), and the node total, or raises
    SearchBudgetExceeded.  The branch state lives in per-depth arrays, not
    on the Python call stack, so no input is too deep to search: the
    neighbor colors seen on entry, and the resume index, the palette
    position just past the color taken, where the search picks up again when
    it backtracks into that depth.
    """
    color = [-1] * len(palettes)
    depth = len(order)
    at = [0] * len(palettes)  # at[v]: the depth at which v is colored
    for i, v in enumerate(order):
        at[v] = i
    earlier = [[u for u in adj[v] if at[u] < i] for i, v in enumerate(order)]
    # seen[i](color): the colors of earlier[i] as one tuple.  itemgetter
    # returns a tuple only from two indices up, so a shorter list is padded
    # with v itself, which is uncolored (-1) whenever seen[i] is read.
    seen = [
        itemgetter(*e) if len(e) > 1 else itemgetter(*e, v) if e else itemgetter(v, v)
        for e, v in zip(earlier, order)
    ]
    closing: list[list[list[int]]] = [[] for _ in range(depth)]
    for grp in groups:
        if grp:
            last = max(at[u] for u in grp)
            v = order[last]
            closing[last].append([u for u in grp if u != v])
    ends: list[int] = []
    break_symmetry = depth > 0 and palettes.count(palettes[0]) == len(palettes)
    if break_symmetry:
        # ends[t]: how many palette positions are open while the largest
        # taken is t - 1 (t = 0: none taken yet), i.e. up to one above.
        k = len(palettes[0])
        ends = [min(t + 1, k) for t in range(k + 1)]
    limit = float("inf") if budget is None else budget
    top = [0] * (depth + 1)  # top[i]: one past the largest position in order[:i]
    resume = [0] * depth  # palette index past the color taken at each depth
    used_at: list[tuple[int, ...]] = [()] * depth  # neighbor colors at entry
    i = 0
    while 0 <= i < depth:
        v = order[i]
        palette = palettes[v]
        if color[v] < 0:  # first visit at this depth
            j = 0
            used = used_at[i] = seen[i](color)
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
    if i < depth:
        return None, nodes
    return Coloring(tuple(color), max((p[-1] for p in palettes if p), default=0) + 1), nodes


def _min_palette(
    g: Graph,
    order: list[int],
    held: Coloring,
    budget: Optional[int],
    groups: Sequence,
    check: Callable[[Graph, Coloring], list[Violation]],
) -> SolveResult:
    """Search palettes 3, 4, ... below that of ``held``, a coloring already
    in hand, in ``order`` with ``groups`` that may not close in one color.
    The result holds the best coloring and the smallest palette not
    refuted: (found, k) at the first k that admits one, (``held``, k) when
    the budget runs out at k, and ``held`` at its own palette once all are
    refuted.  Its coloring is certified with ``check`` before it is
    returned, so this is where every chi and chi_d answer is certified, an
    exhausted solve's held coloring included.  The callers have checked
    ``budget``."""
    nodes = 0
    for k in range(3, held.palette_size):
        try:
            # A tuple, not a range: indexing a range computes the item each time.
            found, nodes = _search(
                order, [tuple(range(k))] * g.n, g.adjacency, groups, budget, nodes
            )
        except SearchBudgetExceeded as exc:
            res = SolveResult(held, k, exc.nodes_explored)
            break
        if found is not None:
            res = SolveResult(found, k, nodes)
            break
    else:
        res = SolveResult(held, held.palette_size, nodes)
    certify(check(g, res.coloring), "exact solve witness")
    return res


def chromatic_number(g: Graph, budget: Optional[int] = None) -> SolveResult:
    """Exact chromatic number with a witness coloring.

    The coloring held before any search is a bipartition's on a bipartite
    graph (edgeless ones included) and DSATUR's otherwise; each palette
    from 3 to below the held one is settled by exhaustive backtracking, so
    the refuted size value - 1 certifies optimality.  The coloring returned
    is certified with ``check_proper``.
    """
    _check_budget(budget)
    order: list[int] = []  # a bipartition's palette (<= 2) leaves no search
    held = bipartition(g)
    if held is None:
        order, held = dsatur(g)
    return _min_palette(g, order, held, budget, [], check_proper)


def dynamic_chromatic_number(g: Graph, budget: Optional[int] = None) -> SolveResult:
    """Exact dynamic chromatic number (proper, and every vertex of degree
    >= 2 sees two distinct neighbor colors) with a witness.

    When some vertex has degree >= 2 the value is at least 3: its two
    neighbors must differ from each other and from the vertex itself.
    That refutes palettes 1 and 2 without search.  The search order and
    the coloring held before any search are DSATUR's with the neighborhoods
    as groups, so that coloring is dynamic, and an exhausted result returns
    it as its ``coloring``, whose palette is the upper end of the bounds.
    When no vertex has degree >= 2 there are no groups, and the held
    coloring is the bipartition chi would hold.  The coloring returned is
    certified with ``check_dynamic``.
    """
    _check_budget(budget)
    groups = neighborhood_hypergraph(g).edges
    order, held = dsatur(g, groups)
    return _min_palette(g, order, held, budget, groups, check_dynamic)


def list_dynamic_coloring(
    g: Graph, lists: ListAssignment, budget: Optional[int] = None
) -> Optional[Coloring]:
    """A dynamic coloring drawing each vertex's color from its list, or a
    certified None when the exhaustive search finds no such coloring.

    Raises SearchBudgetExceeded when the budget runs out first; that is a
    distinct outcome from None.  Raises ValueError on a negative list
    color, which no Coloring can hold.  The search breaks color symmetry
    when all lists are alike.  The coloring returned is on one past the
    largest listed color, and is certified with ``check_dynamic`` and
    ``check_list_respecting``.
    """
    _check_budget(budget)
    if len(lists) != g.n:
        raise ValueError("list assignment must cover all vertices")
    allowed = [sorted(lists[v]) for v in range(g.n)]
    for v, colors in enumerate(allowed):
        if colors and colors[0] < 0:
            raise ValueError(f"list of vertex {v} holds negative color {colors[0]}")
    groups = neighborhood_hypergraph(g).edges
    found, _ = _search(dsatur(g, groups)[0], allowed, g.adjacency, groups, budget)
    if found is not None:
        certify(check_dynamic(g, found) + check_list_respecting(g, lists, found),
                "list dynamic witness")
    return found


def hypergraph_2color_exact(
    h: Hypergraph, budget: Optional[int] = None
) -> Optional[Coloring]:
    """A 2-coloring with no monochromatic hyperedge, or a certified None.

    Vertices are taken by descending hypergraph degree (ties by id), and a
    branch dies the moment an edge is fully colored in one color.  Every
    vertex has the palette (0, 1), so the search breaks color symmetry,
    which pins the first vertex to color 0: swapping the two colors is an
    automorphism of the constraint.  The coloring returned is certified
    with ``check_hypergraph_2coloring``.
    """
    _check_budget(budget)
    if h.edge_count == 0:
        found = Coloring((0,) * h.n, 2)
    else:
        hdeg = h.vertex_degrees()
        order = sorted(range(h.n), key=lambda v: (-hdeg[v], v))
        found, _ = _search(order, [(0, 1)] * h.n, [()] * h.n, h.edges, budget)
    if found is not None:
        certify(check_hypergraph_2coloring(h, found), "hypergraph 2-coloring witness")
    return found


def is_k_critical(g: Graph, budget: Optional[int] = None) -> bool:
    """Whether chi drops on every single-vertex deletion (with k = chi(g)).

    Deleting single vertices suffices: chi is monotone under taking
    induced subgraphs, so if every one-vertex deletion lowers it, every
    proper induced subgraph does too.  One ``budget`` covers chi(g) and
    all the deletions: each solve gets only the nodes the earlier ones
    left, and SearchBudgetExceeded carries the total explored, at most
    budget + 1.
    """
    _check_budget(budget)
    if not is_connected(g):
        raise ValueError("criticality is only defined here for connected graphs")
    spent = 0

    def chi(h: Graph, what: str) -> int:
        nonlocal spent
        res = chromatic_number(h, None if budget is None else budget - spent)
        spent += res.nodes_explored
        if res.exhausted:
            raise SearchBudgetExceeded(f"budget exhausted on {what}", spent)
        return res.value

    k = chi(g, "chi(g)")
    return all(
        chi(induced_subgraph(g, VertexSubset(frozenset({v}), g.n).complement()),
            f"chi(g - {v})") < k
        for v in range(g.n)
    )
