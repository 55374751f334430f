"""Independent oracles and fixture builders shared across the test suite.

The naive solvers here deliberately avoid the package's search code: they
enumerate colorings outright (with only the first vertex's color pinned,
which is sound because permuting colors preserves validity) and check
validity with direct loops.  They exist to cross-examine the solvers, so
they must stay independent of them.  ``naive_resample`` is the same kind
of oracle for the resampling routines: it rescans every event after every
resample.  ``random_regular_reference`` is the pairing-model generator as it
was written against ``random.Random.shuffle``; the library generator must
build the same graph for every seed.  ``search_reference`` is the exact
layer's backtracker as it was before groups were filed by closing depth:
it counts each group's uncolored members and bisects the palette on every
visit, and the library search must give the same colors and node counts.
Both break color symmetry by palette position, not by color value.
``naive_dsatur`` is ``graphs.dsatur``, group rule included, by rescanning
every uncolored vertex at every step.  ``dsatur_order_reference`` is the
order ``graphs.dsatur`` gave when its heap held (-saturation, -degree, id)
tuples; the library order must match it, and ``first_fit_coloring`` in
that order must give the library's DSATUR colors.
``check_proper_reference`` is ``verify.check_proper`` as it was when it
walked ``Graph.edges()``; the library checker must report the same
violations in the same order.  ``regularize_hypergraph`` is the lemma that
embeds a k-uniform hypergraph of max degree <= k in a k-regular one.
``deg_into`` counts a vertex's neighbors inside a subset by a direct loop.
``kneser_all_pairs`` is the Kneser graph by its definition, testing every
pair of n-subsets for disjointness.
``heawood`` reads the Heawood graph from ``data/heawood.txt``, which the
pinned CLI sweep also passes as ``--graph``.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import random
from bisect import bisect_right
from collections import defaultdict
from pathlib import Path
from typing import Collection, Optional, Sequence

from dynachrome import Coloring, Graph, Hypergraph, SearchBudgetExceeded
from dynachrome import Violation, read_edge_list


def digest(values) -> str:
    """The first 16 hex digits of the SHA-256 of ``repr(tuple(values))``."""
    return hashlib.sha256(repr(tuple(values)).encode()).hexdigest()[:16]


def adjacency(g: Graph) -> list[tuple[int, ...]]:
    return list(g.adjacency)


def valid_proper(adj, colors) -> bool:
    for u, nbrs in enumerate(adj):
        for v in nbrs:
            if v > u and colors[u] == colors[v]:
                return False
    return True


def valid_dynamic(adj, colors) -> bool:
    if not valid_proper(adj, colors):
        return False
    for u, nbrs in enumerate(adj):
        if len(nbrs) >= 2 and len({colors[v] for v in nbrs}) < 2:
            return False
    return True


def check_proper_reference(g: Graph, c: Coloring) -> list[Violation]:
    """All edges whose endpoints share a color, ascending by (u, v)."""
    colors = c.colors
    return [
        Violation("improper_edge", (u, v))
        for u, v in g.edges()
        if colors[u] == colors[v]
    ]


def _naive_min_palette(adj, valid, kmax=None) -> int:
    n = len(adj)
    if n == 0:
        return 0
    for k in range(1, (kmax or n) + 1):
        for rest in itertools.product(range(k), repeat=n - 1):
            if valid(adj, (0,) + rest):
                return k
    raise AssertionError("no coloring found up to kmax")


def naive_chromatic(g: Graph, kmax=None) -> int:
    return _naive_min_palette(adjacency(g), valid_proper, kmax)


def naive_dynamic_chromatic(g: Graph, kmax=None) -> int:
    return _naive_min_palette(adjacency(g), valid_dynamic, kmax)


def naive_dsatur(
    g: Graph, groups: Sequence[Collection[int]] = ()
) -> tuple[list[int], list[int]]:
    """DSATUR by rescanning every uncolored vertex at each step, and the
    colors it gives, by vertex.

    A vertex may not take the colors of its colored neighbors, nor, for
    each group of two or more members in which it is the only uncolored
    one, the color that all the other members share.  Each step takes the
    vertex that may not take the most colors, then highest degree, then
    lowest id, and gives it the smallest color it may take.
    """
    color: dict[int, int] = {}
    order = []

    def blocked(v):
        out = {color[u] for u in g.adjacency[v] if u in color}
        for grp in groups:
            others = [u for u in grp if u != v]
            if len(grp) >= 2 and v in grp and all(u in color for u in others):
                shared = {color[u] for u in others}
                if len(shared) == 1:
                    out |= shared
        return out

    while len(order) < g.n:
        v = min((v for v in range(g.n) if v not in color),
                key=lambda v: (-len(blocked(v)), -g.degree(v), v))
        no = blocked(v)
        c = 0
        while c in no:
            c += 1
        color[v] = c
        order.append(v)
    return order, [color[v] for v in range(g.n)]


def first_fit_coloring(g: Graph, order: list[int]) -> Coloring:
    """Give each vertex, in ``order``, the smallest color no colored
    neighbor holds."""
    color: dict[int, int] = {}
    for v in order:
        used = {color[u] for u in g.adjacency[v] if u in color}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    colors = tuple(color[v] for v in range(g.n))
    return Coloring(colors, max(colors, default=-1) + 1)


def dsatur_order_reference(g: Graph) -> list[int]:
    """The order in which DSATUR (Brélaz, CACM 1979) colors the vertices.

    Each step takes the uncolored vertex whose colored neighbors show the
    most distinct colors, ties by higher degree and then lower id, and
    gives it the smallest color its neighbors lack.  First-fit greedy in
    this order therefore reproduces the DSATUR coloring.
    """
    adj = g.adjacency
    color = [-1] * g.n
    seen: list[set[int]] = [set() for _ in range(g.n)]
    heap = [(0, -len(adj[v]), v) for v in range(g.n)]
    heapq.heapify(heap)
    order = []
    while heap:
        neg_sat, neg_deg, v = heapq.heappop(heap)
        if color[v] >= 0 or -neg_sat != len(seen[v]):
            continue  # stale entry: v was colored or has gained saturation
        c = 0
        while c in seen[v]:
            c += 1
        color[v] = c
        order.append(v)
        for u in adj[v]:
            if color[u] < 0 and c not in seen[u]:
                seen[u].add(c)
                heapq.heappush(heap, (-len(seen[u]), -len(adj[u]), u))
    return order


def naive_list_dynamic(g: Graph, lists) -> tuple[int, ...] | None:
    """The first dynamic coloring in the product of the lists, or None."""
    adj = adjacency(g)
    for colors in itertools.product(*(sorted(lists[v]) for v in range(g.n))):
        if valid_dynamic(adj, colors):
            return colors
    return None


def brute_force_hypergraph_2colorable(h: Hypergraph) -> bool:
    """Whether some one of the 2^n colorings leaves no hyperedge monochromatic."""
    for colors in itertools.product((0, 1), repeat=h.n):
        if all(len({colors[v] for v in f}) == 2 for f in h.edges):
            return True
    return False


def brute_force_triangle_vertices(g: Graph) -> set[int]:
    """Triangle membership by scanning all vertex triples."""
    out: set[int] = set()
    adj = [set(a) for a in g.adjacency]
    for a, b, c in itertools.combinations(range(g.n), 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            out.update((a, b, c))
    return out


def brute_force_double_total_sets(g: Graph) -> list[frozenset[int]]:
    """All double total dominating sets by checking every one of 2^n subsets."""
    out = []
    for mask in range(2 ** g.n):
        t = {v for v in range(g.n) if mask >> v & 1}
        ok = True
        for v in range(g.n):
            nbrs = g.adjacency[v]
            inside = sum(1 for u in nbrs if u in t)
            if inside == 0 or inside == len(nbrs):
                ok = False
                break
        if ok:
            out.append(frozenset(t))
    return out


def naive_resample(event_vars, violated, redraw, cap=None):
    """Resample the lowest-indexed violated event until none is violated or
    ``cap`` resamples are spent, rescanning all events after each resample.

    ``event_vars[i]`` lists event i's variables in redraw order; ``violated(i)``
    tests event i on the caller's state and ``redraw(v)`` re-draws variable v
    in it.  A cap of None means 1000 per event.  Returns the outcome
    ("success" or "exhausted"), the resample count, the per-event resample
    counts and the cap.
    """
    if cap is None:
        cap = 1000 * max(len(event_vars), 1)
    triggers: dict[int, int] = {}
    count = 0
    while True:
        bad = next((i for i in range(len(event_vars)) if violated(i)), None)
        if bad is None:
            return "success", count, triggers, cap
        if count >= cap:
            return "exhausted", count, triggers, cap
        count += 1
        triggers[bad] = triggers.get(bad, 0) + 1
        for v in event_vars[bad]:
            redraw(v)


def random_regular_reference(
    n: int, k: int, seed: int, max_retries: int = 1000
) -> Graph:
    """The pairing model with repair, shuffling each round with
    ``random.Random.shuffle`` itself."""
    if k < 0 or k >= max(n, 1):
        raise ValueError("need 0 <= k < n")
    if (n * k) % 2 != 0:
        raise ValueError("n * k must be even")
    rng = random.Random(seed)
    if k == 0:
        return Graph.from_edges(n, [])

    def suitable(edges: set[tuple[int, int]], leftover: dict[int, int]) -> bool:
        if not leftover:
            return True
        nodes = sorted(leftover)
        for i, s1 in enumerate(nodes):
            for s2 in nodes[i + 1:]:
                if (s1, s2) not in edges:
                    return True
        return False

    def try_once() -> Optional[set[tuple[int, int]]]:
        edges: set[tuple[int, int]] = set()
        stubs = list(range(n)) * k
        while stubs:
            leftover: dict[int, int] = defaultdict(int)
            rng.shuffle(stubs)
            it = iter(stubs)
            for s1, s2 in zip(it, it):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    leftover[s1] += 1
                    leftover[s2] += 1
            if not suitable(edges, leftover):
                return None
            stubs = [v for v, c in leftover.items() for _ in range(c)]
        return edges

    for _ in range(max_retries):
        edges = try_once()
        if edges is not None:
            return Graph.from_edges(n, edges)
    raise SearchBudgetExceeded(f"random_regular({n},{k}) gave up after {max_retries} restarts")


def search_reference(
    order: Sequence[int],
    palettes: Sequence[Sequence[int]],
    adj: Sequence[Sequence[int]],
    groups: Sequence[Collection[int]],
    break_symmetry: bool,
    budget: Optional[int],
    nodes: int = 0,
) -> tuple[Optional[list[int]], int]:
    """Depth-first search for colors from ascending per-vertex palettes.

    Vertices are colored in ``order``.  A vertex skips colors already on a
    colored neighbor in ``adj``, and a branch dies as soon as one of
    ``groups`` is fully colored in a single color.  With
    ``break_symmetry`` (all palettes alike), a vertex may take at most one
    palette position above the largest taken so far.  Every color tried is
    one node, counted on from ``nodes`` against ``budget``; a negative
    budget raises ValueError.  Returns the colors by vertex (None when no
    branch survives) and the node total, or raises SearchBudgetExceeded.
    The branch state lives in per-depth arrays, not on the Python call
    stack, so no input is too deep to search.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"node budget must be >= 0, got {budget}")
    color = [-1] * len(palettes)
    incident: list[list[int]] = [[] for _ in palettes]
    for gi, grp in enumerate(groups):
        for v in grp:
            incident[v].append(gi)
    remaining = [len(grp) for grp in groups]
    limit = float("inf") if budget is None else budget
    depth = len(order)
    top = [-1] * (depth + 1)  # top[i]: largest palette position among order[:i]
    used_at: list[set[int]] = [set()] * depth  # neighbor colors at entry
    i = 0
    while 0 <= i < depth:
        v = order[i]
        inc = incident[v]
        palette = palettes[v]
        if color[v] < 0:  # first visit at this depth
            j = 0
            used = used_at[i] = {color[u] for u in adj[v]}
        else:  # back from a dead subtree: uncolor v, resume past its color
            j = bisect_right(palette, color[v])
            for gi in inc:
                remaining[gi] += 1
            color[v] = -1
            used = used_at[i]
        end = min(top[i] + 2, len(palette)) if break_symmetry else len(palette)
        while j < end:
            c = palette[j]
            j += 1
            if c in used:
                continue
            nodes += 1
            if nodes > limit:
                raise SearchBudgetExceeded("node budget exceeded", nodes)
            color[v] = c
            dead = False
            for gi in inc:
                remaining[gi] -= 1
                if not remaining[gi] and not dead:
                    for u in groups[gi]:
                        if color[u] != c:
                            break
                    else:  # the group is fully colored in c alone
                        dead = True
            if not dead:
                break
            for gi in inc:
                remaining[gi] += 1
            color[v] = -1
        if color[v] < 0:
            i -= 1
        else:
            top[i + 1] = top[i] if top[i] > j - 1 else j - 1  # j - 1: color[v]'s position
            i += 1
    return (color if i == depth else None), nodes


# Seven points, seven 3-element lines, every two lines meeting: the
# smallest 3-uniform hypergraph admitting no 2-coloring.
FANO_LINES = [
    (0, 1, 2),
    (0, 3, 4),
    (0, 5, 6),
    (1, 3, 5),
    (1, 4, 6),
    (2, 3, 6),
    (2, 4, 5),
]


def fano_plane() -> Hypergraph:
    return Hypergraph.from_edges(7, FANO_LINES)


def heawood() -> Graph:
    """The Heawood graph: cubic, and its neighborhood hypergraph (two Fano
    planes) has no 2-coloring although no hyperedge has size 2."""
    return read_edge_list((Path(__file__).parent / "data" / "heawood.txt").read_text())


def deg_into(g: Graph, members, v: int) -> int:
    """Number of neighbors of v in ``members``."""
    return sum(1 for u in g.adjacency[v] if u in members)


def kneser_all_pairs(m: int, n: int) -> Graph:
    """KG(m, n) from the definition: lexicographic n-subsets of {1..m},
    joined whenever they are disjoint."""
    subsets = [set(c) for c in itertools.combinations(range(1, m + 1), n)]
    return Graph.from_edges(len(subsets), [
        (i, j)
        for i, j in itertools.combinations(range(len(subsets)), 2)
        if not subsets[i] & subsets[j]
    ])


def triangle_hypergraph() -> Hypergraph:
    """K3 viewed as a 2-uniform hypergraph (an odd cycle, not 2-colorable)."""
    return Hypergraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def random_uniform_hypergraph(
    n: int, m: int, size: int, max_degree: int, seed: int
) -> Hypergraph:
    """Random size-uniform hypergraph with every vertex degree <= max_degree."""
    rng = random.Random(seed)
    deg = [0] * n
    edges = []
    attempts = 0
    while len(edges) < m:
        attempts += 1
        if attempts > 100 * m:
            raise RuntimeError("could not place edges under the degree cap")
        f = rng.sample(range(n), size)
        if any(deg[v] >= max_degree for v in f):
            continue
        edges.append(tuple(f))
        for v in f:
            deg[v] += 1
    return Hypergraph.from_edges(n, edges)


def regularize_hypergraph(
    h: Hypergraph, k: int, max_vertices: int = 1_000_000
) -> Hypergraph:
    """Extend a k-uniform hypergraph with max degree <= k to a k-regular one.

    Each round replaces the current hypergraph by k disjoint copies and, for
    every vertex of degree < k, adds one new edge joining its k copies; that
    raises the minimum degree by exactly one, so ``k - min degree`` rounds
    suffice.  The vertex count multiplies by k per round, hence the budget
    guard.
    """
    if not h.edges:
        raise ValueError("hypergraph has no edges")
    if any(len(f) != k for f in h.edges):
        raise ValueError(f"hypergraph is not {k}-uniform")
    deg = h.vertex_degrees()
    if max(deg) > k:
        raise ValueError(f"max degree {max(deg)} exceeds {k}")
    projected = h.n * k ** (k - min(deg))
    if projected > max_vertices:
        raise ValueError(
            f"regularized hypergraph would have {projected} vertices "
            f"(budget {max_vertices})"
        )
    current = h
    while min(deg) < k:
        n = current.n
        edges = [frozenset(v + i * n for v in f) for i in range(k) for f in current.edges]
        edges += [frozenset(v + i * n for i in range(k)) for v, d in enumerate(deg) if d < k]
        current = Hypergraph.from_edges(n * k, edges)
        deg = current.vertex_degrees()
    return current
