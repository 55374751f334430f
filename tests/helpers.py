"""Independent oracles and fixture builders shared across the test suite.

The naive solvers here deliberately avoid the package's search code: they
enumerate colorings outright (with only the first vertex's color pinned,
which is sound because permuting colors preserves validity) and check
validity with direct loops.  They exist to cross-examine the solvers, so
they must stay independent of them.  ``naive_resample`` is the same kind
of oracle for the resampling routines: it rescans every event after every
resample.  ``random_regular_reference`` is the pairing-model generator as it
was written against ``random.Random.shuffle``; the library generator must
build the same graph for every seed.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from typing import Optional

from dynachrome import Graph, Hypergraph


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


def naive_dsatur_order(g: Graph) -> list[int]:
    """DSATUR by rescanning every uncolored vertex at each step: most
    distinct neighbor colors, then highest degree, then lowest id."""
    color: dict[int, int] = {}
    order = []
    while len(order) < g.n:
        def seen(v):
            return {color[u] for u in g.adjacency[v] if u in color}

        v = min((v for v in range(g.n) if v not in color),
                key=lambda v: (-len(seen(v)), -g.degree(v), v))
        c = 0
        while c in seen(v):
            c += 1
        color[v] = c
        order.append(v)
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
    raise RuntimeError(f"random_regular({n},{k}) gave up after {max_retries} restarts")


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
