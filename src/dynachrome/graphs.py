"""Immutable graph and hypergraph containers plus deterministic generators.

Vertices are always the integers ``0 .. n-1``.  All generators are pure
functions of their parameters (randomized families take an explicit seed),
so identical calls always rebuild identical objects.
"""

from __future__ import annotations

import heapq
import itertools
import random
import sys
from array import array
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "Graph",
    "Hypergraph",
    "KneserSpec",
    "VertexSubset",
    "cycle",
    "complete",
    "complete_bipartite",
    "kneser",
    "gnp",
    "random_regular",
    "from_spec",
    "induced_subgraph",
    "neighborhood_hypergraph",
    "vertices_in_triangles",
    "is_connected",
    "bipartition",
    "dsatur_order",
]


# ======================================================================
# Containers
# ======================================================================


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with sorted adjacency lists.

    Build instances through :meth:`from_edges` or the generator functions;
    they validate that the edge set is simple (no loops, no duplicates)
    and keep the adjacency symmetric.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    edge_count: int

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in adj[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            adj[u].add(v)
            adj[v].add(u)
            m += 1
        return cls(n, tuple(tuple(sorted(a)) for a in adj), m)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    @property
    def min_degree(self) -> int:
        return min((len(a) for a in self.adjacency), default=0)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in ascending order."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if v > u:
                    yield (u, v)

    def neighbor_sets(self) -> list[set[int]]:
        """Fresh mutable neighbor sets, handy for intersection-heavy loops."""
        return [set(a) for a in self.adjacency]

    def regular_degree(self) -> Optional[int]:
        """The common degree if the graph is regular, else None."""
        if self.n == 0:
            return 0
        k = len(self.adjacency[0])
        return k if all(len(a) == k for a in self.adjacency) else None


@dataclass(frozen=True)
class Hypergraph:
    """Vertex set 0..n-1 plus a multiset of hyperedges of size >= 2.

    Edges are kept in insertion order and duplicates are retained: when the
    edges come from vertex neighborhoods, the multiplicity is exactly the
    number of source vertices, which is what degree bookkeeping and the
    resampling engine must see.  ``labels`` optionally records the origin
    of each edge (for neighborhood hypergraphs, the source vertex id).
    """

    n: int
    edges: tuple[frozenset[int], ...]
    labels: Optional[tuple[int, ...]] = None

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[Iterable[int]],
        labels: Optional[Sequence[int]] = None,
    ) -> "Hypergraph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        frozen = []
        for f in edges:
            fs = frozenset(f)
            if len(fs) < 2:
                raise ValueError(f"hyperedge {sorted(fs)} has size < 2")
            if any(not (0 <= v < n) for v in fs):
                raise ValueError(f"hyperedge {sorted(fs)} out of range for n={n}")
            frozen.append(fs)
        lab = tuple(labels) if labels is not None else None
        if lab is not None and len(lab) != len(frozen):
            raise ValueError("labels must match edge count")
        return cls(n, tuple(frozen), lab)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def vertex_degrees(self) -> list[int]:
        deg = [0] * self.n
        for f in self.edges:
            for v in f:
                deg[v] += 1
        return deg


@dataclass(frozen=True)
class VertexSubset:
    """A subset T of the vertices of some host graph of size ``n``."""

    members: frozenset[int]
    n: int

    def __post_init__(self) -> None:
        if any(not (0 <= v < self.n) for v in self.members):
            raise ValueError("subset member out of range")

    @classmethod
    def of(cls, g: Graph, members: Iterable[int]) -> "VertexSubset":
        return cls(frozenset(members), g.n)

    def complement(self) -> "VertexSubset":
        return VertexSubset(frozenset(range(self.n)) - self.members, self.n)

    def deg_into(self, g: Graph, v: int) -> int:
        """Number of neighbors of v that lie inside this subset."""
        return sum(1 for u in g.adjacency[v] if u in self.members)

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __contains__(self, v: int) -> bool:
        return v in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class KneserSpec:
    """Parameters (m, n) of the graph on n-subsets of {1..m} joining disjoint pairs.

    Vertex ids enumerate the n-subsets in lexicographic order, so ids are
    stable across runs.  ``t = m - 2n`` is the spread parameter; the graph
    is triangle-free exactly when m < 3n.
    """

    m: int
    n: int

    def __post_init__(self) -> None:
        if not (self.m >= 2 * self.n and self.n >= 1):
            raise ValueError("need m >= 2n >= 2")

    @property
    def t(self) -> int:
        return self.m - 2 * self.n

    def vertex_subsets(self) -> tuple[frozenset[int], ...]:
        """The n-subsets of {1..m} in lexicographic order, one per vertex id."""
        return tuple(
            frozenset(c) for c in itertools.combinations(range(1, self.m + 1), self.n)
        )

    def graph(self) -> Graph:
        return kneser(self.m, self.n)


# ======================================================================
# Generators
# ======================================================================


def cycle(n: int) -> Graph:
    """The cycle on n >= 3 vertices, edges (i, i+1 mod n)."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("complete bipartite graph needs both sides nonempty")
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def kneser(m: int, n: int) -> Graph:
    """Graph on the n-subsets of {1..m}; vertices adjacent iff disjoint."""
    spec = KneserSpec(m, n)
    subsets = spec.vertex_subsets()
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(len(subsets)), 2)
        if not (subsets[i] & subsets[j])
    ]
    return Graph.from_edges(len(subsets), edges)


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p); identical (n, p, seed) gives identical edges."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def _shuffle(rng: random.Random, x: list) -> None:
    """Shuffle ``x`` in place exactly as ``rng.shuffle(x)`` does, drawing in bulk.

    ``Random.shuffle`` picks the partner of position i = len-1 .. 1 with
    ``getrandbits(k)``, k = (i+1).bit_length(), redrawing while the result
    exceeds i.  For k <= 32 (lists shorter than 2**32) each such draw is the
    top k bits of one 32-bit Mersenne Twister output, and
    ``getrandbits(32 * m)`` returns m consecutive outputs, least significant
    first.  Every position still open takes at least one output, so drawing
    one output per open position never runs ahead of ``shuffle``: the
    permutation and the generator's state afterwards are the same.
    """
    i = len(x) - 1
    while i > 0:
        words = array("I", rng.getrandbits(32 * i).to_bytes(4 * i, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        k = (i + 1).bit_length()
        shift = 32 - k
        low = (1 << (k - 1)) - 1  # below this, i + 1 needs one bit fewer
        for w in words:
            j = w >> shift
            if j <= i:
                x[i], x[j] = x[j], x[i]
                i -= 1
                if i < low:
                    shift += 1
                    low >>= 1


def random_regular(n: int, k: int, seed: int, max_retries: int = 1000) -> Graph:
    """Random simple k-regular graph via the pairing model with repair.

    Stubs are matched in shuffled rounds; pairs that would create a loop or
    a duplicate edge are thrown back and rematched in the next round.  A
    round that gets stuck (every remaining pair is unusable) restarts the
    pairing from scratch, up to ``max_retries`` restarts.  The shuffles
    replay ``random.Random(seed).shuffle`` from bulk draws, so the graph
    for a given seed is the one ``shuffle`` would give.
    """
    if k < 0 or k >= max(n, 1):
        raise ValueError("need 0 <= k < n")
    if (n * k) % 2 != 0:
        raise ValueError("n * k must be even")
    rng = random.Random(seed)
    if k == 0:
        return Graph.from_edges(n, [])

    def suitable(higher: list[set[int]], leftover: dict[int, int]) -> bool:
        if not leftover:
            return True
        nodes = sorted(leftover)
        for i, s1 in enumerate(nodes):
            for s2 in nodes[i + 1:]:
                if s2 not in higher[s1]:
                    return True
        return False

    def try_once() -> Optional[list[set[int]]]:
        # Edge {u, v} with u < v is recorded as v in higher[u].
        higher: list[set[int]] = [set() for _ in range(n)]
        stubs = list(range(n)) * k
        while stubs:
            leftover: dict[int, int] = defaultdict(int)
            _shuffle(rng, stubs)
            it = iter(stubs)
            for s1, s2 in zip(it, it):
                if s1 > s2:
                    s1, s2 = s2, s1
                h = higher[s1]
                if s1 != s2 and s2 not in h:
                    h.add(s2)
                else:
                    leftover[s1] += 1
                    leftover[s2] += 1
            if not suitable(higher, leftover):
                return None
            stubs = [v for v, c in leftover.items() for _ in range(c)]
        return higher

    for _ in range(max_retries):
        higher = try_once()
        if higher is not None:
            return Graph.from_edges(n, ((u, v) for u in range(n) for v in higher[u]))
    raise RuntimeError(f"random_regular({n},{k}) gave up after {max_retries} restarts")


_SPEC_FAMILIES = {
    "cycle": 1,
    "complete": 1,
    "complete_bipartite": 2,
    "kneser": 2,
    "gnp": 2,
    "random_regular": 2,
}


def from_spec(text: str, seed: Optional[int] = None) -> Graph:
    """Build a graph from a compact spec string like ``cycle:8`` or ``gnp:50,0.2``.

    Randomized families (gnp, random_regular) require ``seed``.
    """
    name, _, argtext = text.partition(":")
    name = name.strip()
    if name not in _SPEC_FAMILIES:
        raise ValueError(f"unknown graph family {name!r}")
    args = [a.strip() for a in argtext.split(",") if a.strip()]
    if len(args) != _SPEC_FAMILIES[name]:
        raise ValueError(f"{name} expects {_SPEC_FAMILIES[name]} parameter(s)")
    if name == "cycle":
        return cycle(int(args[0]))
    if name == "complete":
        return complete(int(args[0]))
    if name == "complete_bipartite":
        return complete_bipartite(int(args[0]), int(args[1]))
    if name == "kneser":
        return kneser(int(args[0]), int(args[1]))
    if seed is None:
        raise ValueError(f"{name} is randomized and needs a seed")
    if name == "gnp":
        return gnp(int(args[0]), float(args[1]), seed)
    return random_regular(int(args[0]), int(args[1]), seed)


# ======================================================================
# Structural operations
# ======================================================================


def induced_subgraph(
    g: Graph, subset: VertexSubset | Iterable[int]
) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``subset`` plus the id mapping back to ``g``.

    Vertices are relabeled 0..|S|-1 in ascending order of their original
    ids; the returned tuple maps each new id to its original id.
    """
    members = subset.members if isinstance(subset, VertexSubset) else frozenset(subset)
    if any(not (0 <= v < g.n) for v in members):
        raise ValueError("subset vertex out of range")
    mapping = tuple(sorted(members))
    index = {old: new for new, old in enumerate(mapping)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges()
        if u in members and v in members
    ]
    return Graph.from_edges(len(mapping), edges), mapping


def neighborhood_hypergraph(
    g: Graph, target: Optional[VertexSubset] = None
) -> Hypergraph:
    """Hypergraph whose edges are the open neighborhoods N(v) of ``g``.

    Every vertex of degree >= 2 contributes one edge, and duplicate
    neighborhoods are retained as distinct edges so the per-vertex event
    count matches the number of source vertices.  Vertices of degree <= 1
    contribute nothing (their count is ``g.n`` minus the label count).

    With ``target`` given, only neighborhoods entirely inside the target
    survive, and the result lives on the target relabeled 0..|T|-1 in
    ascending member order.  Edge labels always name the source vertex in
    the original id space.
    """
    if target is None:
        edges = []
        labels = []
        for v in range(g.n):
            if g.degree(v) >= 2:
                edges.append(g.adjacency[v])
                labels.append(v)
        return Hypergraph.from_edges(g.n, edges, labels)

    if target.n != g.n:
        raise ValueError("target subset belongs to a different host size")
    index = {old: new for new, old in enumerate(target.sorted_members())}
    edges = []
    labels = []
    for v in range(g.n):
        if g.degree(v) < 2:
            continue
        if all(u in target.members for u in g.adjacency[v]):
            edges.append([index[u] for u in g.adjacency[v]])
            labels.append(v)
    return Hypergraph.from_edges(len(target), edges, labels)


def vertices_in_triangles(g: Graph) -> VertexSubset:
    """The set of vertices that lie in at least one triangle."""
    marked: set[int] = set()
    adj = g.neighbor_sets()
    for u, v in g.edges():
        common = adj[u] & adj[v]
        if common:
            marked.add(u)
            marked.add(v)
            marked.update(common)
            if len(marked) == g.n:
                break
    return VertexSubset(frozenset(marked), g.n)


# ======================================================================
# Small structural queries shared by solvers and constructions
# ======================================================================


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in g.adjacency[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


def bipartition(g: Graph) -> Optional[list[int]]:
    """A proper 2-coloring by BFS per component, or None if an odd cycle exists."""
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in g.adjacency[v]:
                if color[u] < 0:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    return color


def dsatur_order(g: Graph) -> list[int]:
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
