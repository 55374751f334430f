"""Immutable graph, hypergraph and coloring containers plus deterministic
generators.

Vertices are always the integers ``0 .. n-1``.  All generators are pure
functions of their parameters (randomized families take an explicit int seed),
so identical calls always rebuild identical objects.  The colorers
:func:`dsatur` and :func:`bipartition` return a :class:`Coloring` on one
past the largest color they use.
"""

from __future__ import annotations

import heapq
import itertools
import random
import sys
from array import array
from collections import Counter, deque
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Optional, Sequence

__all__ = [
    "Coloring",
    "Graph",
    "Hypergraph",
    "KneserSpec",
    "SearchBudgetExceeded",
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
    "dsatur",
]


def _is_int(value) -> bool:
    """An int that is not a bool: the one form of a vertex id, count or colour."""
    return isinstance(value, int) and not isinstance(value, bool)


def _rng(seed: int) -> random.Random:
    """The generator of every seeded draw; a seed is an int, not a bool."""
    if not _is_int(seed):
        raise ValueError(f"seed must be an int, got {seed!r}")
    return random.Random(seed)


def _check_count(value, what: str) -> None:
    """Refuse a count, named by ``what``, that is negative or not an int (a
    bool included): a node budget, a resample cap or a restart limit."""
    if not _is_int(value):
        raise ValueError(f"{what} must be an int, got {value!r}")
    if value < 0:
        raise ValueError(f"{what} must be >= 0, got {value}")


def _ints_in_range(values: Collection, bound: int) -> bool:
    """Whether every one of ``values`` is an int (no bool) in ``range(bound)``.

    The types are collected once, so ``min`` and ``max`` decide the range.
    """
    types = set(map(type, values))
    return (
        bool not in types
        and all(issubclass(t, int) for t in types)
        and (not values or (0 <= min(values) and max(values) < bound))
    )


class SearchBudgetExceeded(RuntimeError):
    """A budget ran out before the answer was decided: an exact search's
    node budget, a resampler's cap or a generator's restart limit, never a
    certified "none".  ``nodes_explored`` counts the exact-search nodes
    spent, 0 where no search ran."""

    def __init__(self, message: str, nodes_explored: int = 0):
        super().__init__(message)
        self.nodes_explored = nodes_explored


# ======================================================================
# Containers
# ======================================================================


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with sorted adjacency lists.

    Build instances through :meth:`from_edges` or the generator functions;
    they validate that the edge set is simple (no loops, no duplicates)
    and keep the adjacency symmetric.  Only the adjacency is stored; the
    vertex and edge counts are read off it.
    """

    adjacency: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in adj[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            adj[u].add(v)
            adj[v].add(u)
        return cls(tuple(tuple(sorted(a)) for a in adj))

    @property
    def n(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adjacency)) // 2

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

    def regular_degree(self) -> Optional[int]:
        """The common degree if the graph is regular, else None."""
        if self.n == 0:
            return 0
        k = len(self.adjacency[0])
        return k if all(len(a) == k for a in self.adjacency) else None


@dataclass(frozen=True)
class Hypergraph:
    """Vertex set 0..n-1 plus a multiset of hyperedges of size >= 2.

    Each edge is the ascending tuple of its distinct vertices.  Edges are
    kept in insertion order and duplicates are retained: when the edges
    come from vertex neighborhoods, the multiplicity is exactly the number
    of source vertices, which is what degree bookkeeping and the
    resampling engine must see.
    """

    n: int
    edges: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        canonical = []
        for f in edges:
            e = tuple(sorted(set(f)))
            if len(e) < 2:
                raise ValueError(f"hyperedge {list(e)} has size < 2")
            if e[0] < 0 or e[-1] >= n:
                raise ValueError(f"hyperedge {list(e)} out of range for n={n}")
            canonical.append(e)
        return cls(n, tuple(canonical))

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
    """A subset T of the vertices ``range(n)`` of some host graph; ids and ``n`` are ints."""

    members: frozenset[int]
    n: int

    def __post_init__(self) -> None:
        if not (_is_int(self.n) and _ints_in_range(self.members, self.n)):
            raise ValueError(f"need an int n and int members in range(n), got n={self.n!r}")

    @classmethod
    def of(cls, g: Graph, members: Iterable[int]) -> "VertexSubset":
        return cls(frozenset(members), g.n)

    def complement(self) -> "VertexSubset":
        return VertexSubset(frozenset(range(self.n)) - self.members, self.n)

    def __contains__(self, v: int) -> bool:
        return v in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Coloring:
    """A total assignment of color ids to vertices: ``colors[v]``, the color
    of vertex v, is an int in ``range(palette_size)``; no bool.  ``colors``
    must be a tuple, so a checked record is hashable and never changes."""

    colors: tuple[int, ...]
    palette_size: int

    def __post_init__(self) -> None:
        if not _is_int(self.palette_size) or self.palette_size < 0:
            raise ValueError(f"palette size must be a nonnegative int, got {self.palette_size!r}")
        if not isinstance(self.colors, tuple):
            raise ValueError(f"colors must be a tuple, got {type(self.colors).__name__}")
        if _ints_in_range(self.colors, self.palette_size):
            return
        for v, c in enumerate(self.colors):  # name the first bad vertex
            if not _is_int(c) or not 0 <= c < self.palette_size:
                raise ValueError(
                    f"color {c!r} of vertex {v} outside palette of size {self.palette_size}"
                )

    def __getitem__(self, v: int) -> int:
        return self.colors[v]

    def __len__(self) -> int:
        return len(self.colors)

    @property
    def colors_used(self) -> int:
        return len(set(self.colors))


@dataclass(frozen=True)
class KneserSpec:
    """Parameters (m, n) of the graph on n-subsets of {1..m} joining disjoint pairs.

    Vertex ids enumerate the n-subsets in lexicographic order (see
    :meth:`vertex_subsets`), so ids are stable across runs.  ``t = m - 2n``
    is the spread parameter; the graph is triangle-free exactly when m < 3n.
    """

    m: int
    n: int

    def __post_init__(self) -> None:
        if not (self.m >= 2 * self.n and self.n >= 1):
            raise ValueError("need m >= 2n >= 2")

    @property
    def t(self) -> int:
        return self.m - 2 * self.n

    def vertex_subsets(self) -> tuple[tuple[int, ...], ...]:
        """The n-subsets of {1..m} as ascending tuples, entry i that of vertex i."""
        return tuple(itertools.combinations(range(1, self.m + 1), self.n))

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
    """Graph on the n-subsets of {1..m}; vertices adjacent iff disjoint.

    Vertex i is ``KneserSpec(m, n).vertex_subsets()[i]``.  Its partners
    are the n-subsets of its complement, looked up by their ascending tuple,
    one lookup per edge end, and come in lexicographic order, as the ids
    do, so each adjacency tuple is already sorted.
    """
    subsets = KneserSpec(m, n).vertex_subsets()  # checks m >= 2n >= 2
    index = {a: i for i, a in enumerate(subsets)}
    ground = range(1, m + 1)
    return Graph(tuple(
        tuple(index[b] for b in itertools.combinations([x for x in ground if x not in a], n))
        for a in subsets
    ))


def gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p); identical (n, p, seed) gives identical edges."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = _rng(seed)
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
    pairing from scratch, up to ``max_retries`` restarts, and raises
    SearchBudgetExceeded once they are spent; a negative or non-int
    ``max_retries``, or a seed that is not an int, raises ValueError.  The
    shuffles replay ``random.Random(seed).shuffle`` from bulk draws, so the
    graph for a given seed is the one ``shuffle`` would give.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if k < 0 or k >= max(n, 1):
        raise ValueError("need 0 <= k < n")
    if (n * k) % 2 != 0:
        raise ValueError("n * k must be even")
    _check_count(max_retries, "max_retries")
    rng = _rng(seed)
    for _ in range(max_retries):
        # Edge {u, v} with u < v is recorded as v in higher[u].
        higher: list[set[int]] = [set() for _ in range(n)]
        stubs = list(range(n)) * k
        while stubs:
            _shuffle(rng, stubs)
            thrown: list[int] = []
            it = iter(stubs)
            for s1, s2 in zip(it, it):
                if s1 > s2:
                    s1, s2 = s2, s1
                h = higher[s1]
                if s1 != s2 and s2 not in h:
                    h.add(s2)
                else:
                    thrown += (s1, s2)
            left = Counter(thrown)  # keys in first-occurrence order
            pairs = itertools.combinations(sorted(left), 2)
            if left and all(b in higher[a] for a, b in pairs):
                break  # stuck: every thrown-back pair would be a loop or a repeat
            stubs = list(left.elements())
        else:
            # The pairing refused every loop and repeat, and n >= 0 was
            # checked above, so nothing needs from_edges' checks.  Each row is its lower neighbours, filled
            # in ascending u, then its sorted higher ones.
            adj: list[list[int]] = [[] for _ in range(n)]
            for u, h in enumerate(higher):
                for v in h:
                    adj[v].append(u)
            for row, h in zip(adj, higher):
                row.extend(sorted(h))
            return Graph(tuple(map(tuple, adj)))
    raise SearchBudgetExceeded(f"random_regular({n},{k}) gave up after {max_retries} restarts")


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

    Randomized families (gnp, random_regular) require an int ``seed``.
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
    if name == "gnp":
        return gnp(int(args[0]), float(args[1]), seed)
    return random_regular(int(args[0]), int(args[1]), seed)


# ======================================================================
# Structural operations
# ======================================================================


def induced_subgraph(g: Graph, t: VertexSubset) -> Graph:
    """Induced subgraph on ``t``, a subset of ``g``'s vertices.

    Vertices are relabeled 0..|T|-1 in ascending order of their original
    ids, so new id i is the i-th member of ``tuple(t)``.  That relabeling
    keeps order, so mapping ``g``'s sorted, symmetric adjacency keeps it
    sorted and symmetric.
    """
    if t.n != g.n:
        raise ValueError("subset belongs to a different host size")
    index = {old: new for new, old in enumerate(t)}
    return Graph(tuple(tuple(index[u] for u in g.adjacency[v] if u in index) for v in index))


def neighborhood_hypergraph(
    g: Graph, target: Optional[VertexSubset] = None
) -> Hypergraph:
    """Hypergraph whose edges are the open neighborhoods N(v) of ``g``.

    Every vertex of degree >= 2 contributes one edge, and duplicate
    neighborhoods are retained as distinct edges so the per-vertex event
    count matches the number of source vertices.  Vertices of degree <= 1
    contribute nothing.

    With ``target`` given, only neighborhoods entirely inside the target
    survive, and the result lives on the target relabeled 0..|T|-1 in
    ascending member order.  Adjacency tuples are ascending and the
    relabeling keeps order, so no edge needs :meth:`Hypergraph.from_edges`.
    """
    if target is None:
        return Hypergraph(g.n, tuple(a for a in g.adjacency if len(a) >= 2))

    if target.n != g.n:
        raise ValueError("target subset belongs to a different host size")
    index = {old: new for new, old in enumerate(target)}
    edges = tuple(
        tuple(index[u] for u in a)
        for a in g.adjacency
        if len(a) >= 2 and all(u in index for u in a)
    )
    return Hypergraph(len(index), edges)


def vertices_in_triangles(g: Graph) -> VertexSubset:
    """The set of vertices that lie in at least one triangle."""
    marked: set[int] = set()
    adj = [set(a) for a in g.adjacency]
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


def bipartition(g: Graph) -> Optional[Coloring]:
    """A proper coloring on at most 2 colors by BFS per component, or None
    if an odd cycle exists.  Its palette is one past the largest color
    used: 0 on the empty graph, 1 on an edgeless one, 2 otherwise."""
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
    return Coloring(tuple(color), max(color, default=-1) + 1)


def dsatur(
    g: Graph, groups: Optional[Sequence[Sequence[int]]] = None
) -> tuple[list[int], Coloring]:
    """DSATUR (Brélaz, CACM 1979): the order in which it colors the vertices,
    and the coloring it gives them, on one past the largest color used.

    Each step takes the uncolored vertex that may not take the most
    colors, ties by higher degree and then lower id, and gives it the
    smallest color it may take.  A vertex may not take a color held by a
    colored neighbor; without ``groups`` that is the only rule, and the
    colors are exactly what first-fit greedy gives in this order.  Each of
    ``groups`` (distinct vertices) with two or more members adds one: the
    last uncolored member may not take color c when all the others hold c.
    With the neighborhood hypergraph's edges as groups, every neighborhood
    thus ends up with two colors, and the coloring is dynamic.  A heap
    entry is one int, the base n + 1 digits (n - saturation, n - degree,
    id), so ints compare as those triples would; saturation counts the
    colors the vertex may not take.
    """
    n = g.n
    adj = g.adjacency
    b = n + 1
    bb = b * b
    low = [(n - len(adj[v])) * b + v for v in range(n)]  # the last two digits
    color = [-1] * n
    seen: list[set[int]] = [set() for _ in range(n)]  # the colors v may not take
    heap = [n * bb + x for x in low]
    heapq.heapify(heap)
    order = []
    member_of: Optional[list[list[int]]] = None  # group indices by vertex
    if groups:
        groups = [grp for grp in groups if len(grp) >= 2]
        member_of = [[] for _ in range(n)]
        for i, grp in enumerate(groups):
            for u in grp:
                member_of[u].append(i)
        left = [len(grp) for grp in groups]  # uncolored members by group
    while heap:
        key = heapq.heappop(heap)
        v = key % b
        if color[v] >= 0 or key // bb != n - len(seen[v]):
            continue  # stale entry: v was colored or has gained saturation
        c = 0
        while c in seen[v]:
            c += 1
        color[v] = c
        order.append(v)
        for u in adj[v]:
            if color[u] < 0 and c not in seen[u]:
                seen[u].add(c)
                heapq.heappush(heap, (n - len(seen[u])) * bb + low[u])
        if member_of is None:
            continue
        for i in member_of[v]:
            left[i] -= 1
            if left[i] == 1:  # one member open: are all the others in c?
                last = -1
                for u in groups[i]:
                    if color[u] < 0:
                        last = u
                    elif color[u] != c:
                        break
                else:
                    if c not in seen[last]:
                        seen[last].add(c)
                        heapq.heappush(heap, (n - len(seen[last])) * bb + low[last])
    return order, Coloring(tuple(color), max(color, default=-1) + 1)

