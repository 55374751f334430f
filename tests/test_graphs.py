"""Generators, structural operations, and their counting oracles."""

import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynachrome import (
    Graph,
    Hypergraph,
    KneserSpec,
    VertexSubset,
    bipartition,
    complete,
    complete_bipartite,
    cycle,
    from_spec,
    gnp,
    induced_subgraph,
    is_connected,
    kneser,
    neighborhood_hypergraph,
    random_regular,
    vertices_in_triangles,
)
from dynachrome.graphs import _shuffle
from helpers import brute_force_triangle_vertices, random_regular_reference


def assert_well_formed(g: Graph):
    assert all(u != v for u, v in g.edges())
    for u in range(g.n):
        for v in g.adjacency[u]:
            assert u in g.adjacency[v]
        assert list(g.adjacency[u]) == sorted(set(g.adjacency[u]))
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count


@pytest.mark.parametrize(
    "g",
    [
        cycle(3),
        cycle(8),
        complete(1),
        complete(5),
        complete_bipartite(2, 3),
        kneser(5, 2),
        kneser(6, 2),
        gnp(30, 0.3, seed=7),
        random_regular(12, 3, seed=7),
        random_regular(10, 9, seed=1),
    ],
)
def test_generated_graphs_are_well_formed(g):
    assert_well_formed(g)


def test_cycle_counts():
    g = cycle(5)
    assert g.n == 5 and g.edge_count == 5
    assert all(g.degree(v) == 2 for v in range(5))
    with pytest.raises(ValueError):
        cycle(2)


def test_complete_and_bipartite():
    assert complete(4).edge_count == 6
    kb = complete_bipartite(3, 4)
    assert kb.edge_count == 12
    assert kb.max_degree == 4 and kb.min_degree == 3


def test_kneser_petersen_counts():
    g = kneser(5, 2)
    assert g.n == 10
    assert all(g.degree(v) == comb(3, 2) for v in range(g.n))
    assert g.edge_count == 10 * 3 // 2 == 15


def test_kneser_7_3_counts():
    g = kneser(7, 3)
    assert g.n == 35
    assert all(g.degree(v) == comb(4, 3) for v in range(g.n))
    assert g.edge_count == 35 * 4 // 2 == 70


def test_kneser_adjacency_is_disjointness():
    spec = KneserSpec(6, 2)
    subsets = spec.vertex_subsets()
    g = spec.graph()
    # Lexicographic vertex order is part of the contract.
    assert subsets[0] == frozenset({1, 2})
    assert subsets[-1] == frozenset({5, 6})
    adj = [set(a) for a in g.adjacency]
    for i, j in itertools.combinations(range(g.n), 2):
        assert (j in adj[i]) == (not subsets[i] & subsets[j])


def test_kneser_spec_validation():
    with pytest.raises(ValueError):
        KneserSpec(3, 2)
    with pytest.raises(ValueError):
        KneserSpec(4, 0)
    assert KneserSpec(7, 3).t == 1
    assert len(KneserSpec(7, 3).vertex_subsets()) == 35


def test_gnp_reproducible():
    a = gnp(40, 0.25, seed=123)
    b = gnp(40, 0.25, seed=123)
    c = gnp(40, 0.25, seed=124)
    assert a == b
    assert a != c
    with pytest.raises(ValueError):
        gnp(5, 1.5, seed=0)


def test_random_regular_properties():
    for seed in range(5):
        g = random_regular(16, 5, seed=seed)
        assert_well_formed(g)
        assert g.regular_degree() == 5
    assert random_regular(16, 5, seed=3) == random_regular(16, 5, seed=3)
    with pytest.raises(ValueError):
        random_regular(5, 3, seed=0)  # odd stub count
    with pytest.raises(ValueError):
        random_regular(5, 5, seed=0)


# Lengths on either side of each power of two, where the number of bits
# drawn per position changes.
_EDGE_LENGTHS = sorted({v for m in range(12) for v in (2**m - 1, 2**m, 2**m + 1)})


@st.composite
def shuffle_cases(draw):
    n = draw(st.one_of(st.integers(0, 3000), st.sampled_from(_EDGE_LENGTHS)))
    distinct = draw(st.integers(1, max(n, 1)))  # fewer than n repeats values
    return [v % distinct for v in range(n)]


@settings(max_examples=300)
@given(
    seed=st.integers(0, 2**64),
    warmup=st.integers(0, 700),
    values=shuffle_cases(),
)
def test_bulk_shuffle_replays_stdlib_shuffle(seed, warmup, values):
    ours, theirs = random.Random(seed), random.Random(seed)
    for rng in (ours, theirs):
        for _ in range(warmup):  # start at any point of the twister's block
            rng.getrandbits(32)
    got, want = list(values), list(values)
    _shuffle(ours, got)
    theirs.shuffle(want)
    assert got == want
    assert ours.getstate() == theirs.getstate()


def _outcome(generate, *args, **kwargs):
    try:
        return generate(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _assert_same_as_reference(n, k, seeds, **kwargs):
    for seed in seeds:
        got = _outcome(random_regular, n, k, seed, **kwargs)
        assert got == _outcome(random_regular_reference, n, k, seed, **kwargs), (n, k, seed)


@pytest.mark.parametrize(
    "n,k,seeds",
    [(102, 50, range(16)), (700, 3, range(6)), (200, 3, [16]), (3000, 3, [1])],
)
def test_random_regular_matches_reference_on_bench_sizes(n, k, seeds):
    _assert_same_as_reference(n, k, seeds)


def test_random_regular_matches_reference_on_small_and_edge_cases():
    for n in range(1, 13):
        _assert_same_as_reference(n, 0, range(3))  # no stubs, no draws
        _assert_same_as_reference(n, n - 1, range(3))  # complete graph
        for k in range(1, n - 1):
            if n * k % 2 == 0:
                _assert_same_as_reference(n, k, range(40))
    assert random_regular(0, 0, seed=0).n == 0


def test_random_regular_error_paths_match_reference():
    for n, k in [(5, 3), (5, 5), (4, -1), (0, 1), (7, 7)]:
        _assert_same_as_reference(n, k, [0])
        with pytest.raises(ValueError):
            random_regular(n, k, seed=0)
    # Dense graphs get stuck often: with one or two restarts some seeds
    # give up, and the ones that do must be the same on both sides.
    gave_up = 0
    for retries in (1, 2):
        _assert_same_as_reference(10, 7, range(40), max_retries=retries)
        for seed in range(40):
            gave_up += isinstance(_outcome(random_regular, 10, 7, seed, max_retries=retries), tuple)
    assert 0 < gave_up < 80
    with pytest.raises(RuntimeError, match="gave up after 1 restarts"):
        random_regular(10, 7, seed=0, max_retries=1)


def test_from_spec():
    assert from_spec("cycle:6") == cycle(6)
    assert from_spec("kneser:5,2") == kneser(5, 2)
    assert from_spec("gnp:20,0.5", seed=9) == gnp(20, 0.5, seed=9)
    with pytest.raises(ValueError):
        from_spec("mystery:3")
    with pytest.raises(ValueError):
        from_spec("gnp:20,0.5")  # randomized family without a seed
    with pytest.raises(ValueError):
        from_spec("cycle:6,7")


def test_graph_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 5)])


# ----------------------------------------------------------------------
# induced subgraphs
# ----------------------------------------------------------------------


def test_induced_subgraph_k4_pair():
    sub, mapping = induced_subgraph(complete(4), {0, 1})
    assert sub.n == 2 and sub.edge_count == 1
    assert mapping == (0, 1)


def test_induced_subgraph_cycle8():
    sub, mapping = induced_subgraph(cycle(8), {0, 1, 4, 5})
    assert mapping == (0, 1, 4, 5)
    assert sorted(sub.edges()) == [(0, 1), (2, 3)]


def test_induced_subgraph_empty_and_roundtrip():
    g = kneser(5, 2)
    sub, mapping = induced_subgraph(g, set())
    assert sub.n == 0 and sub.edge_count == 0
    sub, mapping = induced_subgraph(g, {1, 3, 4, 8})
    host_adj = [set(a) for a in g.adjacency]
    for u, v in sub.edges():
        assert mapping[v] in host_adj[mapping[u]]
    # Every host edge inside the subset must appear.
    inside = [
        (u, v) for u, v in g.edges() if u in {1, 3, 4, 8} and v in {1, 3, 4, 8}
    ]
    assert len(inside) == sub.edge_count
    with pytest.raises(ValueError):
        induced_subgraph(g, {99})


# ----------------------------------------------------------------------
# neighborhood hypergraphs
# ----------------------------------------------------------------------


def test_neighborhood_hypergraph_cycle4_multiset():
    h = neighborhood_hypergraph(cycle(4))
    assert h.n == 4
    assert [sorted(f) for f in h.edges] == [[1, 3], [0, 2], [1, 3], [0, 2]]
    assert h.labels == (0, 1, 2, 3)
    # Duplicates retained, so each vertex sits in 2 edges.
    assert h.vertex_degrees() == [2, 2, 2, 2]


def test_neighborhood_hypergraph_triangle():
    h = neighborhood_hypergraph(complete(3))
    assert h.edge_count == 3
    assert all(len(f) == 2 for f in h.edges)


def test_neighborhood_hypergraph_skips_low_degree():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])  # path plus isolated vertex 3
    h = neighborhood_hypergraph(g)
    assert h.labels == (1,)
    assert [sorted(f) for f in h.edges] == [[0, 2]]


def test_neighborhood_hypergraph_with_target():
    g = cycle(8)
    target = VertexSubset.of(g, {0, 1, 4, 5})
    h = neighborhood_hypergraph(g, target)
    assert h.n == 4
    assert h.edge_count == 0  # no full neighborhood fits inside the target
    # A target that does capture neighborhoods, relabeled to 0..|T|-1:
    star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)])
    t = VertexSubset.of(star, {1, 2, 3, 4})
    ht = neighborhood_hypergraph(star, t)
    assert ht.n == 4
    assert [sorted(f) for f in ht.edges] == [[0, 1, 2, 3]]
    assert ht.labels == (0,)


def test_neighborhood_hypergraph_regular_graph():
    g = random_regular(12, 3, seed=2)
    h = neighborhood_hypergraph(g)
    assert all(len(f) == 3 for f in h.edges)
    assert h.vertex_degrees() == [3] * g.n


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph.from_edges(3, [(1,)])
    with pytest.raises(ValueError):
        Hypergraph.from_edges(3, [(0, 7)])


# ----------------------------------------------------------------------
# triangles and misc structure
# ----------------------------------------------------------------------


def test_vertices_in_triangles_complete4():
    assert set(vertices_in_triangles(complete(4))) == {0, 1, 2, 3}


def test_vertices_in_triangles_c5_empty():
    assert len(vertices_in_triangles(cycle(5))) == 0


def test_vertices_in_triangles_petersen_empty():
    g = kneser(5, 2)
    assert len(vertices_in_triangles(g)) == 0
    assert brute_force_triangle_vertices(g) == set()


def test_vertices_in_triangles_matches_brute_force():
    for seed in range(4):
        g = gnp(14, 0.35, seed=seed)
        assert set(vertices_in_triangles(g)) == brute_force_triangle_vertices(g)


def test_vertex_subset_basics():
    g = cycle(8)
    t = VertexSubset.of(g, {0, 1, 4, 5})
    assert t.complement().members == frozenset({2, 3, 6, 7})
    assert t.deg_into(g, 0) == 1  # neighbors 1 and 7, only 1 inside
    assert t.deg_into(g, 2) == 1
    assert len(t) == 4 and 4 in t and 2 not in t
    with pytest.raises(ValueError):
        VertexSubset(frozenset({9}), 4)


def test_connectivity_and_bipartition():
    assert is_connected(cycle(5))
    assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert bipartition(cycle(6)) is not None
    assert bipartition(cycle(5)) is None
    two = bipartition(complete_bipartite(3, 4))
    assert two is not None
    assert {two[i] for i in range(3)} != {two[i] for i in range(3, 7)}
