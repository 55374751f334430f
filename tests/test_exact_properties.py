"""Exact solvers, criticality and their vertex order against naive
oracles on random small inputs; DSATUR against its earlier heap and
first-fit greedy, and with groups against a rescanning reference; and the
2-colorability of regular graphs' neighborhood hypergraphs."""

import itertools
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dynachrome import (
    Graph,
    Hypergraph,
    ListAssignment,
    SearchBudgetExceeded,
    VertexSubset,
    check_dynamic,
    check_hypergraph_2coloring,
    check_list_respecting,
    check_proper,
    chromatic_number,
    complete,
    cycle,
    dsatur,
    dynamic_chromatic_number,
    exact,
    from_spec,
    gnp,
    hypergraph_2color_exact,
    is_k_critical,
    list_dynamic_coloring,
    neighborhood_hypergraph,
    random_regular,
)
from helpers import (
    brute_force_hypergraph_2colorable,
    digest,
    dsatur_order_reference,
    first_fit_coloring,
    naive_chromatic,
    naive_dsatur,
    naive_dynamic_chromatic,
    naive_list_dynamic,
)

MAX_N = 7


@st.composite
def graphs(draw, min_n=0):
    n = draw(st.integers(min_n, MAX_N))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, k in zip(pairs, keep) if k])


@st.composite
def graphs_with_lists(draw):
    g = draw(graphs())
    lists = draw(st.lists(st.sets(st.integers(0, 3), max_size=3),
                          min_size=g.n, max_size=g.n))
    return g, ListAssignment.of(lists)


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(2, MAX_N))
    edge = st.sets(st.integers(0, n - 1), min_size=2, max_size=n)
    return Hypergraph.from_edges(n, draw(st.lists(edge, max_size=10)))


def _assert_dsatur_with_neighborhoods_is_dynamic(g, naive=True):
    groups = neighborhood_hypergraph(g).edges
    order, coloring = dsatur(g, groups)
    assert check_dynamic(g, coloring) == []
    if naive:
        assert (order, list(coloring)) == naive_dsatur(g, groups)


@given(graphs())
def test_dsatur_order_matches_naive(g):
    order, coloring = dsatur(g)
    assert (order, list(coloring)) == naive_dsatur(g)
    _assert_dsatur_with_neighborhoods_is_dynamic(g)


@st.composite
def graphs_with_groups(draw):
    """A graph and any groups of distinct vertices, sizes 0 to n."""
    g = draw(graphs())
    group = st.sets(st.integers(0, g.n - 1)).map(sorted) if g.n else st.just([])
    return g, draw(st.lists(group, max_size=8))


@given(graphs_with_groups())
@example((cycle(5), [[0, 2], [1], [], [0, 1, 3]]))
def test_dsatur_with_groups_matches_naive(case):
    g, groups = case
    order, coloring = dsatur(g, groups)
    assert (order, list(coloring)) == naive_dsatur(g, groups)
    assert coloring.palette_size == max(coloring, default=-1) + 1


def _disjoint_union(parts: list[Graph]) -> Graph:
    edges, n = [], 0
    for part in parts:
        edges += [(u + n, v + n) for u, v in part.edges()]
        n += part.n
    return Graph.from_edges(n, edges)


@st.composite
def gnp_unions(draw):
    """One to three G(n, p) graphs side by side, n up to 30 each."""
    part = st.builds(gnp, st.integers(0, 30), st.sampled_from((0.0, 0.1, 0.3, 0.7, 1.0)),
                     st.integers(0, 2**16))
    return _disjoint_union(draw(st.lists(part, min_size=1, max_size=3)))


def _assert_dsatur_matches_reference(g):
    order, coloring = dsatur(g)
    assert order == dsatur_order_reference(g)
    assert coloring == first_fit_coloring(g, order)


@given(gnp_unions())
@example(Graph.from_edges(0, []))
@example(Graph.from_edges(1, []))
@example(Graph.from_edges(6, []))
@example(complete(7))
@example(_disjoint_union([cycle(5), complete(4), Graph.from_edges(2, [])]))
def test_dsatur_matches_reference_and_greedy(g):
    _assert_dsatur_matches_reference(g)
    _assert_dsatur_with_neighborhoods_is_dynamic(g, naive=g.n <= 20)


@pytest.mark.parametrize("spec, seed", [
    ("random_regular:3000,3", 1),
    ("random_regular:500,3", 0),
    ("random_regular:102,50", 0),
    ("kneser:9,3", 2),
    ("gnp:200,0.5", 0),
])
def test_dsatur_matches_reference_on_bench_graphs(spec, seed):
    g = from_spec(spec, seed)
    _assert_dsatur_matches_reference(g)
    _assert_dsatur_with_neighborhoods_is_dynamic(g, naive=False)


# Plain DSATUR's order and colors, recorded before ``dsatur`` took groups.
@pytest.mark.parametrize("spec, seed, want", [
    ("random_regular:3000,3", 1, ("7d530f291c8bb0c2", "7d5a8acffee981cc")),
    ("random_regular:102,50", 11, ("56015b264fa2b8ec", "1f7b6a1dd8e317ed")),
])
def test_dsatur_without_groups_pinned(spec, seed, want):
    order, colors = dsatur(from_spec(spec, seed))
    assert (digest(order), digest(colors)) == want


@given(graphs())
def test_chi_matches_naive(g):
    res = chromatic_number(g)
    assert res.value == naive_chromatic(g)
    assert res.witness.palette_size == res.value
    assert check_proper(g, res.witness) == []


@given(graphs())
def test_chid_matches_naive(g):
    res = dynamic_chromatic_number(g)
    assert res.value == naive_dynamic_chromatic(g)
    assert res.witness.palette_size == res.value
    assert check_dynamic(g, res.witness) == []


@given(graphs(), st.integers(0, 200))
@example(complete(3), 0)
@example(complete(4), 3)
@example(cycle(5), 0)
def test_budgeted_solves_match_naive_or_leave_open_bounds(g, budget):
    for solve, oracle in ((chromatic_number, naive_chromatic),
                          (dynamic_chromatic_number, naive_dynamic_chromatic)):
        res, value = solve(g, budget), oracle(g)
        if res.exhausted:
            lo, hi = res.bounds
            assert lo <= value <= hi and lo < hi
        else:
            assert res.value == value and res.nodes_explored <= budget


@st.composite
def connected_graphs(draw):
    """A random spanning tree (each vertex after 0 hangs from an earlier
    one) plus any further edges."""
    n = draw(st.integers(1, MAX_N))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, sorted(tree | {p for p, k in zip(pairs, keep) if k}))


def _delete(g: Graph, v: int) -> Graph:
    """g - v, relabeled by a direct loop over the edges."""
    return Graph.from_edges(
        g.n - 1, [(a - (a > v), b - (b > v)) for a, b in g.edges() if v not in (a, b)]
    )


@given(connected_graphs())
@example(cycle(5))
@example(complete(5))
@example(cycle(6))
def test_is_k_critical_matches_naive(g):
    k = naive_chromatic(g)
    assert is_k_critical(g) == all(naive_chromatic(_delete(g, v)) < k for v in range(g.n))


@given(connected_graphs(), st.integers(0, 60))
@example(complete(7), 0)
@example(complete(7), 30)
def test_is_k_critical_spends_one_budget(g, budget):
    spent = []

    def metered(h, b=None):
        res = chromatic_number(h, b)
        spent.append(res.nodes_explored)
        return res

    with mock.patch.object(exact, "chromatic_number", metered):
        try:
            critical = is_k_critical(g, budget)
        except SearchBudgetExceeded as exc:
            assert exc.nodes_explored == sum(spent) == budget + 1
            return
    assert sum(spent) <= budget
    assert critical == is_k_critical(g)


@given(graphs_with_lists())
def test_list_dynamic_coloring_matches_naive(case):
    g, lists = case
    found = list_dynamic_coloring(g, lists)
    assert (found is None) == (naive_list_dynamic(g, lists) is None)
    if found is not None:
        assert check_dynamic(g, found) == []
        assert check_list_respecting(g, lists, found) == []


@given(hypergraphs())
def test_hypergraph_2color_matches_brute_force(h):
    found = hypergraph_2color_exact(h)
    assert (found is not None) == brute_force_hypergraph_2colorable(h)
    if found is not None:
        assert check_hypergraph_2coloring(h, found) == []


@st.composite
def regular_with_subsets(draw):
    """A k-regular graph on n vertices, 4 <= k < n <= 12, and a vertex subset."""
    k = draw(st.integers(4, 11))
    n = draw(st.sampled_from([n for n in range(k + 1, 13) if n * k % 2 == 0]))
    g = random_regular(n, k, draw(st.integers(0, 2**16)))
    return g, VertexSubset(frozenset(draw(st.sets(st.integers(0, n - 1)))), n)


@given(regular_with_subsets())
def test_regular_neighborhood_hypergraphs_are_2colorable(case):
    # Every k-uniform k-regular hypergraph with k >= 4 is 2-colorable
    # (Thomassen, J. AMS 1992).  A k-regular graph's neighborhood hypergraph
    # is one; restricted to T it is k-uniform with max degree <= k, so it
    # embeds in one and is 2-colorable as well.
    g, t = case
    k = g.regular_degree()
    full, restricted = neighborhood_hypergraph(g), neighborhood_hypergraph(g, t)
    assert full.vertex_degrees() == [k] * g.n
    assert max(restricted.vertex_degrees(), default=0) <= k
    for h in (full, restricted):
        assert all(len(f) == k for f in h.edges)
        found = hypergraph_2color_exact(h)
        assert found is not None
        assert check_hypergraph_2coloring(h, found) == []
