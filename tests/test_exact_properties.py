"""Exact solvers and their vertex order against naive oracles on random
small inputs."""

import itertools

from hypothesis import given
from hypothesis import strategies as st

from dynachrome import (
    Graph,
    Hypergraph,
    ListAssignment,
    check_dynamic,
    check_hypergraph_2coloring,
    check_list_respecting,
    check_proper,
    chromatic_number,
    dsatur_order,
    dynamic_chromatic_number,
    hypergraph_2color_exact,
    list_dynamic_coloring,
)
from helpers import (
    brute_force_hypergraph_2colorable,
    naive_dsatur_order,
    naive_chromatic,
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


@given(graphs())
def test_dsatur_order_matches_naive(g):
    assert dsatur_order(g) == naive_dsatur_order(g)


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
