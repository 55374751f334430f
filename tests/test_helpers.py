"""The test oracles that are more than a direct loop, checked on their own."""

import pytest

from dynachrome import Hypergraph, cycle, neighborhood_hypergraph
from helpers import regularize_hypergraph


def assert_uniform_regular(h: Hypergraph, k: int):
    assert all(len(f) == k for f in h.edges)
    assert h.vertex_degrees() == [k] * h.n


def test_regularize_single_edge():
    h = Hypergraph.from_edges(4, [(0, 1, 2, 3)])
    out = regularize_hypergraph(h, 4)
    assert out.n == 4 * 4**3 == 256
    assert_uniform_regular(out, 4)


def test_regularize_already_regular():
    g = cycle(6)
    h = neighborhood_hypergraph(g)  # 2-uniform, 2-regular
    assert regularize_hypergraph(h, 2) is h


def test_regularize_two_disjoint_edges():
    h = Hypergraph.from_edges(8, [(0, 1, 2, 3), (4, 5, 6, 7)])
    out = regularize_hypergraph(h, 4)
    assert out.n == 8 * 4**3
    assert_uniform_regular(out, 4)


def test_regularize_rejections():
    mixed = Hypergraph.from_edges(5, [(0, 1, 2), (3, 4)])
    with pytest.raises(ValueError):
        regularize_hypergraph(mixed, 3)
    crowded = Hypergraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(ValueError):
        regularize_hypergraph(crowded, 2)  # vertex 0 has degree 3 > 2
    big = Hypergraph.from_edges(9, [tuple(range(9))])
    with pytest.raises(ValueError):
        regularize_hypergraph(big, 9)  # 9 * 9^8 vertices blows the budget
    with pytest.raises(ValueError):
        regularize_hypergraph(Hypergraph.from_edges(3, []), 2)
