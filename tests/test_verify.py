"""Checker soundness: hand-built positive and negative fixtures, and
``check_proper`` against its earlier form on random colored graphs."""

import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dynachrome import (
    Coloring,
    Graph,
    Hypergraph,
    ListAssignment,
    VertexSubset,
    Violation,
    check_domination,
    check_dynamic,
    check_hypergraph_2coloring,
    check_list_respecting,
    check_proper,
    complete,
    cycle,
    gnp,
    violations_to_json,
)
from helpers import check_proper_reference, fano_plane


def col(*cs, palette=None):
    return Coloring.total(cs, palette)


# ----------------------------------------------------------------------
# proper
# ----------------------------------------------------------------------


def test_proper_cycle4_ok():
    assert check_proper(cycle(4), col(0, 1, 0, 1)) == []


def test_proper_triangle_violation():
    out = check_proper(complete(3), col(0, 0, 1))
    assert out == [Violation("improper_edge", (0, 1))]


def test_proper_c5_wraparound():
    out = check_proper(cycle(5), col(0, 1, 0, 1, 0))
    assert out == [Violation("improper_edge", (0, 4))]


@st.composite
def colored_graphs(draw):
    n = draw(st.integers(0, 25))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    palette = draw(st.integers(1, 4))
    colors = draw(st.lists(st.integers(0, palette - 1), min_size=n, max_size=n))
    g = Graph.from_edges(n, [p for p, k in zip(pairs, keep) if k])
    return g, Coloring.total(colors, palette)


@given(colored_graphs())
@example((Graph.from_edges(0, []), Coloring.total([], 1)))
@example((complete(6), Coloring.total([0] * 6, 1)))
@example((gnp(25, 0.5, seed=3), Coloring.total([v % 2 for v in range(25)], 2)))
def test_proper_matches_reference(case):
    g, coloring = case
    assert check_proper(g, coloring) == check_proper_reference(g, coloring)


def test_proper_requires_total():
    with pytest.raises(ValueError):
        check_proper(cycle(3), Coloring((0, None, 1), 2))
    with pytest.raises(ValueError):
        check_proper(cycle(3), col(0, 1))  # wrong length


# ----------------------------------------------------------------------
# dynamic
# ----------------------------------------------------------------------


def test_dynamic_c5_exhaustive_violations():
    # Vertices 0 and 4 both see a one-color neighborhood; the checker must
    # report both, not stop at the first.
    out = check_dynamic(cycle(5), col(0, 1, 2, 0, 1))
    assert out == [
        Violation("monochromatic_neighborhood", (0,)),
        Violation("monochromatic_neighborhood", (4,)),
    ]


def test_dynamic_c6_pattern_ok():
    assert check_dynamic(cycle(6), col(0, 1, 2, 0, 1, 2)) == []


def test_dynamic_degree_one_exempt():
    edge = Graph.from_edges(2, [(0, 1)])
    assert check_dynamic(edge, col(0, 1)) == []


def test_dynamic_includes_proper_violations_first():
    out = check_dynamic(cycle(4), col(0, 0, 0, 1))
    assert out == [
        Violation("improper_edge", (0, 1)),
        Violation("improper_edge", (1, 2)),
        Violation("monochromatic_neighborhood", (1,)),
        Violation("monochromatic_neighborhood", (3,)),
    ]


def test_dynamic_empty_implies_proper_empty():
    for seed in range(5):
        g = gnp(12, 0.4, seed=seed)
        for palette in (3, 4):
            for trial in range(3):
                coloring = Coloring.total(
                    [(v * 7 + trial) % palette for v in range(g.n)], palette
                )
                if not check_dynamic(g, coloring):
                    assert not check_proper(g, coloring)


# ----------------------------------------------------------------------
# domination
# ----------------------------------------------------------------------


def test_domination_cycle8_double_total_ok():
    g = cycle(8)
    assert check_domination(g, VertexSubset.of(g, {0, 1, 4, 5})) == []


def test_domination_cycle6_violations():
    g = cycle(6)
    out = check_domination(g, VertexSubset.of(g, {0, 1, 3, 4}))
    assert out == [
        Violation("empty_complement_neighborhood", (2,)),
        Violation("empty_complement_neighborhood", (5,)),
    ]


def test_domination_full_set():
    g = cycle(6)
    everything = VertexSubset.of(g, range(6))
    assert check_domination(g, everything, "total") == []
    out = check_domination(g, everything, "double_total")
    assert [v.kind for v in out] == ["empty_complement_neighborhood"] * 6


def test_domination_empty_set_and_isolated():
    g = cycle(4)
    out = check_domination(g, VertexSubset.of(g, set()), "total")
    assert [v.kind for v in out] == ["empty_T_neighborhood"] * 4
    lonely = Graph.from_edges(1, [])
    out = check_domination(lonely, VertexSubset.of(lonely, set()), "double_total")
    assert out == [
        Violation("empty_T_neighborhood", (0,)),
        Violation("empty_complement_neighborhood", (0,)),
    ]


def test_domination_double_total_implies_total_both_sides():
    g = cycle(8)
    t = VertexSubset.of(g, {0, 1, 4, 5})
    assert check_domination(g, t, "double_total") == []
    assert check_domination(g, t, "total") == []
    assert check_domination(g, t.complement(), "total") == []


def test_domination_mode_validation():
    g = cycle(4)
    with pytest.raises(ValueError):
        check_domination(g, VertexSubset.of(g, {0}), "half_total")


# ----------------------------------------------------------------------
# lists
# ----------------------------------------------------------------------


def test_list_respecting_ok():
    g = cycle(4)
    lists = ListAssignment.uniform(4, {0, 1})
    assert check_list_respecting(g, lists, col(0, 1, 0, 1)) == []


def test_list_respecting_violation():
    g = cycle(4)
    lists = ListAssignment.of([{2, 3}, {0, 1}, {0, 1}, {0, 1}])
    out = check_list_respecting(g, lists, col(0, 1, 0, 1, palette=4))
    assert out == [Violation("list_violation", (0,))]


def test_list_respecting_trivial_graph():
    g = Graph.from_edges(0, [])
    assert check_list_respecting(g, ListAssignment.of([]), Coloring((), 0)) == []


# ----------------------------------------------------------------------
# hypergraph 2-coloring
# ----------------------------------------------------------------------


def test_hypergraph_single_edge_ok():
    h = Hypergraph.from_edges(2, [(0, 1)])
    assert check_hypergraph_2coloring(h, col(0, 1, palette=2)) == []


def test_hypergraph_monochromatic_edge():
    h = Hypergraph.from_edges(3, [(0, 1, 2)])
    out = check_hypergraph_2coloring(h, col(0, 0, 0, palette=2))
    assert out == [Violation("monochromatic_hyperedge", (0,))]


def test_hypergraph_palette_must_be_two():
    h = Hypergraph.from_edges(3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        check_hypergraph_2coloring(h, col(0, 1, 2, palette=3))


def test_fano_plane_never_two_colorable():
    # Exhaustive: all 2^7 colorings leave some line monochromatic.
    h = fano_plane()
    for bits in itertools.product((0, 1), repeat=7):
        assert check_hypergraph_2coloring(h, Coloring.total(bits, 2)) != []


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------


def test_checkers_are_pure():
    g = cycle(5)
    c = col(0, 1, 2, 0, 1)
    assert check_dynamic(g, c) == check_dynamic(g, c)


def test_violation_json():
    out = violations_to_json([Violation("improper_edge", (0, 4))])
    assert out == [{"kind": "improper_edge", "witness": [0, 4]}]


def test_violation_kind_validation():
    with pytest.raises(ValueError):
        Violation("bogus_kind", (0,))


def test_coloring_invariants():
    with pytest.raises(ValueError):
        Coloring((0, 3), 2)
    c = Coloring.total([0, 1, 1], 5)
    assert c.colors_used == 2
    assert c.palette_size == 5
    assert not Coloring((None, 0), 1).is_total


def test_list_assignment_helpers():
    lists = ListAssignment.uniform(3, {1, 4})
    assert lists.uniform_size() == 2
    ragged = ListAssignment.of([{0}, {0, 1}])
    assert ragged.uniform_size() is None
