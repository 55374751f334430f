"""Exact solvers against independent enumeration oracles."""

import pytest

from dynachrome import (
    CertificationError,
    Graph,
    Hypergraph,
    ListAssignment,
    SearchBudgetExceeded,
    VertexSubset,
    Violation,
    check_domination,
    check_dynamic,
    check_hypergraph_2coloring,
    check_list_respecting,
    check_proper,
    chromatic_number,
    complete,
    complete_bipartite,
    cycle,
    dsatur,
    dynamic_chromatic_number,
    from_spec,
    gnp,
    hypergraph_2color_exact,
    is_k_critical,
    kneser,
    list_dynamic_coloring,
    neighborhood_hypergraph,
    random_regular,
)
from dynachrome import exact
from helpers import (
    brute_force_double_total_sets,
    fano_plane,
    naive_chromatic,
    naive_dynamic_chromatic,
    triangle_hypergraph,
)
from test_records import assert_solve_derives


# ----------------------------------------------------------------------
# chromatic number
# ----------------------------------------------------------------------


def test_chi_odd_cycle():
    res = chromatic_number(cycle(5))
    assert res.value == 3
    assert check_proper(cycle(5), res.witness) == []


def test_chi_kneser_formula():
    # chi(KG(m, n)) = m - 2n + 2
    for m, n in [(5, 2), (6, 2), (7, 3)]:
        res = chromatic_number(kneser(m, n))
        assert res.value == m - 2 * n + 2


def test_chi_small_families():
    assert chromatic_number(complete(6)).value == 6
    assert chromatic_number(complete_bipartite(3, 5)).value == 2
    assert chromatic_number(Graph.from_edges(4, [])).value == 1
    assert chromatic_number(Graph.from_edges(0, [])).value == 0


def test_chi_matches_naive_oracle():
    graphs = [cycle(n) for n in range(3, 9)] + [
        kneser(5, 2),
        gnp(9, 0.4, seed=3),
        gnp(9, 0.6, seed=5),
        random_regular(10, 3, seed=1),
    ]
    for g in graphs:
        res = chromatic_number(g)
        assert res.value == naive_chromatic(g)
        assert check_proper(g, res.witness) == []
        assert res.witness.palette_size == res.value


def test_chi_budget_exhaustion_reports_bounds():
    res = chromatic_number(kneser(6, 2), budget=5)
    assert res.exhausted and res.value is None and res.witness is None
    lo, hi = res.bounds
    assert lo <= 4 <= hi
    data = res.to_json_dict()
    assert data["exhausted"] is True and "bounds" in data


def test_exhausted_chi_returns_the_dsatur_coloring_it_holds():
    # DSATUR colors KG(7,2) on chi = 5 colors, but 20 nodes cannot refute 4.
    g = kneser(7, 2)
    res = chromatic_number(g, 20)
    assert res.coloring == dsatur(g)[1]
    assert res.bounds == (4, 5) and res.witness is None


def test_negative_budget_rejected_and_zero_budget_exhausts():
    g, h = kneser(5, 2), fano_plane()
    lists = ListAssignment.uniform(g.n, range(4))
    searches = [
        lambda b: chromatic_number(g, b),
        lambda b: dynamic_chromatic_number(g, b),
        lambda b: list_dynamic_coloring(g, lists, b),
        lambda b: hypergraph_2color_exact(h, b),
        lambda b: is_k_critical(g, b),
    ]
    # Edgeless and bipartite inputs search no palette, and K3 and K4 are
    # decided at the palette of the coloring held: all refuse a negative
    # budget the same.
    held = [
        lambda b, f=f, solve=solve: solve(f, b)
        for f in (Graph.from_edges(0, []), Graph.from_edges(4, []),
                  complete_bipartite(2, 3), complete(3), complete(4))
        for solve in (chromatic_number, dynamic_chromatic_number)
    ]
    for search in searches + held:
        for budget in (-1, -3):
            with pytest.raises(ValueError, match="budget must be >= 0"):
                search(budget)
        for budget in (2.5, True, "3"):  # a count is an int, and not a bool
            with pytest.raises(ValueError, match="budget must be an int"):
                search(budget)
    # DSATUR colors the Petersen graph with chi = 3 colors, so no palette
    # is left to search; on KG(9,3) it uses 7, above chi = 5.
    decided = chromatic_number(g, 0)
    assert (decided.value, decided.nodes_explored) == (3, 0)
    exhausted = chromatic_number(kneser(9, 3), 0)
    assert exhausted.exhausted and exhausted.bounds == (3, 7)
    assert dynamic_chromatic_number(g, 0).exhausted
    for search in searches[2:4]:
        with pytest.raises(SearchBudgetExceeded):
            search(0)
    # DSATUR also colors each Petersen graph minus a vertex with 3 colors,
    # so criticality is decided without a node: it is not 3-critical.
    assert is_k_critical(g, 0) is False


def test_budget_refused_before_any_graph_work(monkeypatch):
    # A bad budget is refused before the bipartition, DSATUR, the
    # neighborhood hypergraph or a connectivity test runs, as the
    # constructions refuse one at once.
    for name in ("bipartition", "dsatur", "neighborhood_hypergraph", "is_connected"):
        monkeypatch.setattr(exact, name, lambda *_: pytest.fail("graph work ran"))
    g = cycle(5)
    lists = ListAssignment.uniform(g.n, range(4))
    for search in (lambda b: chromatic_number(g, b),
                   lambda b: dynamic_chromatic_number(g, b),
                   lambda b: list_dynamic_coloring(g, lists, b),
                   lambda b: is_k_critical(g, b)):
        with pytest.raises(ValueError, match="budget must be >= 0"):
            search(-1)
        with pytest.raises(ValueError, match="budget must be an int"):
            search(2.5)


@pytest.mark.parametrize("solve", [chromatic_number, dynamic_chromatic_number])
@pytest.mark.parametrize("spec", ["complete:3", "complete:4", "complete:5", "cycle:5",
                                  "kneser:5,2"])
def test_budget_sweep_bounds_stay_open(solve, spec):
    # An exhausted solve holds a coloring on its upper bound's palette and
    # searches only below it, so its bounds never meet; a decided solve
    # returns the unbounded value.
    g = from_spec(spec)
    value = solve(g).value
    for budget in range(401):
        res = solve(g, budget)
        if res.exhausted:
            lo, hi = res.bounds
            assert lo <= value <= hi and lo < hi, (budget, res.bounds)
        else:
            assert res.value == value, budget
        assert_solve_derives(res)


# ----------------------------------------------------------------------
# dynamic chromatic number
# ----------------------------------------------------------------------


def test_chid_c5_is_five():
    assert dynamic_chromatic_number(cycle(5)).value == 5


def test_chid_c6_is_three():
    res = dynamic_chromatic_number(cycle(6))
    assert res.value == 3
    assert check_dynamic(cycle(6), res.witness) == []


def test_chid_c4_is_four():
    assert dynamic_chromatic_number(cycle(4)).value == 4


def test_chid_matches_naive_oracle():
    graphs = [cycle(n) for n in range(3, 9)] + [
        gnp(8, 0.4, seed=2),
        gnp(8, 0.25, seed=6),
        random_regular(8, 3, seed=4),
        complete_bipartite(2, 3),
    ]
    for g in graphs:
        res = dynamic_chromatic_number(g)
        assert res.value == naive_dynamic_chromatic(g)
        assert check_dynamic(g, res.witness) == []


def test_chid_at_least_chi():
    graphs = [cycle(n) for n in range(3, 10)] + [
        kneser(5, 2),
        gnp(10, 0.35, seed=9),
        complete(5),
        Graph.from_edges(3, [(0, 1)]),
    ]
    for g in graphs:
        assert dynamic_chromatic_number(g).value >= chromatic_number(g).value


def test_chid_known_upper_bounds():
    # Connected, max degree >= 4: at most max_degree + 1.
    for g in (complete(5), random_regular(12, 4, seed=3), kneser(6, 2)):
        assert dynamic_chromatic_number(g).value <= g.max_degree + 1
    # Connected, max degree <= 3, not the 5-cycle: at most 4.
    for g in (cycle(7), kneser(5, 2), complete_bipartite(3, 3), complete(4)):
        assert dynamic_chromatic_number(g).value <= 4


# An exhausted chid search holds the coloring of DSATUR with the
# neighborhoods as groups, which is always dynamic, and its palette is the
# upper end.  On random_regular(60,3) seed 4 plain DSATUR's coloring is not
# dynamic, so the neighborhood rule is what makes the held coloring dynamic.
@pytest.mark.parametrize("spec, seed, bounds", [
    ("kneser:11,4", 0, (3, 7)),
    ("random_regular:400,32", 0, (4, 12)),
    ("random_regular:60,3", 4, (3, 4)),
])
def test_chid_exhausted_upper_end_is_a_certified_palette(spec, seed, bounds):
    g = from_spec(spec, seed)
    res = dynamic_chromatic_number(g, budget=1000)
    assert res.exhausted and res.bounds == bounds
    held = dsatur(g, neighborhood_hypergraph(g).edges)[1]
    assert check_dynamic(g, held) == []
    assert res.coloring == held


def _matchings(vertices):
    """Every set of disjoint edges on ``vertices``, each as a list of pairs."""
    if not vertices:
        yield []
        return
    v, rest = vertices[0], vertices[1:]
    yield from _matchings(rest)  # v stays isolated
    for i, u in enumerate(rest):
        for m in _matchings(rest[:i] + rest[i + 1:]):
            yield [(v, u)] + m


def test_chid_unconstrained_graphs():
    assert dynamic_chromatic_number(Graph.from_edges(3, [])).value == 1
    matching = Graph.from_edges(4, [(0, 1), (2, 3)])
    res = dynamic_chromatic_number(matching)
    assert res.value == 2
    assert check_dynamic(matching, res.witness) == []
    # With max degree <= 1 no vertex is constrained, so chid's solve is
    # chi's: on every matching with n <= 8, isolated vertices or not.
    count = 0
    for n in range(9):
        for edges in _matchings(list(range(n))):
            g = Graph.from_edges(n, edges)
            count += 1
            for budget in (None, 0, 5):
                assert dynamic_chromatic_number(g, budget) == chromatic_number(g, budget)
    assert count == 1116


# ----------------------------------------------------------------------
# list dynamic coloring
# ----------------------------------------------------------------------


def test_list_dynamic_c6():
    g = cycle(6)
    lists = ListAssignment.uniform(6, {0, 1, 2})
    c = list_dynamic_coloring(g, lists)
    assert c is not None
    assert check_dynamic(g, c) == []
    assert check_list_respecting(g, lists, c) == []


def test_list_dynamic_c5_four_lists_none():
    # chi_d(C5) = 5, so identical 4-lists certify none.
    g = cycle(5)
    assert list_dynamic_coloring(g, ListAssignment.uniform(5, {0, 1, 2, 3})) is None


def test_list_dynamic_single_vertex():
    g = Graph.from_edges(1, [])
    c = list_dynamic_coloring(g, ListAssignment.of([{7}]))
    assert c is not None and c[0] == 7
    with pytest.raises(ValueError, match="cover all vertices"):
        list_dynamic_coloring(g, ListAssignment.of([]))


def test_list_dynamic_budget_distinct_from_none():
    g = cycle(6)
    lists = ListAssignment.uniform(6, {0, 1, 2})
    with pytest.raises(SearchBudgetExceeded):
        list_dynamic_coloring(g, lists, budget=2)


@pytest.mark.parametrize("g, lists", [
    (Graph.from_edges(3, [(0, 1)]), [[-2, 0, 3], [1, 3], [1, -1, -2]]),  # (0, 1, 1) fits
    (complete(3), [[2, -1, 0], [1, 2, -2], [-2, 1, 0]]),  # (0, 2, 1) fits
    (complete(3), [[-1, 0], [1], [2]]),  # (0, 1, 2) fits
])
def test_list_dynamic_rejects_negative_colors(g, lists):
    # The search marks an uncolored vertex -1, so negative list colors are refused.
    with pytest.raises(ValueError, match="negative color"):
        list_dynamic_coloring(g, ListAssignment.of(lists))


def test_list_dynamic_varied_lists():
    g = cycle(4)
    lists = ListAssignment.of([{0, 1}, {1, 2}, {2, 3}, {3, 0}])
    c = list_dynamic_coloring(g, lists)
    if c is not None:
        assert check_dynamic(g, c) == []
        assert check_list_respecting(g, lists, c) == []


# ----------------------------------------------------------------------
# hypergraph 2-coloring
# ----------------------------------------------------------------------


def test_hypergraph_exact_single_edge():
    h = Hypergraph.from_edges(3, [(0, 1, 2)])
    c = hypergraph_2color_exact(h)
    assert c is not None
    assert check_hypergraph_2coloring(h, c) == []


def test_hypergraph_exact_fano_none():
    assert hypergraph_2color_exact(fano_plane()) is None


def test_hypergraph_exact_triangle_none():
    assert hypergraph_2color_exact(triangle_hypergraph()) is None


def test_hypergraph_exact_budget():
    with pytest.raises(SearchBudgetExceeded):
        hypergraph_2color_exact(fano_plane(), budget=3)


# ----------------------------------------------------------------------
# criticality
# ----------------------------------------------------------------------


def test_critical_cases():
    assert is_k_critical(cycle(5))      # 3-critical
    assert is_k_critical(complete(4))   # 4-critical
    assert not is_k_critical(cycle(6))  # chi = 2 survives deletions
    assert not is_k_critical(kneser(5, 2))
    with pytest.raises(ValueError):
        is_k_critical(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_critical_spends_one_budget_across_its_solves():
    g = complete(12)
    assert is_k_critical(g)
    # Each of the 13 solves fits in 200 nodes; all of them together do not.
    with pytest.raises(SearchBudgetExceeded) as info:
        is_k_critical(g, budget=200)
    assert info.value.nodes_explored == 201


# ----------------------------------------------------------------------
# double total domination: the vertices colored 1 by an exact 2-coloring
# of the neighborhood hypergraph
# ----------------------------------------------------------------------


def exact_double_total(g, budget=None):
    f = hypergraph_2color_exact(neighborhood_hypergraph(g), budget)
    return None if f is None else VertexSubset.of(g, (v for v in range(g.n) if f[v] == 1))


def test_double_total_cycle8():
    g = cycle(8)
    t = exact_double_total(g)
    assert t is not None
    assert check_domination(g, t, "double_total") == []


def test_double_total_cycle6_none():
    assert exact_double_total(cycle(6)) is None
    # Independent oracle: all 64 subsets fail.
    assert brute_force_double_total_sets(cycle(6)) == []


def test_double_total_matches_brute_force():
    for g in (cycle(8), complete(4), complete_bipartite(3, 3), cycle(7)):
        witnesses = brute_force_double_total_sets(g)
        found = exact_double_total(g)
        if witnesses:
            assert found is not None and found.members in witnesses
        else:
            assert found is None


def test_double_total_budget_raises():
    with pytest.raises(SearchBudgetExceeded):
        exact_double_total(cycle(12), budget=2)


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------


def test_greedy_coloring_proper():
    for g in (cycle(7), kneser(5, 2), gnp(20, 0.4, seed=8)):
        c = dsatur(g)[1]
        assert check_proper(g, c) == []
        assert c.palette_size <= g.max_degree + 1


def test_solve_result_json():
    res = chromatic_number(cycle(5))
    data = res.to_json_dict()
    assert data["value"] == 3
    assert data["witness"] == list(res.witness.colors)
    assert data["exhausted"] is False
    assert data["nodes_explored"] == res.nodes_explored


def test_determinism():
    a = dynamic_chromatic_number(kneser(5, 2))
    b = dynamic_chromatic_number(kneser(5, 2))
    assert a == b


# Every witness, the structural shortcuts' included, passes its check
# before it is returned: with the checker reporting a violation, the
# solver raises instead.
@pytest.mark.parametrize("solver, checker, g", [
    (chromatic_number, "check_proper", cycle(5)),
    (chromatic_number, "check_proper", cycle(6)),
    (chromatic_number, "check_proper", Graph.from_edges(3, [])),
    (chromatic_number, "check_proper", Graph.from_edges(0, [])),
    (dynamic_chromatic_number, "check_dynamic", cycle(5)),
    (dynamic_chromatic_number, "check_dynamic", Graph.from_edges(4, [(0, 1), (2, 3)])),
    (lambda g: list_dynamic_coloring(g, ListAssignment.uniform(6, {0, 1, 2})),
     "check_dynamic", cycle(6)),
    (lambda g: list_dynamic_coloring(g, ListAssignment.uniform(6, {0, 1, 2})),
     "check_list_respecting", cycle(6)),
    (lambda g: hypergraph_2color_exact(neighborhood_hypergraph(g)),
     "check_hypergraph_2coloring", cycle(8)),
    (lambda g: hypergraph_2color_exact(neighborhood_hypergraph(g)),
     "check_hypergraph_2coloring", Graph.from_edges(3, [])),
])
def test_solvers_certify_their_witness(monkeypatch, solver, checker, g):
    monkeypatch.setattr(exact, checker, lambda *_: [Violation("improper_edge", (0, 1))])
    with pytest.raises(CertificationError, match="witness failed its check"):
        solver(g)


def test_exhausted_solves_check_their_held_coloring(monkeypatch):
    # Each solve checks one coloring, the one it returns: an exhausted one
    # the held coloring behind its upper bound, chi with check_proper and
    # chid with check_dynamic.
    proper, dynamic = [], []
    monkeypatch.setattr(exact, "check_proper", lambda g, c: proper.append(c) or [])
    monkeypatch.setattr(exact, "check_dynamic", lambda g, c: dynamic.append(c) or [])
    g = kneser(6, 2)
    res = chromatic_number(g, budget=5)
    assert res.exhausted
    assert (proper, dynamic) == ([dsatur(g)[1]], [])
    assert res.coloring == proper[0]
    proper.clear()
    res = dynamic_chromatic_number(g, budget=5)
    assert res.bounds == (3, 4)
    held = dsatur(g, neighborhood_hypergraph(g).edges)[1]
    assert (proper, dynamic) == ([], [held])
    assert res.coloring == held
    # A chid that finds a smaller coloring checks only that one.
    dynamic.clear()
    g = from_spec("random_regular:60,3", 4)
    res = dynamic_chromatic_number(g, budget=20_000)
    assert res.value == 3
    assert res.coloring != dsatur(g, neighborhood_hypergraph(g).edges)[1]
    assert (proper, dynamic) == ([], [res.coloring])


# ----------------------------------------------------------------------
# pinned outputs: the hypergraph search keeps its order, so its witnesses,
# members and node counts are fixed; graph searches may change witnesses
# and node counts but never values
# ----------------------------------------------------------------------


PINNED_2COLORINGS = {
    "rr12": (
        random_regular(12, 3, 0),
        [0, 0, 0, 0, 1, 0, 0, 1, 1, 1, 1, 0],
        [4, 7, 8, 9, 10],
    ),
    "rr30": (
        random_regular(30, 4, 0),
        [0] * 15 + [1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1],
        [15, 16, 20, 21, 23, 25, 26, 27, 28, 29],
    ),
    "c9": (cycle(9), None, None),
}


@pytest.mark.parametrize("name", sorted(PINNED_2COLORINGS))
def test_pinned_hypergraph_witness_and_members(name):
    g, colors, members = PINNED_2COLORINGS[name]
    found = hypergraph_2color_exact(neighborhood_hypergraph(g))
    assert (None if found is None else list(found.colors)) == colors
    subset = exact_double_total(g)
    assert (None if subset is None else sorted(subset.members)) == members


def test_pinned_hypergraph_exhaustion_node_count():
    h = neighborhood_hypergraph(random_regular(200, 3, 0))
    with pytest.raises(SearchBudgetExceeded) as err:
        hypergraph_2color_exact(h, budget=20000)
    assert err.value.nodes_explored == 20001


# (chi, chi_d) for seeds 0, 1, 2 of each random family; seed 0 alone for
# the deterministic ones.
PINNED_VALUES = {
    "gnp:5,0.3": [(2, 2), (2, 3), (2, 3)],
    "gnp:5,0.5": [(2, 4), (2, 4), (2, 3)],
    "gnp:5,0.7": [(3, 3), (3, 3), (3, 3)],
    "gnp:7,0.3": [(2, 3), (3, 3), (2, 3)],
    "gnp:7,0.5": [(3, 3), (3, 3), (3, 3)],
    "gnp:7,0.7": [(3, 3), (3, 3), (4, 4)],
    "gnp:9,0.3": [(2, 3), (3, 4), (3, 3)],
    "gnp:9,0.5": [(3, 4), (5, 5), (3, 3)],
    "gnp:9,0.7": [(4, 4), (5, 5), (5, 5)],
    "gnp:11,0.3": [(2, 3), (3, 3), (3, 4)],
    "gnp:11,0.5": [(4, 4), (4, 4), (4, 4)],
    "gnp:11,0.7": [(5, 5), (5, 5), (5, 5)],
    "random_regular:8,3": [(3, 3), (3, 3), (3, 3)],
    "random_regular:10,3": [(3, 4), (3, 3), (3, 4)],
    "random_regular:12,3": [(3, 4), (3, 3), (3, 3)],
    "random_regular:14,3": [(3, 3), (3, 4), (3, 3)],
    "random_regular:9,4": [(3, 3), (3, 3), (3, 3)],
    "random_regular:11,4": [(3, 3), (3, 3), (3, 3)],
    "kneser:7,2": [(5, 5)],
    "cycle:7": [(3, 4)],
}


@pytest.mark.parametrize("spec", sorted(PINNED_VALUES))
def test_pinned_chi_and_chid_values(spec):
    for seed, (chi, chid) in enumerate(PINNED_VALUES[spec]):
        g = from_spec(spec, seed)
        assert chromatic_number(g).value == chi
        assert dynamic_chromatic_number(g).value == chid


# ----------------------------------------------------------------------
# large inputs: the searches keep no per-vertex Python stack frames, so a
# budgeted search either decides or reports exhaustion at any size
# ----------------------------------------------------------------------


def test_chi_of_large_cubic_graph_is_decided():
    res = chromatic_number(random_regular(3000, 3, 0), 100000)
    assert res.value == 3
    assert check_proper(random_regular(3000, 3, 0), res.witness) == []


def test_list_dynamic_coloring_of_long_cycle_decides_or_exhausts():
    g = cycle(3000)
    lists = ListAssignment.uniform(3000, {0, 1, 2})
    try:
        c = list_dynamic_coloring(g, lists, budget=100000)
    except SearchBudgetExceeded:
        return
    assert c is not None
    assert check_dynamic(g, c) == []


def test_hypergraph_search_on_large_cubic_graph_decides_or_exhausts():
    h = neighborhood_hypergraph(random_regular(3000, 3, 0))
    try:
        c = hypergraph_2color_exact(h, budget=20000)
    except SearchBudgetExceeded:
        return
    if c is not None:
        assert check_hypergraph_2coloring(h, c) == []
