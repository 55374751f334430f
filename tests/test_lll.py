"""Condition evaluators and resampling runs, cross-checked by the verifiers."""

import bisect
import itertools
import math
import re
from pathlib import Path

import pytest

from dynachrome import (
    Graph,
    Hypergraph,
    ListAssignment,
    VertexSubset,
    balanced_window,
    check_domination,
    check_hypergraph_2coloring,
    complete,
    complete_bipartite,
    cycle,
    double_total_subset,
    find_balanced_subset,
    lll_condition_hypergraph,
    lll_condition_list,
    moser_tardos_2color,
    neighborhood_hypergraph,
    random_regular,
    select_sublists,
)
from helpers import deg_into, fano_plane, random_uniform_hypergraph, triangle_hypergraph


# ----------------------------------------------------------------------
# condition evaluators (exact arithmetic)
# ----------------------------------------------------------------------


def test_hypergraph_condition_9_holds():
    out = lll_condition_hypergraph(9, 9, 9)
    assert out.holds
    assert out.margin == pytest.approx(math.e * 81 / 256, rel=1e-12)


def test_hypergraph_condition_8_fails():
    out = lll_condition_hypergraph(8, 8, 8)
    assert not out.holds
    assert out.margin == pytest.approx(math.e / 2, rel=1e-12)


def test_hypergraph_condition_tiny_fails():
    out = lll_condition_hypergraph(2, 2, 1)
    assert not out.holds
    assert out.margin == pytest.approx(math.e, rel=1e-12)


def test_hypergraph_condition_validation():
    with pytest.raises(ValueError):
        lll_condition_hypergraph(1, 2, 1)
    with pytest.raises(ValueError):
        lll_condition_hypergraph(3, 2, 1)
    with pytest.raises(ValueError):
        lll_condition_hypergraph(2, 2, 0)


def test_list_condition_values():
    good = lll_condition_list(50, 4, 5)
    assert good.holds
    assert good.margin == pytest.approx(math.e * 2500 * 5 * 0.8**50, rel=1e-9)
    bad = lll_condition_list(20, 4, 5)
    assert not bad.holds
    assert bad.margin == pytest.approx(62.7, rel=1e-2)


def test_list_condition_full_lists_always_fail():
    for k in (2, 5, 40):
        for m in (1, 3, 10):
            assert not lll_condition_list(k, m, m).holds


def test_list_condition_threshold_equivalent():
    # margin <= 1 iff l * (e l k^2)^(1/(k-1)) <= m, away from the boundary.
    for k, l, m in [(50, 4, 5), (20, 4, 5), (10, 3, 30), (6, 2, 4)]:
        out = lll_condition_list(k, l, m)
        assert out.holds == (out.threshold <= m)


def test_list_condition_validation():
    with pytest.raises(ValueError):
        lll_condition_list(1, 1, 2)
    with pytest.raises(ValueError):
        lll_condition_list(3, 5, 4)


# ----------------------------------------------------------------------
# params
# ----------------------------------------------------------------------


# (k, D, i): the window balanced_window(k) returns, p = i / 1000.
WINDOWS = [(2, 2, 500), (8, 8, 500), (9, 9, 500), (16, 13, 375), (22, 15, 303),
           (32, 18, 242), (50, 21, 175), (100, 26, 105), (161, 29, 72)]


def _tail_numerators(k: int, i: int) -> list[int]:
    """1000^k P(A_v) at p = i/1000 for each cap D (index D), with
    A_v = "deg_T(v) = 0 or deg_T(v) >= D", summed term by term."""
    q = 1000 - i
    terms = [math.comb(k, j) * i**j * q ** (k - j) for j in range(k, -1, -1)]
    return [q**k + tail for tail in reversed(list(itertools.accumulate(terms)))]


def _margin_at_most_one(k: int, numerator: int) -> bool:
    # e P(A_v) (k(k-1) + 1) <= 1, with e bounded above by 2718282/10^6
    return 2718282 * (k * (k - 1) + 1) * numerator <= 10**6 * 1000**k


def _grid_min(k: int, d: int) -> tuple[int, int]:
    """The least numerator at cap d over p = i/1000 and its first i, found
    by bisecting on the sign of the step from i to i + 1: P(A_v) falls,
    then rises in p, so the first i not followed by a fall is the least."""
    def f(i: int) -> int:
        return _tail_numerators(k, i)[d]

    i = 1 + bisect.bisect_left(range(1, 999), True, key=lambda i: f(i) <= f(i + 1))
    return f(i), i


@pytest.mark.parametrize("k,d,i", WINDOWS)
def test_balanced_window_pinned(k, d, i):
    p, cap, check = balanced_window(k)
    assert (cap, p) == (d, i / 1000)
    assert check.holds == (k >= 9)
    # The margin, recomputed exactly, agrees with the check.
    assert _margin_at_most_one(k, _tail_numerators(k, i)[d]) == check.holds


@pytest.mark.parametrize("k", range(2, 51))
def test_balanced_window_matches_brute_force(k):
    # Over all 999 grid points: no D below the returned one passes, and at
    # the returned D the least numerator (first such i) is the returned p.
    p, d, _ = balanced_window(k)
    rows = [_tail_numerators(k, j) for j in range(1, 1000)]
    passing = [c for c in range(2, k + 1)
               if _margin_at_most_one(k, min(row[c] for row in rows))]
    assert min(passing, default=k) == d
    assert min(range(1, 1000), key=lambda j: rows[j - 1][d]) / 1000 == p


@pytest.mark.parametrize("k", range(2, 162))
def test_balanced_window_is_the_least_passing_cap(k):
    # Every degree up to 161, where the old concentration hypothesis first
    # held: p is the grid minimum at D, found without logarithms, the check
    # is that minimum's exact margin, and the cap D - 1 fails everywhere
    # (so, the margin being monotone in D, does every smaller cap).
    p, d, check = balanced_window(k)
    num, i = _grid_min(k, d)
    assert p == i / 1000
    assert check.holds == _margin_at_most_one(k, num) == (k >= 9)
    assert check.margin == pytest.approx(
        2718282 * (k * (k - 1) + 1) * num / (10**6 * 1000**k), rel=1e-12)
    if not check.holds:
        assert d == k
    if d > 2:
        assert not _margin_at_most_one(k, _grid_min(k, d - 1)[0])


def test_readme_window_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^  \| (\d+) \| (\d+) \| ([\d.]+) \| (\d+) \| ([\d.]+) \|$",
                      readme, re.MULTILINE)
    assert len(rows) >= 8
    for k, d, p, paper, ratio in rows:
        k = int(k)
        window = balanced_window(k)
        assert (int(d), float(p)) == (window[1], window[0])
        assert int(paper) == math.floor(14 * math.log(k)) + 1
        assert ratio == f"{(window[1] - 1) / math.log(k):.2f}"


def test_balanced_window_rejects_small_k():
    with pytest.raises(ValueError, match="k >= 2"):
        balanced_window(1)


def test_params_validation():
    # k is read off the graph, so k < 2 is refused however the other
    # arguments are passed; so is a negative cap, positional or keyword.
    g = random_regular(40, 16, seed=0)
    with pytest.raises(ValueError, match="k >= 2"):
        find_balanced_subset(complete(2))
    with pytest.raises(ValueError, match="k >= 2"):
        find_balanced_subset(complete(2), 0, 5)
    with pytest.raises(ValueError, match="k >= 2"):
        balanced_window(1)
    with pytest.raises(ValueError, match="max_resamples must be >= 0"):
        find_balanced_subset(g, max_resamples=-1)
    with pytest.raises(ValueError, match="max_resamples must be >= 0"):
        find_balanced_subset(g, 0, -1)


@pytest.mark.parametrize("cap", [-1, -7, 2.5, True, "3"])
def test_negative_resample_cap_rejected(cap):
    # A single edge 2-colors on the first draw for seed 4, so a cap that is
    # negative, or not an int (a bool included), must be refused up front,
    # not only once a resample is due.
    with pytest.raises(ValueError):
        moser_tardos_2color(Hypergraph.from_edges(2, [(0, 1)]), seed=4, max_resamples=cap)
    with pytest.raises(ValueError):
        moser_tardos_2color(triangle_hypergraph(), seed=0, max_resamples=cap)
    with pytest.raises(ValueError):
        moser_tardos_2color(neighborhood_hypergraph(cycle(8)), seed=0, max_resamples=cap)
    with pytest.raises(ValueError):
        select_sublists(cycle(4), ListAssignment.uniform(4, range(4)), 1, max_resamples=cap)
    with pytest.raises(ValueError):
        find_balanced_subset(random_regular(40, 16, seed=0), max_resamples=cap)


# ----------------------------------------------------------------------
# 2-coloring by resampling
# ----------------------------------------------------------------------


def test_mt_single_edge():
    h = Hypergraph.from_edges(2, [(0, 1)])
    c, log = moser_tardos_2color(h, seed=0)
    assert log.success
    assert check_hypergraph_2coloring(h, c) == []


def test_mt_triangle_exhausts():
    c, log = moser_tardos_2color(triangle_hypergraph(), seed=0, max_resamples=300)
    assert c is None and log.outcome == "exhausted"
    assert log.resample_count == 300


def test_mt_fano_exhausts():
    c, log = moser_tardos_2color(fano_plane(), seed=1, max_resamples=500)
    assert c is None and log.outcome == "exhausted"


def test_mt_deterministic():
    h = random_uniform_hypergraph(40, 30, size=9, max_degree=9, seed=5)
    first = moser_tardos_2color(h, seed=42)
    second = moser_tardos_2color(h, seed=42)
    assert first[0] == second[0]
    assert first[1].resample_count == second[1].resample_count
    assert first[1].triggers == second[1].triggers
    assert first[1].final_state == second[1].final_state


def test_mt_nine_uniform_succeeds():
    # e * 9 * 9 * (1/2)^8 < 1, so resampling should always land quickly.
    assert lll_condition_hypergraph(9, 9, 9).holds
    for seed in range(20):
        h = random_uniform_hypergraph(40, 30, size=9, max_degree=9, seed=seed)
        c, log = moser_tardos_2color(h, seed=seed)
        assert log.success
        assert check_hypergraph_2coloring(h, c) == []


def test_mt_log_json():
    c, log = moser_tardos_2color(triangle_hypergraph(), seed=3, max_resamples=10)
    data = log.to_json_dict()
    assert data["outcome"] == "exhausted"
    assert data["seed"] == 3
    assert all(isinstance(k, str) for k in data["triggers"])


# ----------------------------------------------------------------------
# double total domination by resampling: the vertices colored 1 by a
# 2-coloring of the neighborhood hypergraph
# ----------------------------------------------------------------------


def resampled_double_total(g, seed, cap=None):
    f, log = moser_tardos_2color(neighborhood_hypergraph(g), seed, cap)
    if f is None:
        return None, log
    return VertexSubset.of(g, (v for v in range(g.n) if f[v] == 1)), log


def test_dtd_cycle8():
    g = cycle(8)
    t, log = resampled_double_total(g, seed=0)
    assert log.success
    assert check_domination(g, t, "double_total") == []


def test_dtd_cycle6_exhausts_and_exact_agrees():
    g = cycle(6)
    t, log = resampled_double_total(g, seed=0, cap=400)
    assert t is None and log.outcome == "exhausted"
    assert double_total_subset(g) is None


def test_dtd_nine_regular():
    for seed in range(3):
        g = random_regular(100, 9, seed=seed)
        t, log = resampled_double_total(g, seed=seed)
        assert log.success
        assert check_domination(g, t, "double_total") == []


def test_dtd_deterministic():
    g = cycle(8)
    a = resampled_double_total(g, seed=9)
    b = resampled_double_total(g, seed=9)
    assert a[0] == b[0] and a[1].resample_count == b[1].resample_count


# ----------------------------------------------------------------------
# balanced subsets
# ----------------------------------------------------------------------


def test_balanced_small_k_runs_at_one_half():
    # No cap passes the Local Lemma at k = 3: the sampler still runs, at
    # p = 1/2 with D = k, so a vertex needs neighbors on both sides.
    g = random_regular(12, 3, seed=0)
    p, cap, check = balanced_window(3)
    assert (p, cap, check.holds) == (0.5, 3, False)
    t, log = find_balanced_subset(g)
    assert log.success
    for v in range(g.n):
        assert 0 < deg_into(g, t, v) < 3


def test_balanced_16_regular():
    g = random_regular(200, 16, seed=7)
    _, cap, check = balanced_window(16)
    assert check.holds
    t, log = find_balanced_subset(g, seed=7)
    assert log.success
    for v in range(g.n):
        inside = deg_into(g, t, v)
        assert 0 < inside < cap == 13
        assert inside < g.degree(v)  # at least one neighbor outside
    assert (log.seed, log.max_resamples) == (7, 1000 * g.n)


def test_balanced_complete_bipartite():
    g = complete_bipartite(16, 16)
    t, log = find_balanced_subset(g, seed=1)
    assert log.success
    for v in range(g.n):
        assert 0 < deg_into(g, t, v) < balanced_window(16)[1]


def test_balanced_requires_regular():
    irregular = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    with pytest.raises(ValueError, match="graph is not regular"):
        find_balanced_subset(irregular)
    with pytest.raises(ValueError, match="need regular degree k >= 2"):
        find_balanced_subset(complete(2))


# ----------------------------------------------------------------------
# sublist selection
# ----------------------------------------------------------------------


def test_sublists_cycle4_singletons():
    g = cycle(4)
    lists = ListAssignment.uniform(4, {0, 1, 2, 3})
    sub, log = select_sublists(g, lists, l=1, seed=0)
    assert log.success
    for v in range(4):
        assert len(sub[v]) == 1 and sub[v] <= lists[v]
    for v in range(4):
        a, b = g.adjacency[v]
        assert not (sub[a] & sub[b])


def test_sublists_full_lists_exhaust():
    g = cycle(4)
    lists = ListAssignment.uniform(4, {0, 1, 2, 3})
    sub, log = select_sublists(g, lists, l=4, seed=0, max_resamples=50)
    assert sub is None and log.outcome == "exhausted"


def test_sublists_50_regular():
    assert lll_condition_list(50, 4, 5).holds
    for seed in range(3):
        g = random_regular(102, 50, seed=seed)
        lists = ListAssignment.uniform(g.n, {0, 1, 2, 3, 4})
        sub, log = select_sublists(g, lists, l=4, seed=seed)
        assert log.success
        for v in range(g.n):
            inter = None
            for u in g.adjacency[v]:
                inter = set(sub[u]) if inter is None else inter & set(sub[u])
            assert inter == set()


def test_sublists_refuse_degree_one():
    # Each vertex's one neighbor's sublist is the whole intersection, never
    # empty: refused up front instead of spending the cap.
    matching = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="single neighbor"):
        select_sublists(matching, ListAssignment.uniform(4, {0, 1, 2, 3}), l=1)


def test_sublists_validation():
    g = cycle(4)
    with pytest.raises(ValueError):
        select_sublists(g, ListAssignment.uniform(4, {0, 1}), l=3)
    with pytest.raises(ValueError):
        select_sublists(g, ListAssignment.of([{0}, {0, 1}, {0}, {0, 1}]), l=1)
    with pytest.raises(ValueError, match="cover all vertices"):
        select_sublists(g, ListAssignment.uniform(3, {0, 1}), l=1)
    irregular = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        select_sublists(irregular, ListAssignment.uniform(3, {0, 1}), l=1)


def test_sublists_deterministic():
    g = cycle(6)
    lists = ListAssignment.uniform(6, {0, 1, 2})
    a = select_sublists(g, lists, l=1, seed=4)
    b = select_sublists(g, lists, l=1, seed=4)
    assert a[0] == b[0]
    assert a[1].to_json_dict() == b[1].to_json_dict()
