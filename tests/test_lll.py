"""Condition evaluators and resampling runs, cross-checked by the verifiers."""

import dataclasses
import math

import pytest

from dynachrome import (
    DegenerateParamsError,
    Graph,
    Hypergraph,
    InfeasibleStructureError,
    ListAssignment,
    LllParams,
    check_domination,
    check_hypergraph_2coloring,
    complete_bipartite,
    cycle,
    exact_double_total_dominating,
    find_balanced_subset,
    find_double_total_dominating,
    lll_condition_hypergraph,
    lll_condition_list,
    moser_tardos_2color,
    random_regular,
    select_sublists,
)
from helpers import fano_plane, random_uniform_hypergraph, triangle_hypergraph


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


def test_params_degenerate_at_small_k():
    params = LllParams.for_degree(3, c_prime=7.0)
    assert params.p == pytest.approx(7 * math.log(3) / 3)
    assert params.p > 1 and not params.p_clamped


def test_params_clamping_recorded():
    params = LllParams.for_degree(16, c_prime=7.0, clamp_p=True)
    assert params.p == 0.5 and params.p_clamped


def test_params_window_flag():
    # The deviation window only opens at large degree (around k ~ 190 for c' = 7).
    small = LllParams.for_degree(16, c_prime=7.0, clamp_p=True)
    assert small.p_clamped and not small.window_nonempty
    assert LllParams.for_degree(200, c_prime=7.0).window_nonempty


def test_params_validation():
    with pytest.raises(ValueError):
        LllParams.for_degree(16, c_prime=6.0)
    with pytest.raises(ValueError):
        LllParams.for_degree(1)


@pytest.mark.parametrize("cap", [-1, -7])
def test_negative_resample_cap_rejected(cap):
    # A single edge 2-colors on the first draw for seed 4, so a negative cap
    # must be refused up front, not only once a resample is due.
    with pytest.raises(ValueError):
        moser_tardos_2color(Hypergraph.from_edges(2, [(0, 1)]), seed=4, max_resamples=cap)
    with pytest.raises(ValueError):
        moser_tardos_2color(triangle_hypergraph(), seed=0, max_resamples=cap)
    with pytest.raises(ValueError):
        find_double_total_dominating(cycle(8), seed=0, max_resamples=cap)
    with pytest.raises(ValueError):
        select_sublists(cycle(4), ListAssignment.uniform(4, range(4)), 1, max_resamples=cap)
    with pytest.raises(ValueError):
        LllParams.for_degree(16, clamp_p=True, max_resamples=cap)
    params = LllParams.for_degree(16, clamp_p=True)
    assert params.p_clamped
    with pytest.raises(ValueError):
        find_balanced_subset(random_regular(40, 16, seed=0),
                             dataclasses.replace(params, max_resamples=cap))


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
# double total domination by resampling
# ----------------------------------------------------------------------


def test_dtd_cycle8():
    g = cycle(8)
    t, log = find_double_total_dominating(g, seed=0)
    assert log.success
    assert check_domination(g, t, "double_total") == []


def test_dtd_cycle6_exhausts_and_exact_agrees():
    g = cycle(6)
    t, log = find_double_total_dominating(g, seed=0, max_resamples=400)
    assert t is None and log.outcome == "exhausted"
    assert exact_double_total_dominating(g) is None


def test_dtd_low_degree_rejected():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(InfeasibleStructureError):
        find_double_total_dominating(path)


def test_dtd_nine_regular():
    for seed in range(3):
        g = random_regular(100, 9, seed=seed)
        t, log = find_double_total_dominating(g, seed=seed)
        assert log.success
        assert check_domination(g, t, "double_total") == []


def test_dtd_deterministic():
    g = cycle(8)
    a = find_double_total_dominating(g, seed=9)
    b = find_double_total_dominating(g, seed=9)
    assert a[0] == b[0] and a[1].resample_count == b[1].resample_count


# ----------------------------------------------------------------------
# balanced subsets
# ----------------------------------------------------------------------


def test_balanced_degenerate_p_reported():
    g = random_regular(12, 3, seed=0)
    with pytest.raises(DegenerateParamsError):
        find_balanced_subset(g, LllParams.for_degree(3, c_prime=7.0))


def test_balanced_16_regular():
    g = random_regular(200, 16, seed=7)
    params = LllParams.for_degree(16, c_prime=7.0, seed=7, clamp_p=True)
    assert params.p_clamped
    t, log = find_balanced_subset(g, params)
    assert log.success
    upper = 2 * 7.0 * math.log(16)
    for v in range(g.n):
        inside = t.deg_into(g, v)
        assert 0 < inside < upper
        assert inside < g.degree(v)  # at least one neighbor outside
    assert log.params["lambda"] == pytest.approx(params.lam)


def test_balanced_complete_bipartite():
    g = complete_bipartite(16, 16)
    params = LllParams.for_degree(16, c_prime=7.0, seed=1, clamp_p=True)
    assert params.p_clamped
    t, log = find_balanced_subset(g, params)
    assert log.success
    for v in range(g.n):
        assert 0 < t.deg_into(g, v) < g.degree(v) + 1


def test_balanced_requires_regular():
    irregular = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    params = LllParams.for_degree(16, clamp_p=True)
    assert params.p_clamped
    with pytest.raises(ValueError):
        find_balanced_subset(irregular, params)
    g = random_regular(20, 4, seed=0)
    with pytest.raises(ValueError):
        find_balanced_subset(g, params)  # params built for k=16, graph has k=4


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


def test_sublists_validation():
    g = cycle(4)
    with pytest.raises(ValueError):
        select_sublists(g, ListAssignment.uniform(4, {0, 1}), l=3)
    with pytest.raises(ValueError):
        select_sublists(g, ListAssignment.of([{0}, {0, 1}, {0}, {0, 1}]), l=1)
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
