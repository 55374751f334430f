"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Stated runtime limits are asserted alongside the results.
"""

import math
import time

import pytest

from dynachrome import (
    Coloring,
    Graph,
    Hypergraph,
    KneserSpec,
    ListAssignment,
    VertexSubset,
    check_domination,
    check_dynamic,
    check_hypergraph_2coloring,
    check_list_respecting,
    check_proper,
    chromatic_number,
    complete,
    compose_disjoint_palettes,
    cycle,
    double_total_subset,
    dynamic_chromatic_number,
    gnp,
    balanced_subset_coloring,
    hypergraph_2color_exact,
    induced_subgraph,
    kneser,
    kneser_dynamic_coloring,
    lll_condition_hypergraph,
    lll_condition_list,
    moser_tardos_2color,
    random_regular,
    read_dimacs,
    run_gnp_triangle_experiment,
    select_sublists,
    write_dimacs,
)
from helpers import (
    deg_into,
    fano_plane,
    first_fit_coloring,
    naive_dynamic_chromatic,
    random_uniform_hypergraph,
    triangle_hypergraph,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_cycle_dynamic_values():
    start = time.perf_counter()
    c5 = dynamic_chromatic_number(cycle(5)).value
    mismatches = []
    for n in range(3, 13):
        got = dynamic_chromatic_number(cycle(n)).value
        want = naive_dynamic_chromatic(cycle(n))
        if got != want:
            mismatches.append((n, got, want))
    elapsed = time.perf_counter() - start
    ok = c5 == 5 and not mismatches and elapsed < 10.0
    report(
        1,
        ok,
        f"chi_d(C5)={c5}, C3..C12 match the naive all-colorings oracle "
        f"(mismatches={mismatches}) in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_02_kneser_chromatic_numbers():
    results = []
    ok = True
    for m, n in [(5, 2), (6, 2), (7, 3)]:
        start = time.perf_counter()
        value = chromatic_number(kneser(m, n)).value
        elapsed = time.perf_counter() - start
        expected = m - 2 * n + 2
        results.append(f"KG({m},{n})={value} in {elapsed:.2f}s")
        ok = ok and value == expected and elapsed < 60.0
    report(2, ok, "; ".join(results) + " (formula m-2n+2, each < 60s)")


def test_criterion_03_kneser_dynamic_construction():
    results = []
    ok = True
    for m, n in [(7, 3), (8, 3), (9, 4)]:
        start = time.perf_counter()
        res = kneser_dynamic_coloring(KneserSpec(m, n))
        verified = check_dynamic(res.graph, res.coloring) == []
        elapsed = time.perf_counter() - start
        t = m - 2 * n
        ok = (
            ok
            and verified
            and res.colors_used <= t + 4
            and res.gap <= 2
            and elapsed < 60.0
        )
        results.append(
            f"KG({m},{n}): {res.colors_used} colors (cap {t + 4}), "
            f"gap {res.gap}, {elapsed:.2f}s"
        )
    report(3, ok, "; ".join(results))


def test_criterion_04_lll_condition_oracles():
    hyper_hold = lll_condition_hypergraph(9, 9, 9)
    hyper_fail = lll_condition_hypergraph(8, 8, 8)
    list_hold = lll_condition_list(50, 4, 5)
    list_fail = lll_condition_list(20, 4, 5)
    ok = (
        hyper_hold.holds
        and not hyper_fail.holds
        and list_hold.holds
        and not list_fail.holds
    )
    report(
        4,
        ok,
        f"hypergraph(9,9,9) margin {hyper_hold.margin:.3f} holds, "
        f"(8,8,8) margin {hyper_fail.margin:.3f} fails; "
        f"list(50,4,5) margin {list_hold.margin:.3f} holds, "
        f"(20,4,5) margin {list_fail.margin:.1f} fails",
    )


def test_criterion_05_moser_tardos_two_coloring():
    start = time.perf_counter()
    successes = 0
    for seed in range(100):
        h = random_uniform_hypergraph(40, 30, size=9, max_degree=9, seed=seed)
        c, log = moser_tardos_2color(h, seed=seed)
        if log.success and check_hypergraph_2coloring(h, c) == []:
            successes += 1
    fano = fano_plane()
    fano_col, fano_log = moser_tardos_2color(fano, seed=0)
    fano_none = hypergraph_2color_exact(fano) is None
    k3 = triangle_hypergraph()
    k3_col, k3_log = moser_tardos_2color(k3, seed=0)
    k3_none = hypergraph_2color_exact(k3) is None
    elapsed = time.perf_counter() - start
    ok = (
        successes == 100
        and fano_col is None
        and fano_log.outcome == "exhausted"
        and fano_none
        and k3_col is None
        and k3_log.outcome == "exhausted"
        and k3_none
    )
    report(
        5,
        ok,
        f"{successes}/100 seeds verified on 9-uniform hypergraphs; Fano and K3 "
        f"exhausted with exact-solver 'none'; {elapsed:.1f}s",
    )


def test_criterion_06_double_total_domination_pipeline():
    start = time.perf_counter()
    orders = [12, 14, 16, 18, 20, 22, 24]
    failures = []
    for i in range(50):
        n = orders[i % len(orders)]
        g = random_regular(n, 9, seed=1000 + i)
        t = double_total_subset(g, seed=i)
        if t is None:
            failures.append((i, "no double total dominating set"))
            continue
        chi = chromatic_number(g).value
        g_in = induced_subgraph(g, t)
        g_out = induced_subgraph(g, t.complement())
        c_in = chromatic_number(g_in).witness
        c_out = chromatic_number(g_out).witness
        combined = compose_disjoint_palettes(g, t, c_in, c_out)
        if check_dynamic(g, combined) != []:
            failures.append((i, "dynamic check failed"))
        elif combined.palette_size > 2 * chi:
            failures.append((i, f"{combined.palette_size} > 2*chi = {2 * chi}"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    report(
        6,
        ok,
        f"50/50 9-regular graphs (n <= 24): subset found, composed coloring "
        f"verified with <= 2*chi colors; failures={failures}; {elapsed:.1f}s (< 300s)",
    )


def test_criterion_07_balanced_subset_pipeline():
    start = time.perf_counter()
    k = 16
    upper = 2 * 7.0 * math.log(k)  # the paper's cap 2 c' ln k at c' = 7
    failures = []
    for seed in range(20):
        g = random_regular(200, k, seed=2000 + seed)
        order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
        witness = first_fit_coloring(g, order)
        result = balanced_subset_coloring(g, witness, seed)
        bound = witness.palette_size + math.floor(upper) + 1
        # 0 < deg_T(v) < 2 c' ln k, and deg_T(v) < deg(v) means a neighbor
        # outside T as well.
        window_ok = all(
            0 < deg_into(g, result.subset, v) < upper
            and deg_into(g, result.subset, v) < g.degree(v)
            for v in range(g.n)
        )
        if check_dynamic(g, result.coloring) != []:
            failures.append((seed, "dynamic check failed"))
        elif result.coloring.palette_size > bound:
            failures.append((seed, f"palette {result.coloring.palette_size} > {bound}"))
        elif result.coloring.palette_size > witness.palette_size + 13:  # D(16) = 13
            failures.append((seed, f"palette {result.coloring.palette_size} > "
                                   f"{witness.palette_size} + D(16)"))
        elif not window_ok:
            failures.append((seed, "degree window violated"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    report(
        7,
        ok,
        f"20/20 16-regular graphs (n=200): verified coloring within greedy + "
        f"D(16) = 13 colors (the paper's greedy + floor(2 c' ln k) + 1 at c'=7 "
        f"is 39), every vertex with neighbors on both sides; "
        f"failures={failures}; {elapsed:.1f}s (< 120s)",
    )


def test_criterion_08_gnp_triangle_experiment():
    start = time.perf_counter()
    rep = run_gnp_triangle_experiment(200, 0.5, trials=100, seed=8)
    elapsed = time.perf_counter() - start
    certified = rep.aggregates["certified_count"]
    bound = rep.aggregates["analytic_uncovered_bound"]
    expected_bound = 200 * (1 - 0.5**3) ** 99
    ok = (
        certified >= 99
        and bound == pytest.approx(expected_bound)
        and elapsed < 120.0
    )
    report(
        8,
        ok,
        f"G(200,0.5): {certified}/100 trials fully triangle-covered; analytic "
        f"bound {bound:.2e}; {elapsed:.1f}s (< 120s)",
    )


def test_criterion_09_sublist_selection():
    start = time.perf_counter()
    successes = 0
    for seed in range(100):
        g = random_regular(102, 50, seed=3000 + seed)
        lists = ListAssignment.uniform(g.n, {0, 1, 2, 3, 4})
        sub, log = select_sublists(g, lists, l=4, seed=seed)
        if not log.success:
            continue
        empty = True
        for v in range(g.n):
            inter = None
            for u in g.adjacency[v]:
                inter = set(sub[u]) if inter is None else inter & set(sub[u])
            if inter:
                empty = False
                break
        sizes = all(len(sub[v]) == 4 and sub[v] <= lists[v] for v in range(g.n))
        if empty and sizes:
            successes += 1
    elapsed = time.perf_counter() - start
    ok = successes == 100 and elapsed < 120.0
    report(
        9,
        ok,
        f"{successes}/100 seeds: 4-sublists of 5-lists on 50-regular graphs "
        f"with every neighborhood intersection empty; {elapsed:.1f}s (< 120s)",
    )


def test_criterion_10_verifier_soundness_and_round_trip():
    e2 = Graph.from_edges(2, [(0, 1)])
    proper_fixtures = [
        (cycle(4), Coloring((0, 1, 0, 1), 2), True),
        (complete(3), Coloring((0, 0, 1), 2), False),
        (cycle(5), Coloring((0, 1, 0, 1, 0), 2), False),
        (complete(3), Coloring((0, 1, 2), 3), True),
    ]
    dynamic_fixtures = [
        (cycle(6), Coloring((0, 1, 2, 0, 1, 2), 3), True),
        (cycle(5), Coloring((0, 1, 2, 0, 1), 3), False),
        (e2, Coloring((0, 1), 2), True),
        (cycle(4), Coloring((0, 1, 0, 1), 2), False),
    ]
    c8, c6 = cycle(8), cycle(6)
    domination_fixtures = [
        (c8, VertexSubset.of(c8, {0, 1, 4, 5}), "double_total", True),
        (c6, VertexSubset.of(c6, {0, 1, 3, 4}), "double_total", False),
        (c6, VertexSubset.of(c6, range(6)), "total", True),
        (c6, VertexSubset.of(c6, range(6)), "double_total", False),
    ]
    list_fixtures = [
        (cycle(4), ListAssignment.uniform(4, {0, 1}),
         Coloring((0, 1, 0, 1), 2), True),
        (cycle(4), ListAssignment.of([{2, 3}, {0, 1}, {0, 1}, {0, 1}]),
         Coloring((0, 1, 0, 1), 4), False),
        (cycle(4), ListAssignment.uniform(4, {0, 1, 2}),
         Coloring((0, 1, 2, 1), 3), True),
    ]
    h_pair = Hypergraph.from_edges(2, [(0, 1)])
    h_triple = Hypergraph.from_edges(3, [(0, 1, 2)])
    hyper_fixtures = [
        (h_pair, Coloring((0, 1), 2), True),
        (h_triple, Coloring((0, 0, 0), 2), False),
        (fano_plane(), Coloring((0, 1, 0, 1, 0, 1, 0), 2), False),
        (h_triple, Coloring((0, 0, 1), 2), True),
    ]

    wrong = 0
    for g, c, valid in proper_fixtures:
        wrong += (check_proper(g, c) == []) != valid
    for g, c, valid in dynamic_fixtures:
        wrong += (check_dynamic(g, c) == []) != valid
    for g, t, mode, valid in domination_fixtures:
        wrong += (check_domination(g, t, mode) == []) != valid
    for g, lists, c, valid in list_fixtures:
        wrong += (check_list_respecting(g, lists, c) == []) != valid
    for h, c, valid in hyper_fixtures:
        wrong += (check_hypergraph_2coloring(h, c) == []) != valid

    round_trip_failures = 0
    for seed in range(100):
        n = 5 + (seed % 20)
        p = 0.15 + 0.6 * ((seed * 7) % 10) / 10
        g = gnp(n, p, seed=seed)
        if read_dimacs(write_dimacs(g)) != g:
            round_trip_failures += 1

    ok = wrong == 0 and round_trip_failures == 0
    report(
        10,
        ok,
        f"{wrong} misclassified fixtures across 5 checkers; "
        f"{100 - round_trip_failures}/100 DIMACS round trips exact",
    )
