"""Records store only independent values; every derived value follows its definition."""

import dataclasses
import math

import pytest

from dynachrome import (
    BoundRecord,
    ConditionCheck,
    ExperimentReport,
    Graph,
    LllParams,
    SolveResult,
    TriangleCertificate,
    bound_report,
    chromatic_number,
    complete,
    complete_bipartite,
    cycle,
    dynamic_chromatic_number,
    kneser,
    lll_condition_hypergraph,
    lll_condition_list,
    random_regular,
    triangle_certificate,
)

STORED = [
    (Graph, ["adjacency"]),
    (LllParams, ["c_prime", "k", "clamp_p", "seed", "max_resamples"]),
    (SolveResult, ["value", "witness", "nodes_explored", "bounds"]),
    (BoundRecord, ["name", "source", "value", "basis"]),
    (TriangleCertificate, ["uncovered"]),
    (ConditionCheck, ["margin", "threshold"]),
    (ExperimentReport, ["name", "parameters", "master_seed", "trials", "aggregates"]),
]


@pytest.mark.parametrize("record,names", STORED, ids=[r.__name__ for r, _ in STORED])
def test_records_store_only_independent_fields(record, names):
    assert [f.name for f in dataclasses.fields(record)] == names


GRAPHS = [Graph.from_edges(0, []), Graph.from_edges(3, []), complete(1), complete(4),
          complete_bipartite(1, 3), cycle(5), kneser(5, 2), random_regular(12, 3, seed=1)]


def test_graph_counts_follow_the_adjacency():
    for g in GRAPHS:
        assert g.n == len(g.adjacency)
        assert g.edge_count == len(list(g.edges()))


def test_solve_result_exhausted_is_value_none():
    results = [chromatic_number(kneser(6, 2)), chromatic_number(kneser(6, 2), budget=5),
               dynamic_chromatic_number(cycle(5)), dynamic_chromatic_number(kneser(6, 2), 5)]
    assert [r.exhausted for r in results] == [False, True, False, True]
    for res in results:
        assert res.exhausted == (res.value is None)
        assert res.to_json_dict()["exhausted"] == res.exhausted


def test_bound_record_applicable_is_value_not_none():
    for g in GRAPHS:
        for rec in bound_report(g).records:
            assert rec.applicable == (rec.value is not None)


@pytest.mark.parametrize("k,c_prime,clamp_p", [(3, 7.0, False), (3, 7.0, True), (16, 7.0, True),
                                               (16, 9.5, False), (200, 7.0, False)])
def test_lll_params_derive_from_c_prime_and_k(k, c_prime, clamp_p):
    params = LllParams.for_degree(k, c_prime=c_prime, clamp_p=clamp_p)
    raw = c_prime * math.log(k) / k
    assert params.p_clamped == (clamp_p and raw >= 1.0)
    assert params.p == (0.5 if params.p_clamped else raw)
    lam_sq = 3 * c_prime * math.log(k) * (1 + math.log(2) + math.log(k * k + 1))
    assert params.lam == math.sqrt(lam_sq)
    assert params.window_nonempty == (lam_sq < (c_prime * math.log(k)) ** 2)


def test_certificate_and_condition_flags_follow_their_values():
    for g in GRAPHS:
        cert = triangle_certificate(g, chromatic_number(g).witness)
        assert cert.certified == (not cert.uncovered)
    for check in (lll_condition_hypergraph(9, 9, 9), lll_condition_hypergraph(8, 8, 8),
                  lll_condition_list(50, 4, 5), lll_condition_list(3, 2, 3)):
        assert check.holds == (check.margin <= 1.0)

