"""Records store only independent values; every derived value follows its definition."""

import dataclasses
import importlib
import random

import pytest

from dynachrome import (
    BalancedColoringResult,
    BoundRecord,
    BoundReport,
    Coloring,
    ConditionCheck,
    ExperimentReport,
    Graph,
    Hypergraph,
    KneserColoringResult,
    KneserSpec,
    ListAssignment,
    ResampleLog,
    SolveResult,
    TriangleCertificate,
    VertexSubset,
    Violation,
    balanced_coloring,
    balanced_window,
    bound_report,
    chromatic_number,
    complete,
    complete_bipartite,
    cycle,
    dynamic_chromatic_number,
    find_balanced_subset,
    from_spec,
    kneser,
    kneser_dynamic_coloring,
    lll_condition_hypergraph,
    lll_condition_list,
    moser_tardos_2color,
    neighborhood_hypergraph,
    random_regular,
    select_sublists,
    triangle_certificate,
)
from helpers import fano_plane
from test_exact_search import BENCH_SOLVES

STORED = [
    (Graph, ["adjacency"]),
    (Hypergraph, ["n", "edges"]),
    (VertexSubset, ["members", "n"]),
    (KneserSpec, ["m", "n"]),
    (Coloring, ["colors", "palette_size"]),
    (ListAssignment, ["lists"]),
    (Violation, ["kind", "witness"]),
    (ConditionCheck, ["margin", "threshold"]),
    (ResampleLog, ["outcome", "triggers", "final_state", "seed", "max_resamples"]),
    (SolveResult, ["coloring", "lower", "nodes_explored"]),
    (KneserColoringResult, ["spec", "graph", "coloring"]),
    (BalancedColoringResult, ["coloring", "resample_log", "color_bound"]),
    (TriangleCertificate, ["uncovered"]),
    (BoundRecord, ["name", "source", "value", "basis"]),
    (BoundReport, ["records", "graph_summary"]),
    (ExperimentReport, ["name", "parameters", "master_seed", "trials", "aggregates"]),
]


@pytest.mark.parametrize("record,names", STORED, ids=[r.__name__ for r, _ in STORED])
def test_records_store_only_independent_fields(record, names):
    assert [f.name for f in dataclasses.fields(record)] == names
    assert record.__dataclass_params__.frozen


def test_stored_covers_every_exported_record():
    package = importlib.import_module("dynachrome")  # afresh, as in test_exports
    exported = {name for name, obj in vars(package).items()
                if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
    assert exported == {record.__name__ for record, _ in STORED}


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
        assert res.exhausted == (res.value is None) == (res.witness is None)
        assert res.to_json_dict()["exhausted"] == res.exhausted


def assert_solve_derives(res):
    """``exhausted``, ``value``, ``witness`` and ``bounds`` follow from the
    stored ``coloring`` and ``lower``."""
    palette = res.coloring.palette_size
    exhausted = res.lower < palette
    assert res.exhausted == exhausted
    assert res.value == (None if exhausted else palette)
    assert res.witness == (None if exhausted else res.coloring)
    assert res.bounds == ((res.lower, palette) if exhausted else None)


@pytest.mark.parametrize("solve, spec, seed, budget, want", BENCH_SOLVES)
def test_solve_value_is_the_witness_palette(solve, spec, seed, budget, want):
    res = solve(from_spec(spec, seed), budget)
    assert res.value == want[0]
    assert res.value == (None if res.witness is None else res.witness.palette_size)
    assert_solve_derives(res)


def test_solve_result_refuses_lower_outside_its_palette():
    c = Coloring((0, 1, 2), 3)
    assert SolveResult(c, 0, 0).exhausted and not SolveResult(c, 3, 0).exhausted
    for lower in (4, -1):
        with pytest.raises(ValueError, match="lower"):
            SolveResult(c, lower, 0)


def _logs():
    """Logs of the three samplers at caps None, 0 and 3, by sampler."""
    g = random_regular(40, 9, seed=1)
    c12, g4 = cycle(12), random_regular(20, 4, seed=1)
    lists = ListAssignment.uniform(g4.n, range(4))
    runs = {
        "moser_tardos_2color": [lambda cap, h=h: moser_tardos_2color(h, 2, cap)
                                for h in (fano_plane(), neighborhood_hypergraph(g))],
        "find_balanced_subset": [lambda cap: find_balanced_subset(c12, 3, cap)],
        "select_sublists": [lambda cap: select_sublists(g4, lists, 2, 4, cap)],
    }
    return {name: [run(cap)[1] for run in fs for cap in (None, 0, 3)]
            for name, fs in runs.items()}


def test_resample_count_is_the_sum_of_triggers():
    for name, logs in _logs().items():
        assert {log.outcome for log in logs} == {"success", "exhausted"}, name
        assert max(log.resample_count for log in logs) > 3, name
        for log in logs:
            assert log.resample_count == sum(count for _, count in log.triggers)
            assert log.resample_count <= log.max_resamples
            assert log.to_json_dict()["resample_count"] == log.resample_count


def test_resample_logs_and_balanced_results_hash():
    for logs in _logs().values():
        for log in logs:
            assert hash(log) == hash(dataclasses.replace(log))
    result = balanced_coloring(random_regular(40, 16, seed=3), seed=3)
    assert hash(result) == hash(dataclasses.replace(result))


def test_samplers_share_one_log_shape():
    # The three samplers take (input, ..., seed, max_resamples), and their
    # logs have the same fields and the same JSON keys: no sampler stores
    # anything more, such as the balanced window that k determines.
    shapes = {name: {(type(log), tuple(f.name for f in dataclasses.fields(log)),
                      tuple(log.to_json_dict())) for log in logs}
              for name, logs in _logs().items()}
    fields = ("outcome", "triggers", "final_state", "seed", "max_resamples")
    keys = ("outcome", "resample_count", "triggers", "seed", "max_resamples")
    for name, shape in shapes.items():
        assert shape == {(ResampleLog, fields, keys)}, name


def test_resample_log_is_frozen():
    log = moser_tardos_2color(fano_plane(), seed=0, max_resamples=3)[1]
    for name in ("outcome", "triggers", "final_state", "resample_count"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(log, name, None)


@pytest.mark.parametrize("spec, seed", [("random_regular:40,16", 3),
                                        ("random_regular:102,50", 6)])
def test_balanced_subset_is_the_resampled_subset(spec, seed):
    g = from_spec(spec, seed)
    result = balanced_coloring(g, seed=seed)
    subset, log = find_balanced_subset(g, seed)
    assert result.subset == subset
    assert result.resample_log == log


@pytest.mark.parametrize("m, n", [(7, 3), (9, 4), (11, 5), (8, 3), (11, 4), (14, 5)])
def test_kneser_tail_subset_avoids_the_first_t_elements(m, n):
    result = kneser_dynamic_coloring(KneserSpec(m, n))
    head = set(range(1, result.spec.t + 1))
    subsets = result.spec.vertex_subsets()
    assert result.tail_subset == VertexSubset.of(
        result.graph, (v for v, a in enumerate(subsets) if head.isdisjoint(a)))


def test_bound_record_applicable_is_value_not_none():
    for g in GRAPHS:
        for rec in bound_report(g).records:
            assert rec.applicable == (rec.value is not None)


@pytest.mark.parametrize("k", [2, 3, 8, 9, 16, 50, 102, 200])
def test_balanced_window_derives_from_k(k):
    # The sampler's p and D are balanced_window(k)'s, for the k read off the
    # graph: with no resample, T is the first draw at p, and the run
    # succeeds iff every vertex has 0 < deg_T(v) < D.
    p, cap, check = balanced_window(k)
    assert check.holds is (k >= 9)
    g = complete_bipartite(k, k)
    rng = random.Random(4)
    members = tuple(v for v in range(g.n) if rng.random() < p)
    t, log = find_balanced_subset(g, 4, 0)
    assert (log.final_state, log.seed, log.max_resamples) == (members, 4, 0)
    in_t = set(members)
    inside = [len(in_t.intersection(nbrs)) for nbrs in g.adjacency]
    assert log.success == all(0 < d < cap for d in inside) == (t is not None)


def test_certificate_and_condition_flags_follow_their_values():
    for g in GRAPHS:
        cert = triangle_certificate(g, chromatic_number(g).witness)
        assert cert.certified == (not cert.uncovered)
    for check in (lll_condition_hypergraph(9, 9, 9), lll_condition_hypergraph(8, 8, 8),
                  lll_condition_list(50, 4, 5), lll_condition_list(3, 2, 3)):
        assert check.holds == (check.margin <= 1.0)

