"""Tests of the benchmark harness itself (not of dynachrome).

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from checker import Check, References, classify  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402


def span(name, start, end, parent, counts=None, outer=True):
    return Span(name, name.split(".")[0], start, end, parent, 0, outer, counts or {})


def test_self_time_subtracts_direct_children_only():
    # cli [0,10] > constructions [1,7] > exact [2,5] > graphs [3,4]; verify [8,9] under cli
    spans = [
        span("cli.main", 0.0, 10.0, -1),
        span("constructions.kneser_dynamic_coloring", 1.0, 7.0, 0),
        span("exact.hypergraph_2color_exact", 2.0, 5.0, 1, {"nodes": 7, "exhausted": 1}),
        span("graphs.neighborhood_hypergraph", 3.0, 4.0, 2, {"edges_built": 11}),
        span("verify.check_dynamic", 8.0, 9.0, 0, {"items_checked": 5, "violations": 0}),
    ]
    assert self_times(spans) == [3.0, 3.0, 2.0, 1.0, 1.0]
    m = layer_metrics(spans)
    assert m["cli.self_s"] == 3.0 and m["constructions.self_s"] == 3.0
    assert m["exact.self_s"] == 2.0 and m["graphs.self_s"] == 1.0
    assert m["exact.nodes"] == 7 and m["exact.exhausted"] == 1
    assert m["exact.nodes_per_s"] == 7 / 3.0          # busy time includes the graphs child
    assert m["exact.decided_ratio"] == 0.0
    assert m["graphs.edges_built"] == 11 and m["verify.items_checked"] == 5
    assert m["lll.calls"] == 0 and m["lll.self_s"] == 0


def test_nested_same_module_work_counts_once():
    spans = [
        span("graphs.from_spec", 0.0, 4.0, -1, {"edges_built": 30}),
        span("graphs.random_regular", 1.0, 3.0, 0, {"edges_built": 30}, outer=False),
    ]
    m = layer_metrics(spans)
    assert m["graphs.edges_built"] == 30
    assert m["graphs.self_s"] == 4.0 and m["graphs.calls"] == 2
    assert m["graphs.edges_per_s"] == 30 / 4.0


REFS = References()
SOLVE = Check("solve", "random_regular:20,3", 1, (("problem", "chi"), ("budget", 100)))


@pytest.mark.parametrize("code, stdout, outcome", [
    (1, "", "invalid"),
    (2, json.dumps({"value": None, "witness": None, "nodes_explored": 101,
                    "exhausted": True, "bounds": [3, 4]}), "exhausted"),
    (3, "", "error"),
    (RecursionError("maximum recursion depth exceeded"), "", "error"),
])
def test_classify_exit_codes(code, stdout, outcome):
    got = classify(SOLVE, code, stdout, REFS)
    assert got.outcome == outcome and not got.problems


def test_classify_exit_zero_certifies_the_witness():
    from checker import first_fit_coloring
    g = REFS.graph("random_regular:20,3", 1)
    colors = first_fit_coloring(g)
    value = max(colors) + 1
    good = {"value": value, "witness": colors, "nodes_explored": 5, "exhausted": False}
    got = classify(SOLVE, 0, json.dumps(good), REFS)
    assert (got.outcome, got.value, got.problems) == ("value", value, [])

    u, v = next(g.edges())
    bad = dict(good, witness=[colors[u] if w == v else c for w, c in enumerate(colors)])
    got = classify(SOLVE, 0, json.dumps(bad), REFS)
    assert got.outcome == "error" and got.problems


def test_classify_rejects_a_foreign_graph_id():
    g = REFS.graph("random_regular:20,3", 1)
    from checker import graph_hash
    colors = list(range(g.n))                           # all distinct: proper and dynamic
    record = {"graph_id": graph_hash(g), "palette_size": max(colors) + 1, "assignment": colors,
              "certificates": [{"check": "dynamic", "violations": 0}]}
    check = Check("coloring", "random_regular:20,3", 1)
    assert classify(check, 0, json.dumps(record), REFS).problems == []
    record["graph_id"] = "n20-m30-000000000000"
    assert classify(check, 0, json.dumps(record), REFS).problems


def test_tracer_rebinds_names_imported_elsewhere_and_restores_them():
    cli = run.import_dynachrome()
    constructions = sys.modules["dynachrome.constructions"]
    exact = sys.modules["dynachrome.exact"]
    original, main = exact.hypergraph_2color_exact, cli.main
    assert constructions.hypergraph_2color_exact is original
    tracer = Tracer()
    tracer.install()
    try:
        assert exact.hypergraph_2color_exact is not original
        assert constructions.hypergraph_2color_exact is exact.hypergraph_2color_exact
        assert cli.main is not main
    finally:
        tracer.uninstall()
    assert exact.hypergraph_2color_exact is original
    assert constructions.hypergraph_2color_exact is original
    assert cli.main is main


def _metric_names(kind):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_pass(workload):
    plain = run.run_workload(workload, 3, 0.0, trace=False, tiny=True)
    traced = run.run_workload(workload, 3, 0.0, trace=True, tiny=True)
    again = run.run_workload(workload, 3, 0.0, trace=False, tiny=True)
    for result, passes in ((plain, 3), (traced, 4), (again, 3)):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == passes * len(result["_instances"])
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == _metric_names("end_to_end")
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == _metric_names("per_layer")
    assert plain["_fingerprint"] == again["_fingerprint"] == traced["_fingerprint"]
    assert plain["metrics"]["solved_rate"]["value"] == 1.0


def test_design_lists_the_instances_each_workload_runs():
    design = json.loads((BENCH / "design.json").read_text())
    assert set(design["workloads"]) == set(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        _, _, instances = run.setup(name, workloads.DEFAULT_SEED, tiny=False)
        assert design["workloads"][name]["instances"] == [i.label for i in instances]


def test_golden_table_covers_every_instance():
    golden = json.loads(run.GOLDEN.read_text())
    design = json.loads((BENCH / "design.json").read_text())
    for name in workloads.WORKLOADS:
        assert sorted(golden[name]) == sorted(design["workloads"][name]["instances"])
