"""CLI construction and bound outputs pinned on a seeded sweep.

``data/construct_pinned.json`` holds, for each argv of ``construct
product|compose|balanced|kneser`` and ``bounds`` (text and JSON), the exit
code and the sha256 of stdout, and for ``bound_report`` calls offered
every fact it checks, the report's JSON dict.  The sweep covers
certified none, budget exhaustion, infeasible and degenerate inputs next
to the successful runs; every entry must be reproduced exactly.

Re-record (only for an intended change of these outputs) with
``PYTHONPATH=src python tests/test_construct_pinned.py``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from dynachrome import (
    KneserSpec,
    VertexSubset,
    bound_report,
    double_total_subset,
    from_spec,
)
from dynachrome.cli import main

FIXTURE = Path(__file__).parent / "data" / "construct_pinned.json"
SEEDS = (0, 1, 2)
BUDGETS = (None, 50, 20000)
# Budget None (unbounded searches) only on graphs that finish quickly.
QUICK = (
    "cycle:5", "cycle:6", "cycle:8", "cycle:9", "complete:4", "complete:6",
    "complete_bipartite:1,3", "complete_bipartite:3,3", "complete_bipartite:4,6",
    "kneser:5,2", "random_regular:20,3", "gnp:30,0.3",
)
BUDGETED = (
    "kneser:7,3", "complete_bipartite:16,16", "random_regular:200,3",
    "random_regular:700,3", "random_regular:102,50", "random_regular:200,16",
)
KINDS = (("product",), ("compose",), ("balanced",))
KNESER = ((5, 2), (7, 3), (8, 3), (9, 4), (11, 5), (13, 6))
# cycle:6 has no double total dominating set and its neighborhood
# hypergraph no 2-coloring: its size-2 hyperedges form two triangles, which
# decides both before any resampling or search.
CERTIFIED_AT_BUDGET_1 = (
    ["construct", "compose", "--graph", "cycle:6", "--budget", "1"],
    ["construct", "product", "--graph", "cycle:6", "--budget", "1"],
)
# The Heawood graph's neighborhood hypergraph (two Fano planes, all
# 3-edges) has no 2-coloring either, but only a search can tell: resampling
# exhausts its 14,000 resamples, and one search node decides nothing.  The
# path is relative to this file's directory, where the sweep runs.
HEAWOOD = "data/heawood.txt"
EXHAUSTING = (
    ["construct", "compose", "--graph", HEAWOOD, "--budget", "1"],
    ["construct", "product", "--graph", HEAWOOD, "--budget", "1"],
)


def _budgets(spec: str):
    return BUDGETS if spec in QUICK else BUDGETS[1:]


def _with(argv: list, seed: int, budget, fmt: str) -> list:
    argv = argv + ["--seed", str(seed)]
    if budget is not None:
        argv += ["--budget", str(budget)]
    return argv + ["--format", fmt]


def _argv_sweep() -> list[list[str]]:
    sweep = []
    for spec in QUICK + BUDGETED:
        for kind in KINDS:
            for seed in SEEDS:
                for budget in _budgets(spec):
                    base = ["construct", kind[0], "--graph", spec, *kind[1:]]
                    sweep.append(_with(base, seed, budget, "json"))
                    if seed == 0:
                        sweep.append(_with(base, seed, budget, "text"))
    for m, n in KNESER:
        for seed in SEEDS:
            for budget in BUDGETS:
                base = ["construct", "kneser", "--m", str(m), "--n", str(n)]
                sweep.append(_with(base, seed, budget, "json"))
                if seed == 0:
                    sweep.append(_with(base, seed, budget, "text"))
    for spec in QUICK + BUDGETED:
        for budget in _budgets(spec):
            for fmt in ("json", "text"):
                sweep.append(_with(["bounds", "--graph", spec], 0, budget, fmt))
    return sweep + [list(a) for a in CERTIFIED_AT_BUDGET_1 + EXHAUSTING]


def _report_sweep() -> list[dict]:
    """``bound_report`` calls offered every fact it checks (both subsets
    and the spec of KG(7,3)), once with dominating subsets and once with
    subsets that dominate nothing."""
    cases = []
    for spec in ("random_regular:20,9", "random_regular:30,10", "random_regular:80,12",
                 "complete:10", "cycle:8", "kneser:7,3", "complete_bipartite:10,10"):
        for subsets in ("found", "single"):
            for budget in (None, 1, 50):
                cases.append({"graph": spec, "subsets": subsets, "budget": budget})
    return cases


def run_argv(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"code": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def run_report(case: dict) -> dict:
    g = from_spec(case["graph"], seed=0)
    if case["subsets"] == "found":
        subset = double_total_subset(g, seed=0)
    else:
        subset = VertexSubset(frozenset({0}), g.n)
    report = bound_report(
        g, case["budget"], double_total=subset, total=subset, kneser=KneserSpec(7, 3)
    )
    return report.to_json_dict()


def _load() -> dict:
    if FIXTURE.exists():
        return json.loads(FIXTURE.read_text())
    return {"argv": [], "bound_report": []}


@pytest.fixture(autouse=True)
def _in_test_dir(monkeypatch):
    monkeypatch.chdir(Path(__file__).parent)


@pytest.mark.parametrize("entry", _load()["argv"], ids=lambda e: " ".join(e["argv"]))
def test_pinned_cli_output(entry):
    assert run_argv(entry["argv"]) == entry["expected"]


@pytest.mark.parametrize("entry", _load()["bound_report"],
                         ids=lambda e: "{graph},{subsets},budget={budget}".format(**e["case"]))
def test_pinned_bound_report(entry):
    assert run_report(entry["case"]) == entry["expected"]


# The sweep's Kneser graphs have t = 1, but for KG(8,3); these have t = 2,
# 3 and 4, so the colouring outside the tail subset uses more colours.
KNESER_WIDER_T = {
    (12, 5, 0, "json"): "9995f080aa238596d1025309233f2961390d85e0560a2c5bd136a90f08ad8e85",
    (12, 5, 0, "text"): "f45d73b7a15129187b3d653e5197d04880056f7fbe535e7da501753c84242cba",
    (12, 5, 1, "json"): "08bdcbff2373339cfcc25d1d667cb14e6435cf76a15bb02194a4b5d9d2410a80",
    (12, 5, 1, "text"): "869a569b7671b728d6a4c4e68be6e7e3c2d8c41d2f774572e21701539dec695b",
    (11, 4, 0, "json"): "3a28610e553fa3aa19473caa447cc68635019b27bc16563651f74a219abdbdb6",
    (11, 4, 0, "text"): "c91b14cfd8987388fe4f1618c0ccdd970f42ca2f41879d2f97bcacb7df4fa09b",
    (11, 4, 1, "json"): "4050c8f4eab8376495512b84588460443f94836e1451279cd6ef6977d049a75c",
    (11, 4, 1, "text"): "9d27e13e0f083621bef0b4f54c0721bda3844fa084960316f8c74fb6841c25a2",
    (14, 5, 0, "json"): "4ea71c2497ef7d366756c446c5d2351a46793c6629c54815644ef202fd6694c0",
    (14, 5, 0, "text"): "06f7679b00cc8a9598902c57f362f650e1f4a67fcac106dae365b03705c7b3f9",
    (14, 5, 1, "json"): "92d2de89b5960bd83061e67fe91078e0bc7e96c7c509fcdd9d2b9aaee93a0ab9",
    (14, 5, 1, "text"): "51677499166923f506984d5c0c9d9d28f3780693aca7bd0cb8b063fee517c9d7",
}


@pytest.mark.parametrize("m, n, seed, fmt", list(KNESER_WIDER_T),
                         ids=lambda v: str(v))
def test_pinned_kneser_with_wider_t(m, n, seed, fmt):
    argv = ["construct", "kneser", "--m", str(m), "--n", str(n), "--seed", str(seed),
            "--format", fmt]
    expected = {"code": 0, "stdout_sha256": KNESER_WIDER_T[m, n, seed, fmt]}
    assert run_argv(argv) == expected


def test_pinned_sweep_covers_every_outcome():
    data = _load()
    assert [e["argv"] for e in data["argv"]] == _argv_sweep()
    assert [e["case"] for e in data["bound_report"]] == _report_sweep()
    codes = {tuple(e["argv"][:2]): set() for e in data["argv"]}
    for e in data["argv"]:
        codes[tuple(e["argv"][:2])].add(e["expected"]["code"])
    assert codes[("construct", "product")] == {0, 1, 2}
    assert codes[("construct", "compose")] == {0, 1, 2}
    assert codes[("construct", "balanced")] == {0, 1, 2}
    assert codes[("construct", "kneser")] == {0}
    by_argv = {" ".join(e["argv"]): e["expected"]["code"] for e in data["argv"]}
    # certified none, exhaustion, and an infeasible structure
    assert by_argv["construct compose --graph cycle:6 --seed 0 --format text"] == 1
    assert by_argv["construct product --graph cycle:6 --seed 0 --format text"] == 1
    assert by_argv["construct compose --graph complete_bipartite:1,3 --seed 0 --format text"] == 1
    assert by_argv["construct compose --graph cycle:6 --budget 1"] == 1
    assert by_argv["construct product --graph cycle:6 --budget 1"] == 1
    assert by_argv[f"construct compose --graph {HEAWOOD} --budget 1"] == 2
    assert by_argv[f"construct product --graph {HEAWOOD} --budget 1"] == 2
    for e in data["bound_report"]:
        applicable = {b["name"] for b in e["expected"]["bounds"] if b["applicable"]}
        if e["case"]["subsets"] == "single":
            assert not applicable & {"double_total_split", "total_split_doubled"}
        if "kneser_partition" in applicable:
            assert e["case"]["graph"] == "kneser:7,3"
    bases = {(b["name"], b["basis"]) for e in data["bound_report"] for b in e["expected"]["bounds"]}
    for name in ("double_total_split", "total_split_doubled"):
        assert {(name, "exact/exact"), (name, "greedy/greedy"), (name, None)} <= bases
    assert ("critical_doubling", "computed") in bases
    assert not any(basis == "context" for _, basis in bases)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    import os

    os.chdir(Path(__file__).parent)
    argv_lines = [
        json.dumps({"argv": a, "expected": run_argv(a)}, sort_keys=True) for a in _argv_sweep()
    ]
    report_lines = [
        json.dumps({"case": c, "expected": run_report(c)}, sort_keys=True, ensure_ascii=False)
        for c in _report_sweep()
    ]
    FIXTURE.write_text(
        '{\n"argv": [\n' + ",\n".join(argv_lines) + '\n],\n"bound_report": [\n'
        + ",\n".join(report_lines) + "\n]\n}\n"
    )
    print(f"wrote {len(argv_lines)} argv and {len(report_lines)} bound_report cases to {FIXTURE}")
