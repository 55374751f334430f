"""Resampling outputs and logs pinned on a seeded sweep.

``data/lll_pinned.json`` was recorded from the full-rescan loops that the
incremental resampling engine replaced.  Each entry names a routine, its
input and seed and cap, and holds the returned object, ``log.to_json_dict()``
and ``log.final_state``; every one must be reproduced exactly.  The sweep
covers successful, exhausted and zero-cap runs of all four routines, and
balanced-subset runs at degrees whose Local Lemma window holds (k >= 9)
and at degrees where it does not.  Entries under
``find_double_total_dominating`` replay ``moser_tardos_2color`` on the
graph's neighborhood hypergraph, with the vertices colored 1 as both the
returned set and ``final_state``.

Re-record (only for an intended change of the draw order) with
``PYTHONPATH=src python tests/test_lll_pinned.py``.
"""

import json
import random
from pathlib import Path

import pytest

from dynachrome import (
    Coloring,
    ListAssignment,
    VertexSubset,
    balanced_window,
    find_balanced_subset,
    from_spec,
    moser_tardos_2color,
    neighborhood_hypergraph,
    select_sublists,
)
from helpers import fano_plane, random_uniform_hypergraph, triangle_hypergraph

FIXTURE = Path(__file__).parent / "data" / "lll_pinned.json"
CAPS = (None, 0, 1, 5)


def _hypergraph(spec: str):
    if spec == "triangle":
        return triangle_hypergraph()
    if spec == "fano":
        return fano_plane()
    name, _, args = spec.partition(":")
    if name == "uniform":
        n, m, size, max_degree, seed = (int(a) for a in args.split(","))
        return random_uniform_hypergraph(n, m, size, max_degree, seed)
    if name == "nbhd":
        return neighborhood_hypergraph(from_spec(args, seed=0))
    raise ValueError(spec)


def _lists(n: int, spec: str) -> ListAssignment:
    """``uniform:m`` gives every vertex {0..m-1}; ``random:m,span`` gives
    each vertex a seeded m-subset of {0..span-1}."""
    name, _, args = spec.partition(":")
    if name == "uniform":
        return ListAssignment.uniform(n, range(int(args)))
    m, span = (int(a) for a in args.split(","))
    rng = random.Random(n)
    return ListAssignment.of([rng.sample(range(span), m) for _ in range(n)])


def _encode(result):
    if result is None:
        return None
    if isinstance(result, Coloring):
        return {"colors": list(result.colors), "palette": result.palette_size}
    if isinstance(result, VertexSubset):
        return {"members": sorted(result.members), "n": result.n}
    if isinstance(result, ListAssignment):
        return {"lists": [sorted(l) for l in result.lists]}
    raise TypeError(type(result))


def run_case(case: dict) -> dict:
    routine, seed, cap = case["routine"], case["seed"], case["cap"]
    final_state = None
    if routine == "moser_tardos_2color":
        out, log = moser_tardos_2color(_hypergraph(case["input"]), seed, cap)
    elif routine == "find_double_total_dominating":
        g = from_spec(case["input"], seed=0)
        f, log = moser_tardos_2color(neighborhood_hypergraph(g), seed, cap)
        final_state = [v for v in range(g.n) if log.final_state[v] == 1]
        out = None if f is None else VertexSubset.of(g, final_state)
    elif routine == "find_balanced_subset":
        g = from_spec(case["input"], seed=0)
        out, log = find_balanced_subset(g, seed, cap)
    elif routine == "select_sublists":
        g = from_spec(case["input"], seed=0)
        out, log = select_sublists(g, _lists(g.n, case["lists"]), case["l"], seed, cap)
    else:
        raise ValueError(routine)
    if final_state is None:  # only the double-total replay maps the log's state
        final_state = json.loads(json.dumps(log.final_state))  # tuples as JSON lists
    return {"result": _encode(out), "log": log.to_json_dict(), "final_state": final_state}


def _sweep() -> list[dict]:
    cases = []

    def add(routine, inputs, seeds, caps=CAPS, **extra):
        for spec in inputs:
            for seed in seeds:
                for cap in caps:
                    cases.append(
                        {"routine": routine, "input": spec, "seed": seed, "cap": cap, **extra}
                    )

    add("moser_tardos_2color", ["triangle", "fano"], range(3))
    add("moser_tardos_2color", ["uniform:30,30,3,4,1", "uniform:40,30,9,9,5"], range(4))
    add("moser_tardos_2color", ["nbhd:random_regular:60,3"], range(4))
    add("find_double_total_dominating", ["cycle:6", "cycle:8"], range(3))
    add("find_double_total_dominating",
        ["random_regular:20,3", "random_regular:200,3", "random_regular:700,3"], range(3))
    add("find_double_total_dominating", ["random_regular:100,9"], range(2), caps=(None,))
    add("find_balanced_subset", ["random_regular:102,50", "random_regular:60,20",
                                 "random_regular:40,4", "random_regular:200,3"], range(3))
    add("select_sublists", ["cycle:4"], range(2), lists="uniform:4", l=4)
    add("select_sublists", ["cycle:6"], range(3), lists="uniform:3", l=1)
    add("select_sublists", ["random_regular:30,4"], range(4), lists="random:6,10", l=3)
    add("select_sublists", ["random_regular:102,50"], range(1), caps=(None, 5),
        lists="uniform:5", l=4)
    return cases


def _case_id(case: dict) -> str:
    extra = "".join(f",{k}={case[k]}" for k in ("lists", "l") if k in case)
    return f"{case['routine']}[{case['input']},seed={case['seed']},cap={case['cap']}{extra}]"


def _load() -> list[dict]:
    return json.loads(FIXTURE.read_text()) if FIXTURE.exists() else []


@pytest.mark.parametrize("entry", _load(), ids=lambda e: _case_id(e["case"]))
def test_pinned_resampling_run(entry):
    assert run_case(entry["case"]) == entry["expected"]


def test_pinned_sweep_covers_every_outcome():
    entries = _load()
    assert [e["case"] for e in entries] == _sweep()
    outcomes = {(e["case"]["routine"], e["expected"]["log"]["outcome"]) for e in entries}
    for routine in {e["case"]["routine"] for e in entries}:
        assert (routine, "success") in outcomes
        assert (routine, "exhausted") in outcomes
    inputs = {e["case"]["input"] for e in entries if e["case"]["routine"] == "find_balanced_subset"}
    holds = {balanced_window(from_spec(spec, seed=0).regular_degree())[2].holds for spec in inputs}
    assert holds == {True, False}


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    lines = [json.dumps({"case": c, "expected": run_case(c)}, sort_keys=True) for c in _sweep()]
    FIXTURE.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"wrote {len(lines)} cases to {FIXTURE}")
