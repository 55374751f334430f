"""The CLI contract, driven over generated argv and judged by the naive
oracles.

Each example is one ``solve chi|chid|double-total`` or ``construct
compose|product|balanced`` call on a generator spec of at most 8 vertices
(a few invalid specs included), with a seed and a node budget of None, 0,
1, 3 or 50.  Whatever the argv, the run must:

- exit 0, 1 or 2, with no exception escaping ``cli.main``;
- on a decided chi or chid, report the naive oracle's value;
- on an exhausted chi or chid, report bounds that bracket that value;
- on double-total, say "none" only when no subset of the vertices is a
  double total dominating set, and otherwise name one that is;
- write, on exit 0, a coloring that ``verify`` passes through the CLI,
  that ``verify`` lists an improper edge in once one vertex takes a
  neighbor's color, and that ``verify`` refuses (exit 1) once one vertex
  takes a color at or above the palette;
- print the same bytes, and exit the same, when run again.

Three more properties: ``solve chi|chid`` on a file
that ``gen`` wrote prints what it prints on the spec; no applicable
``bounds`` record is below the naive chi_d; and ``construct kneser`` on
small (m, n), invalid pairs included, exits 0 or 1 with a coloring that
``verify`` passes on at most its ``max_colors`` colors.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynachrome import Coloring, coloring_to_json_dict, from_spec
from dynachrome.cli import main
from helpers import brute_force_double_total_sets, naive_chromatic, naive_dynamic_chromatic

COMMANDS = [
    ["solve", "chi"],
    ["solve", "chid"],
    ["solve", "double-total"],
    ["construct", "compose"],
    ["construct", "product"],
    ["construct", "balanced"],
]

# Specs on at most 8 vertices; cycle:2, random_regular:5,3 and kneser:3,2
# are invalid and must exit 1.  Dense graphs stay at 6 vertices or fewer
# so that the naive oracles, which try every coloring, stay fast.
SPECS = st.one_of(
    st.integers(2, 8).map("cycle:{}".format),
    st.integers(1, 6).map("complete:{}".format),
    st.tuples(st.integers(1, 4), st.integers(1, 4)).map("complete_bipartite:{0[0]},{0[1]}".format),
    st.tuples(st.integers(0, 8), st.sampled_from(["0", "0.2", "0.4", "0.6"]))
    .map("gnp:{0[0]},{0[1]}".format),
    st.sampled_from(["random_regular:4,3", "random_regular:6,3", "random_regular:8,3",
                     "random_regular:6,2", "random_regular:8,2", "random_regular:8,4",
                     "random_regular:5,3"]),
    st.sampled_from(["kneser:4,2", "kneser:5,1", "kneser:3,2"]),
)


@st.composite
def argvs(draw):
    argv = draw(st.sampled_from(COMMANDS)) + ["--graph", draw(SPECS)]
    argv += ["--seed", str(draw(st.integers(0, 5))), "--format", "json"]
    budget = draw(st.sampled_from([None, 0, 1, 3, 50]))
    return argv if budget is None else argv + ["--budget", str(budget)]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@cache
def _graph(spec, seed):
    try:
        return from_spec(spec, int(seed))
    except ValueError:
        return None


@cache
def _oracle(problem, spec, seed):
    g = _graph(spec, seed)
    if problem == "double-total":
        return brute_force_double_total_sets(g)
    return (naive_chromatic if problem == "chi" else naive_dynamic_chromatic)(g)


def _verify(spec, seed, record, check):
    """The exit code and violations of ``verify`` on ``record``."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "coloring.json"
        path.write_text(json.dumps(record))
        code, out, _ = _run(["verify", "--graph", spec, "--seed", seed, "--coloring",
                             str(path), "--check", check, "--format", "json"])
    return code, json.loads(out)["violations"] if code == 0 else None


def _assert_mutations_caught(g, spec, seed, record):
    """An exit-0 ``record`` with one vertex recolored: as a neighbor of it,
    ``verify`` lists that edge; above the palette, ``verify`` exits 1."""
    colors = record["assignment"]
    v = next((v for v in range(g.n) if g.adjacency[v]), None)
    if v is not None:
        u = g.adjacency[v][0]
        clash = dict(record, assignment=colors[:v] + [colors[u]] + colors[v + 1:])
        code, found = _verify(spec, seed, clash, "proper")
        assert code == 0 and {"kind": "improper_edge", "witness": sorted((u, v))} in found
    if g.n:
        over = dict(record, assignment=[record["palette_size"]] + colors[1:])
        assert _verify(spec, seed, over, "dynamic") == (1, None)


@settings(max_examples=500)
@given(argvs())
@example(["solve", "chi", "--graph", "kneser:4,2", "--seed", "0", "--format", "json",
          "--budget", "0"])
@example(["solve", "chid", "--graph", "cycle:5", "--seed", "0", "--format", "json",
          "--budget", "1"])
@example(["solve", "double-total", "--graph", "cycle:6", "--seed", "0", "--format", "json"])
@example(["construct", "balanced", "--graph", "random_regular:8,3", "--seed", "1",
          "--format", "json"])
def test_cli_contract(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2), err
    assert _run(argv) == (code, out, err)
    kind, spec, seed = argv[1], argv[3], argv[5]
    g = _graph(spec, seed)
    if g is None:
        assert code == 1 and out == ""
    elif kind in ("chi", "chid"):  # a solve answers, decided or exhausted
        data = json.loads(out)
        want = _oracle(kind, spec, seed)
        if code == 2:
            lower, upper = data["bounds"]
            assert lower <= want <= upper
            return
        assert code == 0 and data["value"] == want
        record = coloring_to_json_dict(g, Coloring(tuple(data["witness"]), want))
        check = "proper" if kind == "chi" else "dynamic"
        assert _verify(spec, seed, record, check) == (0, [])
        _assert_mutations_caught(g, spec, seed, record)
    elif code != 0:  # refused or exhausted: nothing printed to judge
        assert out == ""
    elif kind == "double-total":
        data, sets = json.loads(out), _oracle(kind, spec, seed)
        if data["found"]:
            assert frozenset(data["members"]) in sets
        else:
            assert sets == []
    else:
        record = json.loads(out)
        assert _verify(spec, seed, record, "dynamic") == (0, [])
        _assert_mutations_caught(g, spec, seed, record)


@settings(max_examples=60)
@given(SPECS, st.integers(0, 5), st.sampled_from(["dimacs", "edgelist"]),
       st.sampled_from(["chi", "chid"]), st.sampled_from([None, 0, 3, 50]))
def test_solve_on_a_generated_file_matches_the_spec(spec, seed, fmt, problem, budget):
    tail = ["--format", "json"] + ([] if budget is None else ["--budget", str(budget)])
    with tempfile.TemporaryDirectory() as d:
        path = str(Path(d) / "graph.txt")
        code = _run(["gen", spec, "--seed", str(seed), "-o", path, "--output-format", fmt])[0]
        from_file = _run(["solve", problem, "--graph", path] + tail) if code == 0 else None
    from_spec_run = _run(["solve", problem, "--graph", spec, "--seed", str(seed)] + tail)
    if code != 0:
        assert code == from_spec_run[0] == 1
    else:
        assert from_file == from_spec_run


@settings(max_examples=60)
@given(SPECS, st.integers(0, 5), st.sampled_from([None, 0, 3]))
def test_bounds_are_never_below_chid(spec, seed, budget):
    argv = ["bounds", "--graph", spec, "--seed", str(seed), "--format", "json"]
    code, out, err = _run(argv + ([] if budget is None else ["--budget", str(budget)]))
    g = _graph(spec, str(seed))
    if g is None:
        assert code == 1 and out == ""
        return
    assert code == 0, err
    want = _oracle("chid", spec, str(seed))
    for record in json.loads(out)["bounds"]:
        assert not record["applicable"] or record["value"] >= want, record


@settings(max_examples=12)
@given(st.sampled_from([(5, 2), (7, 3), (8, 3), (9, 4), (6, 2), (4, 2), (3, 2)]),
       st.integers(0, 5))
def test_construct_kneser_colors_within_its_promise(pair, seed):
    m, n = pair
    code, out, err = _run(["construct", "kneser", "--m", str(m), "--n", str(n),
                           "--seed", str(seed), "--format", "json"])
    assert code in (0, 1), err
    if code == 1:
        assert out == ""
        return
    record = json.loads(out)
    assert record["colors_used"] <= record["max_colors"]
    assert _verify(f"kneser:{m},{n}", "0", record, "dynamic") == (0, [])
