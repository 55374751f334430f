"""Command-line surface: subcommands, formats, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dynachrome import (
    Coloring,
    Graph,
    SolveResult,
    VertexSubset,
    check_domination,
    coloring_to_json_dict,
    cycle,
    from_spec,
    read_dimacs,
)
from dynachrome import cli as cli_module
from dynachrome.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_stdout_dimacs(capsys):
    code, out, _ = run(capsys, "gen", "cycle:8")
    assert code == 0
    assert read_dimacs(out) == cycle(8)


def test_gen_to_file_edgelist(tmp_path, capsys):
    target = tmp_path / "g.txt"
    code, _, _ = run(capsys, "gen", "kneser:5,2", "-o", str(target),
                     "--output-format", "edgelist")
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "# vertices 10"
    assert len(lines[1:]) == 15


def test_gen_invalid_spec_exits_1(capsys):
    code, _, err = run(capsys, "gen", "cycle:2")
    assert code == 1
    assert "invalid input" in err


def test_solve_chi_json(capsys):
    code, out, _ = run(capsys, "solve", "chi", "--graph", "cycle:5",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 3 and not data["exhausted"]


def test_solve_chid_text(capsys):
    code, out, _ = run(capsys, "solve", "chid", "--graph", "cycle:5")
    assert code == 0
    assert "chid = 5" in out


def test_solve_double_total_none(capsys):
    code, out, _ = run(capsys, "solve", "double-total", "--graph", "cycle:6")
    assert code == 0
    assert "no double total dominating set" in out


def test_solve_double_total_long_cycle_none_without_resampling(capsys, monkeypatch):
    from dynachrome import constructions

    def no_resampling(h, seed):
        raise AssertionError("resampled")

    monkeypatch.setattr(constructions, "moser_tardos_2color", no_resampling)
    code, out, _ = run(capsys, "solve", "double-total", "--graph", "cycle:1002")
    assert code == 0
    assert out == "no double total dominating set exists (certified)\n"


def test_solve_double_total_resamples_before_exact_search(capsys):
    # Exact search alone runs out of its 20,000 nodes here; resampling from
    # the seed finds a set first.
    code, out, _ = run(capsys, "solve", "double-total", "--graph", "random_regular:200,3",
                       "--seed", "5", "--budget", "20000", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["found"] is True
    g = from_spec("random_regular:200,3", 5)
    assert check_domination(g, VertexSubset.of(g, data["members"]), "double_total") == []


def test_degree_one_vertex_has_no_double_total_set(capsys):
    code, out, _ = run(capsys, "solve", "double-total", "--graph", "complete_bipartite:1,3")
    assert code == 0 and "certified" in out
    code, out, err = run(capsys, "construct", "compose", "--graph", "complete_bipartite:1,3")
    assert code == 1 and out == ""
    assert err.startswith("invalid input:")


def test_solve_chi_large_cubic_graph_exits_0(capsys):
    code, out, _ = run(capsys, "solve", "chi", "--graph", "random_regular:3000,3",
                       "--budget", "100000", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == 3


# Each solver replaced by one that answers with a witness its check rejects:
# an improper coloring, a proper one with a monochromatic neighborhood, and
# a set with no member next to vertex 0.
_BAD_ANSWERS = [
    ("chi", "chromatic_number", SolveResult(3, Coloring.total([0] * 5), 0)),
    ("chid", "dynamic_chromatic_number",
     SolveResult(3, Coloring.total([0, 1, 2, 0, 1]), 0)),
    ("double-total", "double_total_subset", VertexSubset(frozenset({0}), 5)),
]


@pytest.mark.parametrize("problem, solver, answer", _BAD_ANSWERS)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_solve_rechecks_witness(capsys, monkeypatch, problem, solver, answer, fmt):
    module = cli_module.constructions if problem == "double-total" else cli_module.exact
    monkeypatch.setattr(module, solver, lambda g, *_: answer)
    code, out, err = run(capsys, "solve", problem, "--graph", "cycle:5", "--format", fmt)
    assert code == 3 and out == ""
    assert err.startswith("internal verification failure:")


def test_solve_budget_exhausted_exits_2(capsys):
    code, out, _ = run(capsys, "solve", "chi", "--graph", "kneser:6,2",
                       "--budget", "5", "--format", "json")
    assert code == 2
    assert json.loads(out)["exhausted"] is True


# No environment variable sets the budget: a budget in the environment,
# valid or not, reaches no command.
@pytest.mark.parametrize("value", ["5", "abc", "-1"])
def test_commands_ignore_budget_env_var(capsys, monkeypatch, tmp_path, value):
    record = tmp_path / "c5.json"
    record.write_text(json.dumps(
        coloring_to_json_dict(cycle(5), Coloring.total([0, 1, 0, 1, 2], 3))
    ))
    for argv in (
        ["solve", "chi", "--graph", "kneser:6,2", "--format", "json"],
        ["gen", "cycle:4"],
        ["verify", "--graph", "cycle:5", "--coloring", str(record)],
        ["experiment", "gnp-triangles", "--n", "20", "--p", "0.5", "--trials", "2"],
        ["construct", "compose", "--graph", "cycle:8"],
    ):
        monkeypatch.delenv("DYNACHROME_BUDGET", raising=False)
        code, expected, _ = run(capsys, *argv)
        assert code == 0
        monkeypatch.setenv("DYNACHROME_BUDGET", value)
        assert run(capsys, *argv)[:2] == (0, expected), argv
    assert json.loads(run(capsys, "solve", "chi", "--graph", "kneser:6,2",
                          "--format", "json")[1])["value"] == 4


@pytest.mark.parametrize("argv", [
    ["solve", "chi", "--graph", "kneser:5,2", "--budget", "-3"],
    ["construct", "compose", "--graph", "cycle:8", "--budget", "-1"],
    ["construct", "compose", "--graph", "cycle:8", "--budget", "-3"],
])
def test_negative_budget_exits_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"invalid input: --budget must be >= 0, got {argv[-1]}\n"


def test_zero_budget_is_valid(capsys):
    code, out, _ = run(capsys, "solve", "chi", "--graph", "kneser:5,2", "--budget", "0",
                       "--format", "json")
    assert code == 2 and json.loads(out)["exhausted"] is True
    code, _, _ = run(capsys, "construct", "compose", "--graph", "cycle:8", "--budget", "0")
    assert code == 0


def test_solve_reads_graph_file(tmp_path, capsys):
    path = tmp_path / "c5.col"
    run(capsys, "gen", "cycle:5", "-o", str(path))
    code, out, _ = run(capsys, "solve", "chi", "--graph", str(path),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == 3


def test_bounds_petersen(capsys):
    code, out, _ = run(capsys, "bounds", "--graph", "kneser:5,2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    low = next(b for b in data["bounds"] if b["name"] == "low_max_degree")
    assert low["applicable"] and low["value"] == 4


def test_bounds_min_degree_past_float_range(capsys):
    # 2.0 ** (δ - 1) overflows a float once δ >= 1026.
    code, out, _ = run(capsys, "bounds", "--graph", "complete:1027", "--format", "json")
    assert code == 0
    data = json.loads(out)
    doubling = next(b for b in data["bounds"] if b["name"] == "neighborhood_two_coloring")
    assert doubling["applicable"] and doubling["value"] == 2 * 1027


def test_construct_kneser(capsys):
    code, out, _ = run(capsys, "construct", "kneser", "--m", "7", "--n", "3",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["palette_size"] <= 5
    assert data["certificates"] == [{"check": "dynamic", "violations": 0}]
    assert data["gap"] <= 2


def test_construct_kneser_passes_budget(capsys, monkeypatch):
    seen = {}
    real = cli_module.constructions.kneser_dynamic_coloring

    def spy(spec, **kwargs):
        seen.update(kwargs)
        return real(spec, **kwargs)

    monkeypatch.setattr(cli_module.constructions, "kneser_dynamic_coloring", spy)
    code, _, _ = run(capsys, "construct", "kneser", "--m", "7", "--n", "3",
                     "--budget", "3")
    assert code == 0
    assert seen["budget"] == 3


def test_construct_compose(capsys):
    code, out, _ = run(capsys, "construct", "compose", "--graph", "cycle:8",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["certificates"][0]["violations"] == 0


def test_construct_compose_cycle6_exits_1(capsys):
    code, _, err = run(capsys, "construct", "compose", "--graph", "cycle:6")
    assert code == 1
    assert "no double total dominating set" in err


def test_construct_balanced(capsys):
    code, out, _ = run(capsys, "construct", "balanced", "--graph",
                       "complete_bipartite:16,16", "--clamp-p",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["certificates"][0]["violations"] == 0


@pytest.mark.parametrize("spec,k", [("random_regular:12,3", 3), ("cycle:6", 2)])
def test_construct_balanced_degenerate_exits_1(capsys, spec, k):
    code, out, err = run(capsys, "construct", "balanced", "--graph", spec, "--seed", "1")
    assert code == 1 and out == ""
    assert err == (f"invalid input: membership probability c' ln(k)/k >= 1 at k={k}; "
                   "pass --clamp-p to run a clamped experiment\n")


def test_construct_balanced_irregular_graph_is_invalid_input(capsys):
    code, out, err = run(capsys, "construct", "balanced", "--graph",
                         "complete_bipartite:1,3")
    assert code == 1 and out == ""
    assert err == "invalid input: balanced construction needs a regular graph\n"


@pytest.mark.parametrize("spec,c_prime", [("random_regular:20,3", "nan"),
                                          ("random_regular:20,3", "inf"),
                                          ("random_regular:200,16", "1e308")])
def test_construct_balanced_non_finite_c_prime_is_invalid_input(capsys, spec, c_prime):
    code, out, err = run(capsys, "construct", "balanced", "--graph", spec,
                         "--c-prime", c_prime, "--clamp-p")
    assert code == 1 and out == ""
    assert err.startswith("invalid input: c_prime must keep")


def test_construct_balanced_clamp_note_on_stderr(capsys, recwarn):
    code, out, err = run(capsys, "construct", "balanced", "--graph", "cycle:8",
                         "--clamp-p")
    assert code == 0 and "assignment:" in out
    assert err == "note: membership probability c' ln(k)/k >= 1 at k=2; clamped to 0.5\n"
    assert len(recwarn) == 0


def test_construct_product(capsys):
    code, out, _ = run(capsys, "construct", "product", "--graph", "cycle:8",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["certificates"][0]["violations"] == 0


def test_construct_product_cycle6_exits_1(capsys):
    code, _, err = run(capsys, "construct", "product", "--graph", "cycle:6")
    assert code == 1
    assert "not 2-colorable" in err


def test_verify_roundtrip(tmp_path, capsys):
    gpath = tmp_path / "c4.col"
    run(capsys, "gen", "cycle:4", "-o", str(gpath))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(
        coloring_to_json_dict(cycle(4), Coloring.total([0, 1, 2, 3], 4))
    ))
    code, out, _ = run(capsys, "verify", "--graph", str(gpath),
                       "--coloring", str(good), "--check", "dynamic",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["violations"] == []

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        coloring_to_json_dict(cycle(4), Coloring.total([0, 1, 0, 1], 2))
    ))
    code, out, _ = run(capsys, "verify", "--graph", str(gpath),
                       "--coloring", str(bad), "--check", "dynamic",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert {v["kind"] for v in data["violations"]} == {"monochromatic_neighborhood"}


def test_verify_rejects_a_record_for_another_graph(tmp_path, capsys):
    gpath = tmp_path / "c5.col"
    run(capsys, "gen", "cycle:5", "-o", str(gpath))
    record = coloring_to_json_dict(Graph.from_edges(5, [(0, 1)]),
                                   Coloring.total([0, 1, 2, 3, 4], 5))
    foreign = tmp_path / "foreign.json"
    foreign.write_text(json.dumps(record))
    code, _, err = run(capsys, "verify", "--graph", str(gpath),
                       "--coloring", str(foreign))
    assert code == 1
    assert "graph_id" in err

    del record["graph_id"]
    anonymous = tmp_path / "anonymous.json"
    anonymous.write_text(json.dumps(record))
    code, out, _ = run(capsys, "verify", "--graph", str(gpath),
                       "--coloring", str(anonymous), "--format", "json")
    assert code == 0
    assert json.loads(out)["violations"] == []


@pytest.mark.parametrize(
    "assignment", [[0, 1.7, 0, 1, 2], [0, True, 0, 1, 2], [0, None, 0, 1, 2], "01012", 5]
)
def test_verify_rejects_non_integer_colors(tmp_path, capsys, assignment):
    record = coloring_to_json_dict(cycle(5), Coloring.total([0, 1, 0, 1, 2], 3))
    record["assignment"] = assignment
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))
    code, out, err = run(capsys, "verify", "--graph", "cycle:5", "--coloring", str(path))
    assert code == 1
    assert out == ""
    assert "invalid input" in err


def test_experiment_gnp_csv(capsys):
    code, out, _ = run(capsys, "experiment", "gnp-triangles", "--n", "12",
                       "--p", "0.5", "--trials", "3", "--seed", "1",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("trial,") and len(lines) == 4


def test_experiment_scan_text(capsys):
    code, out, _ = run(capsys, "experiment", "conjecture-scan",
                       "--family", "cubic", "--max-n", "8", "--trials", "4",
                       "--seed", "1")
    assert code == 0
    assert "max_gap" in out


@pytest.mark.parametrize("argv", [
    ["--family", "regular", "--n", "10", "--k", "3", "--trials", "-2", "--format", "json"],
    ["--family", "cubic", "--trials", "0", "--format", "csv"],
])
def test_conjecture_scan_without_trials_exits_1(capsys, argv):
    code, out, err = run(capsys, "experiment", "conjecture-scan", *argv)
    assert code == 1 and out == ""
    assert err == "invalid input: need at least one trial\n"


def test_unknown_argument_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "chi"])  # missing required --graph
    assert exc.value.code == 1


def test_certification_failure_exits_3(capsys, monkeypatch):
    from dynachrome import CertificationError

    def explode(*args, **kwargs):
        raise CertificationError("simulated self-check failure")

    monkeypatch.setattr(cli_module.constructions, "kneser_dynamic_coloring", explode)
    code, _, err = run(capsys, "construct", "kneser", "--m", "7", "--n", "3")
    assert code == 3
    assert "internal verification failure" in err


# ----------------------------------------------------------------------
# One parser per process
# ----------------------------------------------------------------------


def _exit_code(argv):
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def test_main_builds_no_parser_after_the_first_call(capsys, monkeypatch):
    _exit_code(["gen", "cycle:4"])  # warm-up: builds the parser unless an earlier call did
    built = []
    init = cli_module._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli_module._Parser, "__init__", counting_init)
    for argv in (
        ["gen", "cycle:5"],
        ["solve", "chi", "--graph", "cycle:5"],
        ["construct", "compose", "--graph", "cycle:8"],
        ["experiment", "gnp-triangles", "--n", "8", "--p", "0.5", "--trials", "2"],
        ["solve", "chx", "--graph", "cycle:5"],
    ):
        assert _exit_code(argv) in (0, 1)
    assert built == []
    cli_module.build_parser()
    assert len(built) == 13  # the counter sees every parser a build makes


_PKG_PARENT = str(Path(cli_module.__file__).resolve().parents[1])

# Valid calls interleaved with an invalid choice, --help and values of
# DYNACHROME_BUDGET, which no call reads: (argv, the variable's value or None
# for unset).
_SEQUENCE = [
    (["gen", "cycle:5"], None),
    (["solve", "chx", "--graph", "cycle:5"], None),
    (["solve", "chi", "--graph", "kneser:5,2", "--format", "json"], "0"),
    (["--help"], None),
    (["solve", "chi", "--graph", "kneser:5,2", "--format", "json"], None),
    (["construct", "compose", "--help"], None),
    (["solve", "chi", "--graph", "kneser:5,2", "--format", "json"], "abc"),
    (["construct", "compose", "--graph", "cycle:8"], None),
    (["gen", "cycle:5"], None),
]


def test_repeated_main_calls_match_fresh_processes(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")  # one help width in and out of process
    in_process = []
    for argv, budget in _SEQUENCE:
        if budget is None:
            monkeypatch.delenv("DYNACHROME_BUDGET", raising=False)
        else:
            monkeypatch.setenv("DYNACHROME_BUDGET", budget)
        code = _exit_code(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))

    codes = [code for code, _, _ in in_process]
    assert codes == [0, 1, 0, 0, 0, 0, 0, 0, 0]
    for (argv, budget), got in zip(_SEQUENCE, in_process):
        env = {k: v for k, v in os.environ.items() if k != "DYNACHROME_BUDGET"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [_PKG_PARENT, env.get("PYTHONPATH")]))
        if budget is not None:
            env["DYNACHROME_BUDGET"] = budget
        proc = subprocess.run(
            [sys.executable, "-m", "dynachrome.cli", *argv], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == got, argv
