"""Experiment harnesses: reproducibility and recomputable aggregates."""

import pytest

from dynachrome import (
    conjecture_scan,
    derive_seed,
    gnp,
    run_gnp_triangle_experiment,
    vertices_in_triangles,
)


def test_gnp_experiment_reproducible():
    a = run_gnp_triangle_experiment(20, 0.5, trials=10, seed=3)
    b = run_gnp_triangle_experiment(20, 0.5, trials=10, seed=3)
    assert a == b
    c = run_gnp_triangle_experiment(20, 0.5, trials=10, seed=4)
    assert a != c


def test_gnp_experiment_aggregates_recompute():
    report = run_gnp_triangle_experiment(20, 0.5, trials=12, seed=7)
    certified = sum(1 for t in report.trials if t["certified"])
    assert report.aggregates["certified_count"] == certified
    assert report.aggregates["certified_rate"] == certified / 12
    mean = sum(t["covered_fraction"] for t in report.trials) / 12
    assert report.aggregates["mean_covered_fraction"] == pytest.approx(mean)
    assert report.aggregates["analytic_uncovered_bound"] == pytest.approx(
        20 * (1 - 0.5**3) ** 9
    )


def test_gnp_experiment_trials_rebuild_from_seeds():
    report = run_gnp_triangle_experiment(15, 0.4, trials=5, seed=11)
    for record in report.trials:
        g = gnp(15, 0.4, record["seed"])
        assert record["covered_fraction"] == len(vertices_in_triangles(g)) / 15
        assert record["seed"] == derive_seed(11, record["trial"])


def test_gnp_experiment_dense_tiny():
    # At p = 0.999 nearly every sample of size 3 is the full triangle.
    report = run_gnp_triangle_experiment(3, 0.999, trials=10, seed=0)
    assert report.aggregates["certified_count"] == 10


def test_gnp_experiment_sparse_low_rate():
    report = run_gnp_triangle_experiment(5, 0.1, trials=10, seed=2)
    assert report.aggregates["certified_rate"] <= 0.5


def test_gnp_experiment_validation():
    with pytest.raises(ValueError):
        run_gnp_triangle_experiment(2, 0.5, trials=1, seed=0)
    with pytest.raises(ValueError):
        run_gnp_triangle_experiment(5, 0.0, trials=1, seed=0)
    with pytest.raises(ValueError):
        run_gnp_triangle_experiment(5, 0.5, trials=0, seed=0)


def test_conjecture_scan_cubic():
    report = conjecture_scan("all_cubic_connected", seed=1, max_n=10, trials=12)
    assert report.aggregates["instances"] >= 1
    assert report.aggregates["max_gap"] <= 2
    assert report.aggregates["counterexamples"] == []
    for record in report.trials:
        if not record["exhausted"]:
            assert record["gap"] == record["chi_d"] - record["chi"]
            assert 0 <= record["gap"] <= 2


def test_conjecture_scan_c5_gap_two():
    # Every simple 2-regular graph on 5 vertices is the 5-cycle: gap 5 - 3 = 2.
    report = conjecture_scan("random_regular", seed=4, k=2, n=5, trials=3)
    for record in report.trials:
        assert record["chi"] == 3 and record["chi_d"] == 5 and record["gap"] == 2
    assert report.aggregates["max_gap"] == 2
    assert report.aggregates["counterexamples"] == []


def test_conjecture_scan_reproducible():
    a = conjecture_scan("all_cubic_connected", seed=9, max_n=8, trials=6)
    b = conjecture_scan("all_cubic_connected", seed=9, max_n=8, trials=6)
    assert a == b


def test_conjecture_scan_budget_skips_recorded():
    report = conjecture_scan("random_regular", seed=2, k=3, n=10, trials=2, budget=3)
    assert report.aggregates["budget_skips"] == 2
    assert all(t["exhausted"] for t in report.trials)


def test_conjecture_scan_validation():
    with pytest.raises(ValueError):
        conjecture_scan("mystery", seed=0)
    with pytest.raises(ValueError):
        conjecture_scan("random_regular", seed=0)  # needs n


@pytest.mark.parametrize("family, kwargs", [
    ("random_regular", {"n": 10, "k": 3}),
    ("all_cubic_connected", {"max_n": 8}),
])
@pytest.mark.parametrize("trials", [0, -2])
def test_conjecture_scan_needs_a_trial(family, kwargs, trials):
    with pytest.raises(ValueError, match="at least one trial"):
        conjecture_scan(family, seed=0, trials=trials, **kwargs)


def test_conjecture_scan_cubic_huge_max_n_uses_first_orders():
    # The orders are a range, never a list of every even order up to max_n.
    report = conjecture_scan("all_cubic_connected", seed=0, max_n=10**12, trials=2)
    assert [t["n"] for t in report.trials] == [4, 6]
    assert report.parameters["max_n"] == 10**12


def test_report_csv():
    report = run_gnp_triangle_experiment(10, 0.5, trials=3, seed=5)
    csv_text = report.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("trial,seed,")
    assert len(lines) == 4


def test_report_json_shape():
    report = run_gnp_triangle_experiment(10, 0.5, trials=2, seed=5)
    data = report.to_json_dict()
    assert data["schema"] == "dynachrome-report/1"
    assert data["name"] == "gnp_triangles"
    assert len(data["trials"]) == 2
