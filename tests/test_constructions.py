"""Palette compositions, family pipelines, certificates, and bound reports."""

import math

import pytest

from dynachrome import (
    BoundContext,
    Coloring,
    ConstructionError,
    DegenerateParamsError,
    InfeasibleStructureError,
    KneserSpec,
    LllParams,
    PreconditionError,
    SearchBudgetExceeded,
    VertexSubset,
    balanced_subset_coloring,
    bound_report,
    check_dynamic,
    check_hypergraph_2coloring,
    check_domination,
    check_proper,
    chi_witness,
    chromatic_number,
    complete,
    complete_bipartite,
    compose_disjoint_palettes,
    cycle,
    double_total_coloring,
    dynamic_chromatic_number,
    gnp,
    greedy_coloring,
    induced_subgraph,
    hypergraph_2color_exact,
    hypergraph_2coloring,
    kneser,
    kneser_dynamic_coloring,
    neighborhood_hypergraph,
    neighborhood_product_coloring,
    partial_product_coloring,
    product_coloring,
    random_regular,
    triangle_certificate,
    vertices_in_triangles,
)
from helpers import fano_plane


def two_coloring(*cs):
    return Coloring.total(cs, 2)


# ----------------------------------------------------------------------
# compose_disjoint_palettes
# ----------------------------------------------------------------------


def test_compose_cycle8():
    g = cycle(8)
    t = VertexSubset.of(g, {0, 1, 4, 5})
    # G[T] has edges (0,1),(4,5) -> relabeled (0,1),(2,3); same shape outside.
    combined = compose_disjoint_palettes(
        g, t, two_coloring(0, 1, 0, 1), two_coloring(0, 1, 0, 1)
    )
    assert combined.palette_size == 4
    assert check_dynamic(g, combined) == []


def test_compose_k4():
    g = complete(4)
    t = VertexSubset.of(g, {0, 1})
    combined = compose_disjoint_palettes(
        g, t, two_coloring(0, 1), two_coloring(0, 1)
    )
    assert combined.palette_size == 4
    assert check_dynamic(g, combined) == []
    assert combined.colors == (0, 1, 2, 3)


def test_compose_rejects_cycle6():
    # No subset of C6 is double total dominating.
    g = cycle(6)
    for members in ({0, 1, 3, 4}, {0, 2, 4}, {0, 1, 2}):
        t = VertexSubset.of(g, members)
        g_in_size = len(members)
        with pytest.raises(PreconditionError):
            compose_disjoint_palettes(
                g,
                t,
                Coloring.total(list(range(g_in_size)), g_in_size),
                Coloring.total(list(range(6 - g_in_size)), 6 - g_in_size),
            )


def test_compose_rejects_improper_parts():
    g = cycle(8)
    t = VertexSubset.of(g, {0, 1, 4, 5})
    with pytest.raises(PreconditionError):
        compose_disjoint_palettes(
            g, t, two_coloring(0, 0, 0, 0), two_coloring(0, 1, 0, 1)
        )


# ----------------------------------------------------------------------
# product colorings
# ----------------------------------------------------------------------


def test_product_k4():
    g = complete(4)
    c = Coloring.total([0, 1, 2, 3], 4)
    f = hypergraph_2color_exact(neighborhood_hypergraph(g))
    assert f is not None
    combined = product_coloring(g, c, f)
    assert combined.palette_size == 8
    assert check_dynamic(g, combined) == []


def test_product_cycle8():
    g = cycle(8)
    c = Coloring.total([v % 2 for v in range(8)], 2)
    f = hypergraph_2color_exact(neighborhood_hypergraph(g))
    assert f is not None
    combined = product_coloring(g, c, f)
    assert combined.palette_size == 4
    assert check_dynamic(g, combined) == []


def test_product_nine_regular_pipeline():
    # e * Delta^2 <= 2^(delta - 1) holds for 9-regular graphs, so the
    # neighborhood hypergraph is 2-colorable and the pair coloring works.
    g = random_regular(24, 9, seed=3)
    assert math.e * 81 <= 2**8
    chi = chromatic_number(g)
    f = hypergraph_2color_exact(neighborhood_hypergraph(g))
    assert f is not None
    combined = product_coloring(g, chi.witness, f)
    assert combined.palette_size <= 2 * chi.value
    assert check_dynamic(g, combined) == []


def test_product_cycle6_has_no_f():
    # The neighborhoods of C6 pair up into triangles, so no 2-coloring of
    # the neighborhood hypergraph exists and the product route is closed.
    assert hypergraph_2color_exact(neighborhood_hypergraph(cycle(6))) is None


def test_product_rejects_bad_f():
    g = cycle(8)
    c = Coloring.total([v % 2 for v in range(8)], 2)
    with pytest.raises(PreconditionError):
        product_coloring(g, c, Coloring((0,) * 8, 2))


# ----------------------------------------------------------------------
# partial product
# ----------------------------------------------------------------------


def test_hypergraph_2coloring_outcomes():
    h = neighborhood_hypergraph(cycle(8))
    f = hypergraph_2coloring(h, budget=1)  # exact search exhausts, resampling succeeds
    assert f is not None and check_hypergraph_2coloring(h, f) == []
    assert hypergraph_2coloring(neighborhood_hypergraph(cycle(6))) is None
    with pytest.raises(ConstructionError):
        hypergraph_2coloring(fano_plane(), budget=3)


def test_chi_witness_exact_then_greedy():
    g = kneser(7, 2)  # 21 vertices, chi = 5
    for kwargs, basis in [({}, "exact"), ({"exact_limit": 20}, "greedy"),
                          ({"budget": 1}, "greedy")]:
        c, got = chi_witness(g, **kwargs)
        assert got == basis
        assert check_proper(g, c) == []
        assert (c.palette_size == 5) if basis == "exact" else (c.palette_size >= 5)


def test_neighborhood_product_coloring_pairs_witness_with_f():
    g = cycle(8)
    c, _ = chi_witness(g)
    coloring = neighborhood_product_coloring(g, budget=1)  # exact exhausts, resampling succeeds
    assert check_dynamic(g, coloring) == []
    assert coloring.palette_size == 2 * c.palette_size
    assert [x // 2 for x in coloring.colors] == list(c.colors)


def test_neighborhood_product_coloring_certified_none_and_exhaustion():
    with pytest.raises(PreconditionError, match="not 2-colorable"):
        neighborhood_product_coloring(cycle(6))
    with pytest.raises(ConstructionError):
        neighborhood_product_coloring(cycle(6), budget=1)


def _assert_glued(g, coloring, subset):
    assert check_domination(g, subset) == []
    assert check_dynamic(g, coloring) == []
    (c_in, _), (c_out, _) = (chi_witness(induced_subgraph(g, side)[0])
                             for side in (subset, subset.complement()))
    assert coloring.palette_size == c_in.palette_size + c_out.palette_size
    assert [coloring[v] for v in subset] == list(c_in.colors)
    assert [coloring[v] - c_in.palette_size for v in subset.complement()] == list(c_out.colors)


def test_double_total_coloring_resampled_subset():
    g = random_regular(40, 3, seed=2)
    coloring, subset = double_total_coloring(g, seed=1)
    _assert_glued(g, coloring, subset)


def test_double_total_coloring_exact_fallback(monkeypatch):
    from dynachrome import constructions

    monkeypatch.setattr(constructions, "find_double_total_dominating",
                        lambda g, seed: (None, None))
    g = cycle(8)
    coloring, subset = double_total_coloring(g)
    _assert_glued(g, coloring, subset)


def test_double_total_coloring_certified_none_exhaustion_and_infeasible():
    with pytest.raises(PreconditionError, match="certified"):
        double_total_coloring(cycle(6))
    with pytest.raises(SearchBudgetExceeded):
        double_total_coloring(cycle(6), budget=1)
    with pytest.raises(InfeasibleStructureError):
        double_total_coloring(complete_bipartite(1, 3))


def test_partial_product_k4():
    g = complete(4)
    t = VertexSubset.of(g, {0, 1, 2})
    c_t = Coloring.total([0, 1, 2], 3)
    f = two_coloring(0, 0, 1)  # the only restricted neighborhood is {0,1,2}
    c_out = Coloring.total([0], 1)
    combined = partial_product_coloring(g, t, c_t, f, c_out)
    assert combined.palette_size <= 2 * 3 + 1
    assert check_dynamic(g, combined) == []


def test_partial_product_rejects_non_dominating():
    g = cycle(8)
    t = VertexSubset.of(g, {0})
    with pytest.raises(PreconditionError):
        partial_product_coloring(
            g,
            t,
            Coloring.total([0], 1),
            Coloring((), 2),
            Coloring.total(list(range(7)), 7),
        )


# ----------------------------------------------------------------------
# Kneser pipeline
# ----------------------------------------------------------------------


@pytest.mark.parametrize("m,n", [(7, 3), (8, 3), (9, 4)])
def test_kneser_dynamic_coloring(m, n):
    result = kneser_dynamic_coloring(KneserSpec(m, n))
    t = m - 2 * n
    assert result.max_colors == t + 4
    assert result.colors_used <= t + 4
    assert result.chromatic_number == t + 2
    assert result.gap <= 2
    assert check_dynamic(result.graph, result.coloring) == []


def test_kneser_pipeline_matches_exact_on_petersen_scale():
    # KG(7,3) has chi = 3 by the exact solver; the pipeline's formula agrees.
    result = kneser_dynamic_coloring(KneserSpec(7, 3))
    assert chromatic_number(result.graph).value == result.chromatic_number


def test_kneser_out_of_regime():
    with pytest.raises(ValueError):
        kneser_dynamic_coloring(KneserSpec(6, 3))   # t = 0
    with pytest.raises(ValueError):
        kneser_dynamic_coloring(KneserSpec(9, 3))   # t = n, triangles exist


# ----------------------------------------------------------------------
# balanced subset coloring
# ----------------------------------------------------------------------


def test_balanced_coloring_16_regular():
    g = random_regular(200, 16, seed=5)
    params = LllParams.for_degree(16, c_prime=7.0, seed=5, clamp_p=True)
    assert params.p_clamped
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    witness = greedy_coloring(g, order)
    result = balanced_subset_coloring(g, params, witness)
    assert check_dynamic(g, result.coloring) == []
    bound = witness.palette_size + math.floor(2 * 7.0 * math.log(16)) + 1
    assert result.color_bound == bound
    assert result.coloring.palette_size <= bound


def test_balanced_coloring_complete_bipartite():
    g = complete_bipartite(16, 16)
    params = LllParams.for_degree(16, c_prime=7.0, seed=2, clamp_p=True)
    assert params.p_clamped
    witness = Coloring.total([0] * 16 + [1] * 16, 2)
    result = balanced_subset_coloring(g, params, witness)
    assert check_dynamic(g, result.coloring) == []
    assert result.coloring.palette_size <= 2 + math.floor(14 * math.log(16)) + 1


def test_balanced_coloring_degenerate_params_propagate():
    g = random_regular(12, 3, seed=1)
    params = LllParams.for_degree(3, c_prime=7.0)
    witness = greedy_coloring(g)
    with pytest.raises(DegenerateParamsError):
        balanced_subset_coloring(g, params, witness)


def test_balanced_coloring_rejects_improper_witness():
    g = random_regular(20, 4, seed=1)
    params = LllParams.for_degree(4, c_prime=7.0, clamp_p=True)
    assert params.p_clamped
    with pytest.raises(PreconditionError):
        balanced_subset_coloring(g, params, Coloring((0,) * 20, 1))


# ----------------------------------------------------------------------
# triangle certificate
# ----------------------------------------------------------------------


def test_triangle_certificate_k4():
    g = complete(4)
    cert = triangle_certificate(g, Coloring.total([0, 1, 2, 3], 4))
    assert cert.certified and cert.uncovered == ()


def test_triangle_certificate_c5():
    g = cycle(5)
    cert = triangle_certificate(g, Coloring.total([0, 1, 0, 1, 2], 3))
    assert not cert.certified
    assert cert.uncovered == (0, 1, 2, 3, 4)


def test_triangle_certificate_dense_gnp():
    g = gnp(60, 0.5, seed=12)
    cert = triangle_certificate(g, greedy_coloring(g))
    assert cert.certified
    assert len(vertices_in_triangles(g)) == g.n


def test_triangle_certificate_rejects_improper():
    g = complete(4)
    with pytest.raises(PreconditionError):
        triangle_certificate(g, Coloring((0, 0, 1, 2), 3))


# ----------------------------------------------------------------------
# bound report
# ----------------------------------------------------------------------


def by_name(report, name):
    return next(r for r in report.records if r.name == name)


def test_bound_report_petersen():
    report = bound_report(kneser(5, 2))
    low = by_name(report, "low_max_degree")
    assert low.applicable and low.value == 4
    assert not by_name(report, "max_degree_plus_one").applicable
    assert not by_name(report, "five_cycle_exact").applicable


def test_bound_report_c5():
    report = bound_report(cycle(5))
    assert not by_name(report, "low_max_degree").applicable
    c5 = by_name(report, "five_cycle_exact")
    assert c5.applicable and c5.value == 5


def test_bound_report_nine_regular():
    g = random_regular(18, 9, seed=2)
    report = bound_report(g)
    doubling = by_name(report, "neighborhood_two_coloring")
    assert doubling.applicable
    assert doubling.value == 2 * chromatic_number(g).value
    assert doubling.basis == "exact"
    plus_one = by_name(report, "max_degree_plus_one")
    assert plus_one.applicable and plus_one.value == 10


def test_bound_report_double_total_split():
    g = cycle(8)
    ctx = BoundContext(double_total=VertexSubset.of(g, {0, 1, 4, 5}))
    report = bound_report(g, ctx)
    split = by_name(report, "double_total_split")
    assert split.applicable and split.value == 4


def test_bound_report_kneser_context():
    report = bound_report(kneser(7, 3), BoundContext(kneser=KneserSpec(7, 3)))
    rec = by_name(report, "kneser_partition")
    assert rec.applicable and rec.value == 5


def test_bound_report_critical_doubling():
    g = complete(12)  # 12-critical, e * 121 <= 2^10
    assert math.e * 121 <= 2**10
    report = bound_report(g, BoundContext(critical_k=12))
    rec = by_name(report, "critical_doubling")
    assert rec.applicable and rec.value == 22


def test_bound_report_never_below_chi_d():
    graphs = [cycle(n) for n in (5, 6, 7, 8)] + [
        kneser(5, 2),
        complete(4),
        random_regular(10, 3, seed=6),
    ]
    for g in graphs:
        exact_value = dynamic_chromatic_number(g).value
        for rec in bound_report(g).applicable():
            assert rec.value >= exact_value


def test_bound_report_json():
    data = bound_report(cycle(5)).to_json_dict()
    assert data["graph"]["n"] == 5
    assert any(b["name"] == "five_cycle_exact" for b in data["bounds"])
