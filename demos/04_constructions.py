"""Building certified dynamic colorings from partitions and products."""

from dynachrome import (
    KneserSpec,
    VertexSubset,
    balanced_subset_coloring,
    balanced_window,
    bound_report,
    check_dynamic,
    chi_witness,
    chromatic_number,
    compose_disjoint_palettes,
    cycle,
    hypergraph_2color_exact,
    induced_subgraph,
    kneser_dynamic_coloring,
    neighborhood_hypergraph,
    product_coloring,
    random_regular,
    triangle_certificate,
    gnp,
)

# Split on a double total dominating set: color both sides properly on
# disjoint palettes and the glue is automatically dynamic.
g = cycle(8)
t = VertexSubset.of(g, {0, 1, 4, 5})
g_in = induced_subgraph(g, t)
g_out = induced_subgraph(g, t.complement())
combined = compose_disjoint_palettes(
    g, t, chromatic_number(g_in).witness, chromatic_number(g_out).witness
)
print(f"C8 split on T={sorted(t)}: {combined.palette_size} colors, "
      f"violations {check_dynamic(g, combined)}")

# Pair coloring: chi colors times a 2-coloring of the neighborhood
# hypergraph gives at most 2*chi colors on 9-regular graphs.
g = random_regular(24, 9, seed=3)
chi = chromatic_number(g)
f = hypergraph_2color_exact(neighborhood_hypergraph(g))
paired = product_coloring(g, chi.witness, f)
print(f"\n9-regular n=24: chi = {chi.value}, pair coloring uses "
      f"{paired.colors_used} of {paired.palette_size} color ids (cap 2*chi)")

# The triangle-free Kneser-type graphs take t + 4 colors: pairs inside the
# tail subset, minimum elements outside.
for m, n in [(7, 3), (8, 3), (9, 4)]:
    res = kneser_dynamic_coloring(KneserSpec(m, n))
    print(f"KG({m},{n}): {res.colors_used} colors "
          f"(cap {res.max_colors}, chi {res.chromatic_number}, gap {res.gap})")

# Balanced-subset coloring: DSATUR on the low-degree inside part, the
# original witness (shifted) outside.  The bound is the witness plus D.
g = random_regular(200, 16, seed=11)
p, cap, _ = balanced_window(16)
witness, _ = chi_witness(g)
result = balanced_subset_coloring(g, witness, seed=11)
print(f"\n16-regular n=200: window p = {p}, D = {cap}; "
      f"{result.coloring.palette_size} colors (bound {result.color_bound}, "
      f"witness used {witness.palette_size})")

# Triangle certificates: in dense random graphs every vertex lies in a
# triangle, so any proper coloring is already dynamic.
g = gnp(120, 0.5, seed=2)
cert = triangle_certificate(g, chi_witness(g)[0])
print(f"\nG(120, 0.5): triangle certificate = {cert.certified}")

# The bound report evaluates each upper-bound formula's hypothesis first
# and re-checks every fact it is given: T = {0, 1, 4, 5} double total
# dominates C8, so the split bound applies.
g = cycle(8)
report = bound_report(g, double_total=VertexSubset.of(g, {0, 1, 4, 5}))
for rec in report.records:
    mark = f"<= {rec.value}" if rec.applicable else "n/a"
    print(f"  C8 {rec.name:26s} {mark}")
