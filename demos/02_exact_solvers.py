"""Exact solvers: the ground truth the randomized modules are checked against."""

from dynachrome import (
    Hypergraph,
    ListAssignment,
    check_dynamic,
    chromatic_number,
    cycle,
    double_total_subset,
    dynamic_chromatic_number,
    hypergraph_2color_exact,
    is_k_critical,
    kneser,
    list_dynamic_coloring,
)

# chi_d of small cycles.  C5 is the famous outlier needing 5 colors; cycles
# divisible by 3 settle at 3, everything else at 4.
print("n : chi(C_n)  chi_d(C_n)")
for n in range(3, 13):
    chi = chromatic_number(cycle(n)).value
    chi_d = dynamic_chromatic_number(cycle(n)).value
    print(f"{n:2d}:    {chi}         {chi_d}")

# Kneser graphs hit the m - 2n + 2 formula.
for m, n in [(5, 2), (6, 2), (7, 3)]:
    res = chromatic_number(kneser(m, n))
    print(f"chi(KG({m},{n})) = {res.value} "
          f"({res.nodes_explored} nodes explored)")

# Every witness is re-checkable.
res = dynamic_chromatic_number(cycle(6))
assert check_dynamic(cycle(6), res.witness) == []
print(f"\nchi_d(C6) witness {list(res.witness.colors)} verified")

# List version: identical 4-lists on C5 certify that no list-respecting
# dynamic coloring exists (chi_d(C5) = 5).
print("C5 with lists {0,1,2,3}:",
      list_dynamic_coloring(cycle(5), ListAssignment.uniform(5, {0, 1, 2, 3})))

# Hypergraph 2-coloring: the Fano plane is the smallest 3-uniform failure.
fano = Hypergraph.from_edges(7, [
    (0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5),
    (1, 4, 6), (2, 3, 6), (2, 4, 5),
])
print("Fano plane 2-colorable:", hypergraph_2color_exact(fano) is not None)

# Double total domination: C8 has one, C6 provably has none (resampling
# runs out first, then the exact search certifies it).
print("C8 double total dominating set:",
      sorted(double_total_subset(cycle(8))))
print("C6 double total dominating set:",
      double_total_subset(cycle(6)))

# Criticality: chi drops on every vertex deletion.
print("C5 critical:", is_k_critical(cycle(5)),
      "| C6 critical:", is_k_critical(cycle(6)))
