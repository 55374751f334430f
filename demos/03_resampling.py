"""Resampling in action: when the survival conditions hold, random states
converge to violation-free ones after a handful of targeted re-draws."""

from dynachrome import (
    Hypergraph,
    cycle,
    ListAssignment,
    balanced_window,
    check_domination,
    check_hypergraph_2coloring,
    double_total_subset,
    find_balanced_subset,
    lll_condition_hypergraph,
    lll_condition_list,
    moser_tardos_2color,
    neighborhood_hypergraph,
    random_regular,
    select_sublists,
)

# The symmetric condition e * r2 * max_degree * (1/2)^(r1-1) <= 1 flips
# between edge size 8 and 9.
for r in (8, 9):
    out = lll_condition_hypergraph(r, r, r)
    print(f"uniform size {r}, degree {r}: margin {out.margin:.3f} "
          f"-> {'holds' if out.holds else 'fails'}")

# 2-coloring a hypergraph by resampling monochromatic edges.
h = Hypergraph.from_edges(6, [(0, 1, 2), (1, 2, 3), (3, 4, 5), (0, 4, 5)])
coloring, log = moser_tardos_2color(h, seed=1)
assert check_hypergraph_2coloring(h, coloring) == []
print(f"\n2-colored {h.edge_count} edges after {log.resample_count} resamples")

# Non-convergence is reported, never asserted as impossibility; here the
# exact solver supplies the real certificate.
k3 = Hypergraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
_, log = moser_tardos_2color(k3, seed=1, max_resamples=200)
print(f"odd cycle: {log.outcome} after {log.resample_count} resamples "
      "(exact solver certifies none exists)")

# Double total domination on a 9-regular graph: each neighborhood must
# meet the subset and its complement.  T is the vertices colored 1 by
# resampling a 2-coloring of the neighborhood hypergraph.
g = random_regular(60, 9, seed=3)
f, log = moser_tardos_2color(neighborhood_hypergraph(g), seed=3)
t = double_total_subset(g, seed=3)
assert t.members == {v for v in range(g.n) if f[v] == 1}
assert check_domination(g, t, "double_total") == []
print(f"\n9-regular n=60: |T| = {len(t)} after {log.resample_count} resamples")
_, log = moser_tardos_2color(neighborhood_hypergraph(cycle(6)), seed=0, max_resamples=200)
# C6's neighborhoods are pairs forming two triangles, so double_total_subset
# certifies that none exists before it resamples at all.
print(f"C6: {log.outcome} after {log.resample_count} resamples (double_total_subset: "
      f"{double_total_subset(cycle(6))}, i.e. certified none)")

# Balanced subsets of a 16-regular graph.  The membership probability p
# and the degree cap D come from k alone, by the symmetric Local Lemma.
g = random_regular(200, 16, seed=5)
p, cap, check = balanced_window(16)
print(f"\nk=16: window p = {p}, D = {cap} "
      f"(LLL margin {check.margin:.3f}, holds: {check.holds})")
t, log = find_balanced_subset(g, seed=5)
inside = [sum(1 for u in g.adjacency[v] if u in t) for v in range(g.n)]
print(f"balanced subset after {log.resample_count} resamples; "
      f"inside-degrees span [{min(inside)}, {max(inside)}]")

# Sublist selection: shrink 5-lists to 4-sublists on a 50-regular graph so
# no neighborhood shares a color; condition margin is about 0.49.
print(f"\nlist condition (k=50, l=4, m=5): "
      f"margin {lll_condition_list(50, 4, 5).margin:.3f}")
g = random_regular(102, 50, seed=9)
lists = ListAssignment.uniform(g.n, {0, 1, 2, 3, 4})
sub, log = select_sublists(g, lists, l=4, seed=9)
print(f"sublists selected after {log.resample_count} resamples; every "
      "neighborhood intersection empty, so any proper coloring from the "
      "sublists is automatically dynamic")
