"""Resampling in action: when the survival conditions hold, random states
converge to violation-free ones after a handful of targeted re-draws."""

import math

from dynachrome import (
    Hypergraph,
    cycle,
    ListAssignment,
    LllParams,
    check_domination,
    check_hypergraph_2coloring,
    exact_double_total_dominating,
    find_balanced_subset,
    find_double_total_dominating,
    lll_condition_hypergraph,
    lll_condition_list,
    moser_tardos_2color,
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
# meet the subset and its complement.
g = random_regular(60, 9, seed=3)
t, log = find_double_total_dominating(g, seed=3)
assert check_domination(g, t, "double_total") == []
print(f"\n9-regular n=60: |T| = {len(t)} after {log.resample_count} resamples")
_, log = find_double_total_dominating(cycle(6), seed=0, max_resamples=200)
print(f"C6: {log.outcome} (exact solver: "
      f"{exact_double_total_dominating(cycle(6))}, i.e. certified none)")

# Balanced subsets of a 16-regular graph.  The bias p = c' ln(k)/k exceeds
# 1 at k = 16, so the params must be clamped to run the experiment.
g = random_regular(200, 16, seed=5)
params = LllParams.for_degree(16, c_prime=7.0, seed=5, clamp_p=True)
print(f"\nk=16: raw p would be {7.0 * math.log(16) / 16:.2f}, "
      f"clamped to {params.p}; deviation window nonempty: {params.window_nonempty}")
t, log = find_balanced_subset(g, params)
inside = [t.deg_into(g, v) for v in range(g.n)]
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
