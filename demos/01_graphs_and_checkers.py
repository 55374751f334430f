"""Tour of the graph containers, generators, file formats, and checkers."""

from dynachrome import (
    Coloring,
    VertexSubset,
    check_domination,
    check_dynamic,
    check_proper,
    cycle,
    gnp,
    kneser,
    neighborhood_hypergraph,
    read_dimacs,
    vertices_in_triangles,
    write_dimacs,
)

# The Petersen graph is the disjointness graph on 2-subsets of {1..5}.
petersen = kneser(5, 2)
print(f"Petersen: {petersen.n} vertices, {petersen.edge_count} edges, "
      f"every degree {petersen.max_degree}")
print(f"vertices in triangles: {sorted(vertices_in_triangles(petersen))} "
      "(triangle-free, so none)")

# Graphs round-trip through DIMACS text.
text = write_dimacs(cycle(5))
print("\nDIMACS for C5:")
print(text)
assert read_dimacs(text) == cycle(5)

# A dynamic coloring is proper AND every vertex with >= 2 neighbors sees
# two distinct neighbor colors.  On C5 the pattern 0,1,2,0,1 is proper but
# not dynamic: vertices 0 and 4 each see a one-color neighborhood.
c = Coloring((0, 1, 2, 0, 1), 3)
print(f"proper violations:  {check_proper(cycle(5), c)}")
print(f"dynamic violations: {check_dynamic(cycle(5), c)}")

# Double total domination: T and its complement both touch every
# neighborhood.  {0,1,4,5} works on C8.
g = cycle(8)
t = VertexSubset.of(g, {0, 1, 4, 5})
print(f"\nC8 with T={sorted(t)}: violations = "
      f"{check_domination(g, t, 'double_total')}")

# Neighborhood hypergraphs keep one edge per source vertex, duplicates and
# all, so degree bookkeeping matches the number of constraints.
h = neighborhood_hypergraph(cycle(4))
print(f"\nC4 neighborhoods: {[sorted(f) for f in h.edges]}")

# Random families are pure functions of their seed.
assert gnp(30, 0.2, seed=7) == gnp(30, 0.2, seed=7)
print("\ngnp(30, 0.2, seed=7) is reproducible")
