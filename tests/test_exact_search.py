"""The exact layer's backtracker against its earlier form, and the node
counts and witnesses of the benchmark's six ``solve`` instances and of its
conjecture scan.

``helpers.search_reference`` is ``exact._search`` as it was when every
colored vertex updated a count of uncolored members for each of its groups,
every visit bisected its palette and every first visit built a set of all
its neighbors' colors.  The library search files each group under the depth
at which it closes instead, and a first visit reads only the colors of
neighbors that come earlier in the order, as one tuple from a per-depth
``operator.itemgetter`` (repeats kept, a short list padded with the
uncolored vertex itself).  The reference takes an explicit symmetry flag;
the library search sets its own, breaking symmetry exactly when all
palettes are alike, and returns a Coloring.  The two must agree on the
colors found, on the node total and on where a budget runs out, for any
neighbor lists, not only a graph's, with the reference's flag set when all
palettes are alike.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynachrome import (
    Coloring,
    SearchBudgetExceeded,
    chromatic_number,
    dynamic_chromatic_number,
    from_spec,
    hypergraph_2color_exact,
    neighborhood_hypergraph,
)
from dynachrome.exact import _search
from helpers import digest, search_reference

MAX_N = 7


def _outcome(search, *args):
    """The colors found as a list (None when none) and the node total, or
    "exhausted" and the nodes spent."""
    try:
        found, nodes = search(*args)
    except SearchBudgetExceeded as exc:
        return "exhausted", exc.nodes_explored
    if isinstance(found, Coloring):  # the library search's answer
        found = list(found.colors)
    return found, nodes


def _alike(palettes) -> bool:
    return bool(palettes) and palettes.count(palettes[0]) == len(palettes)


@st.composite
def search_inputs(draw):
    n = draw(st.integers(0, MAX_N))
    order = draw(st.permutations(range(n)))
    pairs = list(itertools.combinations(range(n), 2))
    # Any neighbor lists: u may list v while v does not list u, and a vertex
    # may list itself or a neighbor twice.
    nbrs = st.lists(st.integers(0, n - 1), max_size=n + 1) if n else st.just([])
    adj = draw(st.lists(nbrs, min_size=n, max_size=n))
    if draw(st.booleans()):  # symmetric, as a graph's adjacency
        adj = [sorted({u for u in range(n) if v in adj[u] or u in adj[v]})
               for v in range(n)]
    # Palettes as sorted lists, as tuples (a chi or chid solve passes
    # tuple(range(k))) and as ranges.
    ascending = st.sets(st.integers(0, 5), max_size=4).map(sorted)
    ascending = st.one_of(ascending, ascending.map(tuple))
    if draw(st.booleans()):  # one palette for all vertices
        prefix = st.builds(range, st.integers(0, 4))
        palette = draw(st.one_of(prefix, prefix.map(tuple), ascending))
        palettes = [palette] * n
    else:
        palettes = draw(st.lists(ascending, min_size=n, max_size=n))
    groups = []
    if n:
        groups = draw(st.lists(
            st.lists(st.integers(0, n - 1), max_size=4, unique=True), max_size=8
        ))
        # Size-2 edges, and repeats of groups already drawn.
        groups += draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
        groups += draw(st.lists(st.sampled_from(groups), max_size=3)) if groups else []
    budget = draw(st.one_of(st.none(), st.just(0), st.integers(1, 60)))
    nodes = draw(st.sampled_from((0, 0, 1, 17)))
    return order, palettes, adj, groups, budget, nodes


# A 5-cycle's neighborhood hypergraph twice over plus its five size-2
# edges, searched from a non-zero node count.
_C5 = [((v - 1) % 5, (v + 1) % 5) for v in range(5)] * 2
_C5 += [(v, (v + 1) % 5) for v in range(5)]


@settings(max_examples=500)
@given(search_inputs())
@example(([2, 0, 4, 1, 3], [(0, 1, 2)] * 5, [()] * 5, _C5, None, 3))
@example(([2, 0, 4, 1, 3], [(0, 1, 2)] * 5, [()] * 5, _C5, 8, 3))
# Vertex 1 lists 0 but 0 does not list 1; then 0 and 2 list themselves.
@example(([0, 1], [[0], [0]], [[], [0]], [], None, 0))
@example(([2, 0, 1], [range(2)] * 3, [[0, 1], [0], [2, 1]], [], None, 0))
# A triangle in the palette [1, 4]: 0 has one earlier neighbor, 2 lists
# its earlier neighbor 1 twice, and the search backtracks into depths
# whose neighbor colors it read on entry.
@example(([1, 0, 2], [[1, 4]] * 3, [[1], [], [0, 1, 1]], [], None, 0))
# Unequal palettes: breaking symmetry would keep vertex 1 at position 0,
# color 0, which vertex 0 holds, and return a false None; (0, 1) fits.
@example(([0, 1], [(0,), (0, 1)], [[1], [0]], [], None, 0))
def test_search_matches_reference(args):
    order, palettes, adj, groups, budget, nodes = args
    want = _outcome(search_reference, order, palettes, adj, groups, _alike(palettes),
                    budget, nodes)
    assert _outcome(_search, *args) == want


@st.composite
def uniform_search_inputs(draw):
    order, _, adj, groups, _, _ = draw(search_inputs())
    # Any ascending palette, as a list or a tuple: from 0 or not, gaps or not.
    palette = draw(st.sets(st.integers(0, 9), max_size=4).map(sorted))
    palette = draw(st.sampled_from((palette, tuple(palette))))
    return order, [palette] * len(order), adj, groups


# Symmetry breaking prunes only colorings that a permutation of palette
# positions maps to an earlier one, so on any palette shared by all
# vertices the library search, which breaks it there, keeps the first
# coloring the reference finds unbroken, and a None.
@settings(max_examples=500)
@given(uniform_search_inputs())
# One vertex with the one color 1: a rule on color values opened no color.
@example(([0], [(1,)], [[]], []))
# A path on the palette [0, 2]: a rule on values never opened the 2.
@example(([1, 0, 2], [[0, 2]] * 3, [[1], [0, 2], [1]], []))
def test_symmetry_breaking_keeps_the_first_coloring(args):
    order, palettes, adj, groups = args
    unbroken = search_reference(order, palettes, adj, groups, False, None)[0]
    assert _outcome(_search, order, palettes, adj, groups, None)[0] == unbroken


# The benchmark's `exact` solves, each on from_spec(spec, seed) with the
# seed its row gets: value, nodes, exhausted, bounds and the witness digest,
# the chi rows recorded before the search filed groups by closing depth.
# A chi solve whose DSATUR coloring is on 3 colors searches no palette and
# returns that coloring in 0 nodes.  The chid rows were recorded once chid
# ordered its search by DSATUR with the neighborhoods as groups.
BENCH_SOLVES = [
    (chromatic_number, "random_regular:500,3", 0, 20_000,
     (3, 0, False, None, "73a0c9ffba4257d1")),
    (chromatic_number, "random_regular:3000,3", 1, 100_000,
     (3, 3007, False, None, "52c4466c07eb5f04")),
    (chromatic_number, "kneser:9,3", 2, 20_000, (None, 20001, True, (4, 7), None)),
    (dynamic_chromatic_number, "random_regular:40,4", 3, 1_000_000,
     (3, 614, False, None, "43ed69f0edd95dc8")),
    (dynamic_chromatic_number, "random_regular:60,3", 4, 20_000,
     (3, 5029, False, None, "de33d91aaa643760")),
    # `experiment conjecture-scan --family regular --k 4 --n 30 --trials 3
    # --budget 200000` (seed 6) solves chi and chid on its three trial
    # graphs; recorded before first visits read neighbor colors as tuples.
    (chromatic_number, "random_regular:30,4", 6000018, 200_000,
     (3, 52, False, None, "07c273d1abdf00be")),
    (dynamic_chromatic_number, "random_regular:30,4", 6000018, 200_000,
     (3, 82, False, None, "77f82d3b6ce63700")),
    (chromatic_number, "random_regular:30,4", 6000019, 200_000,
     (3, 0, False, None, "93beca55dce5d1a6")),
    (dynamic_chromatic_number, "random_regular:30,4", 6000019, 200_000,
     (3, 498, False, None, "019f8a5c2f9aa9bd")),
    (chromatic_number, "random_regular:30,4", 6000020, 200_000,
     (3, 0, False, None, "556ff6c4b9920fe6")),
    (dynamic_chromatic_number, "random_regular:30,4", 6000020, 200_000,
     (3, 66, False, None, "3ef8e84d550aef69")),
]


@pytest.mark.parametrize("solve, spec, seed, budget, want", BENCH_SOLVES)
def test_bench_solves_pinned(solve, spec, seed, budget, want):
    res = solve(from_spec(spec, seed), budget)
    witness = None if res.witness is None else digest(res.witness.colors)
    assert (res.value, res.nodes_explored, res.exhausted, res.bounds, witness) == want


def test_chid_decides_random_regular_200_3():
    # Exhausted after 10^6 nodes in plain DSATUR order.
    res = dynamic_chromatic_number(from_spec("random_regular:200,3", 0), 100_000)
    assert (res.value, res.nodes_explored) == (3, 64526)
    assert digest(res.witness.colors) == "3eae444f100c160f"


def test_bench_double_total_pinned():
    # ``solve double-total`` resamples first and succeeds on this instance;
    # the exact search it falls back to still runs out here.
    with pytest.raises(SearchBudgetExceeded) as info:
        h = neighborhood_hypergraph(from_spec("random_regular:200,3", 5))
        hypergraph_2color_exact(h, 20_000)
    assert info.value.nodes_explored == 20001
