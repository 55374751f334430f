"""Resampling routines against the full-rescan oracle on random small inputs.

Each oracle run re-creates the routine's initial draw and re-draw rule from
the seed and hands them to ``helpers.naive_resample``; the routine's result
and every field of its log must match.
"""

import random

from hypothesis import given
from hypothesis import strategies as st

from dynachrome import (
    Hypergraph,
    ListAssignment,
    balanced_window,
    find_balanced_subset,
    moser_tardos_2color,
    random_regular,
    select_sublists,
)
from helpers import naive_resample

MAX_N = 10

seeds = st.integers(0, 2**32 - 1)
caps = st.one_of(st.none(), st.integers(0, 50))


@st.composite
def regular_graphs(draw, min_k):
    n = draw(st.integers(min_k + 1, MAX_N))
    k = draw(st.sampled_from([k for k in range(min_k, n) if n * k % 2 == 0]))
    return random_regular(n, k, draw(seeds))


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(2, MAX_N))
    edge = st.sets(st.integers(0, n - 1), min_size=2, max_size=n)
    return Hypergraph.from_edges(n, draw(st.lists(edge, max_size=12)))


def assert_log_matches(log, oracle, seed, final_state):
    outcome, count, triggers, cap = oracle
    assert log.outcome == outcome
    assert log.resample_count == count
    assert dict(log.triggers) == triggers
    assert [i for i, _ in log.triggers] == sorted(triggers)
    assert list(log.final_state) == final_state
    assert log.seed == seed
    assert log.max_resamples == cap


@given(hypergraphs(), seeds, caps)
def test_moser_tardos_2color_matches_oracle(h, seed, cap):
    rng = random.Random(seed)
    color = [rng.randrange(2) for _ in range(h.n)]
    edges = [sorted(f) for f in h.edges]

    def redraw(v):
        color[v] = rng.randrange(2)

    oracle = naive_resample(edges, lambda i: len({color[v] for v in edges[i]}) == 1,
                            redraw, cap)
    c, log = moser_tardos_2color(h, seed, cap)
    assert_log_matches(log, oracle, seed, color)
    if oracle[0] == "success":
        assert c.colors == tuple(color) and c.palette_size == 2
    else:
        assert c is None


@given(regular_graphs(min_k=2), seeds, caps)
def test_find_balanced_subset_matches_oracle(g, seed, cap):
    p, top, _ = balanced_window(len(g.adjacency[0]))
    rng = random.Random(seed)
    in_t = [rng.random() < p for _ in range(g.n)]

    def violated(v):
        d = sum(in_t[u] for u in g.adjacency[v])
        return d == 0 or d >= top

    def redraw(u):
        in_t[u] = rng.random() < p

    oracle = naive_resample(g.adjacency, violated, redraw, cap)
    t, log = find_balanced_subset(g, seed, cap)
    members = [v for v in range(g.n) if in_t[v]]
    assert_log_matches(log, oracle, seed, members)
    if oracle[0] == "success":
        assert sorted(t.members) == members and t.n == g.n
    else:
        assert t is None


@given(regular_graphs(min_k=2), st.data(), seeds, caps)
def test_select_sublists_matches_oracle(g, data, seed, cap):
    m = data.draw(st.integers(1, 4))
    l = data.draw(st.integers(1, m))
    palette = st.permutations(range(6)).map(lambda p: p[:m])
    lists = data.draw(st.lists(palette, min_size=g.n, max_size=g.n))
    pool = [sorted(a) for a in lists]
    rng = random.Random(seed)
    sub = [frozenset(rng.sample(pool[v], l)) for v in range(g.n)]

    def violated(v):
        return bool(frozenset.intersection(*(sub[u] for u in g.adjacency[v])))

    def redraw(u):
        sub[u] = frozenset(rng.sample(pool[u], l))

    oracle = naive_resample(g.adjacency, violated, redraw, cap)
    out, log = select_sublists(g, ListAssignment.of(lists), l, seed, cap)
    assert_log_matches(log, oracle, seed, [tuple(sorted(s)) for s in sub])
    if oracle[0] == "success":
        assert out.lists == tuple(sub)
    else:
        assert out is None
