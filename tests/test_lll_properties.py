"""Resampling routines against the full-rescan oracle on random small inputs.

Each oracle run re-creates the routine's initial draw and re-draw rule from
the seed and hands them to ``helpers.naive_resample``; the routine's result
and every field of its log must match.
"""

import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dynachrome import (
    Graph,
    Hypergraph,
    InfeasibleStructureError,
    ListAssignment,
    LllParams,
    find_balanced_subset,
    find_double_total_dominating,
    moser_tardos_2color,
    random_regular,
    select_sublists,
)
from helpers import naive_resample

MAX_N = 10

seeds = st.integers(0, 2**32 - 1)
caps = st.one_of(st.none(), st.integers(0, 50))


@st.composite
def graphs(draw):
    """Any graph, or, on a drawn flag, one with a spanning cycle added so
    that every vertex has degree at least 2."""
    n = draw(st.integers(3, MAX_N))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = {p for p, k in zip(pairs, keep) if k}
    if draw(st.booleans()):
        edges |= {tuple(sorted((v, (v + 1) % n))) for v in range(n)}
    return Graph.from_edges(n, sorted(edges))


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


def assert_log_matches(log, oracle, seed, final_state, params=None):
    outcome, count, triggers, cap = oracle
    assert log.outcome == outcome
    assert log.resample_count == count
    assert log.triggers == triggers
    assert log.final_state == final_state
    assert log.seed == seed
    assert log.max_resamples == cap
    assert log.params == params


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


@given(graphs(), seeds, caps)
def test_find_double_total_dominating_matches_oracle(g, seed, cap):
    if any(len(a) <= 1 for a in g.adjacency):
        with pytest.raises(InfeasibleStructureError):
            find_double_total_dominating(g, seed, cap)
        return
    rng = random.Random(seed)
    in_t = [rng.randrange(2) == 1 for _ in range(g.n)]

    def violated(v):
        inside = [in_t[u] for u in g.adjacency[v]]
        return all(inside) or not any(inside)

    def redraw(u):
        in_t[u] = rng.randrange(2) == 1

    oracle = naive_resample(g.adjacency, violated, redraw, cap)
    t, log = find_double_total_dominating(g, seed, cap)
    members = [v for v in range(g.n) if in_t[v]]
    assert_log_matches(log, oracle, seed, members)
    if oracle[0] == "success":
        assert sorted(t.members) == members and t.n == g.n
    else:
        assert t is None


@given(regular_graphs(min_k=2), st.sampled_from([6.5, 7.0, 10.0]), seeds, caps)
def test_find_balanced_subset_matches_oracle(g, c_prime, seed, cap):
    k = len(g.adjacency[0])
    params = LllParams.for_degree(k, c_prime, seed, cap, clamp_p=True)
    upper = 2 * c_prime * math.log(k)
    rng = random.Random(seed)
    in_t = [rng.random() < params.p for _ in range(g.n)]

    def violated(v):
        d = sum(in_t[u] for u in g.adjacency[v])
        return d == 0 or d >= upper or d == k

    def redraw(u):
        in_t[u] = rng.random() < params.p

    oracle = naive_resample(g.adjacency, violated, redraw, cap)
    t, log = find_balanced_subset(g, params)
    members = [v for v in range(g.n) if in_t[v]]
    assert_log_matches(log, oracle, seed, members, params.to_json_dict())
    if oracle[0] == "success":
        assert sorted(t.members) == members and t.n == g.n
    else:
        assert t is None


@given(regular_graphs(min_k=1), st.data(), seeds, caps)
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
    assert_log_matches(log, oracle, seed, [sorted(s) for s in sub])
    if oracle[0] == "success":
        assert out.lists == tuple(sub)
    else:
        assert out is None
