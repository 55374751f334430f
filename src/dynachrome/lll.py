"""Constructive avoidance of bad events by targeted resampling.

The samplers share one engine in the style of Moser and Tardos (J. ACM
2010).  A routine supplies its events (each event's variables, in redraw
order), a violation test and a per-variable draw.  The engine draws every
variable once, then re-draws the variables of the lowest-indexed violated
event until none is violated or a resample cap is hit.  A full scan seeds a
min-heap of violated events; after a resample only the events that share
a variable with it are re-tested, and stale heap entries are dropped when
they surface.  The RNG is drawn in the order that a full rescan after every
resample would draw it, so outputs and logs are exactly those of that simpler
loop, deterministic given the int seed that graphs._rng takes.  "success" is
reported only after a final full scan finds no violated event; non-convergence
within the cap is reported as "exhausted", never as a proof that no solution
exists.  Each sampler is called as ``(input, ..., seed, max_resamples)`` and
returns its result (None unless "success") with the :class:`ResampleLog`.

The condition evaluators check when this scheme is guaranteed to work
(small event probability, few dependencies); the samplers themselves run
regardless and simply report what happened.  :func:`balanced_window`
computes the balanced-subset sampler's membership probability and degree
cap from k alone, in integer arithmetic, by the symmetric Local Lemma
(Erdős and Lovász 1975); the sampler reads k off its graph.

Double total dominating sets are not sampled here:
constructions.double_total_subset takes the vertices colored 1 by
:func:`moser_tardos_2color` on the neighborhood hypergraph, with exact
search as the fallback.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Optional

from .graphs import Coloring, Graph, Hypergraph, VertexSubset, _check_count, _rng
from .verify import ListAssignment

__all__ = [
    "ConditionCheck",
    "ResampleLog",
    "balanced_window",
    "lll_condition_hypergraph",
    "lll_condition_list",
    "moser_tardos_2color",
    "find_balanced_subset",
    "select_sublists",
]

DEFAULT_CAP_PER_EVENT = 1000
GRID = 1000  # balanced_window's membership probabilities are i / GRID
E_UPPER = (2718282, 1000000)  # a rational upper bound on e


@dataclass(frozen=True)
class ConditionCheck:
    """Result of an exact survival-condition evaluation.

    ``margin`` is the left-hand side of the inequality, which ``holds``
    iff it is <= 1.  For the list condition, ``threshold`` is the
    equivalent minimum list size m that would satisfy it.
    """

    margin: float
    threshold: Optional[float] = None

    @property
    def holds(self) -> bool:
        return self.margin <= 1.0


def lll_condition_hypergraph(r1: int, r2: int, delta_h: int) -> ConditionCheck:
    """Check e * r2 * max_degree * (1/2)^(r1 - 1) <= 1 for edge sizes in
    [r1, r2]; when it holds, random 2-coloring with resampling succeeds."""
    if not 2 <= r1 <= r2:
        raise ValueError("need 2 <= r1 <= r2")
    if delta_h < 1:
        raise ValueError("max degree must be at least 1")
    margin = math.e * r2 * delta_h * 0.5 ** (r1 - 1)
    return ConditionCheck(margin)


def lll_condition_list(k: int, l: int, m: int) -> ConditionCheck:
    """Check e * k^2 * m * (l/m)^k <= 1 for l-sublists of m-lists on a
    k-regular graph; equivalently l * (e*l*k^2)^(1/(k-1)) <= m."""
    if k < 2:
        raise ValueError("need k >= 2")
    if not 1 <= l <= m:
        raise ValueError("need 1 <= l <= m")
    margin = math.e * k * k * m * (l / m) ** k
    threshold = l * (math.e * l * k * k) ** (1.0 / (k - 1))
    return ConditionCheck(margin, threshold)


@functools.cache
def balanced_window(k: int) -> tuple[float, int, ConditionCheck]:
    """Membership probability p, degree cap D and Local Lemma check for a
    balanced subset T of a k-regular graph, in integer arithmetic.

    The bad event A_v, "deg_T(v) = 0 or deg_T(v) >= D", has probability
    (1-p)^k + P(Bin(k, p) >= D) and shares variables with at most k(k-1)
    others.  D is the least value in 2..k for which some p = i/1000 gives
    e P(A_v) (k(k-1) + 1) <= 1 (e bounded above by a rational), and p the
    grid point of least margin there.  No D passes for k <= 8: then D = k,
    p = 1/2 and the check fails.  P(A_v) falls, then rises in p, turning
    where C(k-1, D-1) (p/(1-p))^(D-1) = 1, so only grid points next to the
    turn are tried; the least margin does not grow with D, so D is bisected.
    """
    if k < 2:
        raise ValueError("need degree k >= 2")
    scale = E_UPPER[0] * (k * (k - 1) + 1)
    one = E_UPPER[1] * GRID**k  # margin = numerator / one

    def numerator(i: int, d: int) -> int:
        q = GRID - i
        term, tail = math.comb(k, d) * i**d * q ** (k - d), 0  # C(k,j) i^j q^(k-j)
        for j in range(d, k + 1):
            tail += term
            term = term * (k - j) * i // ((j + 1) * q)
        return scale * (q**k + tail)

    def best(d: int) -> tuple[int, int]:  # (least numerator, its i)
        turn = int(GRID / (1 + math.exp(math.log(math.comb(k - 1, d - 1)) / (d - 1))))
        return min((numerator(i, d), i) for i in range(max(turn - 1, 1), min(turn + 3, GRID)))

    d = 2 + bisect.bisect_left(range(2, k), True, key=lambda d: best(d)[0] <= one)
    num, i = best(d)
    return i / GRID, d, ConditionCheck(num / one)


@dataclass(frozen=True)
class ResampleLog:
    """Trace of one resampling run.

    ``triggers`` pairs each resampled event index, in ascending order, with
    how often it was resampled, so ``resample_count`` is the sum of the
    counts.  ``final_state`` is the state at exit (also on exhaustion, for
    debugging), as a tuple: the 0/1 colors, T's members, or each sublist
    as a sorted tuple.  ``seed`` and ``max_resamples`` are the run's
    inputs, the cap as applied (the default filled in); anything else a
    sampler uses, such as the balanced window, is derived from its input.
    A "success" outcome is only reported after the final state violates no
    event; callers re-verify through the checkers.
    """

    outcome: str
    triggers: tuple[tuple[int, int], ...]
    final_state: tuple
    seed: int
    max_resamples: int

    @property
    def resample_count(self) -> int:
        return sum(count for _, count in self.triggers)

    @property
    def success(self) -> bool:
        return self.outcome == "success"

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "resample_count": self.resample_count,
            "triggers": {str(i): count for i, count in self.triggers},
            "seed": self.seed,
            "max_resamples": self.max_resamples,
        }


def _cap(max_resamples: Optional[int], n_events: int) -> int:
    if max_resamples is None:
        return DEFAULT_CAP_PER_EVENT * max(n_events, 1)
    _check_count(max_resamples, "max_resamples")
    return max_resamples


def _resample(
    event_vars: Sequence[Sequence[int]], var_events: Sequence[Sequence[int]],
    draw: Callable[[int], object], violated: Callable[[list, int], bool],
    max_resamples: Optional[int], seed: int, snapshot: Callable[[list], tuple],
) -> ResampleLog:
    """Draw ``state[v] = draw(v)`` for every variable, then resample until
    ``violated(state, i)`` holds for no event i or the cap is spent.

    ``event_vars[i]`` lists event i's variables in redraw order and
    ``var_events[v]`` the events containing variable v.  ``heap`` holds
    every violated event (``queued`` marks its entries) plus stale ones.
    """
    n = len(event_vars)
    cap = _cap(max_resamples, n)
    state = [draw(v) for v in range(len(var_events))]
    counts: Counter[int] = Counter()  # resamples by event
    count = 0
    heap: list[int] = []
    while True:
        if not heap:  # full scan: seeds the heap, or confirms success
            queued = [violated(state, i) for i in range(n)]
            heap = [i for i in range(n) if queued[i]]
            if not heap:
                break
        bad = heap[0]
        if not violated(state, bad):
            heapq.heappop(heap)
            queued[bad] = False
            continue
        if count >= cap:
            break
        count += 1
        counts[bad] += 1
        for v in event_vars[bad]:
            state[v] = draw(v)
        for j in {j for v in event_vars[bad] for j in var_events[v]}:
            if not queued[j] and violated(state, j):
                queued[j] = True
                heapq.heappush(heap, j)
    outcome = "exhausted" if heap else "success"
    return ResampleLog(outcome, tuple(sorted(counts.items())), snapshot(state), seed, cap)


def _members(in_t: list[bool]) -> tuple[int, ...]:
    return tuple(v for v, inside in enumerate(in_t) if inside)


def moser_tardos_2color(
    h: Hypergraph, seed: int = 0, max_resamples: Optional[int] = None
) -> tuple[Optional[Coloring], ResampleLog]:
    """Random 2-coloring with resampling of monochromatic hyperedges.

    Colors every vertex uniformly at random, then repeatedly re-randomizes
    the vertices of the lowest-indexed monochromatic edge, in the edge's
    ascending order.  The default cap is 1000 per edge.
    """
    rng = _rng(seed)
    edges = h.edges
    incident: list[list[int]] = [[] for _ in range(h.n)]
    for i, vs in enumerate(edges):
        for v in vs:
            incident[v].append(i)

    def monochromatic(color: list[int], i: int) -> bool:
        vs = edges[i]
        c = color[vs[0]]
        for v in vs:
            if color[v] != c:
                return False
        return True

    getrandbits = rng.getrandbits

    def coin(v: int) -> int:
        # rng.randrange(2) draws 2 bits until they read below 2; the same
        # loop inlined gives the same coins without its argument checks.
        r = getrandbits(2)
        while r > 1:
            r = getrandbits(2)
        return r

    log = _resample(edges, incident, coin, monochromatic, max_resamples, seed, tuple)
    return (Coloring(log.final_state, 2) if log.success else None), log


def find_balanced_subset(
    g: Graph, seed: int = 0, max_resamples: Optional[int] = None
) -> tuple[Optional[VertexSubset], ResampleLog]:
    """Biased random subset T of a k-regular graph in which every vertex
    has 0 < deg_T(v) < D, for the degree cap D <= k of
    :func:`balanced_window` (k), so also a neighbor outside T.

    Membership is sampled with that window's probability p; a violating
    vertex has its whole neighborhood re-randomized with the same bias.
    """
    k = g.regular_degree()
    if k is None:
        raise ValueError("graph is not regular")
    if k < 2:
        raise ValueError("need regular degree k >= 2")
    p, top, _ = balanced_window(k)
    rng = _rng(seed)

    def unbalanced(in_t: list[bool], v: int) -> bool:
        d = sum(1 for u in g.adjacency[v] if in_t[u])
        return d == 0 or d >= top

    log = _resample(g.adjacency, g.adjacency, lambda v: rng.random() < p, unbalanced,
                    max_resamples, seed, _members)
    return (VertexSubset(frozenset(log.final_state), g.n) if log.success else None), log


def select_sublists(
    g: Graph,
    lists: ListAssignment,
    l: int,
    seed: int = 0,
    max_resamples: Optional[int] = None,
) -> tuple[Optional[ListAssignment], ResampleLog]:
    """Shrink every m-list to an l-sublist so that no vertex's neighbors
    share a common allowed color.

    Draws each sublist uniformly; a vertex whose neighbors' sublists still
    intersect has all its neighbors' sublists re-drawn.  Once the
    intersection over every neighborhood is empty, any proper coloring
    from the sublists is automatically dynamic.

    At degree 1 a vertex's one neighbor's sublist is the intersection, and
    it is never empty: that raises ValueError rather than burning the
    resample cap.
    """
    k = g.regular_degree()
    if k is None or k < 1:
        raise ValueError("graph must be regular with degree >= 1")
    if k == 1:
        raise ValueError(
            "every vertex has a single neighbor, whose sublist always "
            "leaves a color common to the neighborhood"
        )
    if len(lists) != g.n:
        raise ValueError("list assignment must cover all vertices")
    m = lists.uniform_size()
    if m is None:
        raise ValueError("all lists must have one common size")
    if not 1 <= l <= m:
        raise ValueError(f"need 1 <= l <= m, got l={l}, m={m}")
    pool = [tuple(sorted(lists[v])) for v in range(g.n)]
    rng = _rng(seed)

    def shared_color(sub: list[frozenset[int]], v: int) -> bool:
        nbrs = g.adjacency[v]
        inter = set(sub[nbrs[0]])
        for u in nbrs[1:]:
            inter &= sub[u]
            if not inter:
                return False
        return bool(inter)

    log = _resample(g.adjacency, g.adjacency, lambda v: frozenset(rng.sample(pool[v], l)),
                    shared_color, max_resamples, seed,
                    lambda sub: tuple(tuple(sorted(s)) for s in sub))
    return (ListAssignment.of(log.final_state) if log.success else None), log
