"""Constructive avoidance of bad events by targeted resampling.

The samplers share one engine in the style of Moser and Tardos (J. ACM
2010); a double-total set is a 2-coloring of the neighborhood hypergraph.
A routine supplies its events (each event's variables, in redraw order), a
violation test and a per-variable draw.  The engine draws every variable
once, then re-draws the variables of the lowest-indexed violated event
until none is violated or a resample cap is hit.  A full scan seeds a
min-heap of violated events; after a resample only the events that share
a variable with it are re-tested, and stale heap entries are dropped when
they surface.  The RNG is drawn in the order that a full rescan after every
resample would draw it, so outputs and logs are exactly those of that
simpler loop, deterministic given the seed.  "success" is reported only
after a final full scan finds no violated event; non-convergence within the
cap is reported as "exhausted", never as a proof that no solution exists.

The two condition evaluators are exact arithmetic checks of when this
scheme is guaranteed to work (small event probability, few dependencies);
the samplers themselves run regardless and simply report what happened.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, Hypergraph, VertexSubset, neighborhood_hypergraph
from .verify import Coloring, ListAssignment

__all__ = [
    "ConditionCheck",
    "LllParams",
    "ResampleLog",
    "DegenerateParamsError",
    "InfeasibleStructureError",
    "lll_condition_hypergraph",
    "lll_condition_list",
    "moser_tardos_2color",
    "find_double_total_dominating",
    "find_balanced_subset",
    "select_sublists",
]

DEFAULT_CAP_PER_EVENT = 1000


class DegenerateParamsError(ValueError):
    """The membership probability is >= 1, so the biased sampling is
    meaningless; build the params with clamp_p=True to run anyway."""


class InfeasibleStructureError(ValueError):
    """The graph contains a vertex whose degree makes the target
    structurally impossible, regardless of randomness."""


@dataclass(frozen=True)
class ConditionCheck:
    """Result of an exact survival-condition evaluation.

    ``margin`` is the left-hand side of the inequality (holds iff <= 1).
    For the list condition, ``threshold`` is the equivalent minimum list
    size m that would satisfy it.
    """

    holds: bool
    margin: float
    threshold: Optional[float] = None


def lll_condition_hypergraph(r1: int, r2: int, delta_h: int) -> ConditionCheck:
    """Check e * r2 * max_degree * (1/2)^(r1 - 1) <= 1 for edge sizes in
    [r1, r2]; when it holds, random 2-coloring with resampling succeeds."""
    if not 2 <= r1 <= r2:
        raise ValueError("need 2 <= r1 <= r2")
    if delta_h < 1:
        raise ValueError("max degree must be at least 1")
    margin = math.e * r2 * delta_h * 0.5 ** (r1 - 1)
    return ConditionCheck(margin <= 1.0, margin)


def lll_condition_list(k: int, l: int, m: int) -> ConditionCheck:
    """Check e * k^2 * m * (l/m)^k <= 1 for l-sublists of m-lists on a
    k-regular graph; equivalently l * (e*l*k^2)^(1/(k-1)) <= m."""
    if k < 2:
        raise ValueError("need k >= 2")
    if not 1 <= l <= m:
        raise ValueError("need 1 <= l <= m")
    margin = math.e * k * k * m * (l / m) ** k
    threshold = l * (math.e * l * k * k) ** (1.0 / (k - 1))
    return ConditionCheck(margin <= 1.0, margin, threshold)


@dataclass(frozen=True)
class LllParams:
    """Parameters of the biased-subset sampler on a k-regular graph.

    ``p`` is the membership probability c' * ln(k) / k; at small k this
    exceeds 1 and the sampler refuses to run unless the params were built
    with clamp_p=True (which caps p at 0.5 and records the fact).  ``lam``
    is the smallest deviation bound lambda with
    3 c' ln(k) (1 + ln 2 + ln(k^2+1)) <= lambda^2, and ``window_nonempty``
    records whether some such lambda also satisfies lambda < c' ln(k); the
    concentration guarantee only kicks in for k large enough that it does.
    """

    c_prime: float
    k: int
    p: float
    p_clamped: bool
    lam: float
    window_nonempty: bool
    seed: int = 0
    max_resamples: Optional[int] = None

    @classmethod
    def for_degree(
        cls,
        k: int,
        c_prime: float = 7.0,
        seed: int = 0,
        max_resamples: Optional[int] = None,
        clamp_p: bool = False,
    ) -> "LllParams":
        if c_prime <= 6:
            raise ValueError("c_prime must exceed 6")
        if k < 2:
            raise ValueError("need degree k >= 2")
        _cap(max_resamples, 0)  # raises on a negative cap
        lnk = math.log(k)
        # Rejects NaN and infinite c', and a c' so large that the
        # (c' ln k)^2 of window_nonempty below overflows.
        if not math.isfinite((c_prime * lnk) * (c_prime * lnk)):
            raise ValueError(f"c_prime must keep (c' ln k)^2 finite, got {c_prime} at k={k}")
        p = c_prime * lnk / k
        clamped = bool(clamp_p) and p >= 1.0
        if clamped:
            p = 0.5
        lam_sq = 3 * c_prime * lnk * (1 + math.log(2) + math.log(k * k + 1))
        return cls(
            c_prime=c_prime,
            k=k,
            p=p,
            p_clamped=clamped,
            lam=math.sqrt(lam_sq),
            window_nonempty=lam_sq < (c_prime * lnk) ** 2,
            seed=seed,
            max_resamples=max_resamples,
        )

    def to_json_dict(self) -> dict:
        return {
            "c_prime": self.c_prime,
            "k": self.k,
            "p": self.p,
            "p_clamped": self.p_clamped,
            "lambda": self.lam,
            "window_nonempty": self.window_nonempty,
            "seed": self.seed,
            "max_resamples": self.max_resamples,
        }


@dataclass
class ResampleLog:
    """Trace of one resampling run.

    ``triggers`` counts how often each event index was resampled, and
    ``final_state`` is the raw state at exit (also on exhaustion, for
    debugging).  A "success" outcome is only reported after the final
    state violates no event; callers re-verify through the checkers.
    """

    outcome: str
    resample_count: int
    triggers: dict[int, int]
    final_state: object
    seed: int
    max_resamples: int
    params: Optional[dict] = None

    @property
    def success(self) -> bool:
        return self.outcome == "success"

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "resample_count": self.resample_count,
            "triggers": {str(k): v for k, v in sorted(self.triggers.items())},
            "seed": self.seed,
            "max_resamples": self.max_resamples,
            "params": self.params,
        }


def _cap(max_resamples: Optional[int], n_events: int) -> int:
    if max_resamples is None:
        return DEFAULT_CAP_PER_EVENT * max(n_events, 1)
    if max_resamples < 0:
        raise ValueError(f"max_resamples must be >= 0, got {max_resamples}")
    return max_resamples


def _resample(
    event_vars: Sequence[Sequence[int]], var_events: Sequence[Sequence[int]],
    draw: Callable[[int], object], violated: Callable[[list, int], bool],
    max_resamples: Optional[int], seed: int, snapshot: Callable[[list], object],
    params: Optional[dict] = None,
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
    triggers: Counter[int] = Counter()
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
        triggers[bad] += 1
        for v in event_vars[bad]:
            state[v] = draw(v)
        for j in {j for v in event_vars[bad] for j in var_events[v]}:
            if not queued[j] and violated(state, j):
                queued[j] = True
                heapq.heappush(heap, j)
    outcome = "exhausted" if heap else "success"
    return ResampleLog(outcome, count, dict(triggers), snapshot(state), seed, cap, params)


def _members(in_t: list[bool]) -> list[int]:
    return [v for v, inside in enumerate(in_t) if inside]


def moser_tardos_2color(
    h: Hypergraph, seed: int = 0, max_resamples: Optional[int] = None
) -> tuple[Optional[Coloring], ResampleLog]:
    """Random 2-coloring with resampling of monochromatic hyperedges.

    Colors every vertex uniformly at random, then repeatedly re-randomizes
    the vertices of the lowest-indexed monochromatic edge.  The default
    cap is 1000 per edge.
    """
    rng = random.Random(seed)
    edge_vertices = [tuple(sorted(f)) for f in h.edges]
    incident: list[list[int]] = [[] for _ in range(h.n)]
    for i, vs in enumerate(edge_vertices):
        for v in vs:
            incident[v].append(i)

    def monochromatic(color: list[int], i: int) -> bool:
        vs = edge_vertices[i]
        c = color[vs[0]]
        for v in vs:
            if color[v] != c:
                return False
        return True

    log = _resample(edge_vertices, incident, lambda v: rng.randrange(2), monochromatic,
                    max_resamples, seed, list.copy)
    return (Coloring.total(log.final_state, 2) if log.success else None), log


def find_double_total_dominating(
    g: Graph, seed: int = 0, max_resamples: Optional[int] = None
) -> tuple[Optional[VertexSubset], ResampleLog]:
    """Random subset T with every neighborhood meeting both T and its
    complement: a 2-coloring of the neighborhood hypergraph by
    :func:`moser_tardos_2color`, with T the vertices colored 1.  The log's
    ``final_state`` is likewise the list of vertices colored 1.

    A vertex of degree <= 1 makes the target impossible outright, which
    raises InfeasibleStructureError rather than burning the resample cap.
    """
    for v in range(g.n):
        if g.degree(v) <= 1:
            raise InfeasibleStructureError(
                f"vertex {v} has degree {g.degree(v)}; its neighborhood cannot "
                "meet both the subset and its complement"
            )
    _, log = moser_tardos_2color(neighborhood_hypergraph(g), seed, max_resamples)
    log.final_state = _members(log.final_state)
    return (VertexSubset(frozenset(log.final_state), g.n) if log.success else None), log


def find_balanced_subset(
    g: Graph, params: LllParams
) -> tuple[Optional[VertexSubset], ResampleLog]:
    """Biased random subset T of a k-regular graph in which every vertex
    has 0 < deg_T(v) < 2 c' ln(k) and at least one neighbor outside T.

    The complement condition is enforced directly in the event (it is not
    implied by the upper bound once 2 c' ln(k) >= k, which happens at desk
    scale).  Membership is sampled with probability params.p; a violating
    vertex has its whole neighborhood re-randomized with the same bias.
    """
    k = g.regular_degree()
    if k is None:
        raise ValueError("graph is not regular")
    if k < 2:
        raise ValueError("need regular degree k >= 2")
    if params.k != k:
        raise ValueError(f"params were built for degree {params.k}, graph has {k}")
    if params.p >= 1.0:
        raise DegenerateParamsError(
            f"membership probability {params.p:.3f} >= 1 at k={k}; "
            "rebuild params with clamp_p=True to run a clamped experiment"
        )
    upper = 2.0 * params.c_prime * math.log(k)
    rng = random.Random(params.seed)

    def unbalanced(in_t: list[bool], v: int) -> bool:
        d = sum(1 for u in g.adjacency[v] if in_t[u])
        return d == 0 or d >= upper or d == k

    log = _resample(g.adjacency, g.adjacency, lambda v: rng.random() < params.p, unbalanced,
                    params.max_resamples, params.seed, _members, params.to_json_dict())
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
    """
    k = g.regular_degree()
    if k is None or k < 1:
        raise ValueError("graph must be regular with degree >= 1")
    if len(lists) != g.n:
        raise ValueError("list assignment must cover all vertices")
    m = lists.uniform_size()
    if m is None:
        raise ValueError("all lists must have one common size")
    if not 1 <= l <= m:
        raise ValueError(f"need 1 <= l <= m, got l={l}, m={m}")
    pool = [tuple(sorted(lists[v])) for v in range(g.n)]
    rng = random.Random(seed)

    def shared_color(sub: list[frozenset[int]], v: int) -> bool:
        nbrs = g.adjacency[v]
        inter = set(sub[nbrs[0]])
        for u in nbrs[1:]:
            inter &= sub[u]
            if not inter:
                return False
        return bool(inter)

    log = _resample(g.adjacency, g.adjacency, lambda v: frozenset(rng.sample(pool[v], l)),
                    shared_color, max_resamples, seed, lambda sub: [sorted(s) for s in sub])
    return (ListAssignment.of(log.final_state) if log.success else None), log
