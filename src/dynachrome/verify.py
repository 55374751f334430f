"""Certificate checkers: every claim made elsewhere is re-checkable here.

Checkers are pure functions returning the *exhaustive* list of violations
(never just the first failure) in a stable order, so randomized
constructions can be debugged from a single run.  An empty list is the
certificate of validity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graphs import Graph, Hypergraph, VertexSubset

__all__ = [
    "Coloring",
    "ListAssignment",
    "Violation",
    "check_proper",
    "check_dynamic",
    "check_domination",
    "check_list_respecting",
    "check_hypergraph_2coloring",
    "violations_to_json",
]

VIOLATION_KINDS = (
    "improper_edge",
    "monochromatic_neighborhood",
    "empty_T_neighborhood",
    "empty_complement_neighborhood",
    "list_violation",
    "monochromatic_hyperedge",
)


@dataclass(frozen=True)
class Coloring:
    """A total or partial assignment of color ids to vertices.

    ``colors[v]`` is the color of vertex v or None when unassigned; every
    assigned color must lie in ``range(palette_size)``.
    """

    colors: tuple[Optional[int], ...]
    palette_size: int

    def __post_init__(self) -> None:
        if self.palette_size < 0:
            raise ValueError("palette size must be nonnegative")
        for v, c in enumerate(self.colors):
            if c is not None and not (0 <= c < self.palette_size):
                raise ValueError(
                    f"color {c} of vertex {v} outside palette of size {self.palette_size}"
                )

    @classmethod
    def total(cls, colors: Sequence[int], palette_size: Optional[int] = None) -> "Coloring":
        colors = tuple(int(c) for c in colors)
        if palette_size is None:
            palette_size = max(colors) + 1 if colors else 0
        return cls(colors, palette_size)

    def __getitem__(self, v: int) -> Optional[int]:
        return self.colors[v]

    def __len__(self) -> int:
        return len(self.colors)

    @property
    def is_total(self) -> bool:
        return all(c is not None for c in self.colors)

    @property
    def colors_used(self) -> int:
        return len({c for c in self.colors if c is not None})


@dataclass(frozen=True)
class ListAssignment:
    """Per-vertex sets of allowed colors."""

    lists: tuple[frozenset[int], ...]

    @classmethod
    def uniform(cls, n: int, colors: Iterable[int]) -> "ListAssignment":
        """The same list of allowed colors at every one of n vertices."""
        cs = frozenset(colors)
        return cls(tuple(cs for _ in range(n)))

    @classmethod
    def of(cls, lists: Sequence[Iterable[int]]) -> "ListAssignment":
        return cls(tuple(frozenset(l) for l in lists))

    def __getitem__(self, v: int) -> frozenset[int]:
        return self.lists[v]

    def __len__(self) -> int:
        return len(self.lists)

    def uniform_size(self) -> Optional[int]:
        """The common list size when all lists agree, else None."""
        sizes = {len(l) for l in self.lists}
        return sizes.pop() if len(sizes) == 1 else None


@dataclass(frozen=True)
class Violation:
    """One failed certificate condition; ``witness`` names the offending ids.

    Witness shapes by kind: improper_edge (u, v); monochromatic_neighborhood,
    empty_T_neighborhood, empty_complement_neighborhood, list_violation (v,);
    monochromatic_hyperedge (edge_index,).
    """

    kind: str
    witness: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in VIOLATION_KINDS:
            raise ValueError(f"unknown violation kind {self.kind!r}")


def violations_to_json(violations: Sequence[Violation]) -> list[dict]:
    return [{"kind": v.kind, "witness": list(v.witness)} for v in violations]


def _require_total(g_size: int, c: Coloring) -> None:
    if len(c) != g_size:
        raise ValueError(f"coloring covers {len(c)} vertices, graph has {g_size}")
    if not c.is_total:
        raise ValueError("coloring must be total")


def check_proper(g: Graph, c: Coloring) -> list[Violation]:
    """All edges whose endpoints share a color, ascending by (u, v)."""
    _require_total(g.n, c)
    colors = c.colors
    out = []
    for u, nbrs in enumerate(g.adjacency):
        cu = colors[u]
        for v in nbrs:
            if v > u and colors[v] == cu:
                out.append(Violation("improper_edge", (u, v)))
    return out


def check_dynamic(g: Graph, c: Coloring) -> list[Violation]:
    """Proper-coloring violations plus every vertex of degree >= 2 whose
    neighbors all share one color.  Edge violations come first, then
    neighborhood violations, each ascending."""
    out = check_proper(g, c)
    colors = c.colors
    for v, nbrs in enumerate(g.adjacency):
        if len(nbrs) >= 2 and len({colors[u] for u in nbrs}) < 2:
            out.append(Violation("monochromatic_neighborhood", (v,)))
    return out


def check_domination(
    g: Graph, t: VertexSubset, mode: str = "double_total"
) -> list[Violation]:
    """Check that T (and, in double_total mode, also its complement)
    touches every vertex's neighborhood.

    For each vertex in ascending order: an ``empty_T_neighborhood``
    violation when no neighbor lies in T, and (double_total only) an
    ``empty_complement_neighborhood`` violation when no neighbor lies
    outside T.
    """
    if mode not in ("total", "double_total"):
        raise ValueError(f"unknown domination mode {mode!r}")
    if t.n != g.n:
        raise ValueError("subset belongs to a different host size")
    out = []
    for v in range(g.n):
        nbrs = g.adjacency[v]
        inside = sum(1 for u in nbrs if u in t.members)
        if inside == 0:
            out.append(Violation("empty_T_neighborhood", (v,)))
        if mode == "double_total" and inside == len(nbrs):
            out.append(Violation("empty_complement_neighborhood", (v,)))
    return out


def check_list_respecting(
    g: Graph, lists: ListAssignment, c: Coloring
) -> list[Violation]:
    """Every vertex whose color is missing from its allowed list."""
    _require_total(g.n, c)
    if len(lists) != g.n:
        raise ValueError("list assignment must cover all vertices")
    return [
        Violation("list_violation", (v,))
        for v in range(g.n)
        if c[v] not in lists[v]
    ]


def check_hypergraph_2coloring(h: Hypergraph, c: Coloring) -> list[Violation]:
    """Every monochromatic hyperedge, by edge index.  Requires palette 2."""
    if c.palette_size != 2:
        raise ValueError(f"expected palette of size 2, got {c.palette_size}")
    _require_total(h.n, c)
    out = []
    for i, f in enumerate(h.edges):
        if len({c[v] for v in f}) == 1:
            out.append(Violation("monochromatic_hyperedge", (i,)))
    return out
