"""Text formats: DIMACS .col, plain edge lists, and the coloring JSON schema."""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Optional, Sequence

from .graphs import Coloring, Graph, _is_int

__all__ = [
    "FormatError",
    "read_dimacs",
    "write_dimacs",
    "read_edge_list",
    "write_edge_list",
    "read_graph_text",
    "graph_id",
    "coloring_to_json_dict",
    "coloring_from_json_dict",
]

COLORING_SCHEMA = "dynachrome-coloring/1"


class FormatError(ValueError):
    """Malformed input text; ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _pair(words: list[str]) -> Optional[tuple[int, int]]:
    """Two words as ints, or None unless each is [+-]?[0-9]+ (``int`` reads 1_0 too)."""
    if len(words) != 2 or not all(w.isascii() and w.lstrip("+-").isdigit() for w in words):
        return None
    try:
        return int(words[0]), int(words[1])
    except ValueError:  # more than one sign, or more digits than int reads
        return None


def _add_edge(edges: dict, u: int, v: int, base: int, lineno: int) -> None:
    """Add {u, v}, ids counted from ``base``, to ``edges``, an ordered set of
    0-based pairs; a self-loop or a repeat is named by the ids as written."""
    if u == v:
        raise FormatError(f"self-loop at vertex {u}", lineno)
    key = (min(u, v) - base, max(u, v) - base)
    if key in edges:
        raise FormatError(f"duplicate edge ({u},{v})", lineno)
    edges[key] = None


def read_dimacs(text: str) -> Graph:
    """Parse DIMACS coloring format: one ``p edge n m`` header, then 1-based
    ``e u v`` lines, all in ASCII integers.  Comment lines start with ``c``.

    Self-loops, duplicate edges (in either orientation), out-of-range
    endpoints, and header/edge-count mismatches are all rejected with the
    offending line number.
    """
    n = m_declared = None
    edges: dict[tuple[int, int], None] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise FormatError("duplicate problem header", lineno)
            if parts[1:2] != ["edge"] or (counts := _pair(parts[2:])) is None:
                raise FormatError(f"malformed header {line!r}", lineno)
            n, m_declared = counts
            if n < 0 or m_declared < 0:
                raise FormatError("negative counts in header", lineno)
        elif parts[0] == "e":
            if n is None:
                raise FormatError("edge before problem header", lineno)
            if (ids := _pair(parts[1:])) is None:
                raise FormatError(f"malformed edge line {line!r}", lineno)
            u, v = ids
            if not (1 <= u <= n and 1 <= v <= n):
                raise FormatError(f"vertex out of range in {line!r}", lineno)
            _add_edge(edges, u, v, 1, lineno)
        else:
            raise FormatError(f"unrecognized line {line!r}", lineno)
    if n is None:
        raise FormatError("missing problem header")
    if m_declared != len(edges):
        raise FormatError(f"header declares {m_declared} edges but {len(edges)} were given")
    return Graph.from_edges(n, edges)


def write_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.edge_count}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Graph:
    """Parse a plain 0-based edge list, one ``u v`` pair per line.

    Blank lines and ``#`` comments are skipped.  One ``# vertices N``
    comment, before the first edge, fixes the vertex count (so isolated
    vertices survive) and any id >= N is rejected; without it the vertex
    count is the largest id seen plus one.  Ids are ASCII integers, and an N
    of anything but ASCII digits leaves the line a comment.
    """
    edges: dict[tuple[int, int], None] = {}
    max_id = -1
    declared: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            words = line[1:].split()
            count = words[1] if len(words) == 2 and words[0] == "vertices" else ""
            if count.isascii() and count.isdigit():
                if edges:
                    raise FormatError("vertex count must precede the edges", lineno)
                if declared is not None:
                    raise FormatError("duplicate vertex count", lineno)
                declared = int(count)
            continue
        if (ids := _pair(line.split())) is None:
            raise FormatError(f"expected 'u v', got {line!r}", lineno)
        u, v = ids
        if u < 0 or v < 0:
            raise FormatError(f"negative vertex id in {line!r}", lineno)
        if declared is not None and max(u, v) >= declared:
            raise FormatError(f"vertex id out of range in {line!r}", lineno)
        _add_edge(edges, u, v, 0, lineno)
        max_id = max(max_id, u, v)
    return Graph.from_edges(max_id + 1 if declared is None else declared, edges)


def write_edge_list(g: Graph) -> str:
    return f"# vertices {g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())


def read_graph_text(text: str) -> Graph:
    """Sniff DIMACS vs. edge-list content from the first non-blank line."""
    first = next((line for line in map(str.strip, text.splitlines()) if line), "")
    return (read_dimacs if first.startswith(("c", "p", "e")) else read_edge_list)(text)


def graph_id(g: Graph) -> str:
    """Short stable identifier: a hash of ``n;u,v;u,v...`` over the edges in
    ascending order, fed one adjacency row at a time."""
    h = hashlib.sha256(f"{g.n};".encode())
    sep = ""
    for u, nbrs in enumerate(g.adjacency):
        up = nbrs[bisect_right(nbrs, u):]  # the neighbours above u, ascending
        if up:
            p = f"{u},"
            h.update((sep + p + (";" + p).join(map(str, up))).encode())
            sep = ";"
    return f"n{g.n}-m{g.edge_count}-{h.hexdigest()[:12]}"


def coloring_to_json_dict(
    g: Graph, c: Coloring, certificates: Optional[Sequence[dict]] = None
) -> dict:
    """The shared coloring record consumed by the CLI and the demos."""
    return {
        "schema": COLORING_SCHEMA,
        "graph_id": graph_id(g),
        "palette_size": c.palette_size,
        "assignment": list(c.colors),
        "certificates": list(certificates) if certificates else [],
    }


def coloring_from_json_dict(data: dict) -> Coloring:
    """Read a coloring record: ``assignment`` must be a list of JSON
    integers and ``palette_size`` an integer; a null, float, boolean or
    string is rejected rather than truncated."""
    try:
        assignment = data["assignment"]
        palette = data["palette_size"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed coloring record: {exc}") from None
    if not isinstance(assignment, list) or not all(map(_is_int, assignment)):
        raise FormatError("assignment must be a list of integers")
    if not _is_int(palette):
        raise FormatError(f"palette_size must be an integer, got {palette!r}")
    return Coloring(tuple(assignment), palette)
