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


def read_dimacs(text: str) -> Graph:
    """Parse DIMACS coloring format: one ``p edge n m`` header, then
    1-based ``e u v`` lines.  Comment lines start with ``c``.

    Self-loops, duplicate edges (in either orientation), out-of-range
    endpoints, and header/edge-count mismatches are all rejected with the
    offending line number.
    """
    n = None
    m_declared = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise FormatError("duplicate problem header", lineno)
            if len(parts) != 4 or parts[1] != "edge":
                raise FormatError(f"malformed header {line!r}", lineno)
            try:
                n, m_declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise FormatError(f"malformed header {line!r}", lineno) from None
            if n < 0 or m_declared < 0:
                raise FormatError("negative counts in header", lineno)
        elif parts[0] == "e":
            if n is None:
                raise FormatError("edge before problem header", lineno)
            if len(parts) != 3:
                raise FormatError(f"malformed edge line {line!r}", lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise FormatError(f"malformed edge line {line!r}", lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise FormatError(f"vertex out of range in {line!r}", lineno)
            if u == v:
                raise FormatError(f"self-loop at vertex {u}", lineno)
            key = (min(u, v) - 1, max(u, v) - 1)
            if key in seen:
                raise FormatError(f"duplicate edge ({u},{v})", lineno)
            seen.add(key)
            edges.append(key)
        else:
            raise FormatError(f"unrecognized line {line!r}", lineno)
    if n is None:
        raise FormatError("missing problem header")
    if m_declared != len(edges):
        raise FormatError(
            f"header declares {m_declared} edges but {len(edges)} were given"
        )
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
    count is the largest id seen plus one.
    """
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    max_id = -1
    declared: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            words = line[1:].split()
            if len(words) == 2 and words[0] == "vertices" and words[1].isdecimal():
                if edges:
                    raise FormatError("vertex count must precede the edges", lineno)
                if declared is not None:
                    raise FormatError("duplicate vertex count", lineno)
                declared = int(words[1])
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"expected 'u v', got {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise FormatError(f"negative vertex id in {line!r}", lineno)
        if declared is not None and max(u, v) >= declared:
            raise FormatError(f"vertex id out of range in {line!r}", lineno)
        if u == v:
            raise FormatError(f"self-loop at vertex {u}", lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise FormatError(f"duplicate edge ({u},{v})", lineno)
        seen.add(key)
        edges.append(key)
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
