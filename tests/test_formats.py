"""DIMACS and edge-list parsing, round trips, and the coloring JSON schema."""

import pytest

from dynachrome import (
    Coloring,
    FormatError,
    Graph,
    coloring_from_json_dict,
    coloring_to_json_dict,
    complete,
    cycle,
    gnp,
    graph_id,
    kneser,
    random_regular,
    read_dimacs,
    read_edge_list,
    read_graph_text,
    write_dimacs,
    write_edge_list,
)

K3_DIMACS = """\
p edge 3 3
e 1 2
e 2 3
e 1 3
"""


def test_read_dimacs_k3():
    assert read_dimacs(K3_DIMACS) == complete(3)


def test_dimacs_round_trip():
    for g in (cycle(3), cycle(9), complete(5), gnp(20, 0.3, seed=4)):
        assert read_dimacs(write_dimacs(g)) == g


def test_dimacs_self_loop_names_line():
    text = "p edge 3 1\ne 1 1\n"
    with pytest.raises(FormatError) as err:
        read_dimacs(text)
    assert err.value.line == 2
    assert "line 2" in str(err.value)
    assert "self-loop" in str(err.value)


def test_dimacs_duplicate_edge_names_line():
    text = "p edge 3 3\ne 1 2\ne 2 1\ne 2 3\n"
    with pytest.raises(FormatError) as err:
        read_dimacs(text)
    assert err.value.line == 3


def test_dimacs_vertex_out_of_range():
    with pytest.raises(FormatError) as err:
        read_dimacs("p edge 3 1\ne 1 4\n")
    assert err.value.line == 2


def test_dimacs_malformed_header():
    with pytest.raises(FormatError):
        read_dimacs("p vertex 3 1\ne 1 2\n")
    with pytest.raises(FormatError):
        read_dimacs("p edge three 1\n")
    with pytest.raises(FormatError):
        read_dimacs("e 1 2\n")  # edge before header
    with pytest.raises(FormatError):
        read_dimacs("p edge 3 5\ne 1 2\n")  # count mismatch
    with pytest.raises(FormatError):
        read_dimacs("")
    for text, line in [
        ("p edge 2 0\np edge 2 0\n", 2),  # second header
        ("p edge -1 0\n", 1),
        ("p edge 2 1\ne 1\n", 2),  # wrong arity
        ("p edge 2 1\ne 1 x\n", 2),
        ("p edge 2 0\nx 1 2\n", 2),  # unrecognized line
        ("p edge 1_1 1\ne 1 2\n", 1),  # int() alone reads 1_1 as 11
        ("p edge 3 1\ne 1 \u0663\n", 2),  # an Arabic-Indic 3
    ]:
        with pytest.raises(FormatError) as err:
            read_dimacs(text)
        assert err.value.line == line, text


def test_dimacs_comments_ignored():
    text = "c a comment\np edge 2 1\nc another\ne 1 2\n"
    g = read_dimacs(text)
    assert g.n == 2 and g.edge_count == 1


def test_edge_list_round_trip():
    for g in (cycle(6), complete(4), gnp(15, 0.4, seed=11)):
        assert read_edge_list(write_edge_list(g)) == g


def test_edge_list_keeps_trailing_isolated_vertices():
    g = Graph.from_edges(5, [(0, 1)])
    text = write_edge_list(g)
    assert text.splitlines()[0] == "# vertices 5"
    assert read_edge_list(text) == g
    assert read_graph_text(text) == g
    assert read_edge_list(write_edge_list(Graph.from_edges(3, []))).n == 3


def test_edge_list_header_bounds_ids():
    with pytest.raises(FormatError) as err:
        read_edge_list("# vertices 3\n0 1\n1 3\n")
    assert err.value.line == 3
    with pytest.raises(FormatError, match="vertex count must precede the edges") as err:
        read_edge_list("# vertices 3\n0 1\n# vertices 3\n")
    assert err.value.line == 3
    with pytest.raises(FormatError, match="duplicate vertex count") as err:
        read_edge_list("# vertices 3\n\n# vertices 4\n0 1\n")
    assert err.value.line == 3
    with pytest.raises(FormatError):
        read_edge_list("0 1\n# vertices 3\n")
    # Without the header the count is still the largest id plus one.
    assert read_edge_list("0 1\n1 3\n").n == 4
    assert read_edge_list("# vertices of a path\n0 1\n1 3\n").n == 4
    # A count of anything but ASCII digits leaves the line a comment.
    for count in ("\u0663", "\uff13", "1_0", "+3"):
        assert read_edge_list(f"# vertices {count}\n0 1\n").n == 2, count


def test_edge_list_rejects():
    with pytest.raises(FormatError) as err:
        read_edge_list("0 1\n2 2\n")
    assert err.value.line == 2
    with pytest.raises(FormatError):
        read_edge_list("0 1\n1 0\n")
    with pytest.raises(FormatError):
        read_edge_list("0 1 2\n")
    with pytest.raises(FormatError):
        read_edge_list("0 -1\n")
    with pytest.raises(FormatError) as err:
        read_edge_list("0 1\n0 x\n")
    assert err.value.line == 2
    # Ids are ASCII integers: int() alone reads these as 10 and 3.
    for text in ("1_0 2\n", "0 \u0663\n", "0 \uff13\n"):
        with pytest.raises(FormatError, match="expected 'u v'") as err:
            read_edge_list(text)
        assert err.value.line == 1


def test_edge_list_comments_and_blanks():
    g = read_edge_list("# triangle\n0 1\n\n1 2\n0 2\n")
    assert g == complete(3)


def test_read_graph_text_sniffs_format():
    assert read_graph_text(K3_DIMACS) == complete(3)
    assert read_graph_text("0 1\n1 2\n0 2\n") == complete(3)
    assert read_graph_text("") == Graph.from_edges(0, [])
    assert read_graph_text("\n  \n" + K3_DIMACS) == complete(3)


def test_graph_id_stable_and_distinct():
    assert graph_id(cycle(5)) == graph_id(cycle(5))
    assert graph_id(cycle(5)) != graph_id(cycle(6))
    assert graph_id(cycle(5)).startswith("n5-m5-")


# Recorded from the joined-payload implementation that hashed
# "n;u,v;u,v..." in one string; the streamed hash must give the same ids.
@pytest.mark.parametrize("g,expected", [
    (Graph.from_edges(0, []), "n0-m0-f1ab6b1fa3e0"),
    (Graph.from_edges(3, []), "n3-m0-58a39c37238a"),
    (Graph.from_edges(3, [(1, 2)]), "n3-m1-a8241dfc7a40"),
    (cycle(5), "n5-m5-73c59e3901ad"),
    (kneser(7, 3), "n35-m70-cd6e3ce6a8b3"),
    (random_regular(20, 3, 0), "n20-m30-d99f9237024c"),
], ids=["n0", "edgeless3", "one_edge_late", "cycle5", "kneser7_3", "random_regular20_3"])
def test_graph_id_pinned(g, expected):
    assert graph_id(g) == expected


def test_coloring_json_round_trip():
    g = cycle(5)
    c = Coloring((0, 1, 2, 0, 1), 3)
    data = coloring_to_json_dict(g, c, [{"check": "dynamic", "violations": 2}])
    assert data["graph_id"] == graph_id(g)
    assert data["palette_size"] == 3
    back = coloring_from_json_dict(data)
    assert back == c
    with pytest.raises(FormatError):
        coloring_from_json_dict({"assignment": [0]})


@pytest.mark.parametrize(
    "assignment",
    ["0,1,0", 5, {"0": 0}, [0, 1.7, 0], [0, 1.0, 0], [0, True, 0], [0, "1", 0], [0, [1], 0]],
)
def test_coloring_record_rejects_non_integer_colors(assignment):
    with pytest.raises(FormatError):
        coloring_from_json_dict({"assignment": assignment, "palette_size": 3})


@pytest.mark.parametrize("palette", ["3", 3.5, 3.0, True, None])
def test_coloring_record_rejects_non_integer_palette(palette):
    with pytest.raises(FormatError):
        coloring_from_json_dict({"assignment": [0, 1, 0], "palette_size": palette})


def test_coloring_record_rejects_uncolored_vertices():
    with pytest.raises(FormatError, match="assignment must be a list of integers"):
        coloring_from_json_dict({"assignment": [0, None, 2], "palette_size": 3})
