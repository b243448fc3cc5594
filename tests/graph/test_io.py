"""Tests for EVL (.v/.e) file I/O."""

import re

import numpy as np
import pytest

from repro.exceptions import GraphFormatError
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph
from repro.graph.io import parse_edge_line, read_edge_list, read_graph, write_graph


class TestParseEdgeLine:
    def test_unweighted(self):
        assert parse_edge_line("3 5", weighted=False) == (3, 5, None)

    def test_weighted(self):
        src, dst, w = parse_edge_line("3 5 0.25", weighted=True)
        assert (src, dst) == (3, 5)
        assert w == pytest.approx(0.25)

    def test_wrong_field_count(self):
        with pytest.raises(GraphFormatError, match="expected 2 fields"):
            parse_edge_line("3 5 7", weighted=False)

    def test_missing_weight_field(self):
        with pytest.raises(GraphFormatError, match="expected 3 fields"):
            parse_edge_line("3 5", weighted=True)

    def test_non_integer_vertex(self):
        with pytest.raises(GraphFormatError):
            parse_edge_line("a b", weighted=False)


class TestRoundTrip:
    def test_unweighted_directed(self, tmp_path):
        g = erdos_renyi(40, 0.08, directed=True, seed=5)
        write_graph(g, tmp_path / "g")
        rt = read_graph(tmp_path / "g", directed=True)
        assert rt.num_vertices == g.num_vertices
        assert rt.num_edges == g.num_edges
        assert sorted(rt.edges()) == sorted(g.edges())

    def test_weighted_undirected(self, tmp_path):
        g = erdos_renyi(40, 0.08, weighted=True, seed=6)
        write_graph(g, tmp_path / "g")
        rt = read_graph(tmp_path / "g", directed=False, weighted=True)
        assert np.allclose(
            np.sort(rt.edge_weights), np.sort(g.edge_weights)
        )

    def test_weights_exact_repr(self, tmp_path):
        # repr-based serialization round-trips doubles bit-exactly.
        g = Graph.from_edges(
            [(0, 1)], directed=False, weights=[0.1234567890123456789]
        )
        write_graph(g, tmp_path / "g")
        rt = read_graph(tmp_path / "g", directed=False, weighted=True)
        assert rt.edge_weights[0] == g.edge_weights[0]

    def test_isolated_vertices_survive(self, tmp_path):
        g = Graph.from_edges([(0, 1)], directed=False, vertices=[0, 1, 9])
        write_graph(g, tmp_path / "g")
        rt = read_graph(tmp_path / "g", directed=False)
        assert rt.num_vertices == 3
        assert rt.has_vertex(9)

    def test_name_defaults_to_prefix(self, tmp_path):
        g = erdos_renyi(10, 0.3, seed=1)
        write_graph(g, tmp_path / "mygraph")
        rt = read_graph(tmp_path / "mygraph", directed=False)
        assert rt.name == "mygraph"


class TestReadValidation:
    def test_edge_referencing_unknown_vertex(self, tmp_path):
        (tmp_path / "g.v").write_text("0\n1\n")
        (tmp_path / "g.e").write_text("0 5\n")
        with pytest.raises(GraphFormatError, match="missing from"):
            read_graph(tmp_path / "g", directed=True)

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        (tmp_path / "g.v").write_text("# vertices\n0\n\n1\n")
        (tmp_path / "g.e").write_text("# edges\n\n0 1\n")
        g = read_graph(tmp_path / "g", directed=False)
        assert g.num_vertices == 2
        assert g.num_edges == 1

    def test_non_integer_vertex_line(self, tmp_path):
        (tmp_path / "g.v").write_text("zero\n")
        (tmp_path / "g.e").write_text("")
        with pytest.raises(GraphFormatError, match="vertex line 1"):
            read_graph(tmp_path / "g", directed=True)

    def test_duplicate_edge_in_file(self, tmp_path):
        (tmp_path / "g.v").write_text("0\n1\n")
        (tmp_path / "g.e").write_text("0 1\n0 1\n")
        with pytest.raises(GraphFormatError, match="duplicate"):
            read_graph(tmp_path / "g", directed=True)

    def test_read_edge_list_standalone(self, tmp_path):
        (tmp_path / "e.e").write_text("0 1\n2 3\n")
        edges, weights = read_edge_list(tmp_path / "e.e")
        assert edges == [(0, 1), (2, 3)]
        assert weights is None


def _files(tmp_path, vertices, edges):
    """Write ``g.v`` / ``g.e`` verbatim (bytes, so CR/LF stay as given)."""
    for suffix, text in ((".v", vertices), (".e", edges)):
        (tmp_path / f"g{suffix}").write_bytes(text.encode("ascii"))
    return tmp_path / "g"


class TestReaderRejections:
    """The data model and the messages naming its first violation."""

    def test_self_loop(self, tmp_path):
        prefix = _files(tmp_path, "0\n1\n", "0 1\n1 1\n")
        with pytest.raises(GraphFormatError, match=r"^self-loop on vertex 1 is not allowed$"):
            read_graph(prefix, directed=True)

    def test_reciprocal_duplicate_in_undirected_file(self, tmp_path):
        prefix = _files(tmp_path, "0\n1\n2\n", "0 1\n1 2\n1 0\n")
        with pytest.raises(GraphFormatError, match=r"^duplicate edge \(1,0\)$"):
            read_graph(prefix, directed=False)
        # Directed, the reverse is another edge.
        assert read_graph(prefix, directed=True).num_edges == 3

    def test_negative_vertex_id(self, tmp_path):
        prefix = _files(tmp_path, "0\n-3\nx\n", "")
        with pytest.raises(GraphFormatError, match=r"^vertex id must be non-negative, got -3$"):
            read_graph(prefix, directed=True)

    def test_negative_endpoint_is_missing(self, tmp_path):
        prefix = _files(tmp_path, "0\n1\n", "0 1\n-1 0\n")
        with pytest.raises(GraphFormatError, match=r"^edge \(-1,0\) references a vertex missing from g\.v$"):
            read_graph(prefix, directed=True)

    @pytest.mark.parametrize("token, shown", [
        ("nan", "nan"), ("NaN", "nan"), ("inf", "inf"), ("-inf", "-inf"),
        ("-0.5", "-0.5"), ("-1e-300", "-1e-300"),
    ])
    def test_invalid_weight(self, tmp_path, token, shown):
        prefix = _files(tmp_path, "0\n1\n2\n", f"0 1 0.5\n1 2 {token}\n")
        with pytest.raises(GraphFormatError, match=rf"^edge \(1,2\) has invalid weight {re.escape(shown)}$"):
            read_graph(prefix, directed=False, weighted=True)

    def test_negative_zero_weight_is_valid(self, tmp_path):
        prefix = _files(tmp_path, "0\n1\n", "0 1 -0.0\n")
        g = read_graph(prefix, directed=False, weighted=True)
        assert g.edge_weights.tobytes() == np.array([-0.0]).tobytes()

    def test_first_broken_edge_in_file_order(self, tmp_path):
        # Edge 3 is missing a vertex, edge 2 loops: the loop comes first.
        prefix = _files(tmp_path, "0\n1\n2\n", "0 1 1\n2 2 1\n0 9 1\n0 1 1\n")
        with pytest.raises(GraphFormatError, match="self-loop on vertex 2"):
            read_graph(prefix, directed=True, weighted=True)
        # On one edge, a missing vertex outranks its loop and weight.
        prefix = _files(tmp_path, "0\n1\n", "0 1 1\n7 7 nan\n")
        with pytest.raises(GraphFormatError, match="missing from"):
            read_graph(prefix, directed=True, weighted=True)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_bad_token_on_line_5000(self, tmp_path, newline):
        good = [f"{i} {i + 1}" for i in range(4999)]
        vertices = newline.join(str(i) for i in range(5001)) + newline
        prefix = _files(tmp_path, vertices, newline.join(good + ["12 x", "1"]) + newline)
        with pytest.raises(
            GraphFormatError,
            match=r"^edge line 5000: invalid literal for int\(\) with base 10: 'x'$",
        ):
            read_graph(prefix, directed=True)

    def test_wrong_field_count_names_line_and_text(self, tmp_path):
        prefix = _files(tmp_path, "0\n1\n2\n", "# header\n\n0 1\n1  2\t 7 \n2 x\n")
        with pytest.raises(
            GraphFormatError, match=r"^edge line 4: expected 2 fields, got 3: '1  2\\t 7'$"
        ):
            read_graph(prefix, directed=True)

    def test_bad_vertex_token_names_line(self, tmp_path):
        vertices = "\n".join(str(i) for i in range(4999)) + "\n4x\n-1\n"
        prefix = _files(tmp_path, vertices, "")
        with pytest.raises(
            GraphFormatError,
            match=r"^vertex line 5000: invalid literal for int\(\) with base 10: '4x'$",
        ):
            read_graph(prefix, directed=True)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_crlf_files(self, tmp_path, weighted):
        w = " 0.25" if weighted else ""
        prefix = _files(
            tmp_path, "# ids\r\n3\r\n1\r\n\r\n2\r\n",
            f"1 3{w}\r\n\r\n3 2{w}\r\n# done\r\n",
        )
        g = read_graph(prefix, directed=True, weighted=weighted)
        assert g.vertex_ids.tolist() == [1, 2, 3]
        assert sorted(g.edges()) == [(1, 3), (3, 2)]
        if weighted:
            assert g.edge_weights.tolist() == [0.25, 0.25]

    def test_duplicate_vertex_lines_are_one_vertex(self, tmp_path):
        prefix = _files(tmp_path, "5\n0\n5\n 0 \n9\n", "0 5\n")
        g = read_graph(prefix, directed=False)
        assert g.vertex_ids.tolist() == [0, 5, 9]
        assert g.num_edges == 1 and g.has_vertex(9)

    def test_whitespace_and_spellings_python_accepts(self, tmp_path):
        prefix = _files(tmp_path, "\t0\n+1\n0_2\n", "0\t+1  1e0\n 002 0 .5 \n")
        g = read_graph(prefix, directed=True, weighted=True)
        assert sorted(g.edges()) == [(0, 1), (2, 0)]
        assert sorted(g.edge_weights.tolist()) == [0.5, 1.0]

    def test_read_edge_list_gives_python_values(self, tmp_path):
        (tmp_path / "e.e").write_text("0 1 0.5\n\n2 3 2\n")
        edges, weights = read_edge_list(tmp_path / "e.e", weighted=True)
        assert edges == [(0, 1), (2, 3)] and weights == [0.5, 2.0]
        assert all(type(v) is int for edge in edges for v in edge)
        assert all(type(w) is float for w in weights)


class TestWriterBytes:
    def test_files_are_the_documented_text(self, tmp_path):
        g = Graph.from_edges(
            [(10, 2), (2, 7)], directed=True, weights=[0.1, 1e-7], vertices=[99]
        )
        write_graph(g, tmp_path / "g")
        assert (tmp_path / "g.v").read_bytes() == b"2\n7\n10\n99\n"
        assert (tmp_path / "g.e").read_bytes() == b"10 2 0.1\n2 7 1e-07\n"

    def test_empty_graph(self, tmp_path):
        g = Graph.from_edges([], directed=False)
        write_graph(g, tmp_path / "g")
        assert (tmp_path / "g.v").read_bytes() == b""
        assert (tmp_path / "g.e").read_bytes() == b""
        assert read_graph(tmp_path / "g", directed=False).num_vertices == 0
