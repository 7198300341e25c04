"""Unit tests for signed edge-list parsing and writing."""

import io

import pytest

from repro.exceptions import ParseError
from repro.graphs import NEGATIVE, POSITIVE
from repro.io import (
    iter_signed_edges,
    read_signed_edgelist,
    read_signed_edgelist_string,
    write_signed_edgelist,
)


SNAP_SAMPLE = """\
# Directed graph: soc-sign-sample
# FromNodeId ToNodeId Sign
0 1 1
0 2 -1
2 3 1
"""

KONECT_SAMPLE = """\
% sym signed
1 2 1
2 3 -2.5
"""


class TestParsing:
    def test_snap_style(self):
        graph = read_signed_edgelist_string(SNAP_SAMPLE)
        assert graph.number_of_edges() == 3
        assert graph.sign(0, 2) == NEGATIVE
        assert graph.sign(2, 3) == POSITIVE

    def test_konect_style_weights_take_sign(self):
        graph = read_signed_edgelist_string(KONECT_SAMPLE)
        assert graph.sign(1, 2) == POSITIVE
        assert graph.sign(2, 3) == NEGATIVE

    def test_plus_minus_tokens(self):
        graph = read_signed_edgelist_string("a b +\nb c -\n")
        assert graph.sign("a", "b") == POSITIVE
        assert graph.sign("b", "c") == NEGATIVE

    def test_blank_lines_and_comments_skipped(self):
        graph = read_signed_edgelist_string("\n# c\n% c\n1 2 1\n\n")
        assert graph.number_of_edges() == 1

    def test_self_loops_skipped(self):
        graph = read_signed_edgelist_string("1 1 1\n1 2 1\n")
        assert graph.number_of_edges() == 1

    def test_numeric_nodes_become_ints(self):
        graph = read_signed_edgelist_string("007 8 1\n")
        assert graph.has_edge(7, 8)

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ParseError) as info:
            list(iter_signed_edges(["1 2 1", "3 4"]))
        assert info.value.line_number == 2

    def test_unparseable_sign(self):
        with pytest.raises(ParseError):
            list(iter_signed_edges(["1 2 maybe"]))

    def test_zero_weight_rejected(self):
        with pytest.raises(ParseError):
            list(iter_signed_edges(["1 2 0"]))

    def test_duplicate_policy_last(self):
        graph = read_signed_edgelist_string("1 2 1\n2 1 -1\n", on_duplicate="last")
        assert graph.sign(1, 2) == NEGATIVE

    def test_duplicate_policy_majority(self):
        text = "1 2 1\n2 1 1\n1 2 -1\n"
        graph = read_signed_edgelist_string(text, on_duplicate="majority")
        assert graph.sign(1, 2) == POSITIVE


class TestRoundTrip:
    def test_path_round_trip(self, tmp_path, paper_graph):
        path = tmp_path / "graph.txt"
        write_signed_edgelist(paper_graph, path, header="toy graph\nsecond line")
        text = path.read_text()
        assert text.startswith("# toy graph\n# second line\n")
        loaded = read_signed_edgelist(path)
        assert loaded == paper_graph

    def test_stream_round_trip(self, paper_graph):
        buffer = io.StringIO()
        write_signed_edgelist(paper_graph, buffer)
        loaded = read_signed_edgelist_string(buffer.getvalue())
        assert loaded == paper_graph

    def test_write_is_deterministic(self, paper_graph):
        first, second = io.StringIO(), io.StringIO()
        write_signed_edgelist(paper_graph, first)
        write_signed_edgelist(paper_graph.copy(), second)
        assert first.getvalue() == second.getvalue()


class TestSignEdgeCases:
    def test_nan_weight_rejected(self):
        with pytest.raises(ParseError):
            list(iter_signed_edges(["1 2 nan"]))

    def test_infinite_weight_takes_sign(self):
        edges = list(iter_signed_edges(["1 2 inf", "3 4 -inf"]))
        assert edges == [(1, 2, 1), (3, 4, -1)]

    def test_extra_columns_ignored(self):
        edges = list(iter_signed_edges(["1 2 -1 1380000000"]))  # KONECT timestamps
        assert edges == [(1, 2, -1)]


class TestGzipSupport:
    def test_gz_round_trip(self, tmp_path, paper_graph):
        path = tmp_path / "graph.txt.gz"
        write_signed_edgelist(paper_graph, path)
        import gzip

        with gzip.open(path, "rt") as handle:
            assert "1 2 1" in handle.read()
        assert read_signed_edgelist(path) == paper_graph


class TestUndecodableInput:
    def test_binary_file_raises_parse_error_naming_line_one(self, tmp_path):
        path = tmp_path / "graph.bin"
        path.write_bytes(b"\xff\xfe1\x00 \x002\x00")
        with pytest.raises(ParseError, match="not UTF-8") as info:
            read_signed_edgelist(path)
        assert info.value.line_number == 1
        assert str(info.value).startswith("line 1:")

    def test_bad_byte_past_the_first_chunk_names_its_line(self, tmp_path):
        # 3,000 valid lines (well past one decode chunk), then a bad byte.
        valid = b"".join(b"%d %d 1\n" % (i, i + 1) for i in range(3000))
        path = tmp_path / "graph.txt"
        path.write_bytes(valid + b"7 \xe9 1\n8 9 1\n")
        with pytest.raises(ParseError) as info:
            read_signed_edgelist(path)
        assert info.value.line_number == 3001

    def test_gzipped_binary_raises_parse_error(self, tmp_path):
        import gzip

        path = tmp_path / "graph.txt.gz"
        with gzip.open(path, "wb") as handle:
            handle.write(b"1 2 1\n\x80\x81 3 -1\n")
        with pytest.raises(ParseError) as info:
            read_signed_edgelist(path)
        assert info.value.line_number == 2
