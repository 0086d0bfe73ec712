"""Unit tests for graph IO (SNAP edge lists and labelled JSON)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GraphBuildError
from repro.graph.builders import from_edges
from repro.graph.edgelist import EdgeListGraph
from repro.graph.io import (
    iter_edge_blocks,
    read_edge_list,
    read_edge_list_streamed,
    read_labeled_json,
    write_edge_list,
    write_labeled_json,
)
from oracles import read_edge_list_reference

READERS = (read_edge_list_reference, read_edge_list)
"""The per-line oracle parser and the chunked reader: every file-format
rule must hold for both."""


class TestEdgeList:
    def test_roundtrip_preserves_structure(self, tmp_path):
        # read_edge_list remaps ids to first-seen order, so the round trip is
        # exact up to an isomorphism: sizes and degree sequences must match.
        graph = from_edges([(0, 1), (2, 1), (1, 3)], n=4, name="roundtrip")
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path)
        loaded = read_edge_list(path)
        assert loaded.num_vertices == graph.num_vertices
        assert loaded.num_edges == graph.num_edges
        original_degrees = sorted(
            (graph.in_degree(v), graph.out_degree(v)) for v in graph.vertices()
        )
        loaded_degrees = sorted(
            (loaded.in_degree(v), loaded.out_degree(v)) for v in loaded.vertices()
        )
        assert original_degrees == loaded_degrees

    def test_roundtrip_identity_when_ids_seen_in_order(self, tmp_path):
        graph = from_edges([(0, 1), (1, 2), (2, 3)], n=4)
        path = tmp_path / "ordered.txt"
        write_edge_list(graph, path)
        loaded = read_edge_list(path)
        assert sorted(loaded.edges()) == sorted(graph.edges())

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("# a comment\n\n0 1\n5 1\n# another\n1 2\n")
        graph = read_edge_list(path)
        assert graph.num_vertices == 4  # ids remapped densely: 0,1,5,2
        assert graph.num_edges == 3

    def test_non_contiguous_ids_are_remapped(self, tmp_path):
        path = tmp_path / "sparse_ids.txt"
        path.write_text("100 200\n300 200\n")
        graph = read_edge_list(path)
        assert graph.num_vertices == 3
        assert max(v for edge in graph.edges() for v in edge) == 2

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("0 1\njust-one-token\n")
        with pytest.raises(GraphBuildError):
            read_edge_list(path)

    def test_header_written(self, tmp_path):
        graph = from_edges([(0, 1)], n=2, name="header-test")
        path = tmp_path / "with_header.txt"
        write_edge_list(graph, path, header=True)
        content = path.read_text()
        assert content.startswith("#")
        assert "Nodes: 2" in content

    def test_trailing_inline_comments_tolerated(self, tmp_path):
        path = tmp_path / "inline.txt"
        path.write_text("0 1  # resolved redirect\n1 2\n2 0 # cycle closes\n")
        for read in READERS:
            graph = read(path)
            assert graph.num_vertices == 3
            assert sorted(graph.edges()) == [(0, 1), (1, 2), (2, 0)]

    def test_blank_or_comment_only_file_raises_clearly(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# header only\n\n   \n# nothing else\n")
        for read in READERS:
            with pytest.raises(GraphBuildError, match="no edges"):
                read(path)
        with pytest.raises(GraphBuildError, match="no edges"):
            read_edge_list_streamed(path)

    def test_engines_parse_identically_across_blocks(self, tmp_path):
        # Duplicate edges, self-loops, shuffled ids, comments — with a block
        # size small enough that the chunked engine crosses many boundaries.
        lines = ["# header"]
        rng = np.random.default_rng(5)
        for _ in range(100):
            lines.append(f"{rng.integers(0, 40)*7} {rng.integers(0, 40)*7}")
        lines.insert(50, "")
        lines.insert(20, "# mid-file comment")
        path = tmp_path / "blocks.txt"
        path.write_text("\n".join(lines) + "\n")
        reference = read_edge_list_reference(path)
        chunked = read_edge_list(path, block_lines=7)
        assert chunked.num_vertices == reference.num_vertices
        assert sorted(chunked.edges()) == sorted(reference.edges())

    def test_extra_tokens_beyond_two_are_ignored(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("0 1 0.5\n1 2 0.25 extra\n")
        for read in READERS:
            graph = read(path)
            assert sorted(graph.edges()) == [(0, 1), (1, 2)]

    def test_non_integer_token_raises(self, tmp_path):
        path = tmp_path / "alpha.txt"
        path.write_text("0 1\nfoo bar\n")
        for read in READERS:
            with pytest.raises((GraphBuildError, ValueError)):
                read(path)

    def test_unknown_engine_rejected(self, tmp_path):
        # The reader has one parse path; an engine choice is refused loudly
        # rather than silently ignored.
        path = tmp_path / "any.txt"
        path.write_text("0 1\n")
        with pytest.raises(TypeError, match="engine"):
            read_edge_list(path, engine="imaginary")


class TestStreamedReader:
    def test_returns_edge_list_graph_with_identical_structure(self, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_text("# c\n10 20\n30 20\n10 20\n20 10\n5 5\n")
        streamed = read_edge_list_streamed(path)
        assert isinstance(streamed, EdgeListGraph)
        # Duplicates kept verbatim; ids remapped first-seen like the DiGraph
        # reader (10->0, 20->1, 30->2, 5->3).
        assert streamed.num_vertices == 4
        assert list(streamed.edges()) == [(0, 1), (2, 1), (0, 1), (1, 0), (3, 3)]
        reference = read_edge_list_reference(path)
        assert streamed.to_digraph() == reference

    def test_block_size_is_invisible(self, tmp_path):
        path = tmp_path / "blocks.txt"
        path.write_text("\n".join(f"{i % 13} {(i * 3) % 13}" for i in range(50)))
        whole = read_edge_list_streamed(path)
        chunked = read_edge_list_streamed(path, block_lines=3)
        assert whole.num_vertices == chunked.num_vertices
        for left, right in zip(whole.edge_arrays(), chunked.edge_arrays()):
            assert np.array_equal(left, right)


class TestIterEdgeBlocks:
    def test_blocks_concatenate_to_file_order(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("5 6\n7 8\n5 6\n9 5\n")
        blocks = list(iter_edge_blocks(path, block_lines=2))
        assert len(blocks) == 2
        stacked = np.concatenate(blocks, axis=0)
        assert stacked.tolist() == [[5, 6], [7, 8], [5, 6], [9, 5]]

    def test_invalid_block_size_rejected(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("0 1\n")
        with pytest.raises(GraphBuildError):
            list(iter_edge_blocks(path, block_lines=0))

    def test_malformed_line_reports_its_number(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("0 1\n0 2\n0 3\njust-one-token\n")
        with pytest.raises(GraphBuildError, match=":4"):
            list(iter_edge_blocks(path, block_lines=3))


class TestLabeledJson:
    def test_roundtrip_with_labels(self, tmp_path):
        graph = from_edges([("alice", "bob"), ("carol", "bob")], name="people")
        path = tmp_path / "graph.json"
        write_labeled_json(graph, path)
        loaded = read_labeled_json(path)
        assert loaded.num_vertices == 3
        assert loaded.name == "people"
        assert loaded.in_degree(loaded.index_of("bob")) == 2

    def test_roundtrip_without_labels(self, tmp_path):
        graph = from_edges([(0, 1), (1, 2)], n=3)
        path = tmp_path / "plain.json"
        write_labeled_json(graph, path)
        loaded = read_labeled_json(path)
        assert sorted(loaded.edges()) == sorted(graph.edges())
        assert not loaded.has_labels

    def test_malformed_document_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x"}')
        with pytest.raises(GraphBuildError):
            read_labeled_json(path)
