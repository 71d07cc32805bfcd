"""Tests for repro.core.persistence (SimGraph snapshots).

``save_simgraph`` writes format 2; the format-1 reader is exercised
through the test suite's own writer, :func:`save_v1`."""

import json

import pytest

from repro.core.persistence import load_simgraph, save_simgraph
from repro.core.simgraph import SimGraph
from repro.exceptions import DatasetError
from tests.test_graph_oracle import DiGraph, to_digraph
from tests.test_simgraph_oracle import save_v1, simgraph_of


class TestRoundTrip:
    def test_paper_example_round_trip(self, paper_example, tmp_path):
        path = save_simgraph(paper_example, tmp_path / "graph.simgraph")
        loaded = load_simgraph(path)
        assert loaded.tau == paper_example.tau
        assert sorted(to_digraph(loaded).edges()) == sorted(
            to_digraph(paper_example).edges()
        )

    def test_isolated_nodes_preserved(self, tmp_path):
        graph = DiGraph()
        graph.add_edge(1, 2, weight=0.5)
        graph.add_node(99)
        simgraph = simgraph_of(graph, tau=0.01)
        loaded = load_simgraph(save_simgraph(simgraph, tmp_path / "g.simgraph"))
        assert 99 in loaded
        assert loaded.node_count == 3

    def test_empty_graph(self, tmp_path):
        simgraph = SimGraph.from_edges((), (), (), tau=0.1)
        loaded = load_simgraph(save_simgraph(simgraph, tmp_path / "g.simgraph"))
        assert loaded.node_count == 0
        assert loaded.tau == 0.1

    def test_propagation_identical_after_reload(self, paper_example, tmp_path):
        from repro.core.propagation import PropagationEngine

        loaded = load_simgraph(
            save_simgraph(paper_example, tmp_path / "g.simgraph")
        )
        original = PropagationEngine(paper_example).propagate([3])
        reloaded = PropagationEngine(loaded).propagate([3])
        assert original.probabilities == pytest.approx(reloaded.probabilities)

    def test_creates_parent_directories(self, paper_example, tmp_path):
        path = save_simgraph(paper_example, tmp_path / "deep" / "g.simgraph")
        assert path.exists()


class TestErrors:
    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            load_simgraph(tmp_path / "nope.jsonl")

    def test_invalid_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(DatasetError, match="invalid header"):
            load_simgraph(path)

    def test_wrong_format_rejected(self, paper_example, tmp_path):
        path = save_v1(paper_example, tmp_path / "g.jsonl")
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["format"] = 999
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="unsupported format"):
            load_simgraph(path)

    def test_malformed_edge_rejected(self, paper_example, tmp_path):
        path = save_v1(paper_example, tmp_path / "g.jsonl")
        with open(path, "a", encoding="utf-8") as f:
            f.write("[1, 2]\n")  # missing weight
        with pytest.raises(DatasetError, match="malformed edge"):
            load_simgraph(path)

    @pytest.mark.parametrize(
        "edge, match",
        [("[1, 1, 0.5]", "self-loop"), ("DUP", "duplicate edge")],
    )
    def test_v1_edge_a_dict_could_not_hold_rejected(
        self, paper_example, tmp_path, edge, match
    ):
        path = save_v1(paper_example, tmp_path / "g.jsonl")
        lines = path.read_text().splitlines()
        lines.append(lines[1] if edge == "DUP" else edge)
        header = json.loads(lines[0])
        header["edges"] += 1
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match=match):
            load_simgraph(path)

    def test_count_mismatch_rejected(self, paper_example, tmp_path):
        path = save_v1(paper_example, tmp_path / "g.jsonl")
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["edges"] += 1
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="disagree"):
            load_simgraph(path)

    def test_non_snapshot_json_rejected(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text(json.dumps({"something": "else"}) + "\n")
        with pytest.raises(DatasetError, match="not a SimGraph snapshot"):
            load_simgraph(path)
