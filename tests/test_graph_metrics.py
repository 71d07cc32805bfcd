"""Tests for repro.graph.metrics."""

import pytest

from repro.graph.metrics import (
    GraphSummary,
    degree_arrays,
    path_length_sample,
    summarize_graph,
)
from repro.graph import FollowGraph


def cycle_graph(n: int) -> FollowGraph:
    g = FollowGraph()
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


class TestDegreeArrays:
    def test_cycle_degrees(self):
        out_deg, in_deg = degree_arrays(cycle_graph(5))
        assert out_deg.tolist() == [1] * 5
        assert in_deg.tolist() == [1] * 5

    def test_star_degrees(self):
        g = FollowGraph()
        for leaf in range(1, 5):
            g.add_edge(0, leaf)
        out_deg, in_deg = degree_arrays(g)
        assert out_deg.max() == 4
        assert in_deg.max() == 1


class TestPathLengthSample:
    def test_full_coverage_when_small(self):
        # Sampling more sources than nodes means exact counts.
        counts = path_length_sample(cycle_graph(4), sample_size=100)
        # In a 4-cycle each source reaches 3 nodes at distances 1, 2, 3.
        assert counts == {1: 4, 2: 4, 3: 4}

    def test_empty_graph(self):
        assert path_length_sample(FollowGraph()) == {}

    def test_deterministic_under_seed(self):
        g = cycle_graph(30)
        a = path_length_sample(g, sample_size=5, seed=1)
        b = path_length_sample(g, sample_size=5, seed=1)
        assert a == b

    def test_no_zero_distance(self):
        counts = path_length_sample(cycle_graph(6))
        assert 0 not in counts


class TestSummarizeGraph:
    def test_cycle_summary(self):
        summary = summarize_graph(cycle_graph(6), sample_size=10)
        assert summary.node_count == 6
        assert summary.edge_count == 6
        assert summary.mean_out_degree == pytest.approx(1.0)
        assert summary.diameter == 5
        assert summary.mean_path_length == pytest.approx(3.0)

    def test_empty_graph_summary(self):
        summary = summarize_graph(FollowGraph())
        assert summary.node_count == 0
        assert summary.diameter == 0

    def test_edgeless_graph(self):
        g = FollowGraph()
        g.add_nodes(range(4))
        summary = summarize_graph(g)
        assert summary.mean_path_length == 0.0
        assert summary.max_out_degree == 0

    def test_rows_order_matches_table1(self):
        summary = summarize_graph(cycle_graph(4), sample_size=10)
        labels = [label for label, _ in summary.rows()]
        assert labels == [
            "# nodes",
            "# edges",
            "avg. out-deg.",
            "avg. in-deg.",
            "max out-deg.",
            "max in-deg.",
            "diameter",
            "avg. path length",
        ]

    def test_summary_is_frozen(self):
        summary = summarize_graph(cycle_graph(3), sample_size=5)
        with pytest.raises(AttributeError):
            summary.node_count = 7  # type: ignore[misc]


class TestOnSyntheticGraph:
    def test_small_world_shape(self, small_dataset):
        """The generated follow graph must be small-world (paper Table 1)."""
        summary = summarize_graph(small_dataset.follow_graph, sample_size=60)
        assert summary.node_count == 400
        # Mean shortest path well below log-scale bound, diameter modest.
        assert 1.5 < summary.mean_path_length < 6.0
        assert summary.diameter <= 15

    def test_heavy_tailed_degrees(self, small_dataset):
        out_deg, in_deg = degree_arrays(small_dataset.follow_graph)
        # Max degree far above the mean in both directions.
        assert out_deg.max() > 4 * out_deg.mean()
        assert in_deg.max() > 3 * in_deg.mean()
