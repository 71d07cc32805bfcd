"""Tests for repro.graph.generators."""

import numpy as np
import pytest

from repro.exceptions import ConfigError
from repro.graph.generators import community_preferential_graph
from tests.test_graph_oracle import follow_pairs


class TestValidation:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            community_preferential_graph([1, 2], [0], seed=0)

    def test_bias_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            community_preferential_graph([1], [0], community_bias=1.5, seed=0)

    def test_trivial_sizes(self):
        g = community_preferential_graph([], [], seed=0)
        assert g.node_count == 0
        g = community_preferential_graph([3], [0], seed=0)
        assert g.node_count == 1
        assert g.edge_count == 0  # no valid target exists


class TestStructure:
    def test_all_nodes_present(self):
        g = community_preferential_graph([2] * 50, [0] * 50, seed=1)
        assert g.node_count == 50

    def test_no_self_loops_or_duplicates(self):
        g = community_preferential_graph([5] * 40, [i % 4 for i in range(40)],
                                         seed=2)
        seen = set()
        for u, v in follow_pairs(g):
            assert u != v
            assert (u, v) not in seen
            seen.add((u, v))

    def test_out_degrees_close_to_target(self):
        degrees = [4] * 60
        g = community_preferential_graph(degrees, [0] * 60, seed=3)
        realized = [len(g.successors(n)) for n in g.nodes()]
        # Resampling may drop a few edges but most targets are met.
        assert sum(realized) >= 0.9 * sum(degrees)

    def test_deterministic_under_seed(self):
        args = ([3] * 30, [i % 3 for i in range(30)])
        a = community_preferential_graph(*args, seed=7)
        b = community_preferential_graph(*args, seed=7)
        assert sorted(follow_pairs(a)) == sorted(follow_pairs(b))

    def test_different_seeds_differ(self):
        args = ([3] * 30, [i % 3 for i in range(30)])
        a = community_preferential_graph(*args, seed=1)
        b = community_preferential_graph(*args, seed=2)
        assert sorted(follow_pairs(a)) != sorted(follow_pairs(b))


class TestHomophilyAndTail:
    def test_community_bias_concentrates_edges(self):
        n = 200
        communities = [i % 4 for i in range(n)]
        degrees = [5] * n
        biased = community_preferential_graph(
            degrees, communities, community_bias=0.9, seed=5
        )
        uniform = community_preferential_graph(
            degrees, communities, community_bias=0.0, seed=5
        )

        def internal_fraction(g):
            internal = sum(
                1 for u, v in follow_pairs(g) if communities[u] == communities[v]
            )
            return internal / max(g.edge_count, 1)

        assert internal_fraction(biased) > internal_fraction(uniform) + 0.3

    def test_preferential_attachment_skews_in_degree(self):
        n = 300
        g = community_preferential_graph([4] * n, [0] * n, seed=6)
        in_degrees = np.array([len(g.predecessors(v)) for v in g.nodes()])
        # Preferential attachment: the hub collects far more than the mean.
        assert in_degrees.max() >= 3 * in_degrees.mean()
