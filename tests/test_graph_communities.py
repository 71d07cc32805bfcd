"""Tests for repro.graph.communities."""

import numpy as np
import pytest

from repro.graph import FollowGraph
from repro.graph.communities import label_propagation_communities, modularity
from tests.test_graph_oracle import follow_pairs


def two_cliques(bridge: bool = True) -> FollowGraph:
    """Two directed 4-cliques, optionally connected by a single edge."""
    g = FollowGraph()
    for base in (0, 10):
        members = [base + i for i in range(4)]
        for u in members:
            for v in members:
                if u != v:
                    g.add_edge(u, v)
    if bridge:
        g.add_edge(0, 10)
    return g


def planted_partition(
    n_blocks: int = 4, size: int = 30, p_in: float = 0.3,
    p_cross: float = 0.01, seed: int = 3,
) -> tuple[FollowGraph, np.ndarray]:
    """Dense random blocks joined by sparse cross edges, and each node's
    block."""
    rng = np.random.default_rng(seed)
    blocks = np.repeat(np.arange(n_blocks), size)
    same = blocks[:, None] == blocks[None, :]
    follows = rng.random((len(blocks), len(blocks))) < np.where(same, p_in, p_cross)
    np.fill_diagonal(follows, False)
    g = FollowGraph()
    g.add_nodes(range(len(blocks)))
    g.add_edges(*np.nonzero(follows))
    return g, blocks


class TestLabelPropagation:
    @pytest.mark.parametrize("seed", range(12))
    def test_planted_blocks_recovered_for_every_seed(self, seed):
        """A partition the graph states plainly is found from any start
        order: one label per block, a different one for each block."""
        g, blocks = planted_partition()
        assert g.edge_count > 0
        labels = label_propagation_communities(g, seed=seed)
        found = np.array([labels[node] for node in range(len(blocks))])
        pairs = set(zip(blocks.tolist(), found.tolist()))
        assert len(pairs) == len(set(blocks.tolist())) == len(set(found.tolist()))

    def test_two_cliques_separated(self):
        labels = label_propagation_communities(two_cliques(), seed=0)
        first = {labels[i] for i in range(4)}
        second = {labels[10 + i] for i in range(4)}
        assert len(first) == 1
        assert len(second) == 1
        assert first != second

    def test_labels_dense_from_zero(self):
        labels = label_propagation_communities(two_cliques(), seed=0)
        values = set(labels.values())
        assert values == set(range(len(values)))

    def test_largest_community_is_label_zero(self):
        g = two_cliques(bridge=False)
        g.add_edge(20, 21)  # a tiny 2-node community
        g.add_edge(21, 20)
        labels = label_propagation_communities(g, seed=0)
        sizes = {}
        for label in labels.values():
            sizes[label] = sizes.get(label, 0) + 1
        assert sizes[0] == max(sizes.values())

    def test_isolated_nodes_keep_own_community(self):
        g = FollowGraph()
        g.add_nodes([1, 2, 3])
        labels = label_propagation_communities(g, seed=0)
        assert len(set(labels.values())) == 3

    def test_empty_graph(self):
        assert label_propagation_communities(FollowGraph(), seed=0) == {}

    def test_deterministic_under_seed(self):
        g = two_cliques()
        a = label_propagation_communities(g, seed=5)
        b = label_propagation_communities(g, seed=5)
        assert a == b

    def test_recovers_planted_communities(self, small_dataset):
        """On the synthetic follow graph, detected communities must align
        with the generator's planted ones better than chance."""
        labels = label_propagation_communities(
            small_dataset.follow_graph, seed=0
        )
        planted = {u.id: u.community for u in small_dataset.users.values()}
        # Agreement measured as the fraction of co-community pairs of the
        # detected partition that are also co-community in the planted
        # one, over a sample of edges.
        agree = total = 0
        for u, v in follow_pairs(small_dataset.follow_graph):
            if labels[u] == labels[v]:
                total += 1
                if planted[u] == planted[v]:
                    agree += 1
        if total:
            assert agree / total > 0.5


class TestModularity:
    def test_good_partition_positive(self):
        g = two_cliques()
        labels = {i: 0 for i in range(4)}
        labels.update({10 + i: 1 for i in range(4)})
        assert modularity(g, labels) > 0.3

    def test_single_community_zero(self):
        g = two_cliques()
        labels = {node: 0 for node in g.nodes()}
        assert modularity(g, labels) == pytest.approx(0.0, abs=1e-9)

    def test_empty_graph_zero(self):
        assert modularity(FollowGraph(), {}) == 0.0

    def test_detected_beats_random(self, small_dataset):
        import numpy as np

        g = small_dataset.follow_graph
        detected = label_propagation_communities(g, seed=0)
        rng = np.random.default_rng(0)
        n_labels = max(len(set(detected.values())), 2)
        random_labels = {
            node: int(rng.integers(n_labels)) for node in g.nodes()
        }
        assert modularity(g, detected) > modularity(g, random_labels)
