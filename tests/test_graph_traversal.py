"""Tests for the dict BFS oracle (tests/test_graph_oracle.py), cross-checked
against networkx."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from tests.test_graph_oracle import (
    DiGraph,
    bfs_distances,
    k_hop_neighborhood,
    shortest_path_length,
)



def path_graph(n: int) -> DiGraph:
    g = DiGraph()
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


class TestBfsDistances:
    def test_source_at_zero(self):
        g = path_graph(4)
        assert bfs_distances(g, 0)[0] == 0

    def test_distances_on_path(self):
        g = path_graph(4)
        assert bfs_distances(g, 0) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_respects_direction(self):
        g = path_graph(4)
        assert bfs_distances(g, 3) == {3: 0}

    def test_max_depth_bounds_exploration(self):
        g = path_graph(10)
        distances = bfs_distances(g, 0, max_depth=3)
        assert max(distances.values()) == 3
        assert len(distances) == 4

    def test_custom_neighbors_walks_backwards(self):
        g = path_graph(4)
        distances = bfs_distances(g, 3, neighbors=g.predecessors)
        assert distances == {3: 0, 2: 1, 1: 2, 0: 3}

    def test_branching(self):
        g = DiGraph()
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        g.add_edge(1, 3)
        g.add_edge(2, 3)
        assert bfs_distances(g, 0)[3] == 2


class TestKHopNeighborhood:
    def test_two_hop_is_paper_n2(self):
        # 0 follows 1; 1 follows 2; 2 follows 3. N2(0) = {1, 2}.
        g = path_graph(4)
        assert k_hop_neighborhood(g, 0, 2) == {1, 2}

    def test_excludes_source_by_default(self):
        g = path_graph(3)
        assert 0 not in k_hop_neighborhood(g, 0, 2)

    def test_include_source(self):
        g = path_graph(3)
        assert 0 in k_hop_neighborhood(g, 0, 2, include_source=True)

    def test_zero_hops_empty(self):
        g = path_graph(3)
        assert k_hop_neighborhood(g, 0, 0) == set()

    def test_negative_hops_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            k_hop_neighborhood(g, 0, -1)


class TestShortestPathLength:
    def test_same_node(self):
        g = path_graph(2)
        assert shortest_path_length(g, 0, 0) == 0

    def test_direct_edge(self):
        g = path_graph(3)
        assert shortest_path_length(g, 0, 1) == 1

    def test_long_path(self):
        g = path_graph(8)
        assert shortest_path_length(g, 0, 7) == 7

    def test_unreachable_returns_none(self):
        g = path_graph(3)
        assert shortest_path_length(g, 2, 0) is None

    def test_disconnected_components(self):
        g = DiGraph()
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        assert shortest_path_length(g, 0, 3) is None

    def test_shortcut_preferred(self):
        g = path_graph(5)
        g.add_edge(0, 3)
        assert shortest_path_length(g, 0, 4) == 2


@st.composite
def random_digraph(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=40,
        )
    )
    return n, edges


@settings(max_examples=60)
@given(random_digraph())
def test_shortest_path_matches_networkx(data):
    """Property: bidirectional BFS agrees with the networkx oracle."""
    n, edges = data
    ours = DiGraph()
    ours.add_nodes(range(n))
    theirs = nx.DiGraph()
    theirs.add_nodes_from(range(n))
    for u, v in edges:
        ours.add_edge(u, v)
        theirs.add_edge(u, v)
    for source in range(n):
        expected = nx.single_source_shortest_path_length(theirs, source)
        for target in range(n):
            got = shortest_path_length(ours, source, target)
            assert got == expected.get(target)


@settings(max_examples=60)
@given(random_digraph())
def test_bfs_distances_match_networkx(data):
    """Property: full BFS distance maps agree with networkx."""
    n, edges = data
    ours = DiGraph()
    ours.add_nodes(range(n))
    theirs = nx.DiGraph()
    theirs.add_nodes_from(range(n))
    for u, v in edges:
        ours.add_edge(u, v)
        theirs.add_edge(u, v)
    for source in range(n):
        assert bfs_distances(ours, source) == dict(
            nx.single_source_shortest_path_length(theirs, source)
        )
