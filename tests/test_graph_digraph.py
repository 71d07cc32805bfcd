"""Tests for the dict-of-sets DiGraph oracle (tests/test_graph_oracle.py)."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import GraphError
from tests.test_graph_oracle import DiGraph


def build_triangle() -> DiGraph:
    g = DiGraph()
    g.add_edge(0, 1, weight=0.5)
    g.add_edge(1, 2, weight=0.7)
    g.add_edge(2, 0, weight=0.9)
    return g


class TestConstruction:
    def test_add_node_idempotent(self):
        g = DiGraph()
        g.add_node(1)
        g.add_node(1)
        assert g.node_count == 1

    def test_add_edge_creates_endpoints(self):
        g = DiGraph()
        g.add_edge(1, 2)
        assert 1 in g and 2 in g
        assert g.edge_count == 1

    def test_readd_edge_overwrites_weight(self):
        g = DiGraph()
        g.add_edge(1, 2, weight=0.1)
        g.add_edge(1, 2, weight=0.9)
        assert g.edge_count == 1
        assert g.weight(1, 2) == 0.9

    def test_self_loop_rejected(self):
        g = DiGraph()
        with pytest.raises(GraphError):
            g.add_edge(1, 1)

    def test_add_nodes_bulk(self):
        g = DiGraph()
        g.add_nodes(range(5))
        assert g.node_count == 5


class TestRemoval:
    def test_remove_edge(self):
        g = build_triangle()
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.edge_count == 2
        assert 0 not in set(g.predecessors(1))

    def test_remove_missing_edge_rejected(self):
        g = DiGraph()
        g.add_node(1)
        g.add_node(2)
        with pytest.raises(GraphError):
            g.remove_edge(1, 2)

    def test_remove_node_cleans_incident_edges(self):
        g = build_triangle()
        g.remove_node(1)
        assert g.node_count == 2
        assert g.edge_count == 1  # only 2 -> 0 survives
        assert g.has_edge(2, 0)

    def test_remove_missing_node_rejected(self):
        with pytest.raises(GraphError):
            DiGraph().remove_node(7)


class TestQueries:
    def test_directionality(self):
        g = DiGraph()
        g.add_edge(1, 2)
        assert list(g.successors(1)) == [2]
        assert list(g.successors(2)) == []
        assert list(g.predecessors(2)) == [1]
        assert list(g.predecessors(1)) == []

    def test_degrees(self):
        g = build_triangle()
        for node in range(3):
            assert g.out_degree(node) == 1
            assert g.in_degree(node) == 1

    def test_weight_missing_edge_rejected(self):
        g = build_triangle()
        with pytest.raises(GraphError):
            g.weight(0, 2)

    def test_unknown_node_rejected(self):
        g = DiGraph()
        with pytest.raises(GraphError):
            g.out_degree(3)
        with pytest.raises(GraphError):
            list(g.successors(3))

    def test_out_edges_with_weights(self):
        g = build_triangle()
        assert list(g.out_edges(0)) == [(1, 0.5)]

    def test_edges_iterates_all(self):
        g = build_triangle()
        assert sorted(g.edges()) == [(0, 1, 0.5), (1, 2, 0.7), (2, 0, 0.9)]

    def test_len_is_node_count(self):
        assert len(build_triangle()) == 3


class TestDerivedGraphs:
    def test_subgraph_keeps_internal_edges(self):
        g = build_triangle()
        sub = g.subgraph([0, 1])
        assert sub.node_count == 2
        assert sub.has_edge(0, 1)
        assert not sub.has_edge(1, 2)

    def test_subgraph_preserves_weights(self):
        g = build_triangle()
        assert g.subgraph([0, 1]).weight(0, 1) == 0.5

    def test_subgraph_ignores_unknown_nodes(self):
        g = build_triangle()
        sub = g.subgraph([0, 99])
        assert sub.node_count == 1

    def test_reversed_flips_edges(self):
        g = build_triangle()
        rev = g.reversed()
        assert rev.has_edge(1, 0) and rev.weight(1, 0) == 0.5
        assert rev.node_count == g.node_count
        assert rev.edge_count == g.edge_count

    def test_copy_is_independent(self):
        g = build_triangle()
        dup = g.copy()
        dup.remove_edge(0, 1)
        assert g.has_edge(0, 1)


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=60,
    )
)
def test_degree_sums_equal_edge_count(edges):
    """Property: sum of out-degrees == sum of in-degrees == edge count."""
    g = DiGraph()
    for u, v in edges:
        g.add_edge(u, v)
    out_total = sum(g.out_degree(n) for n in g.nodes())
    in_total = sum(g.in_degree(n) for n in g.nodes())
    assert out_total == in_total == g.edge_count


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=50,
    )
)
def test_reversed_twice_is_identity(edges):
    """Property: reversing twice restores the original edge set."""
    g = DiGraph()
    for u, v in edges:
        g.add_edge(u, v)
    double = g.reversed().reversed()
    assert sorted(double.edges()) == sorted(g.edges())


# ----------------------------------------------------------------------
# Copies are independent
# ----------------------------------------------------------------------
def deep_clone(graph: DiGraph) -> DiGraph:
    """The oracle's copy: nothing shared, rebuilt edge by edge."""
    clone = DiGraph()
    clone.add_nodes(graph.nodes())
    for u, v, w in graph.edges():
        clone.add_edge(u, v, weight=w)
    return clone


def observable(graph: DiGraph):
    """Everything a caller can see: node order, ordered rows, both
    degree directions and the edge count."""
    nodes = list(graph.nodes())
    return (
        nodes,
        [(u, list(graph.out_edges(u))) for u in nodes],
        [(u, sorted(graph.predecessors(u)), graph.in_degree(u)) for u in nodes],
        graph.edge_count,
    )


def mutate(graph: DiGraph, op) -> str:
    """Apply one mutation; return how it ended (both sides must agree)."""
    kind, u, v, w = op
    try:
        if kind == "add_edge":
            graph.add_edge(u, v, weight=w)
        elif kind == "set_row":
            graph.set_row(u, {t: w for t in range(v % 4, v) if t != u})
        elif kind == "remove_edge":
            graph.remove_edge(u, v)
        elif kind == "remove_node":
            graph.remove_node(u)
    except GraphError as error:
        return type(error).__name__
    return "ok"


MUTATIONS = st.tuples(
    st.sampled_from(
        ["add_edge", "set_row", "remove_edge", "remove_node"]
    ),
    st.integers(0, 7),
    st.integers(0, 7),
    st.floats(min_value=0.01, max_value=0.99),
)


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=25,
    ),
    steps=st.lists(
        st.one_of(
            st.tuples(st.just("mutate"), st.integers(0, 3), MUTATIONS),
            st.tuples(st.just("copy"), st.integers(0, 3), st.none()),
        ),
        max_size=30,
    ),
)
def test_copies_never_see_each_others_writes(edges, steps):
    """Property: whatever is written to a graph, its copies, or copies of
    copies, each one stays equal to a deep-copied oracle that received
    the same writes — no write leaks across a ``copy()``, and
    ``edge_count`` / ``in_degree`` stay right on every side."""
    first = DiGraph()
    for u, v in edges:
        first.add_edge(u, v, weight=0.5)
    graphs, oracles = [first], [deep_clone(first)]
    for action, which, op in steps:
        which %= len(graphs)
        if action == "copy":
            if len(graphs) < 4:
                graphs.append(graphs[which].copy())
                oracles.append(deep_clone(oracles[which]))
        else:
            assert mutate(graphs[which], op) == mutate(oracles[which], op)
        for graph, oracle in zip(graphs, oracles):
            assert observable(graph) == observable(oracle)
