"""FollowGraph against the DiGraph it replaced.

* Random op sequences — repeated follows, self-loops, follows that
  create nodes, ``mark_clean`` checkpoints, reads at any point — leave a
  FollowGraph equal to a DiGraph fed the same ops: node order, successor
  order, predecessor sets, follow membership, counts, and the followers that
  gained a follow since the checkpoint.
* The bulk region walk (``FollowGraph.reach``) finds what the
  frontier-by-frontier set walk it replaced finds, in both directions.
* ``reachability_matrix`` over the follow CSR equals the dict-walk
  version array for array (column order within rows included), and a
  chunk of sources gets exactly its rows of the whole matrix.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.core.profiles import RetweetProfiles
from repro.core.simmatrix import SimilarityMatrix, reachability_matrix
from repro.exceptions import GraphError
from repro.graph import FollowGraph
from repro.synth import SynthConfig, generate_dataset
from tests.test_graph_oracle import DiGraph, digraph_of, follow_graph_of

NODES = st.integers(0, 11)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("node"), NODES, NODES),
        st.tuples(st.just("edge"), NODES, NODES),
        st.tuples(st.just("clean"), NODES, NODES),
        st.tuples(st.just("read"), NODES, NODES),
    ),
    max_size=80,
)


def assert_same(follows: FollowGraph, graph: DiGraph, fresh: set[int]) -> None:
    nodes = list(graph.nodes())
    assert list(follows.nodes()) == nodes
    assert follows.node_count == graph.node_count
    assert follows.edge_count == graph.edge_count
    for u in nodes:
        successors = follows.successors(u)
        assert successors == list(graph.successors(u))
        assert set(follows.predecessors(u)) == set(graph.predecessors(u))
        for v in range(-1, 13):
            assert (v in successors) == graph.has_edge(u, v)
    assert set(follows.ids[follows.new_sources()].tolist()) == fresh


@settings(max_examples=300, deadline=None)
@given(OPS)
def test_follow_graph_matches_digraph(ops):
    follows, graph = FollowGraph(), DiGraph()
    fresh: set[int] = set()
    for kind, u, v in ops:
        if kind == "node":
            follows.add_node(u)
            graph.add_node(u)
        elif kind == "edge":
            if u == v:
                with pytest.raises(GraphError):
                    follows.add_edge(u, v)
                continue
            if not graph.has_edge(u, v):
                fresh.add(u)
            follows.add_edge(u, v)
            graph.add_edge(u, v)
        elif kind == "clean":
            follows.mark_clean()
            fresh = set()
        else:
            assert_same(follows, graph, fresh)
    assert_same(follows, graph, fresh)
    converted = {u for u in graph.nodes() if graph.out_degree(u)}
    assert_same(follow_graph_of(graph), graph, converted)


def within_hops(neighbors, source, hops):
    """The per-source set walk the bulk walk replaced."""
    seen = {source}
    frontier = (source,)
    for _ in range(hops):
        grown = set()
        for x in frontier:
            grown.update(neighbors(x))
        grown -= seen
        if not grown:
            break
        seen |= grown
        frontier = grown
    seen.discard(source)
    return seen


@st.composite
def graphs(draw):
    """A random follow graph over scattered ids, as both types."""
    ids = draw(
        st.lists(st.integers(0, 10_000), min_size=1, max_size=25, unique=True)
    )
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=80,
        )
    )
    graph = DiGraph()
    graph.add_nodes(ids)
    for u, v in edges:
        graph.add_edge(u, v)
    return graph, follow_graph_of(graph)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.integers(1, 3), st.booleans(), st.data())
def test_bulk_walk_equals_set_walk(pair, hops, reverse, data):
    graph, follows = pair
    nodes = list(graph.nodes())
    sources = data.draw(st.lists(st.sampled_from(nodes), max_size=8))
    owner, found = follows.reach(follows.positions(sources)[0], hops, reverse)
    reached = follows.ids[found]
    neighbors = graph.predecessors if reverse else graph.successors
    for r, source in enumerate(sources):
        mine = reached[owner == r].tolist()
        assert len(mine) == len(set(mine))
        assert set(mine) == within_hops(neighbors, source, hops)


def dict_walk_reachability(graph, hops, index, size):
    """``reachability_matrix`` as it was: adjacency from the dict rows."""
    rows, cols = [], []
    for u in graph.nodes():
        for v in graph.successors(u):
            rows.append(index[u])
            cols.append(index[v])
    adjacency = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(size, size)
    )
    reach = adjacency.copy()
    frontier = adjacency
    for _ in range(hops - 1):
        frontier = (frontier @ adjacency).tocsr()
        if frontier.nnz == 0:
            break
        frontier.data[:] = 1.0
        reach = (reach + frontier).tocsr()
        reach.data[:] = 1.0
    coo = reach.tocoo()
    off = coo.row != coo.col
    return sparse.csr_matrix(
        (coo.data[off], (coo.row[off], coo.col[off])), shape=(size, size)
    )


def assert_same_csr(actual, expected) -> None:
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


@settings(max_examples=150, deadline=None)
@given(graphs(), st.integers(1, 3), st.data())
def test_reachability_matrix_equals_dict_walk(pair, hops, data):
    graph, follows = pair
    nodes = list(graph.nodes())
    retweeters = data.draw(st.lists(st.integers(0, 10_000), max_size=10))
    profiles = RetweetProfiles()
    for user in retweeters:
        profiles.add(user, 1)
    matrix = SimilarityMatrix(profiles, extra_users=nodes)
    universe = matrix.users_at(np.arange(matrix.user_count))
    whole = reachability_matrix(follows, hops, matrix, universe)
    expected = dict_walk_reachability(
        graph, hops, matrix.index, matrix.user_count
    )
    assert_same_csr(whole, expected)
    chunk = data.draw(st.lists(st.sampled_from(universe), max_size=6))
    rows = np.array([matrix.position(u) for u in chunk], dtype=np.int64)
    assert_same_csr(
        reachability_matrix(follows, hops, matrix, chunk), whole[rows]
    )


def test_columnar_csr_wraps_like_its_digraph():
    """A copy of a dataset's follow graph wraps its arrays and equals
    the DiGraph its rows materialize; writes to the copy stay in the
    copy."""
    dataset = generate_dataset(SynthConfig(n_users=120, seed=4))
    wrapped = dataset.follow_graph.copy()
    assert wrapped.csr()[1] is dataset.follow_graph.csr()[1]
    graph = digraph_of(dataset.follow_graph)
    assert list(wrapped.nodes()) == list(graph.nodes())
    assert wrapped.edge_count == graph.edge_count
    for u in graph.nodes():
        assert wrapped.successors(u) == list(graph.successors(u))
        # Users were registered by ascending id: position order is id order.
        assert wrapped.predecessors(u) == sorted(graph.predecessors(u))
    wrapped.add_edge(-1, int(dataset.user_ids[0]))
    assert wrapped.ids[wrapped.new_sources()].tolist() == [-1]
    assert -1 not in dataset.follow_graph
    assert dataset.follow_graph.edge_count == graph.edge_count
