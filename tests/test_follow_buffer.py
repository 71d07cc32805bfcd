"""The follow graph's id-pair buffer against the dict-probing writes it
replaced.

``FollowGraph.add_edge`` buffers a follow as its two ids; a later pass
gives them positions in bulk, registering unseen ids in order of first
appearance.  :class:`ProbingFollowGraph` keeps the write it replaced —
two dict probes per follow, a new endpoint registered on the spot and
the positions appended at once — as the oracle.  Random interleavings
of ``add_node`` (fresh, buffered-only and known ids), ``add_edge``
(unknown endpoints, repeats, self-loops), ``add_edges`` by position,
``mark_clean`` and every read, with the pass bound from one follow up,
leave both graphs answering every read alike.  A read is a step of its
own, so that writes pile up in the buffer between reads.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import GraphError
from repro.graph import FollowGraph, followgraph

IDS = st.one_of(st.integers(-3, 12), st.sampled_from([-(2**40), 2**40]))
READS = (
    "in", "nodes", "node_count", "ids", "positions", "rows", "csr",
    "transpose", "new_sources", "edge_count", "copy",
)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("node"), IDS, IDS),
        st.tuples(st.just("edge"), IDS, IDS),
        st.tuples(st.just("edges"), st.integers(0, 2**16), st.integers(0, 6)),
        st.tuples(st.just("clean"), st.just(0), st.just(0)),
        st.tuples(st.sampled_from(READS), IDS, st.just(0)),
    ),
    max_size=60,
)


class ProbingFollowGraph(FollowGraph):
    """A :class:`FollowGraph` whose ``add_edge`` probes the node index
    and appends the positions at once, as before the id buffer."""

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise GraphError(f"self-loop on node {u!r} is not allowed")
        index = self._index
        i = index.get(u)
        if i is None:
            i = self._append(u)
        j = index.get(v)
        if j is None:
            j = self._append(v)
        self.add_edges((i,), (j,))


def assert_arrays(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def assert_read(
    kind: str, graph: FollowGraph, oracle: FollowGraph, x: int
) -> None:
    """``graph`` and ``oracle`` answer the read ``kind`` alike."""
    if kind == "in":
        assert (x in graph) == (x in oracle)
    elif kind == "nodes":
        assert list(graph.nodes()) == list(oracle.nodes())
    elif kind == "node_count":
        assert graph.node_count == oracle.node_count
    elif kind == "ids":
        assert_arrays(graph.ids, oracle.ids)
    elif kind == "positions":
        probes = list(range(x - 3, x + 4))
        got, want = graph.positions(probes), oracle.positions(probes)
        for mine, theirs in zip(got, want):
            assert_arrays(mine, theirs)
    elif kind == "rows":
        for u in oracle.nodes():
            assert graph.successors(u) == oracle.successors(u)
            assert graph.predecessors(u) == oracle.predecessors(u)
        if x not in oracle:
            for g in (graph, oracle):
                with pytest.raises(GraphError):
                    g.successors(x)
    elif kind == "csr":
        for got, want in zip(graph.csr(), oracle.csr()):
            assert_arrays(got, want)
    elif kind == "transpose":
        graph.csr(), oracle.csr()
        for got, want in zip(graph._in, oracle._in):
            assert_arrays(got, want)
    elif kind == "new_sources":
        assert_arrays(graph.new_sources(), oracle.new_sources())
    elif kind == "edge_count":
        assert graph.edge_count == oracle.edge_count
    else:  # copy: the same answers, and writes to it stay in it
        copied, copied_oracle = graph.copy(), oracle.copy()
        for read in READS[:-1]:
            assert_read(read, copied, copied_oracle, x)
        edges = graph.edge_count
        copied.add_edge(x, -99)
        assert graph.edge_count == edges and -99 not in graph


def assert_same(graph: FollowGraph, oracle: FollowGraph) -> None:
    for read in READS:
        assert_read(read, graph, oracle, 0)


def apply(graph: FollowGraph, kind: str, a: int, b: int) -> None:
    """One write to ``graph``."""
    if kind == "node":
        graph.add_node(a)
    elif kind == "edge":
        if a == b:
            with pytest.raises(GraphError):
                graph.add_edge(a, b)
        else:
            graph.add_edge(a, b)
    elif kind == "edges":
        n = graph.node_count
        if n >= 2:
            rng = np.random.default_rng(a)
            sources = rng.integers(n, size=b)
            targets = (sources + rng.integers(1, n, size=b)) % n
            graph.add_edges(sources, targets)
    else:
        graph.mark_clean()


@settings(max_examples=400, deadline=None)
@given(OPS, st.sampled_from([1, 2, 5, followgraph._MIN_PAIRS]))
def test_buffered_follows_answer_as_probed_ones(ops, min_pairs):
    with mock.patch.object(followgraph, "_MIN_PAIRS", min_pairs):
        graph, oracle = FollowGraph(), ProbingFollowGraph()
        for kind, a, b in ops:
            if kind in READS:
                assert_read(kind, graph, oracle, a)
            else:
                for g in (graph, oracle):
                    apply(g, kind, a, b)
        assert_same(graph, oracle)


def test_a_self_loop_buffers_nothing():
    graph = FollowGraph()
    graph.add_edge(1, 2)
    with pytest.raises(GraphError):
        graph.add_edge(3, 3)
    assert list(graph.nodes()) == [1, 2]
    assert graph.edge_count == 1


def test_an_id_that_is_not_an_integer_buffers_nothing():
    graph = FollowGraph()
    graph.add_edge(1, 2)
    for u, v in ((3, 4.5), (3, 2**63), ("a", 4)):
        with pytest.raises((TypeError, OverflowError)):
            graph.add_edge(u, v)
    assert list(graph.nodes()) == [1, 2]
    assert graph.successors(1) == [2]


def test_a_replay_resolves_in_passes_the_size_of_the_graph():
    """5,000 users, then 60,000 follows one call at a time: the buffer
    never holds more follows than the larger of a sixteenth of the node
    count and the pass minimum, and the graph equals the probing one."""
    rng = np.random.default_rng(5)
    users, follows = 5_000, 60_000
    sources = rng.integers(users, size=follows)
    targets = (sources + rng.integers(1, users, size=follows)) % users
    graph, oracle = FollowGraph(), ProbingFollowGraph()
    held = 0
    for g in (graph, oracle):
        g.add_nodes(range(users))
        for u, v in zip(sources.tolist(), targets.tolist()):
            g.add_edge(u, v)
            held = max(held, len(g._pairs) // 2)
    assert 0 < held <= max(users // followgraph._SHARE, followgraph._MIN_PAIRS)
    assert_same(graph, oracle)
