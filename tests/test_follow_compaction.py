"""The follow graph's compaction against the three-sort one it replaced.

``FollowGraph._compacted`` lays out the rows and the transpose with two
counting sorts.  The compaction it replaced — one stable argsort of a
64-bit ``(target, source)`` key, a second sort of the key, a stable
argsort by source — is kept here as the oracle.  Random op sequences
(repeated follows, bulk appends presorted by source or shuffled, reads
between writes so that compaction merges into an existing CSR,
``mark_clean`` at random points) leave both graphs with the same
arrays: the rows, the transpose, ``new_sources()`` and the edge count.
"""

from __future__ import annotations

from array import array

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph import FollowGraph
from repro.graph.followgraph import _indptr

NODES = st.integers(0, 7)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("edge"), NODES, NODES),
        st.tuples(st.just("node"), st.integers(0, 11), st.just(0)),
        st.tuples(st.just("bulk"), st.integers(0, 2**16), st.integers(0, 40)),
        st.tuples(st.just("sorted"), st.integers(0, 2**16), st.integers(0, 40)),
        st.tuples(st.just("clean"), st.just(0), st.just(0)),
        st.tuples(st.just("read"), st.just(0), st.just(0)),
    ),
    max_size=60,
)


class ThreeSortFollowGraph(FollowGraph):
    """A :class:`FollowGraph` that compacts with the three sorts."""

    def _compacted(self) -> None:
        n = len(self._ids)
        indptr, indices = self._out
        rows = len(indptr) - 1
        if not len(self._src):
            if rows < n:
                grow = np.full(n - rows, indptr[-1])
                self._out = (np.concatenate((indptr, grow)), indices)
                self._in = (np.concatenate((self._in[0], grow)), self._in[1])
            return
        fresh_from = len(indices) + self._clean
        src = np.concatenate(
            (
                np.repeat(np.arange(rows, dtype=np.int32), np.diff(indptr)),
                np.frombuffer(self._src, dtype=np.intc),
            ),
            dtype=np.int32,
        )
        dst = np.concatenate(
            (indices, np.frombuffer(self._dst, dtype=np.intc)), dtype=np.int32
        )
        key = dst.astype(np.int64)
        key *= n
        key += src
        order = np.argsort(key, kind="stable")
        key.sort()
        first = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        kept = order[first]
        into = (_indptr(np.bincount(dst[kept], minlength=n)), src[kept])
        keep = np.zeros(len(src), dtype=bool)
        keep[kept] = True
        added = src[fresh_from:][keep[fresh_from:]]
        src, dst = src[keep], dst[keep]
        self._out = (
            _indptr(np.bincount(src, minlength=n)),
            dst[np.argsort(src, kind="stable")],
        )
        self._in = into
        self._new = np.union1d(self._new, added).astype(np.int32)
        self._src, self._dst, self._clean = array("i"), array("i"), 0


def assert_same_arrays(graph: FollowGraph, oracle: FollowGraph) -> None:
    for got, want in zip(graph.csr(), oracle.csr()):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    for got, want in zip(graph._in, oracle._in):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    new, want_new = graph.new_sources(), oracle.new_sources()
    assert new.dtype == want_new.dtype
    np.testing.assert_array_equal(new, want_new)
    assert graph.edge_count == oracle.edge_count


def bulk(count: int, seed: int, n: int, by_source: bool):
    """``count`` random follows between the first ``n`` positions, some
    repeated, shuffled or sorted by source (stably)."""
    rng = np.random.default_rng(seed)
    sources = rng.integers(n, size=count)
    targets = (sources + rng.integers(1, n, size=count)) % n
    if by_source:
        order = np.argsort(sources, kind="stable")
        sources, targets = sources[order], targets[order]
    return sources, targets


@settings(max_examples=400, deadline=None)
@given(OPS)
def test_compaction_matches_three_sort_oracle(ops):
    graph, oracle = FollowGraph(), ThreeSortFollowGraph()
    for kind, a, b in ops:
        for g in (graph, oracle):
            if kind == "edge" and a != b:
                g.add_edge(a, b)
            elif kind == "node":
                g.add_node(a)
            elif kind in ("bulk", "sorted") and g.node_count >= 2:
                g.add_edges(*bulk(b, a, g.node_count, kind == "sorted"))
            elif kind == "clean":
                g.mark_clean()
        if kind == "read":
            assert_same_arrays(graph, oracle)
    assert_same_arrays(graph, oracle)


def test_bulk_replay_over_a_base_keeps_first_arrivals():
    """A random graph with repeated follows over an existing CSR base,
    presorted and shuffled: 2,000 nodes, 20k follows in the base, then
    20k more (half of them repeats of base follows) in the buffer."""
    rng = np.random.default_rng(3)
    n = 2_000
    for by_source in (True, False):
        graph, oracle = FollowGraph(), ThreeSortFollowGraph()
        for g in (graph, oracle):
            g.add_nodes(range(n))
            g.add_edges(*bulk(20_000, 1, n, True))
            g.csr()
            g.mark_clean()
        base_sources, base_targets = bulk(20_000, 1, n, True)
        pick = rng.integers(len(base_sources), size=10_000)
        new_sources, new_targets = bulk(10_000, 2, n, False)
        sources = np.concatenate((base_sources[pick], new_sources))
        targets = np.concatenate((base_targets[pick], new_targets))
        order = (
            np.argsort(sources, kind="stable")
            if by_source
            else rng.permutation(len(sources))
        )
        for g in (graph, oracle):
            g.add_edges(sources[order], targets[order])
        assert_same_arrays(graph, oracle)
