"""The follow graph as arrays: an append buffer compacted to CSR.

The service learns follows one at a time (1.6M of them at the 100k-user
tier) and reads them in bulk, walking the 2-hop neighbourhood ``N2(u)``
(paper §4.1) of thousands of users per build or delta.  The offline
analyses read the same graph: breadth-first distances for Tables 1-3
and Figs. 1/5, degrees, communities.  :class:`FollowGraph` holds the
relation as tables (and :class:`~repro.data.dataset.TwitterDataset`
holds its follows in one): dense positions in first-appearance order,
an out-edge CSR and its transpose, and a buffer of int32 position pairs
that the first read after a write compacts into them.  Compaction is
linear: a counting sort by source (none when the buffer already comes
by source, as a bulk replay does) and the transpose, a second counting
sort, which also finds the repeated follows; its transient is a few
words per edge, freed when it returns.  Walks are
boolean sparse products over the CSR, the matrix view of the graph (ten
Thij et al., PAPERS.md); a SimGraph's influencer rows wrap into one
with :meth:`FollowGraph.from_csr`.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator

import numpy as np
from scipy import sparse

from repro.exceptions import GraphError

__all__ = ["FollowGraph"]

_NO_POSITIONS = np.empty(0, dtype=np.int32)


def _indptr(counts: np.ndarray) -> np.ndarray:
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _shrunk(indptr: np.ndarray, dropped: np.ndarray) -> np.ndarray:
    """``indptr`` of the same rows once the entries ``dropped`` (a mask
    over the entries) are taken out."""
    gone = np.zeros(len(dropped) + 1, dtype=np.int64)
    np.cumsum(dropped, out=gone[1:])
    return indptr - gone[indptr]


def _positions(count: int) -> np.ndarray:
    """``0, ..., count - 1`` as int32, or int64 when int32 cannot hold
    them: the edge positions a compaction carries through its sorts."""
    return np.arange(count, dtype=np.int32 if count < 2**31 else np.int64)


def _transpose(
    indptr: np.ndarray, indices: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The transpose of the rows ``(indptr, indices)`` (``n`` by ``n``;
    a row may name a column twice) without its repeats.

    One counting sort (scipy's CSR -> CSC conversion, which walks the
    rows in order) lists each column's rows ascending, a repeated entry
    right behind its first, and carries every entry's position in
    ``indices`` along.  Returns ``(indptr, rows, repeats)`` of the
    transpose with each repeat dropped, and the positions in
    ``indices`` of the dropped entries (``None`` when there are none).
    """
    columns = sparse.csr_matrix(
        (_positions(len(indices)), indices, indptr), shape=(n, n)
    ).tocsc()
    in_indptr = columns.indptr.astype(np.int64)
    rows = columns.indices.astype(np.int32, copy=False)
    repeat = np.zeros(len(rows), dtype=bool)
    np.equal(rows[1:], rows[:-1], out=repeat[1:])
    repeat[in_indptr[:-1][in_indptr[:-1] < len(rows)]] = False
    if not repeat.any():
        return in_indptr, rows, None
    return _shrunk(in_indptr, repeat), rows[~repeat], columns.data[repeat]


class FollowGraph:
    """Directed graph over integer user ids, held as CSR arrays.

    Rows keep insertion order; a repeated follow is dropped when the
    buffer is compacted (the first one stays).  Positions are int32, so
    a graph holds at most 2**31 - 1 nodes.

    >>> g = FollowGraph()
    >>> g.add_edge(1, 2); g.add_edge(1, 3); g.add_edge(1, 2)
    >>> g.successors(1), g.edge_count
    ([2, 3], 2)
    """

    def __init__(self) -> None:
        self._index: dict[int, int] = {}
        self._ids: list[int] = []
        self._id_array = np.empty(0, dtype=np.int64)
        #: Edges added since the last compaction, as position pairs; the
        #: first ``_clean`` of them predate the last :meth:`mark_clean`.
        self._src, self._dst, self._clean = array("i"), array("i"), 0
        #: ``(indptr, indices)`` of the out-edges and of their transpose.
        self._out = self._in = (np.zeros(1, dtype=np.int64), _NO_POSITIONS)
        #: Ascending positions of the sources of edges new since
        #: mark_clean, as of the last compaction.
        self._new = _NO_POSITIONS

    @classmethod
    def from_csr(
        cls,
        ids: np.ndarray,
        out: tuple[np.ndarray, np.ndarray],
        into: tuple[np.ndarray, np.ndarray],
    ) -> "FollowGraph":
        """Wrap finished arrays without copying them: node ids by
        position, and ``(indptr, indices)`` of the out-edges (no repeat
        in a row) and of their transpose (sources ascending), such as
        a SimGraph's compiled influencer rows."""
        follows = cls()
        follows._ids = ids.tolist()
        follows._index = dict(zip(follows._ids, range(len(ids))))
        follows._id_array, follows._out, follows._in = ids, out, into
        return follows

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def add_node(self, node: int) -> None:
        """Insert ``node``; adding an existing node is a no-op."""
        if node not in self._index:
            self._append(node)

    def add_nodes(self, nodes: Iterable[int]) -> None:
        """Insert every node of ``nodes``."""
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: int, v: int) -> None:
        """Append the follow ``u -> v``; endpoints are auto-created and
        a self-loop raises :class:`GraphError`."""
        if u == v:
            raise GraphError(f"self-loop on node {u!r} is not allowed")
        index = self._index
        i = index.get(u)
        if i is None:
            i = self._append(u)
        j = index.get(v)
        if j is None:
            j = self._append(v)
        self._src.append(i)
        self._dst.append(j)

    def add_edges(self, sources: np.ndarray, targets: np.ndarray) -> None:
        """Append the follows ``sources[k] -> targets[k]`` between
        existing nodes, given by position (no self-loop)."""
        self._src.frombytes(np.asarray(sources, dtype=np.intc).tobytes())
        self._dst.frombytes(np.asarray(targets, dtype=np.intc).tobytes())

    def _append(self, node: int) -> int:
        position = self._index[node] = len(self._ids)
        self._ids.append(node)
        return position

    def mark_clean(self) -> None:
        """Checkpoint: every follow added so far is old to
        :meth:`new_sources`."""
        self._new = _NO_POSITIONS
        self._clean = len(self._src)

    def _compacted(self) -> None:
        """Merge the buffer into the CSR pair in linear array passes.

        Every edge has an arrival rank — CSR edges row by row, then the
        buffer.  Two counting sorts lay the graph out: one by source
        (skipped when the edges already come by source, as a bulk
        replay's do) gives the rows in arrival order, and the transpose
        of those rows (:func:`_transpose`) gives, per target, the
        sources ascending with a repeated follow right behind its first
        arrival.  Dropping those repeats from both directions leaves
        the first arrival of every follow.  The transient is the int32
        edge columns, the arrival ranks in row order and the transpose.
        """
        n = len(self._ids)
        indptr, indices = self._out
        rows = len(indptr) - 1
        if not len(self._src):
            if rows < n:  # nodes without edges since: empty rows
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
        # The rows: edges by source, each row in arrival order.  ``rank``
        # is the arrival rank of each row position (None: the same).
        if np.all(src[1:] >= src[:-1]):
            out_indptr = _indptr(np.bincount(src, minlength=n))
            rank = None
            targets = dst
        else:
            by_source = sparse.csr_matrix(
                (_positions(len(src)), src, [0, len(src)]),
                shape=(1, n),
            ).tocsc()
            out_indptr = by_source.indptr.astype(np.int64)
            rank = by_source.data
            del by_source
            targets = dst[rank]
        del dst
        in_indptr, sources, repeat = _transpose(out_indptr, targets, n)
        self._in = (in_indptr, sources)
        # Which arrivals are first arrivals; ``repeat`` holds the row
        # positions of the others.
        first = np.ones(len(src), dtype=bool)
        if repeat is None:
            self._out = (out_indptr, targets)
        else:
            kept = np.ones(len(targets), dtype=bool)
            kept[repeat] = False
            self._out = (_shrunk(out_indptr, ~kept), targets[kept])
            first[repeat if rank is None else rank[repeat]] = False
        del targets, repeat
        fresh = src[fresh_from:][first[fresh_from:]]
        new = np.zeros(n, dtype=bool)
        new[self._new] = new[fresh] = True
        self._new = np.flatnonzero(new).astype(np.int32)
        self._src, self._dst, self._clean = array("i"), array("i"), 0

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def __contains__(self, node: object) -> bool:
        return node in self._index

    def nodes(self) -> Iterator[int]:
        """All nodes, in first-appearance order."""
        return iter(self._ids)

    @property
    def node_count(self) -> int:
        return len(self._ids)

    @property
    def edge_count(self) -> int:
        """Number of distinct follows."""
        self._compacted()
        return len(self._out[1])

    @property
    def ids(self) -> np.ndarray:
        """``int64`` node ids by position."""
        if len(self._id_array) != len(self._ids):
            self._id_array = np.array(self._ids, dtype=np.int64)
        return self._id_array

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)`` of the out-edges."""
        self._compacted()
        return self._out

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sources, targets)``: the ids of every follow, row by row
        in node order, each row in insertion order."""
        indptr, indices = self.csr()
        ids = self.ids
        return np.repeat(ids, np.diff(indptr)), ids[indices]

    def copy(self) -> "FollowGraph":
        """A graph over the same arrays, not copied: writes to either
        do not reach the other."""
        self._compacted()
        return FollowGraph.from_csr(self.ids, self._out, self._in)

    def positions(self, nodes: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        """``(positions, present)`` of ``nodes`` (an absent node's
        position is meaningless)."""
        get = self._index.get
        at = np.fromiter((get(u, -1) for u in nodes), dtype=np.int64)
        present = at >= 0
        return np.where(present, at, 0), present

    def successors(self, node: int) -> list[int]:
        """Whom ``node`` follows, in insertion order."""
        return self.ids[self._row(node, reverse=False)].tolist()

    def predecessors(self, node: int) -> list[int]:
        """Who follows ``node``, by ascending position."""
        return self.ids[self._row(node, reverse=True)].tolist()

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._index and v in self.successors(u)

    def _row(self, node: int, reverse: bool) -> np.ndarray:
        if node not in self._index:
            raise GraphError(f"node {node!r} does not exist")
        self._compacted()
        indptr, indices = self._in if reverse else self._out
        i = self._index[node]
        return indices[indptr[i] : indptr[i + 1]]

    def new_sources(self) -> np.ndarray:
        """Ascending positions of the followers that gained a follow
        since :meth:`mark_clean`."""
        self._compacted()
        return self._new

    def reach(
        self, sources: np.ndarray, hops: int, reverse: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Everything within ``hops`` >= 1 steps of each position in
        ``sources`` — along follows, or against them with ``reverse`` —
        the source itself excluded.

        Returns ``(owner, found)`` positions, one pair per reached node
        and source (``found[k]`` is reached from ``sources[owner[k]]``;
        ``owner`` is non-decreasing).  Each hop is one boolean sparse
        product for all the sources together.
        """
        self._compacted()
        sources = np.asarray(sources, dtype=np.int64)
        indptr, indices = self._in if reverse else self._out
        n = len(self._ids)
        step = sparse.csr_matrix(
            (np.ones(len(indices), dtype=bool), indices, indptr), shape=(n, n)
        )
        reached = frontier = step[sources]
        for _ in range(hops - 1):
            frontier = frontier @ step
            if not frontier.nnz:
                break
            reached = reached + frontier
        owner = np.repeat(np.arange(len(sources)), np.diff(reached.indptr))
        found = reached.indices
        away = found != sources[owner]
        return owner[away], found[away]
