"""The follow graph as arrays: an append buffer compacted to CSR.

The service learns follows one at a time (1.6M of them at the 100k-user
tier) and reads them in bulk, walking the 2-hop neighbourhood ``N2(u)``
(paper §4.1) of thousands of users per build or delta.  The offline
analyses read the same graph: breadth-first distances for Tables 1-3
and Figs. 1/5, degrees, communities.  :class:`FollowGraph` holds the
relation as tables (and :class:`~repro.data.dataset.TwitterDataset`
holds its follows in one): dense positions in first-appearance order,
an out-edge CSR and its transpose, and two write buffers.  A follow is
appended as its two int64 ids, with no lookup; a bulk pass gives a
batch of them their positions (a table or sort of the node ids; ids
not yet nodes registered in order of first appearance) and moves them
to a buffer of int32 position pairs, which the first read after a
write compacts into the CSR pair.  A pass runs on every read and
whenever the id buffer holds more follows than a sixteenth of the nodes,
so its memory stays a small part of the graph's.  Compaction is
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
#: A pass runs once the id buffer holds more follows than the node count
#: over ``_SHARE``, or than ``_MIN_PAIRS``.
_SHARE, _MIN_PAIRS = 16, 1024
#: Node ids spanning at most this many times their count are found
#: through a table indexed by id.
_DENSE = 4
#: :meth:`FollowGraph.positions` finds fewer ids than this through the
#: id index, more through :meth:`FollowGraph._lookup`.
_FEW_IDS = 64


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

    A follow is buffered as its two ids; the next read (or a buffer
    grown past a sixteenth of the node count) assigns their positions
    in one pass, registering unseen ids in order of first appearance.
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
        #: Node ids by position: the array, then the ids registered one
        #: at a time since it was last read.
        self._ids, self._added = np.empty(0, dtype=np.int64), array("q")
        #: Follows not yet given positions, as id pairs ``u, v, u, v, ...``;
        #: they resolve once they hold more than ``_bound`` ids.
        self._pairs, self._bound = array("q"), 2 * _MIN_PAIRS
        #: How :meth:`_lookup` finds node ids, until a node is added.
        self._finder: tuple[int | None, np.ndarray] | None = None
        #: Edges added since the last compaction, as int32 position pairs
        #: ``i, j, i, j, ...``: one exact-size array per pass, then those
        #: :meth:`add_edges` appended since (a pass never grows an array
        #: in place).  The first ``_clean`` predate :meth:`mark_clean`.
        self._batches: list[np.ndarray] = []
        self._appended, self._clean = array("i"), 0
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
        follows._index = dict(zip(ids.tolist(), range(len(ids))))
        follows._ids, follows._out, follows._in = ids, out, into
        return follows

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def add_node(self, node: int) -> None:
        """Insert ``node``; adding an existing node is a no-op."""
        if node in self._index:
            return
        if self._pairs:  # ``node`` may be buffered, and come first
            self._resolve()
            if node in self._index:
                return
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
        pairs = self._pairs
        pairs.append(u)
        try:
            pairs.append(v)
        except (TypeError, OverflowError):
            pairs.pop()
            raise
        if len(pairs) > self._bound:
            self._resolve()

    def add_edges(self, sources: np.ndarray, targets: np.ndarray) -> None:
        """Append the follows ``sources[k] -> targets[k]`` between
        existing nodes, given by position (no self-loop)."""
        self._resolve()
        pairs = np.empty(2 * len(sources), dtype=np.int32)
        pairs[0::2], pairs[1::2] = sources, targets
        self._appended.frombytes(memoryview(pairs).cast("B"))

    def _position_batches(self) -> list[np.ndarray]:
        """Every pass's positions, then :meth:`add_edges`' since."""
        if self._appended:
            self._batches.append(np.frombuffer(self._appended, dtype=np.int32))
            self._appended = array("i")
        return self._batches

    def _append(self, node: int) -> int:
        self._added.append(node)
        position = self._index[node] = len(self._index)
        self._finder = None
        return position

    def _id_array(self) -> np.ndarray:
        if self._added:
            added = np.frombuffer(self._added, dtype=np.int64)
            self._ids = np.concatenate((self._ids, added))
            self._added = array("q")
        return self._ids

    def _resolve(self) -> None:
        """Give the buffered follows their positions in one pass.

        The ids are looked up in the node ids (:meth:`_lookup`); those
        not found are registered in order of first appearance (``u``
        before ``v`` of each follow), and the positions join the
        position buffer.  The next pass comes once the buffer holds
        more follows than a sixteenth of the nodes (at least
        ``_MIN_PAIRS``): a replay's buffer and each pass's transient
        stay a small part of the graph, and an id costs O(1) amortized.
        """
        if not self._pairs:
            return
        from repro.core.csr import sorted_unique  # repro.core imports us

        pairs = np.frombuffer(self._pairs, dtype=np.int64)
        self._pairs = array("q")
        at = self._lookup(pairs)
        unknown = at < 0
        if unknown.any():
            unseen = pairs[unknown]
            _, first, inverse = sorted_unique(
                unseen, return_index=True, return_inverse=True
            )
            order = np.argsort(first)
            n = len(self._index)
            rank = np.empty(len(first), dtype=np.int32)
            rank[order] = np.arange(n, n + len(first))
            at[unknown] = rank[inverse]
            fresh = unseen[first[order]]
            self._index.update(zip(fresh.tolist(), rank[order].tolist()))
            self._ids = np.concatenate((self._id_array(), fresh))
            self._finder = None
        self._position_batches().append(at)
        self._bound = 2 * max(len(self._index) // _SHARE, _MIN_PAIRS)

    def _lookup(self, ids: np.ndarray) -> np.ndarray:
        """The int32 positions of ``ids``, -1 where not a node.

        Dense node ids (spanning at most ``_DENSE`` times their count)
        are found through a table of positions indexed by id, sparse
        ones by :func:`~repro.core.csr.lookup`'s binary search through
        their sort order; either is kept from pass to pass until a node
        is added or the graph compacts.
        """
        from repro.core.csr import lookup  # repro.core imports us

        nodes = self._id_array()
        if not len(nodes):
            return np.full(len(ids), -1, dtype=np.int32)
        if self._finder is None:
            lo = int(nodes.min())
            span = int(nodes.max()) - lo + 1
            if span <= _DENSE * len(nodes):
                table = np.full(span, -1, dtype=np.int32)
                table[nodes - lo] = np.arange(len(nodes), dtype=np.int32)
                self._finder = (lo, table)
            else:
                self._finder = (None, np.argsort(nodes, kind="stable"))
        lo, finder = self._finder
        if lo is None:
            at, known = lookup(nodes, ids, finder)
            at = at.astype(np.int32)
            at[~known] = -1
            return at
        offset = ids - lo
        at = finder.take(offset, mode="clip")
        at[offset.view(np.uint64) >= len(finder)] = -1  # negatives too
        return at

    def mark_clean(self) -> None:
        """Checkpoint: every follow added so far is old to
        :meth:`new_sources`."""
        self._resolve()
        self._new = _NO_POSITIONS
        self._clean = sum(map(len, self._position_batches())) // 2

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
        self._resolve()
        n = len(self._index)
        indptr, indices = self._out
        rows = len(indptr) - 1
        batches = self._position_batches()
        if not batches:
            if rows < n:  # nodes without edges since: empty rows
                grow = np.full(n - rows, indptr[-1])
                self._out = (np.concatenate((indptr, grow)), indices)
                self._in = (np.concatenate((self._in[0], grow)), self._in[1])
            return
        from repro.core import csr  # repro.core imports us

        self._finder = None
        fresh_from = len(indices) + self._clean
        src = np.concatenate(
            (
                np.repeat(np.arange(rows, dtype=np.int32), np.diff(indptr)),
                *(pairs[0::2] for pairs in batches),
            ),
            dtype=np.int32,
        )
        dst = np.concatenate(
            (indices, *(pairs[1::2] for pairs in batches)), dtype=np.int32
        )
        # The rows: edges by source, each row in arrival order.  ``rank``
        # is the arrival rank of each row position (None: the same).
        if np.all(src[1:] >= src[:-1]):
            out_indptr = csr.indptr(np.bincount(src, minlength=n))
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
        self._batches, self._clean = [], 0

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def __contains__(self, node: object) -> bool:
        self._resolve()
        return node in self._index

    def nodes(self) -> Iterator[int]:
        """All nodes, in first-appearance order."""
        return iter(self.ids.tolist())

    @property
    def node_count(self) -> int:
        self._resolve()
        return len(self._index)

    @property
    def edge_count(self) -> int:
        """Number of distinct follows."""
        self._compacted()
        return len(self._out[1])

    @property
    def ids(self) -> np.ndarray:
        """``int64`` node ids by position."""
        self._resolve()
        return self._id_array()

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
        """``(positions, present)`` of ``nodes``, an id array or any
        iterable of ids (an absent node's position is meaningless).  A
        few ids are looked up in the id index, more in one pass of
        :meth:`_lookup`."""
        self._resolve()
        if not isinstance(nodes, np.ndarray):
            nodes = list(nodes)
        if len(nodes) >= _FEW_IDS:
            at = self._lookup(np.asarray(nodes, dtype=np.int64))
            at = at.astype(np.int64)
        else:
            get = self._index.get
            ids = nodes.tolist() if isinstance(nodes, np.ndarray) else nodes
            at = np.fromiter((get(u, -1) for u in ids), np.int64, len(ids))
        present = at >= 0
        at[~present] = 0
        return at, present

    def successors(self, node: int) -> list[int]:
        """Whom ``node`` follows, in insertion order."""
        return self.ids[self._row(node, reverse=False)].tolist()

    def predecessors(self, node: int) -> list[int]:
        """Who follows ``node``, by ascending position."""
        return self.ids[self._row(node, reverse=True)].tolist()

    def _row(self, node: int, reverse: bool) -> np.ndarray:
        self._compacted()
        i = self._index.get(node)
        if i is None:
            raise GraphError(f"node {node!r} does not exist")
        indptr, indices = self._in if reverse else self._out
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
        n = len(self._index)
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
