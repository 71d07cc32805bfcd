"""Compiled CSR form of the SimGraph.

The dict-of-dict :class:`~repro.graph.digraph.DiGraph` behind a
:class:`~repro.core.simgraph.SimGraph` is ideal for incremental
construction but slow to *propagate* over: Algorithm 1 spends its time
gathering influencer lists and predecessor sets, and every lookup pays
Python dict overhead.  This module freezes a finished SimGraph into flat
numpy arrays — the sparse-matrix formulation the influence-propagation
literature uses for exactly this cascade structure (ten Thij et al.,
arXiv:1502.00166; Nguyen & Zheng, arXiv:1307.4264):

* a contiguous **user index** (position ``i`` <-> user id ``users[i]``,
  in graph insertion order so compilation is deterministic);
* the **influencer direction** as CSR rows: row ``i`` lists ``F_u`` of
  ``users[i]`` with similarity weights, *in the same order the DiGraph
  stores them* — segment sums over these rows are then bit-identical to
  the reference engine's sequential Python ``sum``;
* the **influenced direction** (the CSR transpose): row ``i`` lists the
  users that ``users[i]`` influences, which is what frontier expansion
  consumes.

A compiled graph is immutable: maintenance replaces it.  Delta
maintenance (:func:`~repro.core.delta.apply_delta`) reads the old rows
it rescores from these arrays and hands :meth:`CSRSimGraph.splice` only
the rows that changed — unchanged row segments are block copies, nodes
left without an edge drop out through a position remap and new ones
append — so a rebuild that moved a few percent of the rows never
re-walks the rest and never builds a dict adjacency.  The splice writes
new arrays: it works from a read-only memory-mapped source as well.  A
rebuild without a report (the other §6.3 strategies) recompiles with
:meth:`CSRSimGraph.from_simgraph`.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Sequence

import numpy as np
from scipy import sparse

from repro.core.simgraph import SimGraph
from repro.graph.digraph import DiGraph

__all__ = ["ArraySimGraph", "CSRSimGraph", "gather_ranges", "lookup"]


def lookup(
    keys: np.ndarray, probes: np.ndarray, order: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(at, found)``: for each probe, the position of an equal entry
    of ``keys`` and whether there is one (``at`` is meaningless where
    not).  A binary search through ``order``, the ascending argsort of
    ``keys`` (computed when not given)."""
    if not len(keys):
        return np.zeros(len(probes), dtype=np.int64), np.zeros(len(probes), dtype=bool)
    if order is None:
        order = np.argsort(keys, kind="stable")
    at = np.searchsorted(keys, probes, sorter=order)
    at[at == len(keys)] = 0
    at = order[at]
    return at, keys[at] == probes


def gather_ranges(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat element positions of CSR ``rows``, plus their lengths.

    Returns ``(flat, lengths)`` where ``flat`` indexes the CSR data
    arrays for every element of every requested row (rows concatenated
    in the order given) and ``lengths`` are the per-row element counts.
    """
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    ends = lengths.cumsum()
    if not len(ends) or not ends[-1]:
        return np.empty(0, dtype=np.int64), lengths
    # Element k of row r sits at starts[r] + (k - elements before r).
    flat = np.arange(ends[-1], dtype=np.int64)
    flat += (starts - ends + lengths).repeat(lengths)
    return flat, lengths


class CSRSimGraph:
    """A :class:`SimGraph` frozen into flat numpy CSR arrays.

    Attributes
    ----------
    users:
        ``int64[n]`` — position -> user id (graph insertion order).
    index:
        user id -> position (inverse of ``users``).
    inf_indptr / inf_indices / inf_weights:
        CSR of the influencer direction: row ``i`` holds the positions
        and similarities of ``F_u`` for ``users[i]``, preserving the
        DiGraph's edge order.
    inf_counts:
        ``int64[n]`` — ``|F_u|`` per row (the Def. 4.2 divisor).
    out_indptr / out_indices:
        CSR of the influenced direction (transpose): row ``i`` holds the
        positions of the users ``users[i]`` influences.
    """

    __slots__ = (
        "users", "index", "inf_indptr", "inf_indices", "inf_weights",
        "inf_counts", "out_indptr", "out_indices", "_order",
    )

    def __init__(
        self,
        users: np.ndarray,
        inf_indptr: np.ndarray,
        inf_indices: np.ndarray,
        inf_weights: np.ndarray,
        index: dict[int, int] | None = None,
    ):
        # Plain-ndarray views: over a memory-mapped snapshot the sections
        # arrive as ``np.memmap``, whose every fancy index pays for
        # ``memmap.__getitem__`` + ``__array_finalize__``.  A view is
        # still zero-copy and still read-only when the file is.
        users, inf_indptr, inf_indices, inf_weights = (
            section.view(np.ndarray)
            for section in (users, inf_indptr, inf_indices, inf_weights)
        )
        self.users = users
        if index is None:
            index = {int(u): i for i, u in enumerate(users.tolist())}
        self.index = index
        self.inf_indptr = inf_indptr
        self.inf_indices = inf_indices
        self.inf_weights = inf_weights
        self.inf_counts = np.diff(inf_indptr)
        n = len(users)
        # Transpose: edge (row u -> influencer v) means "v influences u",
        # so bucket edge rows by their target position.  The conversion
        # is a counting sort that walks rows in order, so each bucket
        # stays in edge order — deterministic compilation.
        transpose = sparse.csr_matrix(
            (np.ones(len(inf_indices), dtype=np.int8), inf_indices, inf_indptr),
            shape=(n, n),
        ).tocsc()
        self.out_indices = transpose.indices.astype(np.int64, copy=False)
        self.out_indptr = transpose.indptr.astype(np.int64, copy=False)
        self._order: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_simgraph(cls, simgraph: SimGraph) -> "CSRSimGraph":
        """Compile ``simgraph`` (one pass over its nodes and edges): the
        splice of all of its rows into an empty graph."""
        graph = simgraph.graph
        nodes = np.fromiter(graph.nodes(), dtype=np.int64)
        rows = [graph.out_row(u) for u in nodes.tolist()]
        lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        size = int(lengths.sum())
        none = np.empty(0, dtype=np.int64)
        empty = cls(none, np.zeros(1, dtype=np.int64), none, none.astype(float))
        return empty.splice(
            nodes,
            lengths,
            np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=size),
            np.fromiter(
                chain.from_iterable(row.values() for row in rows),
                dtype=np.float64,
                count=size,
            ),
            appended=nodes,
        )

    def positions(self, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(positions, present)`` of the ids in ``users`` (an absent
        id's position is meaningless): a binary search through a sort
        of :attr:`users` made on first use."""
        if self._order is None:
            self._order = np.argsort(self.users, kind="stable")
        return lookup(self.users, users, self._order)

    def splice(
        self,
        rows: np.ndarray,
        lengths: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray,
        removed: np.ndarray | Sequence[int] = (),
        appended: np.ndarray | Sequence[int] = (),
    ) -> "CSRSimGraph":
        """This graph with ``rows`` replaced, ``removed`` nodes dropped
        and ``appended`` nodes added.

        The new rows come as arrays: ``rows`` are distinct user ids, in
        any order, and row ``rows[k]`` is the next ``lengths[k]`` entries
        of ``targets`` (influencer ids) and ``weights``, in edge order
        (any change: weights, edges added or removed, order); every
        other row is kept.  A removed node must have no edge left in
        either direction.  Surviving nodes keep their order and appended
        ones follow, in the order given — the order a :class:`DiGraph`
        gets from the same edits, whose node removal keeps the rest in
        place and whose node creation appends.  Runs of unchanged rows
        are block-copied to their new offsets (their targets remapped
        when a node before them went); the result equals
        ``from_simgraph`` of the edited graph array for array.  This
        structure is only read (a memory-mapped one included) and stays
        valid.
        """
        rows = np.asarray(rows, dtype=np.int64)
        appended = np.asarray(appended, dtype=np.int64)
        n_old = len(self.users)
        gone, _ = self.positions(np.asarray(removed, dtype=np.int64))
        keep = np.ones(n_old, dtype=bool)
        keep[gone] = False
        remap = None
        users, index, order = self.users, self.index, self._order
        if len(gone) or len(appended):
            users = np.concatenate((self.users[keep], appended))
            index = dict(zip(users.tolist(), range(len(users))))
            order = None
            if len(gone):
                remap = np.cumsum(keep) - 1
        if order is None:
            order = np.argsort(users, kind="stable")
        n = len(users)

        at, _ = lookup(users, rows, order)
        counts = np.zeros(n, dtype=np.int64)
        counts[: int(keep.sum())] = self.inf_counts[keep]
        counts[at] = lengths
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        values = np.empty(len(indices), dtype=np.float64)

        # Unchanged rows: the changed and removed ones cut the old row
        # range into runs, and a run's edges are contiguous in old and
        # new alike.
        old_at, present = self.positions(rows)
        cuts = np.union1d(old_at[present], gone)
        first = np.concatenate(([0], cuts + 1))
        last = np.concatenate((cuts, [n_old]))
        source = self.inf_indptr[first]
        sizes = self.inf_indptr[last] - source
        moved = np.flatnonzero(sizes)
        new_first = first[moved] if remap is None else remap[first[moved]]
        old_indices, old_weights = self.inf_indices, self.inf_weights
        for lo, size, to in zip(
            source[moved].tolist(),
            sizes[moved].tolist(),
            indptr[new_first].tolist(),
        ):
            run = old_indices[lo : lo + size]
            indices[to : to + size] = run if remap is None else remap[run]
            values[to : to + size] = old_weights[lo : lo + size]
        flat, _ = gather_ranges(indptr, at)
        indices[flat] = lookup(users, np.asarray(targets), order)[0]
        values[flat] = weights
        spliced = CSRSimGraph(users, indptr, indices, values, index=index)
        spliced._order = order
        return spliced

    def influenced(self, user: int) -> list[int]:
        """Users whose rows hold ``user``, by ascending position."""
        i = self.index.get(user)
        if i is None:
            return []
        row = self.out_indices[self.out_indptr[i] : self.out_indptr[i + 1]]
        return self.users[row].tolist()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Number of compiled users."""
        return len(self.users)

    @property
    def edge_count(self) -> int:
        """Number of compiled similarity edges."""
        return len(self.inf_indices)

    def __contains__(self, user: int) -> bool:
        return user in self.index

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CSRSimGraph(nodes={self.node_count}, edges={self.edge_count})"
        )


class ArraySimGraph(SimGraph):
    """A :class:`SimGraph` whose edges live in flat CSR arrays.

    The snapshot format v2 loader (:func:`repro.core.persistence.
    load_simgraph` with ``mmap=True``) and the scale benchmarks build
    graphs directly from ``(users, indptr, indices, weights)`` arrays —
    possibly ``np.memmap``-backed, so a million-edge graph "loads" in
    the time it takes to parse a header — and delta maintenance returns
    the graph it spliced as one (:meth:`from_csr`).  This class is the
    SimGraph face of those arrays:

    * count/membership/row queries are answered from the arrays (plus a
      lazily built id index) without ever touching a dict adjacency;
    * :meth:`csr` compiles the :class:`CSRSimGraph` the ``csr``
      propagation backend and delta maintenance consume — sharing the
      arrays zero-copy;
    * ``.graph`` materializes the dict-of-dict :class:`DiGraph` on
      first access, so every legacy consumer (reference propagation,
      the other §6.3 strategies, Table-4 reporting) still works — it
      just pays the materialization cost once, and only if it really
      needs it.

    Rows keep the array order, so ``csr()`` and
    ``CSRSimGraph.from_simgraph(self)`` (via the materialized DiGraph)
    compile bit-identical structures.
    """

    def __init__(
        self,
        users: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        tau: float,
    ):
        n = len(users)
        if len(indptr) != n + 1:
            raise ValueError(
                f"indptr must have {n + 1} entries, got {len(indptr)}"
            )
        if len(indices) != len(weights):
            raise ValueError(
                f"indices ({len(indices)}) and weights ({len(weights)}) "
                "must have the same length"
            )
        self._users_arr = users
        self._indptr = indptr
        self._indices = indices
        self._weights = weights
        self.tau = float(tau)
        self._graph_cache: DiGraph | None = None
        self._csr_cache: CSRSimGraph | None = None
        self._id_index: dict[int, int] | None = None

    @classmethod
    def from_csr(cls, csr: CSRSimGraph, tau: float) -> "ArraySimGraph":
        """The SimGraph face of an already compiled graph (its arrays
        and its :meth:`csr`)."""
        graph = cls(
            csr.users, csr.inf_indptr, csr.inf_indices, csr.inf_weights, tau
        )
        graph._csr_cache = csr
        return graph

    # ------------------------------------------------------------------
    # Array-native queries (no DiGraph materialization)
    # ------------------------------------------------------------------
    def _index(self) -> dict[int, int]:
        if self._csr_cache is not None:
            return self._csr_cache.index
        if self._id_index is None:
            self._id_index = {
                int(u): i for i, u in enumerate(self._users_arr.tolist())
            }
        return self._id_index

    @property
    def node_count(self) -> int:
        return len(self._users_arr)

    @property
    def edge_count(self) -> int:
        return len(self._indices)

    def __contains__(self, user: int) -> bool:
        return user in self._index()

    def users(self) -> Iterator[int]:
        return iter(self._users_arr.tolist())

    def influencers(self, user: int) -> tuple[tuple[int, float], ...]:
        i = self._index().get(user)
        if i is None:
            return ()
        lo, hi = int(self._indptr[i]), int(self._indptr[i + 1])
        targets = self._users_arr[self._indices[lo:hi]].tolist()
        return tuple(zip(targets, self._weights[lo:hi].tolist()))

    def influencer_count(self, user: int) -> int:
        i = self._index().get(user)
        if i is None:
            return 0
        return int(self._indptr[i + 1] - self._indptr[i])

    def similarity(self, u: int, v: int) -> float:
        for target, weight in self.influencers(u):
            if target == v:
                return weight
        return 0.0

    def mean_similarity(self) -> float:
        if len(self._weights) == 0:
            return 0.0
        return float(np.mean(self._weights))

    def arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(users, indptr, indices, weights)`` — the raw CSR sections."""
        return self._users_arr, self._indptr, self._indices, self._weights

    def csr(self) -> CSRSimGraph:
        """The compiled structure for the ``csr`` propagation backend.

        Built lazily and cached; shares the underlying arrays zero-copy
        (a memory-mapped snapshot stays on disk until rows are touched).
        """
        if self._csr_cache is None:
            self._csr_cache = CSRSimGraph(
                self._users_arr, self._indptr, self._indices, self._weights
            )
        return self._csr_cache

    # ------------------------------------------------------------------
    # Legacy dict-adjacency face
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DiGraph:
        """The dict-of-dict adjacency, materialized on first access."""
        if self._graph_cache is None:
            graph = DiGraph()
            users = self._users_arr.tolist()
            graph.add_nodes(users)
            indptr = self._indptr
            for i, u in enumerate(users):
                lo, hi = int(indptr[i]), int(indptr[i + 1])
                if lo == hi:
                    continue
                graph.set_row(
                    u,
                    {
                        users[j]: w
                        for j, w in zip(
                            self._indices[lo:hi].tolist(),
                            self._weights[lo:hi].tolist(),
                        )
                    },
                )
            self._graph_cache = graph
        return self._graph_cache

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ArraySimGraph(nodes={self.node_count}, "
            f"edges={self.edge_count}, tau={self.tau})"
        )
