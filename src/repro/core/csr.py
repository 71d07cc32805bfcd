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

A compiled graph is immutable: maintenance replaces it.  The delta
maintenance engine's :class:`~repro.core.delta.DeltaReport` names
exactly the rows that changed, and :meth:`CSRSimGraph.splice` builds the
next compiled graph from this one and those rows alone — unchanged row
segments are block copies, only the named rows are read back from the
dict adjacency — so a rebuild that moved a few percent of the rows,
edges added and removed included, never re-walks the rest.  The splice
writes new arrays: it works from a read-only memory-mapped source as
well.  A rebuild without a report (the other §6.3 strategies)
recompiles with :meth:`CSRSimGraph.from_simgraph`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np
from scipy import sparse

from repro.core.simgraph import SimGraph
from repro.graph.digraph import DiGraph

__all__ = ["ArraySimGraph", "CSRSimGraph", "gather_ranges"]


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
        "inf_counts", "out_indptr", "out_indices",
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

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_simgraph(cls, simgraph: SimGraph) -> "CSRSimGraph":
        """Compile ``simgraph`` (one pass over its nodes and edges)."""
        graph = simgraph.graph
        n = graph.node_count
        users = np.fromiter(graph.nodes(), dtype=np.int64, count=n)
        index = {int(u): i for i, u in enumerate(users.tolist())}
        m = graph.edge_count
        indptr = np.zeros(n + 1, dtype=np.int64)
        indices = np.empty(m, dtype=np.int64)
        weights = np.empty(m, dtype=np.float64)
        pos = 0
        for i, u in enumerate(users.tolist()):
            for v, w in graph.out_edges(u):
                indices[pos] = index[v]
                weights[pos] = w
                pos += 1
            indptr[i + 1] = pos
        return cls(users, indptr, indices, weights)

    def splice(
        self, simgraph: SimGraph, changed_users: Iterable[int]
    ) -> "CSRSimGraph | None":
        """The compiled form of ``simgraph``, built from this one.

        ``simgraph`` must differ from the compiled graph only in the
        out-rows of ``changed_users`` (any change: weights, edges added
        or removed, order) and in nodes appended after the compiled
        ones — what a :class:`~repro.core.delta.DeltaReport` promises.
        Runs of unchanged rows are block-copied to their new offsets,
        the changed rows are read from the dict adjacency, appended
        nodes take the next positions; the result equals
        ``from_simgraph(simgraph)`` array for array.  This structure is
        only read (a memory-mapped one included) and stays valid.

        Returns ``None`` when a compiled node is gone or the node order
        differs — positions would shift under every row, so the caller
        recompiles.
        """
        graph = simgraph.graph
        n_old = len(self.users)
        n = graph.node_count
        if n < n_old:
            return None
        users = np.fromiter(graph.nodes(), dtype=np.int64, count=n)
        if not np.array_equal(users[:n_old], self.users):
            return None
        index = self.index
        if n > n_old:
            index = dict(index)
            index.update(zip(users[n_old:].tolist(), range(n_old, n)))

        position_of = index.__getitem__
        changed = sorted(changed_users, key=position_of)
        rows = np.fromiter(
            map(position_of, changed), dtype=np.int64, count=len(changed)
        )
        lengths: list[int] = []
        targets: list[int] = []
        values: list[float] = []
        for u in changed:
            row = graph.out_row(u)
            lengths.append(len(row))
            targets.extend(map(position_of, row))
            values.extend(row.values())
        counts = np.zeros(n, dtype=np.int64)
        counts[:n_old] = self.inf_counts
        counts[rows] = lengths
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        weights = np.empty(len(indices), dtype=np.float64)

        # Unchanged rows: the changed ones cut the old row range into
        # runs, and a run's edges are contiguous in old and new alike.
        cuts = rows[rows < n_old]
        first = np.concatenate(([0], cuts + 1))
        last = np.concatenate((cuts, [n_old]))
        source = self.inf_indptr[first]
        sizes = self.inf_indptr[last] - source
        moved = np.flatnonzero(sizes)
        old_indices, old_weights = self.inf_indices, self.inf_weights
        for lo, size, to in zip(
            source[moved].tolist(),
            sizes[moved].tolist(),
            indptr[first[moved]].tolist(),
        ):
            indices[to : to + size] = old_indices[lo : lo + size]
            weights[to : to + size] = old_weights[lo : lo + size]
        flat, _ = gather_ranges(indptr, rows)
        indices[flat] = targets
        weights[flat] = values
        return CSRSimGraph(users, indptr, indices, weights, index=index)

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
    the time it takes to parse a header.  This class is the SimGraph
    face of those arrays:

    * count/membership/row queries are answered from the arrays (plus a
      lazily built id index) without ever touching a dict adjacency;
    * :meth:`csr` compiles the :class:`CSRSimGraph` the ``csr``
      propagation backend consumes — sharing the arrays zero-copy;
    * ``.graph`` materializes the dict-of-dict :class:`DiGraph` on
      first access, so every legacy consumer (reference propagation,
      delta maintenance, Table-4 reporting) still works — it just pays
      the materialization cost once, and only if it really needs it.

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

    def row(self, user: int) -> dict[int, float]:
        return dict(self.influencers(user))

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
