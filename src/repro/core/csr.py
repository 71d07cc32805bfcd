"""Compiled CSR form of the SimGraph.

A :class:`~repro.core.simgraph.SimGraph` holds its edges as the
influencer-direction CSR sections and nothing else.  Propagation needs
more: Algorithm 1 spends its time gathering influencer rows *and* the
users each changed user influences.  This module compiles the sections
into the structure the engines read — the sparse-matrix formulation the
influence-propagation literature uses for exactly this cascade
structure (ten Thij et al., arXiv:1502.00166; Nguyen & Zheng,
arXiv:1307.4264):

* a contiguous **user index** (position ``i`` <-> user id ``users[i]``,
  in the SimGraph's node order so compilation is deterministic);
* the **influencer direction** as CSR rows: row ``i`` lists ``F_u`` of
  ``users[i]`` with similarity weights, *in the SimGraph's edge order*
  — segment sums over these rows are then bit-identical to the
  reference engine's sequential Python ``sum``;
* the **influenced direction** (the CSR transpose): row ``i`` lists the
  users that ``users[i]`` influences, which is what frontier expansion
  consumes.

A compiled graph is immutable: maintenance replaces it.  Delta
maintenance (:func:`~repro.core.delta.apply_delta`) reads the old rows
it rescores from these arrays and hands :meth:`CSRSimGraph.splice` only
the rows that changed — unchanged row segments are block copies, nodes
left without an edge drop out through a position remap and new ones
append — so a rebuild that moved a few percent of the rows never
re-walks the rest.  The splice writes new arrays: it works from a
read-only memory-mapped source as well.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import sparse

__all__ = ["CSRSimGraph", "gather_ranges", "lookup"]


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
    """A :class:`~repro.core.simgraph.SimGraph` compiled for propagation.

    Attributes
    ----------
    users:
        ``int64[n]`` — position -> user id (the SimGraph's node order).
    index:
        user id -> position (inverse of ``users``).
    inf_indptr / inf_indices / inf_weights:
        CSR of the influencer direction: row ``i`` holds the positions
        and similarities of ``F_u`` for ``users[i]``, in the SimGraph's
        edge order.
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
        ones follow, in the order given — the order a dict adjacency
        gets from the same edits, whose node removal keeps the rest in
        place and whose node creation appends.  Runs of unchanged rows
        are block-copied to their new offsets (their targets remapped
        when a node before them went); the result equals a compile of
        the edited graph array for array.  This structure is only read
        (a memory-mapped one included) and stays valid.
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
