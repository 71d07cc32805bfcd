"""SimGraph construction (paper Definition 4.1).

For every user ``u``, explore the follow graph two hops out (``N2(u)``,
followees and followees-of-followees), score each reached user with the
Def. 3.1 similarity, and keep an edge ``u -> w`` whenever
``sim(u, w) >= tau``.  The result is a directed graph whose out-neighbours
``F_u`` are u's *influential users* — the only users the propagation model
ever consults, which is the paper's dimensionality reduction.

:class:`SimGraphBuilder` computes that construction for chunks of users
at once through sparse products (:mod:`repro.core.simmatrix`); the
per-user loop that states it line by line lives in the test suite as the
oracle the build is pinned against.  The builder takes the exploration
graph as a parameter because the §6.3 *crossfold* update strategy re-runs
the same 2-hop construction **on the previous SimGraph** instead of the
follow graph.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from repro.core.csr import gather_ranges, lookup, sorted_unique
from repro.core.profiles import RetweetProfiles
from repro.core.simmatrix import DEFAULT_CHUNK_SIZE, simgraph_edges
from repro.graph.followgraph import FollowGraph
from repro.graph.metrics import GraphSummary, summarize_graph
from repro.obs import NULL, MetricsRegistry

__all__ = ["SimGraph", "SimGraphBuilder", "DEFAULT_TAU"]

#: Default similarity threshold. The paper's Table 2 reports mean scores in
#: the 0.002-0.006 range with SimGraph keeping ~5.9 out-edges per user; a
#: low threshold keeps informative edges while pruning noise pairs.
DEFAULT_TAU = 0.001

#: Edges :meth:`SimGraph.splice` copies per gather: the positions it
#: gathers (24 bytes an edge) stay a constant beside the arrays.
SPLICE_BLOCK = 1 << 12


class SimGraph:
    """The similarity graph: nodes are users, edge u -> w weighs sim(u, w).

    ``F_u`` (:meth:`influencers`) is the out-neighbourhood of ``u``.  The
    graph is a sparse matrix held in both directions (ten Thij et al.,
    arXiv:1502.00166), the one object both propagation engines and delta
    maintenance read:

    * ``users`` — position -> user id, in node order; ``index`` is its
      inverse;
    * ``inf_indptr`` / ``inf_indices`` / ``inf_weights`` — the CSR rows
      of the influencer direction (``F_u`` by position, in edge order, so
      a segment sum over a row is bit-identical to the reference
      engine's sequential ``sum``), and ``inf_counts`` = ``|F_u|``;
    * ``out_indptr`` / ``out_indices`` / ``out_edges`` — the transpose:
      row ``i`` holds the positions of the users ``users[i]``
      influences, and ``out_edges`` the id (flat position in the
      influencer arrays) of each of those edges.

    The sections may be ``np.memmap``-backed
    (:func:`repro.core.persistence.load_simgraph`).  ``index`` and the
    transpose are built on first read, once each: a graph that is built
    and only saved never pays for them, and
    :class:`~repro.core.propagation_csr.CSRPropagationEngine` builds them
    at construction so no task does.  A graph is never modified;
    maintenance makes a new one (:meth:`splice`).  :meth:`topology`
    wraps the rows and the transpose as a
    :class:`~repro.graph.FollowGraph` for the graph analyses (Table 4,
    Figure 5, bubbles) and the *crossfold* walk.
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
        if int(indptr[0]) != 0 or int(indptr[-1]) != len(indices):
            raise ValueError(
                f"indptr must run from 0 to {len(indices)}, got "
                f"{int(indptr[0])} to {int(indptr[-1])}"
            )
        # Plain-ndarray views: over a memory-mapped snapshot the sections
        # arrive as ``np.memmap``, whose every fancy index pays for
        # ``memmap.__getitem__`` + ``__array_finalize__``.  A view is
        # still zero-copy and still read-only when the file is.
        self.users, self.inf_indptr, self.inf_indices, self.inf_weights = (
            section.view(np.ndarray)
            for section in (users, indptr, indices, weights)
        )
        self.inf_counts = np.diff(self.inf_indptr)
        self.tau = float(tau)

    @classmethod
    def from_edges(
        cls,
        sources: Iterable[int],
        targets: Iterable[int],
        weights: Iterable[float],
        tau: float,
        nodes: Iterable[int] = (),
    ) -> "SimGraph":
        """The graph of the edges ``sources[k] -> targets[k]`` weighing
        ``weights[k]``, over ``nodes`` and the edges' endpoints.

        Nodes are numbered in first appearance over ``nodes`` and then
        ``(sources[0], targets[0], sources[1], targets[1], …)``, and a
        row keeps its edges in the order given — the order a dict
        adjacency fed the same nodes and edges one at a time keeps.
        Edges must be distinct and not self-loops.
        """
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        nodes = np.asarray(list(nodes), dtype=np.int64)
        # Runs of equal sources: a source first appears at a run's head.
        heads = np.flatnonzero(np.diff(sources, prepend=sources[:1] - 1))
        lengths = np.diff(heads, append=len(sources))
        # Each id's earliest slot in nodes + (s0, t0, s1, t1, ...).
        source_ids, at = sorted_unique(sources[heads], return_index=True)
        target_ids, first_target = sorted_unique(targets, return_index=True)
        ids = np.concatenate((nodes, source_ids, target_ids))
        slots = np.concatenate((
            np.arange(-len(nodes), 0), 2 * heads[at], 2 * first_target + 1
        ))
        by_id = np.lexsort((slots, ids))
        ids, slots = ids[by_id], slots[by_id]
        earliest = np.diff(ids, prepend=ids[:1] - 1) != 0
        ids, slots = ids[earliest], slots[earliest]
        order = np.argsort(slots)
        position = np.empty(len(ids), dtype=np.int64)
        position[order] = np.arange(len(ids))
        cols = position[np.searchsorted(ids, targets)]
        rows = position[np.searchsorted(ids, sources[heads])]
        if np.any(np.diff(rows) < 0):
            # Lay the runs out by row; a row's runs keep their order.
            by_row = np.argsort(rows, kind="stable")
            flat, _ = gather_ranges(np.append(heads, len(sources)), by_row)
            cols, weights = cols[flat], weights[flat]
        counts = np.zeros(len(ids), dtype=np.int64)
        np.add.at(counts, rows, lengths)
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(ids[order], indptr, cols, weights, tau)

    # ------------------------------------------------------------------
    # Compiled on first read
    # ------------------------------------------------------------------
    @cached_property
    def index(self) -> dict[int, int]:
        """user id -> position."""
        return dict(zip(self.users.tolist(), range(len(self.users))))

    @cached_property
    def out_indptr(self) -> np.ndarray:
        """Row pointers of the influenced direction."""
        return self._transpose[0]

    @cached_property
    def out_indices(self) -> np.ndarray:
        """Row positions of the influenced direction."""
        return self._transpose[1]

    @cached_property
    def out_edges(self) -> np.ndarray:
        """Edge id of each entry of :attr:`out_indices`: the entry's
        position in ``inf_indices`` / ``inf_weights``."""
        return self._transpose[2]

    @cached_property
    def _transpose(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Edge (row u -> influencer v) means "v influences u", so bucket
        # edge rows by their target position.  The conversion is a
        # counting sort that walks rows in order, so each bucket stays
        # in edge order — a deterministic compile — and carries each
        # edge's id along in the data slot.
        n = len(self.users)
        transpose = sparse.csr_matrix(
            (
                np.arange(len(self.inf_indices), dtype=np.int64),
                self.inf_indices,
                self.inf_indptr,
            ),
            shape=(n, n),
        ).tocsc()
        return (
            transpose.indptr.astype(np.int64, copy=False),
            transpose.indices.astype(np.int64, copy=False),
            transpose.data,
        )

    @cached_property
    def _order(self) -> np.ndarray:
        """The ascending argsort of :attr:`users`."""
        return np.argsort(self.users, kind="stable")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Number of users present in the similarity graph."""
        return len(self.users)

    @property
    def edge_count(self) -> int:
        """Number of similarity edges."""
        return len(self.inf_indices)

    def __contains__(self, user: int) -> bool:
        return user in self.index

    def positions(self, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(positions, present)`` of the ids in ``users`` (an absent
        id's position is 0): a :func:`~repro.core.csr.lookup` in
        :attr:`users`, through their sort made on first use."""
        return lookup(self.users, users, self._order)

    def influencers(self, user: int) -> tuple[tuple[int, float], ...]:
        """F_u with similarity weights: the users who influence ``user``.

        Returned as a tuple snapshot: callers (the propagation engines
        iterate these in hot loops) can never mutate graph state through
        the return value.
        """
        i = self.index.get(user)
        if i is None:
            return ()
        lo, hi = self.inf_indptr[i : i + 2].tolist()
        targets = self.users[self.inf_indices[lo:hi]].tolist()
        return tuple(zip(targets, self.inf_weights[lo:hi].tolist()))

    def influencer_count(self, user: int) -> int:
        """|F_u|."""
        i = self.index.get(user)
        return 0 if i is None else int(self.inf_counts[i])

    def influenced(self, user: int) -> tuple[int, ...]:
        """Users that ``user`` influences (in-neighbours), as a snapshot
        in ascending node position: the transpose's row."""
        i = self.index.get(user)
        if i is None:
            return ()
        lo, hi = self.out_indptr[i : i + 2].tolist()
        return tuple(self.users[self.out_indices[lo:hi]].tolist())

    def similarity(self, u: int, v: int) -> float:
        """Stored edge weight sim(u, v); 0.0 when no edge exists."""
        for target, weight in self.influencers(u):
            if target == v:
                return weight
        return 0.0

    def arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(users, indptr, indices, weights)`` — the raw CSR sections."""
        return self.users, self.inf_indptr, self.inf_indices, self.inf_weights

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def splice(
        self,
        rows: np.ndarray,
        lengths: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray,
        removed: np.ndarray | Sequence[int] = (),
        appended: np.ndarray | Sequence[int] = (),
    ) -> "SimGraph":
        """This graph with ``rows`` replaced, ``removed`` nodes dropped
        and ``appended`` nodes added, at the same ``tau``.

        The new rows come as arrays: ``rows`` are distinct user ids, in
        any order, and row ``rows[k]`` is the next ``lengths[k]`` entries
        of ``targets`` (influencer ids) and ``weights``, in edge order
        (any change: weights, edges added or removed, order); every
        other row is kept.  A removed node must have no edge left in
        either direction.  Surviving nodes keep their order and appended
        ones follow, in the order given — the order a dict adjacency
        gets from the same edits, whose node removal keeps the rest in
        place and whose node creation appends.  A removed id this graph
        does not hold, or a row or target id the result does not hold,
        raises :class:`ValueError`.  Unchanged rows are copied to their
        new offsets by blocked gathers (their targets remapped when a
        node before them went); the result equals the SimGraph of the
        edited graph array for array, and shares this one's index and
        sort when no node changed.  This graph is only read (a
        memory-mapped one included) and stays valid.
        """
        rows = np.asarray(rows, dtype=np.int64)
        appended = np.asarray(appended, dtype=np.int64)
        removed = np.asarray(removed, dtype=np.int64)
        n_old = len(self.users)
        gone, held = self.positions(removed)
        _check_held(removed, held, "removed id")
        keep = np.ones(n_old, dtype=bool)
        keep[gone] = False
        remap = np.cumsum(keep) - 1 if len(gone) else None
        if len(gone) or len(appended):
            users = np.concatenate((self.users[keep], appended))
            index, order = None, np.argsort(users, kind="stable")
        else:
            users, index, order = self.users, self.index, self._order
        n = len(users)

        at, held = lookup(users, rows, order)
        _check_held(rows, held, "row")
        counts = np.zeros(n, dtype=np.int64)
        counts[: int(keep.sum())] = self.inf_counts[keep]
        counts[at] = lengths
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        values = np.empty(len(indices), dtype=np.float64)

        # Unchanged rows keep their edges, at their new offsets: a
        # gather from the old arrays and a scatter into the new ones, a
        # block of about SPLICE_BLOCK edges at a time so that the
        # positions gathered stay a small constant beside the arrays.
        old_at, present = self.positions(rows)
        unchanged = keep.copy()
        unchanged[old_at[present]] = False
        old_rows = np.flatnonzero(unchanged)
        new_rows = old_rows if remap is None else remap[old_rows]
        sizes = self.inf_counts[old_rows]
        block = (np.cumsum(sizes) - sizes) // SPLICE_BLOCK
        bounds = np.flatnonzero(np.diff(block, prepend=-1, append=-1))
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            source, _ = gather_ranges(self.inf_indptr, old_rows[lo:hi])
            dest, _ = gather_ranges(indptr, new_rows[lo:hi])
            run = self.inf_indices[source]
            indices[dest] = run if remap is None else remap[run]
            values[dest] = self.inf_weights[source]
        flat, _ = gather_ranges(indptr, at)
        targets = np.asarray(targets, dtype=np.int64)
        target_at, held = lookup(users, targets, order)
        _check_held(targets, held, "target")
        indices[flat] = target_at
        values[flat] = weights
        spliced = SimGraph(users, indptr, indices, values, self.tau)
        spliced._order = order
        if index is not None:
            spliced.index = index
        return spliced

    def topology(self) -> FollowGraph:
        """The edges ``u -> w`` (``w`` influences ``u``) as a
        :class:`~repro.graph.FollowGraph` over these arrays: nodes in
        node order, rows in edge order, no copy."""
        return FollowGraph.from_csr(
            self.users,
            (self.inf_indptr, self.inf_indices),
            (self.out_indptr, self.out_indices),
        )

    # ------------------------------------------------------------------
    # Reporting (paper Table 4 / Figure 5)
    # ------------------------------------------------------------------
    def mean_similarity(self) -> float:
        """Average edge weight (Table 4's "Mean Similarity Score")."""
        if len(self.inf_weights) == 0:
            return 0.0
        return float(np.mean(self.inf_weights))

    def summary(self, sample_size: int = 200, seed: int = 0) -> GraphSummary:
        """Structural summary (degrees, diameter, path lengths)."""
        return summarize_graph(
            self.topology(), sample_size=sample_size, seed=seed
        )

    def table4_rows(self, sample_size: int = 200, seed: int = 0) -> list[tuple[str, object]]:
        """The rows of the paper's Table 4."""
        graph_summary = self.summary(sample_size=sample_size, seed=seed)
        return [
            ("Nb of nodes", self.node_count),
            ("Nb of edges", self.edge_count),
            ("Mean Similarity Score", round(self.mean_similarity(), 4)),
            ("Mean out-degree", round(graph_summary.mean_out_degree, 2)),
            ("Diameter", graph_summary.diameter),
            ("Mean smallest path", round(graph_summary.mean_path_length, 2)),
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SimGraph(nodes={self.node_count}, edges={self.edge_count}, "
            f"tau={self.tau})"
        )


def _check_held(ids: np.ndarray, held: np.ndarray, what: str) -> None:
    """Refuse the first of ``ids`` whose ``held`` mask entry is false."""
    if not held.all():
        absent = int(ids[np.argmin(held)])
        raise ValueError(f"splice: {what} {absent} is not a node of the graph")


class SimGraphBuilder:
    """Builds a :class:`SimGraph` by bounded exploration + thresholding.

    Parameters
    ----------
    tau:
        Minimum similarity for an edge to be created.
    hops:
        Exploration radius in the base graph (the paper uses 2).
    max_influencers:
        Optional cap on |F_u|: keep only the strongest ``max_influencers``
        out-edges per user.  The paper controls density through τ alone
        (their graph settles at out-degree 5.9); the cap is an extra
        precision/reach knob — low caps sharpen precision (best F1) at
        the cost of propagation reach.  ``None`` (default) disables it.
    backend:
        Accepts only ``"vectorized"``, the one build.  The keyword stays
        because the end-to-end ledger's frozen tier builder
        (``benchmarks/e2e/tier.py``) passes it.
    chunk_size:
        Sources scored per sparse product.
    metrics:
        Observability registry (default: no-op :data:`repro.obs.NULL`).
        A real registry records the ``simgraph.build`` span, pairs
        scored / edges kept counters, an out-degree histogram and chunk
        timings.
    """

    def __init__(
        self,
        tau: float = DEFAULT_TAU,
        hops: int = 2,
        max_influencers: int | None = None,
        backend: str = "vectorized",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        metrics: MetricsRegistry | None = None,
    ):
        if tau < 0:
            raise ValueError(f"tau must be non-negative, got {tau}")
        if hops < 1:
            raise ValueError(f"hops must be at least 1, got {hops}")
        if max_influencers is not None and max_influencers < 1:
            raise ValueError(
                f"max_influencers must be positive, got {max_influencers}"
            )
        if backend != "vectorized":
            raise ValueError(f"unknown backend {backend!r}; available: vectorized")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
        self.tau = tau
        self.hops = hops
        self.max_influencers = max_influencers
        self.chunk_size = chunk_size
        self.metrics = metrics if metrics is not None else NULL

    def build(
        self,
        exploration_graph: FollowGraph,
        profiles: RetweetProfiles,
        users: Iterable[int] | None = None,
    ) -> SimGraph:
        """Construct the similarity graph.

        ``exploration_graph`` is walked ``hops`` levels from each user to
        collect candidates (pass the follow graph for the standard
        construction, a previous SimGraph's rows for *crossfold*);
        ``users`` optionally restricts the sources explored.

        Users without retweets never gain edges — they are the cold-start
        population absent from the paper's Table 4 graph.  The scored
        chunks' edge arrays are joined into the CSR sections directly:
        nodes in first appearance, edges in emission order.
        """
        metrics = self.metrics
        sources = list(users) if users is not None else list(exploration_graph.nodes())
        with metrics.span("simgraph.build"):
            metrics.counter("simgraph.sources").inc(len(sources))
            rows, influencers, sims = simgraph_edges(
                exploration_graph,
                profiles,
                sources,
                tau=self.tau,
                hops=self.hops,
                max_influencers=self.max_influencers,
                chunk_size=self.chunk_size,
                metrics=metrics,
            )
            metrics.counter("simgraph.edges_kept").inc(len(rows))
            out_degree = metrics.histogram("simgraph.out_degree")
            # A source's edges are one run of ``rows``.
            starts = np.flatnonzero(np.diff(rows, prepend=rows[:1] - 1))
            for degree in np.diff(starts, append=len(rows)).tolist():
                out_degree.observe(degree)
            return SimGraph.from_edges(rows, influencers, sims, self.tau)
