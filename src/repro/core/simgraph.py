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

from typing import Iterable, Iterator

import numpy as np

from repro.core.csr import CSRSimGraph, gather_ranges
from repro.core.profiles import RetweetProfiles
from repro.core.simmatrix import DEFAULT_CHUNK_SIZE, simgraph_edges
from repro.graph.digraph import DiGraph
from repro.graph.followgraph import FollowGraph
from repro.graph.metrics import GraphSummary, summarize_graph
from repro.obs import NULL, MetricsRegistry

__all__ = ["SimGraph", "SimGraphBuilder", "DEFAULT_TAU"]

#: Default similarity threshold. The paper's Table 2 reports mean scores in
#: the 0.002-0.006 range with SimGraph keeping ~5.9 out-edges per user; a
#: low threshold keeps informative edges while pruning noise pairs.
DEFAULT_TAU = 0.001


class SimGraph:
    """The similarity graph: nodes are users, edge u -> w weighs sim(u, w).

    ``F_u`` (:meth:`influencers`) is the out-neighbourhood of ``u``.  The
    edges live in flat CSR sections: ``users`` (position -> user id),
    ``indptr``, ``indices`` (influencer positions) and ``weights`` —
    possibly ``np.memmap``-backed (:func:`repro.core.persistence.
    load_simgraph`), so a million-edge graph "loads" in the time it
    takes to parse a header.

    * membership and row queries (:meth:`influencers`,
      :meth:`influenced`) read :meth:`csr`, the compiled
      :class:`~repro.core.csr.CSRSimGraph` both propagation engines and
      delta maintenance consume: it shares the arrays zero-copy, holds
      the graph's one id index and the transpose that answers
      :meth:`influenced`;
    * :meth:`to_digraph` materializes a dict adjacency once, for the
      offline Table 4 / Figure 5 / bubble analyses only.
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
        self._users = users
        self._indptr = indptr
        self._indices = indices
        self._weights = weights
        self.tau = float(tau)
        self._digraph: DiGraph | None = None
        self._csr: CSRSimGraph | None = None

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
        source_ids, at = np.unique(sources[heads], return_index=True)
        target_ids, first_target = np.unique(targets, return_index=True)
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

    @classmethod
    def from_csr(cls, csr: CSRSimGraph, tau: float) -> "SimGraph":
        """The SimGraph of an already compiled graph (its arrays and its
        :meth:`csr`)."""
        graph = cls(
            csr.users, csr.inf_indptr, csr.inf_indices, csr.inf_weights, tau
        )
        graph._csr = csr
        return graph

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Number of users present in the similarity graph."""
        return len(self._users)

    @property
    def edge_count(self) -> int:
        """Number of similarity edges."""
        return len(self._indices)

    def __contains__(self, user: int) -> bool:
        return user in self.csr().index

    def users(self) -> Iterator[int]:
        """All users present in the graph, in node order."""
        return iter(self._users.tolist())

    def influencers(self, user: int) -> tuple[tuple[int, float], ...]:
        """F_u with similarity weights: the users who influence ``user``.

        Returned as a tuple snapshot: callers (the propagation engines
        iterate these in hot loops) can never mutate graph state through
        the return value.
        """
        csr = self.csr()
        i = csr.index.get(user)
        if i is None:
            return ()
        lo, hi = csr.inf_indptr[i : i + 2].tolist()
        targets = csr.users[csr.inf_indices[lo:hi]].tolist()
        return tuple(zip(targets, csr.inf_weights[lo:hi].tolist()))

    def influencer_count(self, user: int) -> int:
        """|F_u|."""
        csr = self.csr()
        i = csr.index.get(user)
        return 0 if i is None else int(csr.inf_counts[i])

    def influenced(self, user: int) -> tuple[int, ...]:
        """Users that ``user`` influences (in-neighbours), as a snapshot
        in ascending node position: the compiled transpose's row."""
        return tuple(self.csr().influenced(user))

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
        return self._users, self._indptr, self._indices, self._weights

    def csr(self) -> CSRSimGraph:
        """The compiled structure for the ``csr`` propagation backend.

        Built lazily and cached; shares the underlying arrays zero-copy
        (a memory-mapped snapshot stays on disk until rows are touched).
        """
        if self._csr is None:
            self._csr = CSRSimGraph(
                self._users, self._indptr, self._indices, self._weights
            )
        return self._csr

    def to_digraph(self) -> DiGraph:
        """The dict-of-dict adjacency, in node and edge order: built on
        first call and cached, so callers must treat it as read-only."""
        if self._digraph is None:
            graph = DiGraph()
            users = self._users.tolist()
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
            self._digraph = graph
        return self._digraph

    # ------------------------------------------------------------------
    # Reporting (paper Table 4 / Figure 5)
    # ------------------------------------------------------------------
    def mean_similarity(self) -> float:
        """Average edge weight (Table 4's "Mean Similarity Score")."""
        if len(self._weights) == 0:
            return 0.0
        return float(np.mean(self._weights))

    def summary(self, sample_size: int = 200, seed: int = 0) -> GraphSummary:
        """Structural summary (degrees, diameter, path lengths)."""
        return summarize_graph(
            self.to_digraph(), sample_size=sample_size, seed=seed
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
        exploration_graph: FollowGraph | DiGraph,
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
