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

from typing import Iterable

import numpy as np

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

    ``F_u`` (:meth:`influencers`) is the out-neighbourhood of ``u``.
    """

    def __init__(self, graph: DiGraph, tau: float):
        self.graph = graph
        self.tau = tau

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Number of users present in the similarity graph."""
        return self.graph.node_count

    @property
    def edge_count(self) -> int:
        """Number of similarity edges."""
        return self.graph.edge_count

    def __contains__(self, user: int) -> bool:
        return user in self.graph

    def users(self) -> Iterable[int]:
        """All users present in the graph."""
        return self.graph.nodes()

    def influencers(self, user: int) -> tuple[tuple[int, float], ...]:
        """F_u with similarity weights: the users who influence ``user``.

        Returned as a tuple snapshot: callers (the propagation engines
        iterate these in hot loops) can never mutate graph state through
        the return value.
        """
        if user not in self.graph:
            return ()
        return tuple(self.graph.out_edges(user))

    def influencer_count(self, user: int) -> int:
        """|F_u|."""
        if user not in self.graph:
            return 0
        return self.graph.out_degree(user)

    def influenced(self, user: int) -> tuple[int, ...]:
        """Users that ``user`` influences (in-neighbours), as a snapshot."""
        if user not in self.graph:
            return ()
        return tuple(self.graph.predecessors(user))

    def similarity(self, u: int, v: int) -> float:
        """Stored edge weight sim(u, v); 0.0 when no edge exists."""
        if self.graph.has_edge(u, v):
            return self.graph.weight(u, v)
        return 0.0

    # ------------------------------------------------------------------
    # Reporting (paper Table 4 / Figure 5)
    # ------------------------------------------------------------------
    def mean_similarity(self) -> float:
        """Average edge weight (Table 4's "Mean Similarity Score")."""
        weights = [w for _, _, w in self.graph.edges()]
        if not weights:
            return 0.0
        return float(np.mean(weights))

    def summary(self, sample_size: int = 200, seed: int = 0) -> GraphSummary:
        """Structural summary (degrees, diameter, path lengths)."""
        return summarize_graph(self.graph, sample_size=sample_size, seed=seed)

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
        construction, a previous SimGraph's graph for *crossfold*);
        ``users`` optionally restricts the sources explored.

        Users without retweets never gain edges — they are the cold-start
        population absent from the paper's Table 4 graph.
        """
        metrics = self.metrics
        sources = list(users) if users is not None else list(exploration_graph.nodes())
        with metrics.span("simgraph.build"):
            metrics.counter("simgraph.sources").inc(len(sources))
            pairs = simgraph_edges(
                exploration_graph,
                profiles,
                sources,
                tau=self.tau,
                hops=self.hops,
                max_influencers=self.max_influencers,
                chunk_size=self.chunk_size,
                metrics=metrics,
            )
            result = DiGraph()
            edges_kept = metrics.counter("simgraph.edges_kept")
            out_degree = metrics.histogram("simgraph.out_degree")
            for u, kept in pairs:
                edges_kept.inc(len(kept))
                out_degree.observe(len(kept))
                for w, score in kept.items():
                    result.add_edge(u, w, weight=score)
        return SimGraph(result, tau=self.tau)
