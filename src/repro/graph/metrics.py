"""Graph statistics reproducing the paper's structural measurements.

Table 1 and Table 4 report node/edge counts, mean degrees, diameter and
average path length; Figures 1 and 5 report the distribution of shortest
path lengths.  Exact all-pairs computation is quadratic, so — like the
paper, which samples 2,000 users — the expensive measures are estimated
from BFS trees rooted at a random node sample.  Degrees come from the
CSR row pointers; distances from a multi-source breadth-first search
over the CSR (:func:`hop_distances`), a bounded block of sources at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy import sparse

from repro.graph.followgraph import FollowGraph
from repro.utils.rng import make_rng

__all__ = [
    "GraphSummary",
    "degree_arrays",
    "hop_distances",
    "path_length_sample",
    "summarize_graph",
]

#: Distances held at once by :func:`hop_distances`: sources per block
#: times nodes (32 MB of float64).
_BLOCK_CELLS = 1 << 22


@dataclass(frozen=True)
class GraphSummary:
    """Structural statistics of a directed graph (Tables 1 and 4)."""

    node_count: int
    edge_count: int
    mean_out_degree: float
    mean_in_degree: float
    max_out_degree: int
    max_in_degree: int
    diameter: int
    mean_path_length: float
    path_length_counts: dict[int, int]

    def rows(self) -> list[tuple[str, object]]:
        """(feature, value) rows in the order of the paper's Table 1."""
        return [
            ("# nodes", self.node_count),
            ("# edges", self.edge_count),
            ("avg. out-deg.", round(self.mean_out_degree, 2)),
            ("avg. in-deg.", round(self.mean_in_degree, 2)),
            ("max out-deg.", self.max_out_degree),
            ("max in-deg.", self.max_in_degree),
            ("diameter", self.diameter),
            ("avg. path length", round(self.mean_path_length, 2)),
        ]


def degree_arrays(graph: FollowGraph) -> tuple[np.ndarray, np.ndarray]:
    """Return (out_degrees, in_degrees) arrays over all nodes, in node
    order."""
    indptr, indices = graph.csr()
    return np.diff(indptr), np.bincount(indices, minlength=graph.node_count)


def hop_distances(
    graph: FollowGraph, sources: np.ndarray
) -> Iterator[np.ndarray]:
    """Breadth-first distances along follows from each node position in
    ``sources``: one float row per source over every node (0 at the
    source, ``inf`` where unreachable), yielded in blocks of rows whose
    cells stay under a fixed bound."""
    # Imported here: csgraph adds ~2 MB of RSS to every process that
    # imports this module, the serving ones included, which never call it.
    from scipy.sparse.csgraph import shortest_path

    indptr, indices = graph.csr()
    n = graph.node_count
    step = sparse.csr_matrix(
        (np.ones(len(indices)), indices, indptr), shape=(n, n)
    )
    sources = np.asarray(sources, dtype=np.int64)
    block = max(1, _BLOCK_CELLS // max(n, 1))
    for start in range(0, len(sources), block):
        yield shortest_path(
            step, method="D", unweighted=True,
            indices=sources[start : start + block],
        )


def path_length_sample(
    graph: FollowGraph,
    sample_size: int = 200,
    seed: int | np.random.Generator | None = 0,
) -> dict[int, int]:
    """Histogram of finite shortest-path lengths from sampled sources.

    Runs a full BFS from up to ``sample_size`` random source nodes and
    aggregates the distances of every reached node (distance >= 1).  This is
    the estimator behind Figures 1 and 5 and the diameter / average-path
    rows of Tables 1 and 4.
    """
    rng = make_rng(seed)
    n = graph.node_count
    if not n:
        return {}
    if n > sample_size:
        sources = rng.choice(n, size=sample_size, replace=False)
    else:
        sources = np.arange(n)
    counts: dict[int, int] = {}
    for block in hop_distances(graph, sources):
        for row in block:
            found = np.bincount(row[np.isfinite(row)].astype(np.int64))
            for distance, count in enumerate(found.tolist()):
                if distance and count:
                    counts[distance] = counts.get(distance, 0) + count
    return dict(sorted(counts.items()))


def summarize_graph(
    graph: FollowGraph,
    sample_size: int = 200,
    seed: int | np.random.Generator | None = 0,
) -> GraphSummary:
    """Compute the full :class:`GraphSummary` for ``graph``.

    Degree statistics are exact; diameter and mean path length are
    sample-based estimates (see :func:`path_length_sample`).
    """
    if graph.node_count == 0:
        return GraphSummary(0, 0, 0.0, 0.0, 0, 0, 0, 0.0, {})
    out_degrees, in_degrees = degree_arrays(graph)
    counts = path_length_sample(graph, sample_size=sample_size, seed=seed)
    if counts:
        total = sum(counts.values())
        mean_path = sum(d * c for d, c in counts.items()) / total
        diameter = max(counts)
    else:
        mean_path = 0.0
        diameter = 0
    return GraphSummary(
        node_count=graph.node_count,
        edge_count=graph.edge_count,
        mean_out_degree=float(out_degrees.mean()),
        mean_in_degree=float(in_degrees.mean()),
        max_out_degree=int(out_degrees.max()),
        max_in_degree=int(in_degrees.max()),
        diameter=diameter,
        mean_path_length=mean_path,
        path_length_counts=counts,
    )
