"""The dict-of-sets follow graph, now the oracle of the CSR one.

``src/`` holds the follow graph in one form, :class:`FollowGraph`'s CSR
arrays, and every offline reader walks them: degrees from the row
pointers, path lengths and homophily distances from a multi-source BFS
(:func:`~repro.graph.metrics.hop_distances`), label propagation and
modularity over the rows and their transpose, SimGraph analyses over
:meth:`SimGraph.topology`.  Before, all of it ran on a second, dict
copy of the relation: :class:`DiGraph` (a row dict and a predecessor
set per node), a one-source dict BFS, and the readers below written
against them.  They stay here as the oracle:

* :class:`DiGraph`, :func:`bfs_distances`, :func:`k_hop_neighborhood`
  and :func:`shortest_path_length` — the dict graph and its walks;
* :func:`follow_graph_of` / :func:`digraph_of` convert between the two
  forms in node and row order, and :func:`to_digraph` is a SimGraph's
  dict view (the SimGraph's old ``to_digraph``);
* ``dict_*`` — the degree, path-length, summary, label-propagation,
  modularity, backbone and homophily-table code as it ran on dicts.

The Hypothesis differential at the end requires the CSR readers to
equal these, and ``networkx`` where it computes the same quantity, on
random graphs (empty, isolated nodes, unreachable pairs, a sample as
large as the graph) and on SimGraph-derived ones.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable, Iterator

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.bubbles import identify_bubbles
from repro.analysis.homophily import (
    DistanceSimilarityRow,
    TopRankDistanceRow,
    sample_active_users,
    similarity_by_distance,
    top_rank_distances,
)
from repro.core.profiles import RetweetProfiles
from repro.core.simgraph import SimGraph
from repro.core.similarity import similarities_from
from repro.exceptions import GraphError
from repro.graph import (
    FollowGraph,
    GraphSummary,
    degree_arrays,
    hop_distances,
    label_propagation_communities,
    modularity,
    path_length_sample,
    summarize_graph,
)
from repro.synth import SynthConfig, generate_dataset
from repro.utils.rng import make_rng
from repro.utils.topk import top_k_items

Node = Hashable


# ----------------------------------------------------------------------
# The dict graph
# ----------------------------------------------------------------------
#: Shared empty mapping returned by :meth:`DiGraph.out_row` for unknown
#: nodes; never mutated.
_EMPTY_ROW: dict = {}


class DiGraph:
    """Directed graph with O(1) neighbour access in both directions.

    Example
    -------
    >>> g = DiGraph()
    >>> g.add_edge(1, 2, weight=0.5)
    >>> g.add_edge(1, 3)
    >>> sorted(g.successors(1))
    [2, 3]
    >>> g.weight(1, 2)
    0.5
    """

    def __init__(self) -> None:
        self._succ: dict[Node, dict[Node, float]] = {}
        self._pred: dict[Node, set[Node]] = {}
        self._edge_count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Insert ``node``; adding an existing node is a no-op."""
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = set()

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        """Insert every node of ``nodes``."""
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Insert the directed edge ``u -> v``; endpoints are auto-created.

        Re-adding an existing edge overwrites its weight. Self-loops are
        rejected: neither the follow graph nor the SimGraph is reflexive.
        """
        if u == v:
            raise GraphError(f"self-loop on node {u!r} is not allowed")
        self.add_node(u)
        self.add_node(v)
        row = self._succ[u]
        if v not in row:
            self._edge_count += 1
        row[v] = weight
        self._pred[v].add(u)

    def set_row(self, u: Node, row: dict[Node, float]) -> None:
        """Replace every outgoing edge of ``u`` with ``row`` in one step.

        ``row``'s iteration order becomes the new edge order (which the
        CSR compiler preserves).  ``u`` is created if absent; targets are
        auto-created like :meth:`add_edge`.
        """
        if u in row:
            raise GraphError(f"self-loop on node {u!r} is not allowed")
        self.add_node(u)
        old = self._succ[u]
        self._succ[u] = dict(row)
        if row.keys() == old.keys():
            # Weights-only swap: no predecessor bookkeeping to redo.
            return
        for v in old.keys() - row.keys():
            self._pred[v].discard(u)
        for v in row:
            if v not in old:
                self.add_node(v)
                self._pred[v].add(u)
        self._edge_count += len(row) - len(old)

    def remove_edge(self, u: Node, v: Node) -> None:
        """Delete the edge ``u -> v``; raises GraphError when absent."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge {u!r} -> {v!r} does not exist")
        del self._succ[u][v]
        self._pred[v].discard(u)
        self._edge_count -= 1

    def remove_node(self, node: Node) -> None:
        """Delete ``node`` and every incident edge."""
        if node not in self._succ:
            raise GraphError(f"node {node!r} does not exist")
        for v in list(self._succ[node]):
            self.remove_edge(node, v)
        for u in list(self._pred[node]):
            self.remove_edge(u, node)
        del self._succ[node]
        del self._pred[node]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes."""
        return iter(self._succ)

    def edges(self) -> Iterator[tuple[Node, Node, float]]:
        """Iterate over all (source, target, weight) triples."""
        for u, targets in self._succ.items():
            for v, w in targets.items():
                yield u, v, w

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._succ)

    @property
    def edge_count(self) -> int:
        """Number of directed edges."""
        return self._edge_count

    def has_edge(self, u: Node, v: Node) -> bool:
        """True when the directed edge ``u -> v`` exists."""
        return u in self._succ and v in self._succ[u]

    def weight(self, u: Node, v: Node) -> float:
        """Weight of the edge ``u -> v``; raises GraphError when absent."""
        try:
            return self._succ[u][v]
        except KeyError:
            raise GraphError(f"edge {u!r} -> {v!r} does not exist") from None

    def successors(self, node: Node) -> Iterator[Node]:
        """Nodes reachable by one outgoing edge from ``node``."""
        self._check_node(node)
        return iter(self._succ[node])

    def predecessors(self, node: Node) -> Iterator[Node]:
        """Nodes with an edge pointing at ``node``."""
        self._check_node(node)
        return iter(self._pred[node])

    def out_edges(self, node: Node) -> Iterator[tuple[Node, float]]:
        """(target, weight) pairs of the outgoing edges of ``node``."""
        self._check_node(node)
        return iter(self._succ[node].items())

    def out_row(self, node: Node) -> dict[Node, float]:
        """The ``{target: weight}`` row of ``node`` — a live view, not a
        copy.  Callers must treat it as read-only; mutate through
        :meth:`add_edge` / :meth:`set_row` instead.  Returns an empty
        mapping for unknown nodes (a node with no out-edges and a node
        the graph never saw answer the same question identically)."""
        return self._succ.get(node, _EMPTY_ROW)

    def out_degree(self, node: Node) -> int:
        """Number of outgoing edges of ``node``."""
        self._check_node(node)
        return len(self._succ[node])

    def in_degree(self, node: Node) -> int:
        """Number of incoming edges of ``node``."""
        self._check_node(node)
        return len(self._pred[node])

    def _check_node(self, node: Node) -> None:
        if node not in self._succ:
            raise GraphError(f"node {node!r} does not exist")

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[Node]) -> "DiGraph":
        """Return the sub-graph induced by ``nodes`` (edges both ends in)."""
        keep = set(nodes)
        sub = DiGraph()
        for node in keep:
            if node in self._succ:
                sub.add_node(node)
        for u in keep & self._succ.keys():
            for v, w in self._succ[u].items():
                if v in keep:
                    sub.add_edge(u, v, weight=w)
        return sub

    def reversed(self) -> "DiGraph":
        """Return a copy with every edge direction flipped."""
        rev = DiGraph()
        rev.add_nodes(self.nodes())
        for u, v, w in self.edges():
            rev.add_edge(v, u, weight=w)
        return rev

    def copy(self) -> "DiGraph":
        """Independent copy of the graph structure and weights; node and
        per-row edge orders are preserved exactly."""
        dup = DiGraph()
        dup._succ = {u: dict(row) for u, row in self._succ.items()}
        dup._pred = {v: set(preds) for v, preds in self._pred.items()}
        dup._edge_count = self._edge_count
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DiGraph(nodes={self.node_count}, edges={self.edge_count})"


# ----------------------------------------------------------------------
# Its walks
# ----------------------------------------------------------------------
def bfs_distances(
    graph,
    source: Node,
    max_depth: int | None = None,
    neighbors: Callable[[Node], Iterable[Node]] | None = None,
) -> dict[Node, int]:
    """Return ``{node: distance}`` for nodes reachable from ``source``.

    ``max_depth`` bounds the exploration radius (inclusive); ``neighbors``
    overrides the expansion function — pass ``graph.predecessors`` to walk
    edges backwards.  The source itself maps to distance 0.
    """
    if neighbors is None:
        neighbors = graph.successors
    distances: dict[Node, int] = {source: 0}
    queue: deque[Node] = deque([source])
    while queue:
        node = queue.popleft()
        depth = distances[node]
        if max_depth is not None and depth >= max_depth:
            continue
        for neighbor in neighbors(node):
            if neighbor not in distances:
                distances[neighbor] = depth + 1
                queue.append(neighbor)
    return distances


def k_hop_neighborhood(
    graph,
    source: Node,
    k: int,
    include_source: bool = False,
) -> set[Node]:
    """Nodes within ``k`` outgoing hops of ``source`` (paper's N_k(u)).

    The paper's N2(u) is ``k_hop_neighborhood(follow_graph, u, 2)`` —
    followees plus followees-of-followees.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    reached = bfs_distances(graph, source, max_depth=k)
    if not include_source:
        del reached[source]
    return set(reached)


def shortest_path_length(graph, source: Node, target: Node) -> int | None:
    """Length of the shortest directed path ``source -> target``.

    Returns ``None`` when ``target`` is unreachable ("Impossible" rows in
    the paper's Table 2).  Uses bidirectional BFS: expands the smaller
    frontier each round, meeting in the middle, which is what makes the
    Table-2 experiment tractable on large graphs.
    """
    if source == target:
        return 0
    # Frontier sets and visited-with-distance maps for both directions.
    dist_fwd: dict[Node, int] = {source: 0}
    dist_bwd: dict[Node, int] = {target: 0}
    frontier_fwd = {source}
    frontier_bwd = {target}
    while frontier_fwd and frontier_bwd:
        # Expand the smaller frontier to keep work balanced.
        if len(frontier_fwd) <= len(frontier_bwd):
            frontier_fwd = _expand(graph.successors, frontier_fwd, dist_fwd)
            meet = frontier_fwd & dist_bwd.keys()
        else:
            frontier_bwd = _expand(graph.predecessors, frontier_bwd, dist_bwd)
            meet = frontier_bwd & dist_fwd.keys()
        if meet:
            return min(dist_fwd[n] + dist_bwd[n] for n in meet)
    return None


def _expand(
    neighbors: Callable[[Node], Iterable[Node]],
    frontier: set[Node],
    distances: dict[Node, int],
) -> set[Node]:
    """One BFS level: return the next frontier and record its distances."""
    next_frontier: set[Node] = set()
    for node in frontier:
        depth = distances[node]
        for neighbor in neighbors(node):
            if neighbor not in distances:
                distances[neighbor] = depth + 1
                next_frontier.add(neighbor)
    return next_frontier


# ----------------------------------------------------------------------
# Between the two forms
# ----------------------------------------------------------------------
def follow_graph_of(graph: DiGraph | FollowGraph) -> FollowGraph:
    """``graph`` itself, or a :class:`DiGraph`'s nodes and edges as a
    :class:`FollowGraph`, in its node and row order."""
    if isinstance(graph, FollowGraph):
        return graph
    follows = FollowGraph()
    follows.add_nodes(graph.nodes())
    for u, v, _ in graph.edges():
        follows.add_edge(u, v)
    return follows


def digraph_of(follows: FollowGraph) -> DiGraph:
    """``follows`` as a :class:`DiGraph` in its node and row order: what
    ``TwitterDataset.follow_graph`` materialized for offline code."""
    graph = DiGraph()
    ids = follows.ids
    graph.add_nodes(ids.tolist())
    indptr, targets = follows.csr()
    for i in np.flatnonzero(np.diff(indptr)).tolist():
        row = ids[targets[indptr[i] : indptr[i + 1]]].tolist()
        graph.set_row(int(ids[i]), dict.fromkeys(row, 1.0))
    return graph


def follow_pairs(follows: FollowGraph) -> list[tuple[int, int]]:
    """Every follow as an id pair, row by row in node order."""
    sources, targets = follows.edge_arrays()
    return list(zip(sources.tolist(), targets.tolist()))


def to_digraph(simgraph) -> DiGraph:
    """``simgraph``'s dict-of-dict adjacency, in node and edge order (a
    dict SimGraph's own graph)."""
    if not isinstance(simgraph, SimGraph):
        return simgraph.to_digraph()
    graph = DiGraph()
    users = simgraph.users.tolist()
    graph.add_nodes(users)
    indptr = simgraph.inf_indptr
    for i, u in enumerate(users):
        lo, hi = int(indptr[i]), int(indptr[i + 1])
        if lo == hi:
            continue
        graph.set_row(
            u,
            {
                users[j]: w
                for j, w in zip(
                    simgraph.inf_indices[lo:hi].tolist(),
                    simgraph.inf_weights[lo:hi].tolist(),
                )
            },
        )
    return graph


# ----------------------------------------------------------------------
# The readers as they ran on dicts
# ----------------------------------------------------------------------
def dict_degree_arrays(graph: DiGraph) -> tuple[np.ndarray, np.ndarray]:
    """Return (out_degrees, in_degrees) arrays over all nodes."""
    out_degrees = np.fromiter(
        (graph.out_degree(n) for n in graph.nodes()), dtype=np.int64
    )
    in_degrees = np.fromiter(
        (graph.in_degree(n) for n in graph.nodes()), dtype=np.int64
    )
    return out_degrees, in_degrees


def dict_path_length_sample(
    graph: DiGraph,
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
    nodes = list(graph.nodes())
    if not nodes:
        return {}
    if len(nodes) > sample_size:
        indexes = rng.choice(len(nodes), size=sample_size, replace=False)
        sources = [nodes[i] for i in indexes]
    else:
        sources = nodes
    counts: dict[int, int] = {}
    for source in sources:
        for distance in bfs_distances(graph, source).values():
            if distance > 0:
                counts[distance] = counts.get(distance, 0) + 1
    return counts


def dict_summarize_graph(
    graph: DiGraph,
    sample_size: int = 200,
    seed: int | np.random.Generator | None = 0,
) -> GraphSummary:
    """Compute the full :class:`GraphSummary` for ``graph``.

    Degree statistics are exact; diameter and mean path length are
    sample-based estimates (see :func:`path_length_sample`).
    """
    if graph.node_count == 0:
        return GraphSummary(0, 0, 0.0, 0.0, 0, 0, 0, 0.0, {})
    out_degrees, in_degrees = dict_degree_arrays(graph)
    counts = dict_path_length_sample(graph, sample_size=sample_size, seed=seed)
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




def _undirected_neighbors(graph: DiGraph, node: Node) -> list[Node]:
    """Successors and predecessors merged (multi-edges count once each
    direction, which weights mutual links double — intended: mutual
    follows are a stronger affinity signal)."""
    return list(graph.successors(node)) + list(graph.predecessors(node))


def dict_label_propagation(
    graph: DiGraph,
    max_iterations: int = 50,
    seed: int | np.random.Generator | None = 0,
) -> dict[Node, int]:
    """Partition ``graph`` into communities by label propagation.

    Every node starts in its own community; nodes repeatedly adopt the
    most frequent label among their (undirected) neighbours, in random
    order, until no label changes or ``max_iterations`` passes elapse.
    Returns ``{node: community_label}`` with labels renumbered densely
    from 0, ordered by decreasing community size.
    """
    rng = make_rng(seed)
    nodes = list(graph.nodes())
    labels: dict[Node, int] = {node: i for i, node in enumerate(nodes)}
    for _ in range(max_iterations):
        changed = 0
        order = rng.permutation(len(nodes))
        for index in order:
            node = nodes[int(index)]
            neighbors = _undirected_neighbors(graph, node)
            if not neighbors:
                continue
            counts: dict[int, int] = {}
            for neighbor in neighbors:
                label = labels[neighbor]
                counts[label] = counts.get(label, 0) + 1
            best = max(counts.values())
            # Deterministic tie-break on the smallest label keeps runs
            # reproducible under a fixed seed.
            candidates = sorted(
                label for label, count in counts.items() if count == best
            )
            new_label = candidates[0]
            if new_label != labels[node]:
                labels[node] = new_label
                changed += 1
        if changed == 0:
            break
    return _renumber(labels)


def _renumber(labels: dict[Node, int]) -> dict[Node, int]:
    """Relabel communities 0..k-1 by decreasing size (stable)."""
    sizes: dict[int, int] = {}
    for label in labels.values():
        sizes[label] = sizes.get(label, 0) + 1
    ordered = sorted(sizes, key=lambda label: (-sizes[label], label))
    mapping = {old: new for new, old in enumerate(ordered)}
    return {node: mapping[label] for node, label in labels.items()}


def dict_modularity(graph: DiGraph, labels: dict[Node, int]) -> float:
    """Newman's directed modularity of a partition.

    ``Q = (1/m) * sum_{uv in E} [1{c_u = c_v}] - sum_c (out_c * in_c) / m^2``
    where ``out_c`` / ``in_c`` are the total out/in degrees of community
    ``c``.  Q near 0 means no structure; the follow graphs generated by
    :mod:`repro.synth` score well above 0.
    """
    m = graph.edge_count
    if m == 0:
        return 0.0
    internal = 0
    out_mass: dict[int, int] = {}
    in_mass: dict[int, int] = {}
    for node in graph.nodes():
        label = labels[node]
        out_mass[label] = out_mass.get(label, 0) + graph.out_degree(node)
        in_mass[label] = in_mass.get(label, 0) + graph.in_degree(node)
    for u, v, _ in graph.edges():
        if labels[u] == labels[v]:
            internal += 1
    expectation = sum(
        out_mass.get(label, 0) * in_mass.get(label, 0)
        for label in set(out_mass) | set(in_mass)
    ) / (m * m)
    return internal / m - expectation


def dict_similarity_by_distance(
    dataset,
    profiles: RetweetProfiles,
    users: list[int],
    max_distance: int = 6,
) -> list[DistanceSimilarityRow]:
    """The Table-2 experiment.

    For each sampled user, every peer with a non-zero similarity is
    bucketed by follow-graph distance (one BFS per user covers all peers);
    unreachable peers land in the "Impossible" bucket.  Distances beyond
    ``max_distance`` are folded into the last bucket, as the tail is
    negligible (Table 2 stops at 6).
    """
    graph = digraph_of(dataset.follow_graph)
    sums: dict[int | None, float] = {}
    counts: dict[int | None, int] = {}
    for u in users:
        scores = similarities_from(profiles, u)
        if not scores:
            continue
        distances = bfs_distances(graph, u)
        for v, score in scores.items():
            distance: int | None = distances.get(v)
            if distance is not None and distance > max_distance:
                distance = max_distance
            sums[distance] = sums.get(distance, 0.0) + score
            counts[distance] = counts.get(distance, 0) + 1
    total_pairs = sum(counts.values())
    rows: list[DistanceSimilarityRow] = []
    buckets: list[int | None] = sorted(
        (d for d in counts if d is not None)
    )
    if None in counts:
        buckets.append(None)
    for distance in buckets:
        count = counts[distance]
        rows.append(
            DistanceSimilarityRow(
                distance=distance,
                pair_count=count,
                percentage=100.0 * count / total_pairs if total_pairs else 0.0,
                mean_similarity=sums[distance] / count,
            )
        )
    return rows


def dict_top_rank_distances(
    dataset,
    profiles: RetweetProfiles,
    users: list[int],
    top_n: int = 5,
    max_distance: int = 4,
) -> list[TopRankDistanceRow]:
    """The Table-3 experiment: distance profile of each top-N rank.

    For each sampled user, the ``top_n`` most similar peers are ranked and
    the shortest-path distance to each is recorded; per rank we report the
    mean distance and the distribution over distances (unreachable peers
    and those beyond ``max_distance`` are folded into the last bucket,
    like the paper's "4" column).
    """
    graph = digraph_of(dataset.follow_graph)
    per_rank_distances: list[list[int]] = [[] for _ in range(top_n)]
    for u in users:
        scores = similarities_from(profiles, u)
        if len(scores) < top_n:
            continue
        ranked = top_k_items(scores, top_n)
        distances = bfs_distances(graph, u, max_depth=max_distance)
        for rank, (v, _score) in enumerate(ranked):
            distance = distances.get(v, max_distance)
            per_rank_distances[rank].append(min(distance, max_distance))
    rows: list[TopRankDistanceRow] = []
    for rank, rank_distances in enumerate(per_rank_distances, start=1):
        if not rank_distances:
            rows.append(TopRankDistanceRow(rank, 0.0, {}))
            continue
        arr = np.asarray(rank_distances, dtype=np.float64)
        percentages = {
            d: 100.0 * float((arr == d).mean())
            for d in range(1, max_distance + 1)
        }
        rows.append(
            TopRankDistanceRow(
                rank=rank,
                average_distance=float(arr.mean()),
                distance_percentages=percentages,
            )
        )
    return rows


def dict_identify_bubbles(
    simgraph, max_iterations: int = 50, seed: int = 0,
    backbone_size: int | None = 10,
) -> dict[int, int]:
    """``identify_bubbles``' labels, with the top-k backbone built as a
    dict graph row by row."""
    graph = to_digraph(simgraph)
    if backbone_size is not None:
        backbone = DiGraph()
        backbone.add_nodes(graph.nodes())
        for user in graph.nodes():
            edges = dict(graph.out_edges(user))
            for target, weight in top_k_items(edges, backbone_size):
                backbone.add_edge(user, target, weight=weight)
        graph = backbone
    labels = dict_label_propagation(
        graph, max_iterations=max_iterations, seed=seed
    )
    return {int(u): int(b) for u, b in labels.items()}


# ----------------------------------------------------------------------
# The differential
# ----------------------------------------------------------------------
@st.composite
def graphs(draw, max_nodes: int = 14):
    """A random follow graph over scattered ids, as both types: any
    number of nodes (none included), isolated ones, one-way pairs."""
    ids = draw(
        st.lists(st.integers(0, 10_000), max_size=max_nodes, unique=True)
    )
    edges = []
    if len(ids) > 1:
        edges = draw(
            st.lists(
                st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=4 * len(ids),
            )
        )
    graph = DiGraph()
    graph.add_nodes(ids)
    for u, v in edges:
        graph.add_edge(u, v)
    return graph, follow_graph_of(graph)


def networkx_of(graph: DiGraph) -> nx.DiGraph:
    twin = nx.DiGraph()
    twin.add_nodes_from(graph.nodes())
    twin.add_edges_from((u, v) for u, v, _ in graph.edges())
    return twin


def sampled_sources(graph: DiGraph, sample_size: int, seed: int) -> list:
    """The sources ``path_length_sample`` draws, in node order."""
    nodes = list(graph.nodes())
    if len(nodes) <= sample_size:
        return nodes
    rng = make_rng(seed)
    return [nodes[i] for i in rng.choice(len(nodes), sample_size, replace=False)]


def assert_same_readers(graph: DiGraph, follows: FollowGraph, data) -> None:
    """Every CSR reader equals its dict oracle on ``graph``."""
    for got, want in zip(degree_arrays(follows), dict_degree_arrays(graph)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    sample_size = data.draw(st.integers(0, graph.node_count + 2))
    seed = data.draw(st.integers(0, 3))
    counts = path_length_sample(follows, sample_size=sample_size, seed=seed)
    assert counts == dict_path_length_sample(graph, sample_size, seed)
    assert summarize_graph(follows, sample_size, seed) == (
        dict_summarize_graph(graph, sample_size, seed)
    )
    labels = label_propagation_communities(follows, seed=seed)
    assert list(labels.items()) == list(
        dict_label_propagation(graph, seed=seed).items()
    )
    assert modularity(follows, labels) == dict_modularity(graph, labels)
    drawn = {
        u: data.draw(st.integers(-2, 2), label="label") for u in graph.nodes()
    }
    assert modularity(follows, drawn) == dict_modularity(graph, drawn)


@settings(max_examples=100, deadline=None)
@given(graphs(), st.data())
def test_csr_readers_equal_the_dict_oracle(pair, data):
    graph, follows = pair
    assert_same_readers(graph, follows, data)


@settings(max_examples=100, deadline=None)
@given(graphs(), st.integers(0, 16), st.integers(0, 3))
def test_csr_readers_equal_networkx(pair, sample_size, seed):
    """Degrees, the sampled path-length histogram (same sources) and the
    modularity of the label-propagation partition match networkx."""
    graph, follows = pair
    twin = networkx_of(graph)
    out_degrees, in_degrees = degree_arrays(follows)
    nodes = list(graph.nodes())
    assert out_degrees.tolist() == [twin.out_degree(u) for u in nodes]
    assert in_degrees.tolist() == [twin.in_degree(u) for u in nodes]
    expected: dict[int, int] = {}
    for source in sampled_sources(graph, sample_size, seed):
        lengths = nx.single_source_shortest_path_length(twin, source)
        for distance in lengths.values():
            if distance:
                expected[distance] = expected.get(distance, 0) + 1
    counts = path_length_sample(follows, sample_size=sample_size, seed=seed)
    assert counts == expected
    labels = label_propagation_communities(follows, seed=seed)
    if graph.edge_count:
        parts: dict[int, set] = {}
        for u, label in labels.items():
            parts.setdefault(label, set()).add(u)
        assert modularity(follows, labels) == pytest.approx(
            nx.community.modularity(twin, parts.values()), abs=1e-12
        )


@settings(max_examples=100, deadline=None)
@given(graphs(), st.data())
def test_hop_distances_equal_the_dict_bfs(pair, data):
    """Every row, unreachable pairs included, is the dict BFS's map."""
    graph, follows = pair
    nodes = list(graph.nodes())
    if not nodes:
        assert list(hop_distances(follows, np.empty(0, np.int64))) == []
        return
    sources = data.draw(st.lists(st.sampled_from(nodes), max_size=6))
    at, _ = follows.positions(sources)
    rows = [row for block in hop_distances(follows, at) for row in block]
    assert len(rows) == len(sources)
    for source, row in zip(sources, rows):
        expected = bfs_distances(graph, source)
        assert {
            u: int(d) for u, d in zip(nodes, row.tolist()) if d != np.inf
        } == expected


@st.composite
def simgraphs(draw):
    """A random SimGraph (weights tied on purpose) and its dict view."""
    graph, _ = draw(graphs(max_nodes=16))
    weights = st.sampled_from([0.001, 0.002, 0.004, 0.5])
    edges = [(u, v, draw(weights)) for u, v, _ in graph.edges()]
    sources, targets, sims = zip(*edges) if edges else ((), (), ())
    simgraph = SimGraph.from_edges(
        sources, targets, sims, tau=0.001, nodes=list(graph.nodes())
    )
    return simgraph


@settings(max_examples=100, deadline=None)
@given(simgraphs(), st.sampled_from([None, 1, 2, 3]), st.data())
def test_simgraph_analyses_equal_the_dict_oracle(simgraph, backbone, data):
    """Table 4 / Fig. 5, bubbles and modularity read the SimGraph's
    arrays as its dict view would have."""
    graph = to_digraph(simgraph)
    assert_same_readers(graph, simgraph.topology(), data)
    bubbles = identify_bubbles(simgraph, seed=1, backbone_size=backbone)
    assert list(bubbles.labels.items()) == list(
        dict_identify_bubbles(simgraph, seed=1, backbone_size=backbone).items()
    )
    assert modularity(simgraph.topology(), bubbles.labels) == (
        dict_modularity(graph, bubbles.labels)
    )


@pytest.fixture(scope="module")
def corpus():
    dataset = generate_dataset(SynthConfig(n_users=150, seed=11))
    return dataset, RetweetProfiles(dataset.retweets())


@pytest.mark.parametrize("max_distance", [2, 6])
def test_homophily_tables_equal_the_dict_oracle(corpus, max_distance):
    """Tables 2-3 from the multi-source BFS rows equal the per-user dict
    BFS's, float for float."""
    dataset, profiles = corpus
    users = sample_active_users(dataset, sample_size=60, min_retweets=2)
    assert len(users) > 10
    table2 = similarity_by_distance(dataset, profiles, users, max_distance)
    assert table2 == dict_similarity_by_distance(
        dataset, profiles, users, max_distance
    )
    assert any(row.distance is None for row in table2)
    table3 = top_rank_distances(dataset, profiles, users, 3, max_distance)
    assert table3 == dict_top_rank_distances(
        dataset, profiles, users, 3, max_distance
    )


def test_homophily_refuses_a_user_outside_the_graph(corpus):
    dataset, profiles = corpus
    with pytest.raises(GraphError):
        similarity_by_distance(dataset, profiles, [10**9])
