"""A lightweight directed graph tailored to the library's access patterns.

Both adjacency directions are indexed because the recommender needs fast
``successors`` (who do I follow / who influences me) *and* fast
``predecessors`` (who follows me / whom do I influence).  Nodes are arbitrary
hashable values; in practice the library uses integer user ids.

Edges optionally carry a float weight — the SimGraph stores similarity
scores there; the raw follow graph leaves weights at 1.0.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

from repro.exceptions import GraphError

__all__ = ["DiGraph"]

Node = Hashable

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
