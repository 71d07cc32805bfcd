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
        #: Structural sharing (see :meth:`copy`).  ``None``: every row
        #: dict and predecessor set is this graph's alone.  Otherwise the
        #: nodes whose row / set this graph has made private since it
        #: last took part in a copy; anything else may be shared and is
        #: copied before its first write.
        self._own_rows: set[Node] | None = None
        self._own_preds: set[Node] | None = None

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
        if self._own_rows is None:
            # Nothing shared (bulk construction): skip the ownership probes.
            row, preds = self._succ[u], self._pred[v]
        else:
            row, preds = self._writable_row(u), self._writable_preds(v)
        if v not in row:
            self._edge_count += 1
        row[v] = weight
        preds.add(u)

    def set_row(self, u: Node, row: dict[Node, float]) -> None:
        """Replace every outgoing edge of ``u`` with ``row`` in one step.

        The delta maintenance engine swaps whole recomputed rows into a
        copied graph; ``row``'s iteration order becomes the new edge
        order (which the CSR compiler preserves).  ``u`` is created if
        absent; targets are auto-created like :meth:`add_edge`.
        """
        if u in row:
            raise GraphError(f"self-loop on node {u!r} is not allowed")
        self.add_node(u)
        old = self._succ[u]
        # The row is replaced, not written: a shared one is left alone.
        self._succ[u] = dict(row)
        if self._own_rows is not None:
            self._own_rows.add(u)
        if row.keys() == old.keys():
            # Weights-only swap: no predecessor bookkeeping to redo.
            return
        # Only targets that left or joined the row have their
        # predecessor set written (and so made private).
        for v in old.keys() - row.keys():
            self._writable_preds(v).discard(u)
        for v in row:
            if v not in old:
                self.add_node(v)
                self._writable_preds(v).add(u)
        self._edge_count += len(row) - len(old)

    def remove_edge(self, u: Node, v: Node) -> None:
        """Delete the edge ``u -> v``; raises GraphError when absent."""
        if not self.has_edge(u, v):
            raise GraphError(f"edge {u!r} -> {v!r} does not exist")
        del self._writable_row(u)[v]
        self._writable_preds(v).discard(u)
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

    def get_weight(
        self, u: Node, v: Node, default: float | None = None
    ) -> float | None:
        """Weight of ``u -> v``, or ``default`` when the edge is absent.

        One lookup instead of a ``has_edge`` + ``weight`` pair — the
        delta maintenance engine probes every patched pair this way.
        """
        row = self._succ.get(u)
        if row is None:
            return default
        return row.get(v, default)

    def update_weight(self, u: Node, v: Node, weight: float) -> None:
        """Overwrite the weight of the *existing* edge ``u -> v``.

        Skips the endpoint bookkeeping of :meth:`add_edge` (both nodes
        and the predecessor link already exist); raises GraphError when
        the edge does not.
        """
        row = self._succ.get(u)
        if row is None or v not in row:
            raise GraphError(f"edge {u!r} -> {v!r} does not exist")
        self._writable_row(u)[v] = weight

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

    def _writable_row(self, u: Node) -> dict[Node, float]:
        """``u``'s row dict, made private first if it may be shared."""
        row = self._succ[u]
        if self._own_rows is not None and u not in self._own_rows:
            row = self._succ[u] = dict(row)
            self._own_rows.add(u)
        return row

    def _writable_preds(self, v: Node) -> set[Node]:
        """``v``'s predecessor set, made private first if it may be shared."""
        preds = self._pred[v]
        if self._own_preds is not None and v not in self._own_preds:
            preds = self._pred[v] = set(preds)
            self._own_preds.add(v)
        return preds

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
        """Independent copy of the graph structure and weights.

        Costs two shallow dict copies, not one per row: the copy *shares*
        every row dict and predecessor set with its source, and either
        side copies one the first time it writes to it — so a write on
        one side never shows on the other, and the work is proportional
        to what is later changed, not to the graph.  The delta
        maintenance engine clones the previous SimGraph on every run to
        change a few percent of its rows, and a failed run must leave
        the previous graph intact.  Node and per-row edge orders are
        preserved exactly.
        """
        dup = DiGraph()
        dup._succ = dict(self._succ)
        dup._pred = dict(self._pred)
        dup._edge_count = self._edge_count
        # Everything is shared from here on, whatever either side had
        # made private before.
        self._own_rows, self._own_preds = set(), set()
        dup._own_rows, dup._own_preds = set(), set()
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DiGraph(nodes={self.node_count}, edges={self.edge_count})"
