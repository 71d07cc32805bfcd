"""Directed social-graph generators.

The paper's follow graph (Table 1) has heavy-tailed in/out degrees, a small
diameter (15) and a short mean path (3.7), and exhibits homophily: users
with shared interests are more likely to be connected (§3.2).

:func:`community_preferential_graph` reproduces those properties:

* out-degrees are provided by the caller (typically bounded-zipf samples),
  giving a heavy-tailed out-degree distribution directly;
* targets are chosen by preferential attachment on current in-degree, which
  yields a power-law in-degree distribution and small-world path lengths;
* with probability ``community_bias`` a target is drawn from the source's
  own community, planting the homophily the SimGraph construction exploits.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ConfigError
from repro.graph.followgraph import FollowGraph
from repro.utils.rng import make_rng

__all__ = ["community_preferential_graph"]


class _PreferentialSampler:
    """Sample nodes proportionally to (in-degree + 1) in amortized O(1).

    Keeps a flat list where each node appears once per unit of weight; a
    uniform draw over the list is a preferential draw over nodes.
    """

    def __init__(self, nodes: Sequence[int]):
        self._pool: list[int] = list(nodes)

    def bump(self, node: int) -> None:
        """Increase ``node``'s weight by one (it gained an in-edge)."""
        self._pool.append(node)

    def draw(self, rng: np.random.Generator) -> int:
        return self._pool[int(rng.integers(len(self._pool)))]


def community_preferential_graph(
    out_degrees: Sequence[int],
    communities: Sequence[int],
    community_bias: float = 0.7,
    seed: int | np.random.Generator | None = None,
    max_attempts: int = 20,
) -> FollowGraph:
    """Generate a directed follow graph with homophily.

    Parameters
    ----------
    out_degrees:
        Target out-degree of each node; node ids are ``0..len-1``.
    communities:
        Community label of each node (same length as ``out_degrees``).
    community_bias:
        Probability that an edge target is drawn from the source's own
        community rather than from the whole graph.
    seed:
        RNG seed or generator.
    max_attempts:
        Resampling budget per edge before the edge is dropped (duplicate or
        self-loop targets are re-drawn).

    Notes
    -----
    A node's realized out-degree can fall slightly short of its target when
    its community is too small to supply distinct targets — matching how a
    real crawl never exactly hits its quota.
    """
    if len(out_degrees) != len(communities):
        raise ConfigError(
            f"out_degrees ({len(out_degrees)}) and communities "
            f"({len(communities)}) must have the same length"
        )
    if not 0.0 <= community_bias <= 1.0:
        raise ConfigError(f"community_bias must be in [0, 1], got {community_bias}")
    rng = make_rng(seed)
    n = len(out_degrees)
    graph = FollowGraph()
    graph.add_nodes(range(n))
    if n <= 1:
        return graph

    members: dict[int, list[int]] = {}
    for node, label in enumerate(communities):
        members.setdefault(label, []).append(node)
    global_sampler = _PreferentialSampler(range(n))
    community_samplers = {
        label: _PreferentialSampler(nodes) for label, nodes in members.items()
    }

    # Shuffled insertion order prevents low node ids from hoarding early
    # preferential weight.
    order = rng.permutation(n)
    for source in order:
        source = int(source)
        label = communities[source]
        # A source's edges are all drawn here, so its own targets are
        # the duplicates to avoid.
        chosen: set[int] = set()
        for _ in range(int(out_degrees[source])):
            target = _draw_target(
                rng,
                source,
                chosen,
                global_sampler,
                community_samplers[label],
                community_bias,
                max_attempts,
            )
            if target is None:
                continue
            chosen.add(target)
            graph.add_edge(source, target)
            global_sampler.bump(target)
            community_samplers[communities[target]].bump(target)
    return graph


def _draw_target(
    rng: np.random.Generator,
    source: int,
    chosen: set[int],
    global_sampler: _PreferentialSampler,
    community_sampler: _PreferentialSampler,
    community_bias: float,
    max_attempts: int,
) -> int | None:
    """Draw a valid edge target for ``source`` or None when none found."""
    for _ in range(max_attempts):
        if rng.random() < community_bias:
            candidate = community_sampler.draw(rng)
        else:
            candidate = global_sampler.draw(rng)
        if candidate != source and candidate not in chosen:
            return candidate
    return None
