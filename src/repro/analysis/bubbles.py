"""Information-bubble analysis (paper §7, future work).

The paper closes with: *"We also plan to break 'information bubbles',
since recommended information is generally originated from the same
sub-part of the graph.  We are currently working on the identification of
bubbles in our twitter graph based on both the network topology and tweet
topics.  Then we will propose a complementary score for recommendations
by escaping from information locality from a bubble to another."*

This module implements that programme:

* **bubble identification** — communities of the SimGraph (label
  propagation over similarity edges = topology x co-retweet topics, since
  the edges themselves encode topical co-engagement);
* **locality measurement** — how concentrated a user's recommendations
  are inside their own bubble;
* **escape re-ranking** — :class:`BubbleEscapeReranker` mixes the raw
  propagation score with a complementary cross-bubble bonus, trading a
  controllable amount of score mass for diversity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.baselines.base import Recommendation
from repro.core.simgraph import SimGraph
from repro.graph.communities import label_propagation_communities
from repro.graph.followgraph import FollowGraph

__all__ = [
    "BubbleMap",
    "BubbleEscapeReranker",
    "identify_bubbles",
    "recommendation_locality",
]


@dataclass(frozen=True)
class BubbleMap:
    """User -> bubble assignment over a SimGraph."""

    labels: dict[int, int]

    @property
    def bubble_count(self) -> int:
        """Number of distinct bubbles."""
        return len(set(self.labels.values()))

    def bubble_of(self, user: int) -> int | None:
        """Bubble of ``user`` (None for users outside the SimGraph)."""
        return self.labels.get(user)

    def members(self, bubble: int) -> set[int]:
        """Users assigned to ``bubble``."""
        return {u for u, b in self.labels.items() if b == bubble}

    def sizes(self) -> dict[int, int]:
        """Bubble -> member count."""
        sizes: dict[int, int] = {}
        for bubble in self.labels.values():
            sizes[bubble] = sizes.get(bubble, 0) + 1
        return sizes


def identify_bubbles(
    simgraph: SimGraph,
    max_iterations: int = 50,
    seed: int = 0,
    backbone_size: int | None = 10,
) -> BubbleMap:
    """Partition the SimGraph into information bubbles.

    Label propagation over similarity edges: two users land in one bubble
    when they are densely connected through co-retweet similarity — the
    "same sub-part of the graph" the paper wants to escape from.

    ``backbone_size`` prunes each user's out-edges to their strongest few
    before detection.  Label propagation famously collapses into one
    giant community on very dense graphs; the backbone keeps only the
    high-similarity skeleton where bubble structure lives.  Pass ``None``
    to detect on the full graph.
    """
    if backbone_size is not None and backbone_size < 1:
        raise ValueError(f"backbone_size must be positive, got {backbone_size}")
    if backbone_size is None:
        graph = simgraph.topology()
    else:
        graph = _backbone(simgraph, backbone_size)
    labels = label_propagation_communities(
        graph, max_iterations=max_iterations, seed=seed
    )
    return BubbleMap(labels={int(u): int(b) for u, b in labels.items()})


def _backbone(simgraph: SimGraph, size: int) -> FollowGraph:
    """Each row of ``simgraph`` cut to its ``size`` strongest edges, by
    (weight, target id) descending, in edge order."""
    users, indptr, indices, weights = simgraph.arrays()
    rows = np.repeat(np.arange(len(users)), np.diff(indptr))
    ranked = np.lexsort((-users[indices], -weights, rows))
    rank = np.empty(len(rows), dtype=np.int64)
    rank[ranked] = np.arange(len(rows)) - indptr[rows[ranked]]
    keep = rank < size
    backbone = FollowGraph()
    backbone.add_nodes(users.tolist())
    backbone.add_edges(rows[keep], indices[keep])
    return backbone


def recommendation_locality(
    recommendations: Iterable[Recommendation],
    bubbles: BubbleMap,
    tweet_audience: Mapping[int, Iterable[int]],
) -> float:
    """Fraction of recommendations whose tweet stays inside the bubble.

    A recommendation (user, tweet) is *local* when the tweet's audience so
    far (its retweeters, from ``tweet_audience``) is predominantly in the
    same bubble as the recommended user.  Returns the local fraction in
    [0, 1]; 0.0 when nothing could be assessed.
    """
    local = 0
    assessed = 0
    for rec in recommendations:
        user_bubble = bubbles.bubble_of(rec.user)
        if user_bubble is None:
            continue
        audience_bubbles = [
            bubbles.bubble_of(u) for u in tweet_audience.get(rec.tweet, ())
        ]
        audience_bubbles = [b for b in audience_bubbles if b is not None]
        if not audience_bubbles:
            continue
        assessed += 1
        inside = sum(1 for b in audience_bubbles if b == user_bubble)
        if inside * 2 >= len(audience_bubbles):
            local += 1
    if assessed == 0:
        return 0.0
    return local / assessed


class BubbleEscapeReranker:
    """Re-rank recommendations with a cross-bubble complementary score.

    The adjusted score of a recommendation is::

        (1 - escape_weight) * score + escape_weight * score * novelty

    where ``novelty`` is the fraction of the tweet's current audience
    living *outside* the user's bubble.  ``escape_weight`` = 0 keeps the
    original ranking; 1 ranks purely by cross-bubble reach.

    Parameters
    ----------
    bubbles:
        The bubble assignment to diversify against.
    escape_weight:
        Mixing coefficient in [0, 1].
    """

    def __init__(self, bubbles: BubbleMap, escape_weight: float = 0.3):
        if not 0.0 <= escape_weight <= 1.0:
            raise ValueError(
                f"escape_weight must be in [0, 1], got {escape_weight}"
            )
        self.bubbles = bubbles
        self.escape_weight = escape_weight

    def novelty(
        self, user: int, tweet: int, tweet_audience: Mapping[int, Iterable[int]]
    ) -> float:
        """Cross-bubble fraction of ``tweet``'s audience w.r.t. ``user``."""
        user_bubble = self.bubbles.bubble_of(user)
        if user_bubble is None:
            return 0.0
        audience = [
            self.bubbles.bubble_of(u)
            for u in tweet_audience.get(tweet, ())
        ]
        audience = [b for b in audience if b is not None]
        if not audience:
            return 0.0
        outside = sum(1 for b in audience if b != user_bubble)
        return outside / len(audience)

    def rerank(
        self,
        recommendations: list[Recommendation],
        tweet_audience: Mapping[int, Iterable[int]],
    ) -> list[Recommendation]:
        """Return recommendations with escape-adjusted scores, best first."""
        adjusted: list[Recommendation] = []
        for rec in recommendations:
            novelty = self.novelty(rec.user, rec.tweet, tweet_audience)
            score = rec.score * (
                (1.0 - self.escape_weight) + self.escape_weight * novelty
            )
            adjusted.append(
                Recommendation(
                    user=rec.user, tweet=rec.tweet, score=score, time=rec.time
                )
            )
        adjusted.sort(key=lambda r: (-r.score, r.tweet, r.user))
        return adjusted
