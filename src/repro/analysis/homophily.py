"""The homophily study (paper §3.2, Tables 2 and 3).

Two experiments over a sample of sufficiently-active users:

* **similarity vs distance** (Table 2): for sampled user pairs with a
  non-zero similarity, bucket the pair by shortest-path distance in the
  follow graph and average the similarity per bucket — revealing that
  close pairs are markedly more similar ("strong" homophily at distance 1,
  "soft" homophily at distance 2);
* **top-N rank vs distance** (Table 3): for each sampled user, rank their
  most similar peers and record the network distance of each rank —
  showing that distance <= 2 captures 70-80% of a user's top-5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.profiles import RetweetProfiles
from repro.core.similarity import similarities_from
from repro.data.dataset import TwitterDataset
from repro.exceptions import GraphError
from repro.graph.followgraph import FollowGraph
from repro.graph.metrics import hop_distances
from repro.utils.rng import make_rng
from repro.utils.topk import top_k_items

__all__ = [
    "DistanceSimilarityRow",
    "TopRankDistanceRow",
    "similarity_by_distance",
    "top_rank_distances",
    "sample_active_users",
]


@dataclass(frozen=True)
class DistanceSimilarityRow:
    """One Table-2 row: pairs at ``distance`` and their mean similarity."""

    distance: int | None  # None encodes the paper's "Impossible" bucket
    pair_count: int
    percentage: float
    mean_similarity: float

    @property
    def label(self) -> str:
        """Row label as printed by the paper."""
        return "Impossible" if self.distance is None else str(self.distance)


@dataclass(frozen=True)
class TopRankDistanceRow:
    """One Table-3 row: distance profile of rank-``rank`` similar users."""

    rank: int
    average_distance: float
    #: distance -> percentage of rank-holders at that distance.
    distance_percentages: dict[int, float]


def sample_active_users(
    dataset: TwitterDataset,
    sample_size: int = 200,
    min_retweets: int = 5,
    seed: int | np.random.Generator | None = 0,
) -> list[int]:
    """Random users with at least ``min_retweets`` actions (§3.2 protocol)."""
    rng = make_rng(seed)
    eligible = sorted(
        u for u in dataset.users if dataset.user_retweet_count(u) >= min_retweets
    )
    if len(eligible) <= sample_size:
        return eligible
    picked = rng.choice(len(eligible), size=sample_size, replace=False)
    return sorted(eligible[i] for i in picked)


def _distance_rows(
    graph: FollowGraph, users: list[int]
) -> Iterator[tuple[int, np.ndarray]]:
    """Each of ``users`` with its follow-graph distances to every node
    by position (``inf``: unreachable), from a multi-source BFS over a
    bounded block of users at a time."""
    at, present = graph.positions(users)
    if not present.all():
        absent = users[int(np.argmin(present))]
        raise GraphError(f"node {absent!r} does not exist")
    rows = (row for block in hop_distances(graph, at) for row in block)
    return zip(users, rows)


def _hops(graph: FollowGraph, row: np.ndarray, peers) -> list[float]:
    """``row``'s distance to each of ``peers`` (``inf`` for a peer that
    is not a node)."""
    where, known = graph.positions(peers)
    return np.where(known, row[where], np.inf).tolist()


def similarity_by_distance(
    dataset: TwitterDataset,
    profiles: RetweetProfiles,
    users: list[int],
    max_distance: int = 6,
) -> list[DistanceSimilarityRow]:
    """The Table-2 experiment.

    For each sampled user, every peer with a non-zero similarity is
    bucketed by follow-graph distance (one BFS row per user covers all
    peers); unreachable peers land in the "Impossible" bucket.
    Distances beyond ``max_distance`` are folded into the last bucket,
    as the tail is negligible (Table 2 stops at 6).
    """
    sums: dict[int | None, float] = {}
    counts: dict[int | None, int] = {}
    graph = dataset.follow_graph
    for u, row in _distance_rows(graph, users):
        scores = similarities_from(profiles, u)
        if not scores:
            continue
        for score, hops in zip(scores.values(), _hops(graph, row, scores)):
            distance = None if hops == np.inf else min(int(hops), max_distance)
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


def top_rank_distances(
    dataset: TwitterDataset,
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
    per_rank_distances: list[list[int]] = [[] for _ in range(top_n)]
    graph = dataset.follow_graph
    for u, row in _distance_rows(graph, users):
        scores = similarities_from(profiles, u)
        if len(scores) < top_n:
            continue
        ranked = top_k_items(scores, top_n)
        hops = _hops(graph, row, [v for v, _score in ranked])
        for rank, distance in enumerate(hops):
            per_rank_distances[rank].append(int(min(distance, max_distance)))
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
