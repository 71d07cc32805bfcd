"""Publication and retweet-cascade simulation.

Produces the behavioural side of the synthetic corpus.  The design goals
are the paper's §3 measurements:

* **popularity power law** (Fig. 2): each tweet carries a Pareto-tailed
  *virality* multiplier, so most cascades die immediately while a few
  blow up;
* **short lifetimes** (Fig. 4): parent->child retweet delays are
  log-normal with a ~20-minute median and exposures beyond the 72-hour
  horizon never convert;
* **heavy-tailed user activity** (Fig. 3): exposure volume follows the
  zipf out-degree of the follow graph;
* **homophily** (§3.2): conversion probability is proportional to the
  exposed user's interest in the tweet's topic, which correlates with
  community membership and therefore with network distance.

Cascades run breadth-first over the *followers* of each sharer — content
flows from followees to followers, against the direction of follow edges —
plus a *discovery channel*: each sharer also exposes a few topically
-affine users anywhere in the network (search, trends, external links).
Without it every co-retweet would require a follow path, making follow
edges unrealistically predictive; with it, similar-but-unconnected users
co-retweet, reproducing the paper's Table-2 finding that half the similar
pairs sit at network distance 3.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.followgraph import FollowGraph
from repro.synth.config import SynthConfig
from repro.synth.interests import InterestModel
from repro.utils.powerlaw import sample_bounded_zipf
from repro.utils.rng import make_rng

__all__ = [
    "sample_tweet_counts", "simulate_activity", "simulate_cascade", "topic_pools",
]


def sample_tweet_counts(config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Bounded-zipf number of original posts per user."""
    return sample_bounded_zipf(
        rng,
        alpha=config.tweets_alpha,
        x_min=config.min_tweets_per_user,
        x_max=config.max_tweets_per_user,
        size=config.n_users,
    )


def simulate_activity(
    config: SynthConfig,
    interests: InterestModel,
    follow_graph: FollowGraph,
    rng: int | np.random.Generator | None = None,
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Simulate the full observation window.

    Returns the tweet columns ``(ids, authors, created_at, topics)``,
    author by author, and the retweet log's ``(users, tweets, times)``
    columns in chronological order (ties by user, then tweet).
    """
    rng = make_rng(rng)
    tweets_per_user = sample_tweet_counts(config, rng)
    followers = _CSRFollowers(*follow_graph.edge_arrays(), config.n_users)
    alignment = np.minimum(interests.interest_matrix * config.n_topics, 1.0)
    pools = topic_pools(alignment, config.discovery_min_alignment)

    rows = []
    for author, count in enumerate(tweets_per_user.tolist()):
        for created_at in np.sort(rng.uniform(0.0, config.time_span, size=count)):
            topic = interests.draw_topic(author, rng)
            cascade = simulate_cascade(
                author, float(created_at), topic, config, followers,
                alignment, rng, topic_pools=pools,
            )
            rows.append((author, created_at, topic, *cascade))
    authors, created, topics, users, times = zip(*rows)
    ids = np.arange(len(rows), dtype=np.int64)
    log = (
        np.concatenate(users),
        np.repeat(ids, [len(cascade) for cascade in users]),
        np.concatenate(times),
    )
    order = np.lexsort((log[1], log[0], log[2]))  # by time, user, tweet
    return (
        (ids, np.array(authors, dtype=np.int64),
         np.array(created, dtype=np.float64),
         np.array(topics, dtype=np.int64)),
        tuple(column[order] for column in log),
    )


def simulate_cascade(
    author: int,
    created_at: float,
    topic: int,
    config: SynthConfig,
    followers: dict[int, np.ndarray],
    alignment: np.ndarray,
    rng: np.random.Generator,
    topic_pools: dict[int, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate the retweet cascade of one tweet.

    Returns the retweeters and their retweet times, in the order the
    cascade reached them.  Each user gets a single conversion draw per
    cascade (their first exposure); sharers expose their own followers —
    plus a Poisson-sized sample of topically-affine *discovery* users
    when ``topic_pools`` is given — one hop deeper, with the conversion
    probability decayed by ``depth_decay``.
    """
    virality = _draw_virality(rng, config.virality_tail)
    horizon = created_at + config.max_lifetime
    attempted: set[int] = {author}
    users: list[int] = []
    times: list[float] = []
    pool = topic_pools.get(topic) if topic_pools else None
    # Queue of (sharer, share_time, depth of *their* followers).
    queue: deque[tuple[int, float, int]] = deque([(author, created_at, 0)])
    while queue and len(users) < config.max_cascade_size:
        sharer, share_time, depth = queue.popleft()
        audience = followers.get(sharer, _EMPTY)
        if pool is not None and pool.size and config.discovery_mean > 0:
            n_discovery = int(rng.poisson(config.discovery_mean))
            if n_discovery > 0:
                discovered = pool[rng.integers(pool.size, size=n_discovery)]
                audience = np.concatenate([audience, discovered])
        if audience.size == 0:
            continue
        audience = np.unique(audience)
        fresh_mask = np.fromiter(
            (u not in attempted for u in audience), dtype=bool, count=audience.size
        )
        if not fresh_mask.any():
            continue
        candidates = audience[fresh_mask]
        attempted.update(int(u) for u in candidates)
        probs = (
            config.base_retweet_rate
            * virality
            * alignment[candidates, topic]
            * config.depth_decay**depth
        )
        np.clip(probs, 0.0, 0.95, out=probs)
        converted = candidates[rng.random(candidates.size) < probs]
        if converted.size == 0:
            continue
        delays = rng.lognormal(
            config.delay_log_mean, config.delay_log_sigma, size=converted.size
        )
        for user, delay in zip(converted.tolist(), delays.tolist()):
            share_at = share_time + delay
            if share_at > horizon or share_at > config.time_span:
                continue
            users.append(user)
            times.append(share_at)
            queue.append((user, share_at, depth + 1))
            if len(users) >= config.max_cascade_size:
                break
    if not users:
        return _EMPTY, _NO_TIMES
    return np.array(users, dtype=np.int64), np.array(times, dtype=np.float64)


_EMPTY = np.empty(0, dtype=np.int64)
_NO_TIMES = np.empty(0, dtype=np.float64)


class _CSRFollowers:
    """``followers.get(user)`` adapter over the reverse-follow CSR.

    :func:`simulate_cascade` looks followers up through a mapping
    interface; this serves zero-copy CSR row views instead of per-user
    arrays in a dict.
    """

    __slots__ = ("indptr", "sources")

    def __init__(self, src: np.ndarray, dst: np.ndarray, n: int):
        order = np.lexsort((src, dst))
        keys = dst[order]
        self.sources = np.ascontiguousarray(src[order])
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        unique, counts = np.unique(keys, return_counts=True)
        self.indptr[unique + 1] = counts
        np.cumsum(self.indptr, out=self.indptr)

    def get(self, user: int, default: np.ndarray = _EMPTY) -> np.ndarray:
        row = self.sources[self.indptr[user] : self.indptr[user + 1]]
        return row if len(row) else default


def topic_pools(
    alignment: np.ndarray, min_alignment: float
) -> dict[int, np.ndarray]:
    """Per topic, the users reachable through the discovery channel.

    Alignment is never negative, so at ``min_alignment <= 0`` every
    topic's pool is the whole population, shared rather than searched.
    """
    n_users, n_topics = alignment.shape
    if min_alignment <= 0.0:
        everyone = np.arange(n_users, dtype=np.int64)
        return {topic: everyone for topic in range(n_topics)}
    return {
        topic: np.flatnonzero(alignment[:, topic] >= min_alignment).astype(np.int64)
        for topic in range(n_topics)
    }


def _draw_virality(rng: np.random.Generator, tail: float) -> float:
    """Pareto(x_min=1) virality multiplier with tail index ``tail``."""
    return float((1.0 - rng.random()) ** (-1.0 / tail))
