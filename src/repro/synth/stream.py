"""Chunked, array-scale synthetic corpus generation.

:func:`repro.synth.generate.generate_dataset` materializes every entity
as a Python object and tops out around tens of thousands of users.  This
module generates the same *kind* of corpus — homophilous interests,
heavy-tailed follow graph, cascade-driven retweets — at paper scale
(ROADMAP item 1: the crawl is 2.2M users):

* the static frame (communities, interest alignment, follow CSR, tweet
  columns) is built fully vectorized in a few flat arrays;
* retweets are *streamed* in time-ordered chunks
  (:class:`SynthChunk`), never holding the full log in RAM.

Chunking correctness rests on one invariant: every cascade event of a
tweet happens at or after the tweet's creation time, and tweets are
processed in creation order.  So when the generator reaches a tweet
created at ``t``, every pending event with ``time < t`` is final — no
future tweet can emit an earlier one — and whole windows below ``t``
can be flushed, sorted, as chunks.  The pending buffer is bounded by
the events inside one ``max_lifetime`` horizon, not the corpus.

Determinism: output is a pure function of the config (same named seed
streams as the object generator), but the vectorized algorithms draw in
a different order, so a chunked corpus is *statistically* — not
bitwise — equivalent to :func:`generate_dataset`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.data.dataset import TwitterDataset
from repro.synth.activity import _CSRFollowers, simulate_cascade
from repro.synth.config import DAY, SynthConfig
from repro.synth.socialgraph import sample_follow_edges
from repro.utils.powerlaw import sample_bounded_zipf
from repro.utils.rng import SeedSequenceFactory

__all__ = ["ChunkedGenerator", "CorpusFrame", "SynthChunk",
           "generate_dataset_chunked"]


@dataclass(frozen=True)
class SynthChunk:
    """One time window of the retweet stream (columns, chronological)."""

    start: float
    end: float
    users: np.ndarray
    tweets: np.ndarray
    times: np.ndarray

    def __len__(self) -> int:
        return len(self.users)


@dataclass(frozen=True)
class CorpusFrame:
    """The static (non-stream) part of a chunked corpus, as columns."""

    communities: np.ndarray  # int32, per user
    alignment: np.ndarray  # float32, users x topics, in [0, 1]
    follow_src: np.ndarray  # int64 follower ids
    follow_dst: np.ndarray  # int64 followee ids
    tweet_ids: np.ndarray  # int64, creation-time order
    tweet_authors: np.ndarray  # int64
    tweet_times: np.ndarray  # float64, non-decreasing
    tweet_topics: np.ndarray  # int32

    @property
    def n_users(self) -> int:
        return len(self.communities)


class ChunkedGenerator:
    """Streamed synthetic corpus: a static frame + time-ordered chunks.

    ``window`` sets the chunk granularity (seconds of simulated time per
    chunk); chunks with no events are skipped.
    """

    def __init__(self, config: SynthConfig | None = None, window: float = DAY):
        if config is None:
            config = SynthConfig()
        if window <= 0:
            raise ValueError("window must be positive")
        self.config = config
        self.window = float(window)
        self._seeds = SeedSequenceFactory(config.seed)
        self.frame = self._build_frame()

    # ------------------------------------------------------------------
    # Static frame (vectorized)
    # ------------------------------------------------------------------
    def _build_frame(self) -> CorpusFrame:
        cfg = self.config
        interests_rng = self._seeds.generator("interests")
        communities = self._assign_communities(interests_rng)
        alignment = self._build_alignment(interests_rng, communities)

        social_rng = self._seeds.generator("socialgraph")
        max_degree = min(cfg.max_out_degree, cfg.n_users - 1)
        min_degree = min(cfg.min_out_degree, max_degree)
        out_degrees = sample_bounded_zipf(
            social_rng,
            alpha=cfg.out_degree_alpha,
            x_min=min_degree,
            x_max=max_degree,
            size=cfg.n_users,
        )
        follow_src, follow_dst = sample_follow_edges(
            out_degrees, communities, cfg.community_bias, social_rng
        )

        activity_rng = self._seeds.generator("activity")
        tweets_per_user = sample_bounded_zipf(
            activity_rng,
            alpha=cfg.tweets_alpha,
            x_min=cfg.min_tweets_per_user,
            x_max=cfg.max_tweets_per_user,
            size=cfg.n_users,
        )
        n_tweets = int(tweets_per_user.sum())
        authors = np.repeat(
            np.arange(cfg.n_users, dtype=np.int64), tweets_per_user
        )
        times = activity_rng.uniform(0.0, cfg.time_span, size=n_tweets)
        order = np.argsort(times, kind="stable")
        authors = authors[order]
        times = times[order]
        topics = self._draw_topics(activity_rng, alignment, communities, authors)
        self._cascade_rng = activity_rng

        return CorpusFrame(
            communities=communities.astype(np.int32),
            alignment=alignment,
            follow_src=follow_src,
            follow_dst=follow_dst,
            tweet_ids=np.arange(n_tweets, dtype=np.int64),
            tweet_authors=authors,
            tweet_times=times,
            tweet_topics=topics.astype(np.int32),
        )

    def _assign_communities(self, rng: np.random.Generator) -> np.ndarray:
        cfg = self.config
        weights = 1.0 / np.arange(1, cfg.n_communities + 1, dtype=np.float64)
        weights /= weights.sum()
        labels = rng.choice(cfg.n_communities, size=cfg.n_users, p=weights)
        present = np.zeros(cfg.n_communities, dtype=bool)
        present[np.unique(labels)] = True
        for community in np.flatnonzero(~present):
            labels[int(rng.integers(cfg.n_users))] = community
        return labels.astype(np.int64)

    def _build_alignment(
        self, rng: np.random.Generator, communities: np.ndarray
    ) -> np.ndarray:
        """Interest alignment matrix, vectorized and float32.

        Same model as :class:`~repro.synth.interests.InterestModel` —
        Dirichlet background plus concentrated mass on the community's
        home topics — but drawn as gamma matrices (a Dirichlet row is a
        normalized gamma row) instead of a million per-user calls, and
        collapsed straight to the ``min(interest * n_topics, 1)``
        alignment the cascades consume.
        """
        cfg = self.config
        home = np.stack(
            [
                rng.choice(
                    cfg.n_topics, size=cfg.topics_per_community, replace=False
                )
                for _ in range(cfg.n_communities)
            ]
        )
        matrix = rng.gamma(0.3, size=(cfg.n_users, cfg.n_topics)).astype(
            np.float32
        )
        matrix /= np.maximum(matrix.sum(axis=1, keepdims=True), 1e-20)
        matrix *= 1.0 - cfg.interest_concentration
        home_mass = rng.gamma(
            1.0, size=(cfg.n_users, cfg.topics_per_community)
        ).astype(np.float32)
        home_mass /= np.maximum(home_mass.sum(axis=1, keepdims=True), 1e-20)
        rows = np.repeat(
            np.arange(cfg.n_users, dtype=np.int64), cfg.topics_per_community
        )
        cols = home[communities].ravel()
        np.add.at(
            matrix,
            (rows, cols),
            (cfg.interest_concentration * home_mass).ravel(),
        )
        matrix /= matrix.sum(axis=1, keepdims=True)
        return np.minimum(matrix * cfg.n_topics, 1.0)

    def _draw_topics(
        self,
        rng: np.random.Generator,
        alignment: np.ndarray,
        communities: np.ndarray,
        authors: np.ndarray,
        block: int = 131072,
    ) -> np.ndarray:
        """Sample each tweet's topic from its author's interest vector.

        Inverse-CDF over the (re-normalized) alignment rows, in blocks
        so the cumulative matrix never exceeds a few MB.
        """
        topics = np.empty(len(authors), dtype=np.int64)
        draws = rng.random(len(authors))
        for lo in range(0, len(authors), block):
            hi = min(lo + block, len(authors))
            rows = alignment[authors[lo:hi]].astype(np.float64)
            rows /= rows.sum(axis=1, keepdims=True)
            cum = np.cumsum(rows, axis=1)
            topics[lo:hi] = np.minimum(
                (cum < draws[lo:hi, None]).sum(axis=1),
                alignment.shape[1] - 1,
            )
        return topics

    # ------------------------------------------------------------------
    # The stream
    # ------------------------------------------------------------------
    def chunks(self) -> Iterator[SynthChunk]:
        """Yield the retweet log as time-ordered :class:`SynthChunk`s.

        Single-shot: cascade randomness is consumed as the stream
        advances (build a fresh generator to replay).
        """
        cfg = self.config
        frame = self.frame
        rng = self._cascade_rng
        followers = _CSRFollowers(
            frame.follow_src, frame.follow_dst, cfg.n_users
        )
        if cfg.discovery_min_alignment <= 0.0:
            everyone = np.arange(cfg.n_users, dtype=np.int64)
            topic_pools = {t: everyone for t in range(cfg.n_topics)}
        else:
            topic_pools = {
                t: np.flatnonzero(
                    frame.alignment[:, t] >= cfg.discovery_min_alignment
                ).astype(np.int64)
                for t in range(cfg.n_topics)
            }

        pending_users: list[np.ndarray] = []
        pending_tweets: list[np.ndarray] = []
        pending_times: list[np.ndarray] = []
        flushed_until = 0.0

        tweet = _TweetView()
        for i in range(len(frame.tweet_ids)):
            created = float(frame.tweet_times[i])
            while created >= flushed_until + self.window:
                chunk = self._drain(
                    pending_users, pending_tweets, pending_times,
                    flushed_until, flushed_until + self.window,
                )
                flushed_until += self.window
                if chunk is not None:
                    yield chunk
            tweet.id = int(frame.tweet_ids[i])
            tweet.author = int(frame.tweet_authors[i])
            tweet.created_at = created
            tweet.topic = int(frame.tweet_topics[i])
            actions = simulate_cascade(
                tweet, cfg, followers, frame.alignment, rng,
                topic_pools=topic_pools,
            )
            if actions:
                pending_users.append(
                    np.fromiter((a.user for a in actions), dtype=np.int64,
                                count=len(actions))
                )
                pending_tweets.append(
                    np.full(len(actions), tweet.id, dtype=np.int64)
                )
                pending_times.append(
                    np.fromiter((a.time for a in actions), dtype=np.float64,
                                count=len(actions))
                )
        # Everything left is final; flush window by window to the end.
        while pending_users:
            chunk = self._drain(
                pending_users, pending_tweets, pending_times,
                flushed_until, flushed_until + self.window,
            )
            flushed_until += self.window
            if chunk is not None:
                yield chunk

    @staticmethod
    def _drain(
        pending_users: list[np.ndarray],
        pending_tweets: list[np.ndarray],
        pending_times: list[np.ndarray],
        start: float,
        end: float,
    ) -> SynthChunk | None:
        """Extract the events with ``start <= time < end`` as one chunk."""
        if not pending_users:
            return None
        users = np.concatenate(pending_users)
        tweets = np.concatenate(pending_tweets)
        times = np.concatenate(pending_times)
        inside = times < end
        if not inside.any():
            return None
        pending_users[:] = [users[~inside]] if (~inside).any() else []
        pending_tweets[:] = [tweets[~inside]] if (~inside).any() else []
        pending_times[:] = [times[~inside]] if (~inside).any() else []
        users, tweets, times = users[inside], tweets[inside], times[inside]
        order = np.lexsort((tweets, users, times))
        return SynthChunk(
            start=start, end=end,
            users=users[order], tweets=tweets[order], times=times[order],
        )

    # ------------------------------------------------------------------
    # Convenience sinks
    # ------------------------------------------------------------------
    def to_columnar(self) -> TwitterDataset:
        """Consume the whole stream into a :class:`TwitterDataset`."""
        chunks = list(self.chunks())
        frame = self.frame
        rt_users, rt_tweets, rt_times = (
            np.concatenate([np.empty(0, dtype), *(getattr(c, name) for c in chunks)])
            for name, dtype in (
                ("users", np.int64), ("tweets", np.int64), ("times", np.float64)
            )
        )
        return TwitterDataset.from_arrays(
            user_ids=np.arange(self.config.n_users, dtype=np.int64),
            user_communities=frame.communities,
            follow_src=frame.follow_src,
            follow_dst=frame.follow_dst,
            tweet_ids=frame.tweet_ids,
            tweet_authors=frame.tweet_authors,
            tweet_times=frame.tweet_times,
            tweet_topics=frame.tweet_topics,
            rt_users=rt_users, rt_tweets=rt_tweets, rt_times=rt_times,
        )


class _TweetView:
    """Mutable stand-in for :class:`~repro.data.models.Tweet`.

    :func:`simulate_cascade` only reads ``id``/``author``/``created_at``
    /``topic``; reusing one view object avoids allocating millions of
    frozen dataclass instances on the hot path.
    """

    __slots__ = ("id", "author", "created_at", "topic")


def generate_dataset_chunked(
    config: SynthConfig | None = None, window: float = DAY
) -> Iterator[SynthChunk]:
    """Stream a synthetic corpus's retweet log as time-ordered chunks.

    Thin wrapper over :class:`ChunkedGenerator` for consumers that only
    need the event stream; instantiate the class directly when the
    static frame (follow edges, tweet columns) is needed too.
    """
    yield from ChunkedGenerator(config, window=window).chunks()
