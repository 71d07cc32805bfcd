"""Chunked, array-scale synthetic corpus generation.

:func:`repro.synth.generate.generate_dataset` draws its frame —
interest vectors, the follow graph, tweet times — user by user and edge
by edge, and tops out around tens of thousands of users.  This module
generates the same *kind* of corpus — homophilous interests,
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

The rest is shared with the object generator: the cascade core
(:func:`~repro.synth.activity.simulate_cascade`, which returns columns),
the discovery pools, the out-degree and tweets-per-user draws, and the
one constructor, :meth:`TwitterDataset.from_arrays`.

Determinism: output is a pure function of the config, drawn from the
same named seed streams (``interests``, ``socialgraph``, ``activity``)
as the object generator.  Its frame samplers draw differently (gamma
matrices for the Dirichlet rows, a static-attractiveness edge sampler,
one vector of tweet times), so a chunked corpus is *statistically* —
not bitwise — equivalent to :func:`generate_dataset`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.data.dataset import TwitterDataset
from repro.synth.activity import (
    _CSRFollowers,
    sample_tweet_counts,
    simulate_cascade,
    topic_pools,
)
from repro.synth.config import DAY, SynthConfig
from repro.synth.interests import assign_communities
from repro.synth.socialgraph import sample_follow_edges, sample_out_degrees
from repro.utils.rng import SeedSequenceFactory

__all__ = ["ChunkedGenerator", "CorpusFrame", "SynthChunk"]


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
        communities = assign_communities(cfg, interests_rng)
        alignment = self._build_alignment(interests_rng, communities)

        social_rng = self._seeds.generator("socialgraph")
        follow_src, follow_dst = sample_follow_edges(
            sample_out_degrees(cfg, social_rng), communities,
            cfg.community_bias, social_rng,
        )

        activity_rng = self._seeds.generator("activity")
        tweets_per_user = sample_tweet_counts(cfg, activity_rng)
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
        pools = topic_pools(frame.alignment, cfg.discovery_min_alignment)

        # Undrained (users, tweets, times) column triples.
        pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        flushed_until = 0.0

        columns = zip(
            frame.tweet_ids, frame.tweet_authors, frame.tweet_times,
            frame.tweet_topics,
        )
        for tweet_id, author, created, topic in columns:
            created = float(created)
            while created >= flushed_until + self.window:
                chunk = self._drain(
                    pending, flushed_until, flushed_until + self.window
                )
                flushed_until += self.window
                if chunk is not None:
                    yield chunk
            users, times = simulate_cascade(
                int(author), created, int(topic), cfg, followers,
                frame.alignment, rng, topic_pools=pools,
            )
            if len(users):
                tweets = np.full(len(users), tweet_id, dtype=np.int64)
                pending.append((users, tweets, times))
        # Everything left is final; flush window by window to the end.
        while pending:
            chunk = self._drain(
                pending, flushed_until, flushed_until + self.window
            )
            flushed_until += self.window
            if chunk is not None:
                yield chunk

    @staticmethod
    def _drain(
        pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
        start: float,
        end: float,
    ) -> SynthChunk | None:
        """Extract the events with ``start <= time < end`` as one chunk."""
        if not pending:
            return None
        users, tweets, times = (np.concatenate(c) for c in zip(*pending))
        inside = times < end
        if not inside.any():
            return None
        later = ~inside
        pending[:] = (
            [(users[later], tweets[later], times[later])] if later.any() else []
        )
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
