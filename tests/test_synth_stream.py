"""Chunked streaming synthesis: ordering, determinism, frame sanity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.synth import ChunkedGenerator, SynthConfig, sample_follow_edges
from repro.synth.config import DAY, HOUR

CONFIG = SynthConfig(n_users=300, seed=13)


@pytest.fixture(scope="module")
def generator():
    return ChunkedGenerator(CONFIG, window=DAY)


@pytest.fixture(scope="module")
def chunks(generator):
    return list(generator.chunks())


class TestChunkStream:
    def test_chunks_are_time_ordered(self, chunks):
        last = -1.0
        for chunk in chunks:
            assert np.all(np.diff(chunk.times) >= 0)
            assert chunk.times.min() >= last
            last = chunk.times.max()

    def test_events_inside_window(self, chunks):
        for chunk in chunks:
            assert chunk.start < chunk.end
            assert chunk.times.min() >= chunk.start
            assert chunk.times.max() < chunk.end

    def test_events_never_precede_creation(self, generator, chunks):
        created = generator.frame.tweet_times
        for chunk in chunks:
            assert np.all(chunk.times >= created[chunk.tweets])

    def test_stream_is_deterministic(self, chunks):
        replay = list(ChunkedGenerator(CONFIG, window=DAY).chunks())
        assert len(replay) == len(chunks)
        for a, b in zip(chunks, replay):
            assert np.array_equal(a.users, b.users)
            assert np.array_equal(a.tweets, b.tweets)
            assert np.array_equal(a.times, b.times)

    def test_window_changes_chunking_not_events(self, chunks):
        fine = list(ChunkedGenerator(CONFIG, window=6 * HOUR).chunks())
        coarse_users = np.concatenate([c.users for c in chunks])
        fine_users = np.concatenate([c.users for c in fine])
        assert np.array_equal(coarse_users, fine_users)
        assert len(fine) >= len(chunks)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            ChunkedGenerator(CONFIG, window=0.0)


class TestColumnarSink:
    def test_to_columnar_is_valid(self, chunks):
        dataset = ChunkedGenerator(CONFIG, window=DAY).to_columnar()
        dataset.validate()
        assert dataset.user_count == CONFIG.n_users
        assert dataset.retweet_count == sum(len(c) for c in chunks)
        # Retweeters are homophilous enough to have >= 2-retweet tweets.
        assert dataset.tweets_with_min_retweets()


class TestFrame:
    def test_alignment_shape_and_range(self, generator):
        alignment = generator.frame.alignment
        assert alignment.shape == (CONFIG.n_users, CONFIG.n_topics)
        assert alignment.dtype == np.float32
        assert float(alignment.min()) >= 0.0
        assert float(alignment.max()) <= 1.0

    def test_every_community_inhabited(self, generator):
        assert len(np.unique(generator.frame.communities)) == (
            CONFIG.n_communities
        )

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_every_community_inhabited_at_any_size(self, data):
        """Filling an empty community never empties another, however
        few users there are per community."""
        n_users = data.draw(st.integers(2, 200), label="n_users")
        n_communities = data.draw(st.integers(1, n_users), label="n_communities")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        config = SynthConfig(
            n_users=n_users, n_communities=n_communities, seed=seed
        )
        communities = ChunkedGenerator(config).frame.communities
        assert np.array_equal(np.unique(communities), np.arange(n_communities))

    def test_tweets_creation_ordered(self, generator):
        assert np.all(np.diff(generator.frame.tweet_times) >= 0)

    def test_topics_in_range(self, generator):
        topics = generator.frame.tweet_topics
        assert topics.min() >= 0
        assert topics.max() < CONFIG.n_topics


class TestFollowEdgeSampler:
    def test_edges_clean(self):
        rng = np.random.default_rng(3)
        out_degrees = np.full(500, 8)
        communities = rng.integers(0, 6, size=500)
        src, dst = sample_follow_edges(out_degrees, communities, 0.7, rng)
        assert np.all(src != dst)
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert len(pairs) == len(src)
        # Dedup can only shrink realized degree.
        assert len(src) <= 500 * 8
        assert len(src) > 0

    def test_community_bias_shows(self):
        rng = np.random.default_rng(5)
        communities = np.repeat(np.arange(4), 250)
        src, dst = sample_follow_edges(
            np.full(1000, 10), communities, 0.9, rng
        )
        same = (communities[src] == communities[dst]).mean()
        rng = np.random.default_rng(5)
        src0, dst0 = sample_follow_edges(
            np.full(1000, 10), communities, 0.0, rng
        )
        same0 = (communities[src0] == communities[dst0]).mean()
        assert same > same0 + 0.3

    def test_heavy_tailed_in_degree(self):
        rng = np.random.default_rng(11)
        src, dst = sample_follow_edges(
            np.full(2000, 10), np.zeros(2000, dtype=np.int64), 0.5, rng
        )
        in_degree = np.bincount(dst, minlength=2000)
        # A Zipf-attractiveness target distribution concentrates edges:
        # the top 1% of accounts hold far more than 1% of the edges.
        top = np.sort(in_degree)[-20:].sum()
        assert top / in_degree.sum() > 0.05
        assert in_degree.max() > 5 * np.median(in_degree[in_degree > 0])

    def test_empty_inputs(self):
        rng = np.random.default_rng(1)
        src, dst = sample_follow_edges(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 0.5, rng
        )
        assert len(src) == 0 and len(dst) == 0
