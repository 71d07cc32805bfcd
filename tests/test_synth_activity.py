"""Tests for repro.synth.activity and repro.synth.socialgraph."""

import numpy as np
import pytest

from repro.data.models import Tweet
from repro.synth.activity import simulate_activity, simulate_cascade
from repro.synth.config import SynthConfig
from repro.synth.interests import InterestModel
from repro.synth.socialgraph import build_follow_graph
from tests.test_graph_oracle import follow_pairs


@pytest.fixture(scope="module")
def world():
    config = SynthConfig(n_users=250, n_communities=4, seed=5)
    interests = InterestModel(config, rng=1)
    graph = build_follow_graph(config, interests.communities, rng=2)
    return config, interests, graph


class TestFollowGraph:
    def test_all_users_present(self, world):
        config, _, graph = world
        assert graph.node_count == config.n_users

    def test_out_degrees_within_bounds(self, world):
        config, _, graph = world
        for node in graph.nodes():
            assert len(graph.successors(node)) <= config.max_out_degree

    def test_deterministic(self, world):
        config, interests, graph = world
        again = build_follow_graph(config, interests.communities, rng=2)
        assert sorted(follow_pairs(again)) == sorted(follow_pairs(graph))


class TestSimulateActivity:
    def test_events_within_window(self, world):
        config, interests, graph = world
        tweets, retweets = simulate_activity(config, interests, graph, rng=3)
        for tweet in tweets:
            assert 0.0 <= tweet.created_at <= config.time_span
        for retweet in retweets:
            assert retweet.time <= config.time_span

    def test_tweet_ids_unique_sequential(self, world):
        config, interests, graph = world
        tweets, _ = simulate_activity(config, interests, graph, rng=3)
        ids = [t.id for t in tweets]
        assert ids == list(range(len(ids)))

    def test_retweets_reference_tweets(self, world):
        config, interests, graph = world
        tweets, retweets = simulate_activity(config, interests, graph, rng=3)
        tweet_ids = {t.id for t in tweets}
        assert all(r.tweet in tweet_ids for r in retweets)

    def test_authors_never_retweet_own(self, world):
        config, interests, graph = world
        tweets, retweets = simulate_activity(config, interests, graph, rng=3)
        author = {t.id: t.author for t in tweets}
        assert all(author[r.tweet] != r.user for r in retweets)

    def test_no_duplicate_user_tweet_pairs(self, world):
        config, interests, graph = world
        _, retweets = simulate_activity(config, interests, graph, rng=3)
        pairs = [(r.user, r.tweet) for r in retweets]
        assert len(pairs) == len(set(pairs))

    def test_deterministic_under_seed(self, world):
        config, interests, graph = world
        a = simulate_activity(config, interests, graph, rng=3)
        b = simulate_activity(config, interests, graph, rng=3)
        assert a[0] == b[0]
        assert a[1] == b[1]


class TestSimulateCascade:
    def make_inputs(self, config):
        interests = InterestModel(config, rng=1)
        alignment = np.minimum(
            interests.interest_matrix * config.n_topics, 1.0
        )
        return interests, alignment

    def test_retweet_times_after_creation(self):
        config = SynthConfig(n_users=50, n_communities=2, seed=1,
                             base_retweet_rate=0.9, discovery_mean=0.0)
        _, alignment = self.make_inputs(config)
        followers = {0: np.arange(1, 50, dtype=np.int64)}
        tweet = Tweet(id=0, author=0, created_at=100.0, topic=0)
        rng = np.random.default_rng(0)
        actions = simulate_cascade(tweet, config, followers, alignment, rng)
        assert all(r.time > tweet.created_at for r in actions)

    def test_cascade_size_capped(self):
        config = SynthConfig(n_users=100, n_communities=2, seed=1,
                             base_retweet_rate=1.0, max_cascade_size=5,
                             discovery_mean=0.0)
        _, alignment = self.make_inputs(config)
        alignment[:] = 1.0
        followers = {u: np.arange(100, dtype=np.int64) for u in range(100)}
        tweet = Tweet(id=0, author=0, created_at=0.0, topic=0)
        rng = np.random.default_rng(0)
        actions = simulate_cascade(tweet, config, followers, alignment, rng)
        assert len(actions) <= 5

    def test_no_followers_no_discovery_no_actions(self):
        config = SynthConfig(n_users=10, n_communities=2, seed=1,
                             discovery_mean=0.0)
        _, alignment = self.make_inputs(config)
        tweet = Tweet(id=0, author=0, created_at=0.0, topic=0)
        rng = np.random.default_rng(0)
        actions = simulate_cascade(tweet, config, {}, alignment, rng)
        assert actions == []

    def test_discovery_reaches_nonfollowers(self):
        config = SynthConfig(n_users=80, n_communities=2, seed=1,
                             base_retweet_rate=0.9, discovery_mean=20.0)
        _, alignment = self.make_inputs(config)
        alignment[:] = 1.0
        pools = {0: np.arange(80, dtype=np.int64)}
        tweet = Tweet(id=0, author=0, created_at=0.0, topic=0)
        rng = np.random.default_rng(0)
        actions = simulate_cascade(
            tweet, config, {}, alignment, rng, topic_pools=pools
        )
        # No follow edges at all, yet the cascade converts via discovery.
        assert len(actions) > 0


class TestPaperShapes:
    def test_popularity_power_law(self, small_dataset):
        """Fig. 2: most tweets never retweeted, heavy tail above."""
        popularity = [small_dataset.popularity(t) for t in small_dataset.tweets]
        arr = np.asarray(popularity)
        assert (arr == 0).mean() > 0.5
        assert arr.max() >= 10

    def test_user_activity_heavy_tail(self, small_dataset):
        """Fig. 3: few users concentrate the retweet activity."""
        counts = np.asarray(
            [small_dataset.user_retweet_count(u) for u in small_dataset.users]
        )
        top_decile = np.sort(counts)[-len(counts) // 10 :].sum()
        assert top_decile > 0.3 * counts.sum()
