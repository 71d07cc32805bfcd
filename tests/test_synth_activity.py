"""Tests for repro.synth.activity and repro.synth.socialgraph."""

import numpy as np
import pytest

from repro.synth.activity import simulate_activity, simulate_cascade, topic_pools
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


@pytest.fixture(scope="module")
def activity(world):
    config, interests, graph = world
    return simulate_activity(config, interests, graph, rng=3)


class TestSimulateActivity:
    def test_events_within_window(self, world, activity):
        config = world[0]
        (_, _, created, _), (_, _, times) = activity
        assert ((created >= 0.0) & (created <= config.time_span)).all()
        assert (times <= config.time_span).all()

    def test_tweet_ids_unique_sequential(self, activity):
        ids = activity[0][0]
        assert ids.tolist() == list(range(len(ids)))

    def test_retweets_reference_tweets(self, activity):
        (ids, _, _, _), (_, tweets, _) = activity
        assert np.isin(tweets, ids).all()

    def test_authors_never_retweet_own(self, activity):
        (_, authors, _, _), (users, tweets, _) = activity
        assert (authors[tweets] != users).all()

    def test_no_duplicate_user_tweet_pairs(self, activity):
        _, (users, tweets, _) = activity
        pairs = set(zip(users.tolist(), tweets.tolist()))
        assert len(pairs) == len(users)

    def test_retweet_log_chronological(self, activity):
        _, (users, tweets, times) = activity
        rows = list(zip(times.tolist(), users.tolist(), tweets.tolist()))
        assert rows == sorted(rows)

    def test_deterministic_under_seed(self, world, activity):
        config, interests, graph = world
        again = simulate_activity(config, interests, graph, rng=3)
        for got, want in zip((*again[0], *again[1]), (*activity[0], *activity[1])):
            assert np.array_equal(got, want)
            assert got.dtype == want.dtype


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
        rng = np.random.default_rng(0)
        users, times = simulate_cascade(
            0, 100.0, 0, config, followers, alignment, rng
        )
        assert len(users) == len(times) > 0
        assert (times > 100.0).all()
        assert users.dtype == np.int64 and times.dtype == np.float64

    def test_cascade_size_capped(self):
        config = SynthConfig(n_users=100, n_communities=2, seed=1,
                             base_retweet_rate=1.0, max_cascade_size=5,
                             discovery_mean=0.0)
        _, alignment = self.make_inputs(config)
        alignment[:] = 1.0
        followers = {u: np.arange(100, dtype=np.int64) for u in range(100)}
        rng = np.random.default_rng(0)
        users, _ = simulate_cascade(0, 0.0, 0, config, followers, alignment, rng)
        assert len(users) <= 5

    def test_no_followers_no_discovery_no_actions(self):
        config = SynthConfig(n_users=10, n_communities=2, seed=1,
                             discovery_mean=0.0)
        _, alignment = self.make_inputs(config)
        rng = np.random.default_rng(0)
        users, times = simulate_cascade(0, 0.0, 0, config, {}, alignment, rng)
        assert len(users) == len(times) == 0

    def test_discovery_reaches_nonfollowers(self):
        config = SynthConfig(n_users=80, n_communities=2, seed=1,
                             base_retweet_rate=0.9, discovery_mean=20.0)
        _, alignment = self.make_inputs(config)
        alignment[:] = 1.0
        pools = {0: np.arange(80, dtype=np.int64)}
        rng = np.random.default_rng(0)
        users, _ = simulate_cascade(
            0, 0.0, 0, config, {}, alignment, rng, topic_pools=pools
        )
        # No follow edges at all, yet the cascade converts via discovery.
        assert len(users) > 0


class TestTopicPools:
    def test_shortcut_pools_equal_the_searched_ones(self):
        alignment = np.random.default_rng(4).random((30, 5))
        alignment[3] = 0.0
        shortcut = topic_pools(alignment, 0.0)
        for topic, pool in shortcut.items():
            assert np.array_equal(pool, np.flatnonzero(alignment[:, topic] >= 0.0))
        searched = topic_pools(alignment, 0.5)
        for topic, pool in searched.items():
            assert np.array_equal(pool, np.flatnonzero(alignment[:, topic] >= 0.5))
            assert pool.dtype == np.int64


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
