"""Tests for repro.baselines.graphjet."""

import pytest

from repro.baselines.graphjet import GraphJetRecommender
from repro.data.models import Retweet
from tests.builders import DatasetBuilder

HOUR = 3600.0


def engagement_world():
    """Users 0/1 co-engage tweets; tweet 2 is popular."""
    builder = DatasetBuilder().with_users(5)
    for tid in range(4):
        builder.tweet(author=4, at=0.0, tweet_id=tid)
    train = []
    pairs = [(0, 0), (1, 0), (0, 1), (1, 2), (2, 2), (3, 2)]
    for i, (user, tid) in enumerate(pairs):
        at = 10.0 + i
        builder.retweet(user=user, tweet=tid, at=at)
        train.append(Retweet(user, tid, at))
    return builder.build(), train


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs", [{"period": 0.0}, {"walks": 0}, {"walk_depth": 0}]
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GraphJetRecommender(**kwargs)

    def test_unfitted_rejected(self):
        with pytest.raises(RuntimeError):
            GraphJetRecommender().on_event(Retweet(0, 0, 0.0))


class TestRandomWalks:
    def test_coengaged_tweets_recommended(self):
        dataset, train = engagement_world()
        rec = GraphJetRecommender(walks=200, seed=1)
        rec.fit(dataset, train)
        # User 0 engaged tweets 0 and 1; user 1 engaged 0 and 2.
        # Walks from user 0 must surface tweet 2 via user 1.
        results = dict(rec.recommend_for_user(0))
        assert 2 in results

    def test_own_tweets_excluded(self):
        dataset, train = engagement_world()
        rec = GraphJetRecommender(walks=200, seed=1)
        rec.fit(dataset, train)
        results = dict(rec.recommend_for_user(0))
        assert 0 not in results and 1 not in results

    def test_cold_user_gets_nothing(self):
        """The small-user limitation the paper observes in Fig. 9."""
        dataset, train = engagement_world()
        rec = GraphJetRecommender(walks=100, seed=1)
        rec.fit(dataset, train)
        assert rec.recommend_for_user(4) == []

    def test_popular_tweets_visited_more(self):
        # Build a star: many users engaged tweet 100; user 0 bridges.
        builder = DatasetBuilder().with_users(30)
        builder.tweet(author=29, at=0.0, tweet_id=100)
        builder.tweet(author=29, at=0.0, tweet_id=200)
        train = []
        t = 1.0
        for user in range(1, 25):
            builder.retweet(user=user, tweet=100, at=t)
            train.append(Retweet(user, 100, t))
            t += 1.0
        # Bridge: user 0 and user 1 share tweet 300; user 1 engaged both.
        builder.tweet(author=29, at=0.0, tweet_id=300)
        for user in (0, 1):
            builder.retweet(user=user, tweet=300, at=t)
            train.append(Retweet(user, 300, t))
            t += 1.0
        builder.retweet(user=2, tweet=200, at=t)
        train.append(Retweet(2, 200, t))
        rec = GraphJetRecommender(walks=400, walk_depth=4, seed=3)
        rec.fit(builder.build(), train)
        results = dict(rec.recommend_for_user(0))
        assert results.get(100, 0.0) > results.get(200, 0.0)


class TestPeriodicBatches:
    def test_batch_cadence(self):
        dataset, train = engagement_world()
        rec = GraphJetRecommender(period=5 * HOUR, walks=50, seed=1)
        rec.fit(dataset, train, target_users={0, 1})
        # First event triggers the first batch immediately.
        first = rec.on_event(Retweet(2, 1, 100.0))
        assert first
        # An event inside the same period triggers nothing.
        assert rec.on_event(Retweet(3, 1, 100.0 + HOUR)) == []
        # Crossing the period boundary triggers the next batch.
        later = rec.on_event(Retweet(0, 2, 100.0 + 6 * HOUR))
        assert later

    def test_batch_restricted_to_targets(self):
        dataset, train = engagement_world()
        rec = GraphJetRecommender(period=5 * HOUR, walks=50, seed=1)
        rec.fit(dataset, train, target_users={0})
        recs = rec.on_event(Retweet(2, 1, 100.0))
        assert {r.user for r in recs} <= {0}

    def test_finalize_runs_due_batch(self):
        dataset, train = engagement_world()
        rec = GraphJetRecommender(period=HOUR, walks=50, seed=1)
        rec.fit(dataset, train, target_users={0, 1})
        rec.on_event(Retweet(2, 1, 100.0))
        recs = rec.finalize(end_time=100.0 + 2 * HOUR)
        assert recs

    def test_finalize_before_fit_empty(self):
        assert GraphJetRecommender().finalize(0.0) == []

    def test_window_expiry_forgets_old_engagements(self):
        dataset, train = engagement_world()
        rec = GraphJetRecommender(window=HOUR, period=HOUR, walks=50, seed=1)
        rec.fit(dataset, train, target_users={0})
        # All train engagements are at t~10-15; an event a day later
        # expires them, leaving user 0 cold.
        recs = rec.on_event(Retweet(2, 1, 24 * HOUR))
        assert recs == []
