"""Tests for repro.baselines.bayes."""

import pytest

from repro.baselines.bayes import BayesRecommender
from repro.data.models import Retweet
from tests.builders import DatasetBuilder


def follow_world():
    """Follow chain 2 -> 1 -> 0 with a tweet authored by user 0.

    Content flows 0 -> (follower 1) -> (follower 2).
    """
    builder = DatasetBuilder().with_users(4)
    builder.follow(1, 0)
    builder.follow(2, 1)
    builder.follow(3, 0)
    builder.tweet(author=0, at=0.0, tweet_id=0)
    builder.tweet(author=0, at=1.0, tweet_id=1)
    builder.retweet(user=1, tweet=0, at=10.0)
    builder.retweet(user=2, tweet=0, at=20.0)
    train = [Retweet(1, 0, 10.0), Retweet(2, 0, 20.0)]
    return builder.build(), train


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stop_threshold": 0.0},
            {"stop_threshold": 1.0},
            {"trust_mode": "magic"},
            {"uniform_trust": 0.0},
            {"uniform_trust": 1.5},
            {"smoothing": -1.0},
            {"max_depth": 0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BayesRecommender(**kwargs)

    def test_unfitted_rejected(self):
        with pytest.raises(RuntimeError):
            BayesRecommender().on_event(Retweet(0, 0, 0.0))


class TestUniformTrust:
    def test_followers_of_sharer_recommended(self):
        dataset, train = follow_world()
        rec = BayesRecommender(uniform_trust=0.2, stop_threshold=0.01)
        rec.fit(dataset, train)
        recs = rec.on_event(Retweet(user=0, tweet=1, time=100.0))
        users = {r.user for r in recs}
        assert 1 in users  # direct follower of the sharer
        assert 3 in users

    def test_belief_decays_with_depth(self):
        dataset, train = follow_world()
        rec = BayesRecommender(uniform_trust=0.5, stop_threshold=0.01)
        rec.fit(dataset, train)
        recs = {r.user: r.score for r in rec.on_event(Retweet(0, 1, 100.0))}
        assert recs[1] > recs[2]  # two hops from the seed

    def test_stop_threshold_limits_depth(self):
        dataset, train = follow_world()
        rec = BayesRecommender(uniform_trust=0.2, stop_threshold=0.1)
        rec.fit(dataset, train)
        recs = {r.user for r in rec.on_event(Retweet(0, 1, 100.0))}
        # 0.2 * 0.2 = 0.04 < 0.1: user 2 is never reached.
        assert 2 not in recs

    def test_max_depth_cap(self):
        dataset, train = follow_world()
        rec = BayesRecommender(uniform_trust=0.9, stop_threshold=0.01,
                               max_depth=1)
        rec.fit(dataset, train)
        recs = {r.user for r in rec.on_event(Retweet(0, 1, 100.0))}
        assert 2 not in recs

    def test_seeds_not_recommended(self):
        dataset, train = follow_world()
        rec = BayesRecommender()
        rec.fit(dataset, train)
        recs = rec.on_event(Retweet(user=0, tweet=0, time=100.0))
        # Users 1 and 2 already retweeted tweet 0 in train.
        assert all(r.user not in (0, 1, 2) for r in recs)

    def test_multiple_seeds_raise_belief(self):
        builder = DatasetBuilder().with_users(4)
        builder.follow(0, 1)
        builder.follow(0, 2)
        builder.tweet(author=3, at=0.0, tweet_id=0)
        dataset = builder.build()
        rec = BayesRecommender(uniform_trust=0.3, stop_threshold=0.01)
        rec.fit(dataset, [])
        one = {r.user: r.score for r in rec.on_event(Retweet(1, 0, 10.0))}
        both = {r.user: r.score for r in rec.on_event(Retweet(2, 0, 20.0))}
        # Noisy-OR: two sharing followees beat one.
        assert both[0] > one[0]
        # And the combination stays a probability.
        assert both[0] == pytest.approx(1 - (1 - 0.3) ** 2)

    def test_target_filter(self):
        dataset, train = follow_world()
        rec = BayesRecommender()
        rec.fit(dataset, train, target_users={3})
        recs = rec.on_event(Retweet(user=0, tweet=1, time=100.0))
        assert {r.user for r in recs} <= {3}


class TestLearnedTrust:
    def test_learned_mode_uses_coretweets(self):
        builder = DatasetBuilder().with_users(3)
        builder.follow(0, 1)
        builder.follow(2, 1)
        for tid in range(4):
            builder.tweet(author=1, at=float(tid), tweet_id=tid)
        builder.tweet(author=1, at=50.0, tweet_id=10)
        train = []
        # User 0 co-retweets everything user 1 shares; user 2 nothing.
        for tid in range(4):
            for user in (0, 1):
                builder.retweet(user=user, tweet=tid, at=10.0 + tid + user)
                train.append(Retweet(user, tid, 10.0 + tid + user))
        dataset = builder.build()
        rec = BayesRecommender(trust_mode="learned", stop_threshold=0.01)
        rec.fit(dataset, train)
        recs = {r.user: r.score for r in rec.on_event(Retweet(1, 10, 60.0))}
        assert recs[0] > recs[2]
