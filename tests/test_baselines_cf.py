"""Tests for repro.baselines.cf."""

import pytest

from repro.baselines.cf import CollaborativeFilteringRecommender
from repro.data.models import Retweet
from tests.builders import DatasetBuilder


def cf_world():
    """Users 0 and 1 co-retweet heavily; user 2 is unrelated; no follow
    edges at all — CF must work network-free."""
    builder = DatasetBuilder().with_users(4)
    for tid in range(3):
        builder.tweet(author=3, at=float(tid), tweet_id=tid)
    builder.tweet(author=3, at=50.0, tweet_id=5)
    builder.tweet(author=3, at=100.0, tweet_id=10)
    train = []
    for tid in range(3):
        for user in (0, 1):
            at = 10.0 + tid + user
            builder.retweet(user=user, tweet=tid, at=at)
            train.append(Retweet(user=user, tweet=tid, time=at))
    # User 2's only retweet is a tweet nobody else touched: no overlap
    # with users 0/1, hence zero similarity to both.
    builder.retweet(user=2, tweet=5, at=55.0)
    train.append(Retweet(user=2, tweet=5, time=55.0))
    return builder.build(), train


class TestFit:
    def test_unfitted_rejected(self):
        rec = CollaborativeFilteringRecommender()
        with pytest.raises(RuntimeError):
            rec.on_event(Retweet(user=0, tweet=0, time=0.0))

    def test_defaults_to_all_profiled_users(self):
        dataset, train = cf_world()
        rec = CollaborativeFilteringRecommender()
        rec.fit(dataset, train)
        recs = rec.on_event(Retweet(user=0, tweet=10, time=101.0))
        assert {r.user for r in recs} <= {1, 2}


class TestScoring:
    def test_similar_user_recommended(self):
        dataset, train = cf_world()
        rec = CollaborativeFilteringRecommender()
        rec.fit(dataset, train, target_users={1})
        recs = rec.on_event(Retweet(user=0, tweet=10, time=101.0))
        assert {r.user for r in recs} == {1}
        assert recs[0].tweet == 10

    def test_network_independent(self):
        # No follow edges exist, yet CF still recommends (key CF property
        # the paper contrasts with graph-bound methods).
        dataset, train = cf_world()
        assert dataset.follow_graph.edge_count == 0
        rec = CollaborativeFilteringRecommender()
        rec.fit(dataset, train, target_users={0, 1, 2})
        assert rec.on_event(Retweet(user=1, tweet=10, time=101.0))

    def test_unrelated_user_not_recommended(self):
        dataset, train = cf_world()
        rec = CollaborativeFilteringRecommender()
        rec.fit(dataset, train, target_users={0, 1, 2})
        recs = rec.on_event(Retweet(user=1, tweet=10, time=101.0))
        # User 2 shares nothing with user 1 -> no recommendation.
        assert all(r.user != 2 for r in recs)

    def test_scores_accumulate_over_retweeters(self):
        dataset, train = cf_world()
        rec = CollaborativeFilteringRecommender()
        rec.fit(dataset, train, target_users={2})
        first = rec.on_event(Retweet(user=0, tweet=10, time=101.0))
        second = rec.on_event(Retweet(user=1, tweet=10, time=102.0))
        if first and second:
            assert second[0].score >= first[0].score

    def test_scores_normalized_below_one(self):
        dataset, train = cf_world()
        rec = CollaborativeFilteringRecommender()
        rec.fit(dataset, train, target_users={0, 1, 2})
        recs = rec.on_event(Retweet(user=0, tweet=10, time=101.0))
        assert all(0.0 < r.score <= 1.0 for r in recs)

    def test_known_tweet_not_rerecommended(self):
        dataset, train = cf_world()
        rec = CollaborativeFilteringRecommender()
        rec.fit(dataset, train, target_users={0, 1})
        # Tweet 0 is already in user 1's train profile.
        recs = rec.on_event(Retweet(user=0, tweet=0, time=101.0))
        assert all(r.tweet != 0 or r.user != 1 for r in recs)

    def test_event_absorption_prevents_reflexive_rec(self):
        dataset, train = cf_world()
        rec = CollaborativeFilteringRecommender()
        rec.fit(dataset, train, target_users={0, 1})
        rec.on_event(Retweet(user=1, tweet=10, time=101.0))
        # User 1 already retweeted tweet 10; a later event must not
        # recommend it back to them.
        recs = rec.on_event(Retweet(user=0, tweet=10, time=102.0))
        assert all(r.user != 1 for r in recs)

    def test_min_score_floor(self):
        dataset, train = cf_world()
        rec = CollaborativeFilteringRecommender(min_score=10.0)
        rec.fit(dataset, train, target_users={0, 1, 2})
        assert rec.on_event(Retweet(user=0, tweet=10, time=101.0)) == []
