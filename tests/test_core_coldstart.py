"""Tests for repro.core.coldstart (§4.1 cold-start sketch)."""

import pytest

from repro.core.coldstart import ColdStartAugmenter
from repro.core.recommender import SimGraphRecommender
from repro.data.models import Retweet
from tests.builders import DatasetBuilder


def cold_world():
    """Users 0-2 co-retweet (warm); user 5 never retweets but follows 0.

    User 6 is cold and follows nobody — unreachable by borrowing.
    """
    builder = DatasetBuilder().with_users(7)
    builder.follow(5, 0)
    builder.follow_chain(0, 1, 2)
    builder.follow(1, 0)
    builder.follow(2, 0)
    for tid in (0, 1):
        builder.tweet(author=4, at=float(tid), tweet_id=tid)
    builder.tweet(author=4, at=100.0, tweet_id=10)
    train = []
    for tid in (0, 1):
        for user in (0, 1, 2):
            at = 5.0 + tid + user
            builder.retweet(user=user, tweet=tid, at=at)
            train.append(Retweet(user, tid, at))
    return builder.build(), train


@pytest.fixture
def fitted():
    dataset, train = cold_world()
    recommender = SimGraphRecommender(tau=0.0)
    recommender.fit(dataset, train)
    return dataset, train, recommender


class TestConstruction:
    def test_requires_fitted_recommender(self, fitted):
        dataset, _, _ = fitted
        with pytest.raises(ValueError):
            ColdStartAugmenter(SimGraphRecommender(), dataset)

    def test_damping_validated(self, fitted):
        dataset, _, recommender = fitted
        with pytest.raises(ValueError):
            ColdStartAugmenter(recommender, dataset, damping=0.0)

    def test_auto_detects_cold_users(self, fitted):
        dataset, _, recommender = fitted
        augmenter = ColdStartAugmenter(recommender, dataset)
        assert augmenter.is_cold(5)
        assert augmenter.is_cold(6)
        assert not augmenter.is_cold(0)

    def test_warm_users_excluded_from_explicit_set(self, fitted):
        dataset, _, recommender = fitted
        augmenter = ColdStartAugmenter(recommender, dataset, cold_users={0, 5})
        assert not augmenter.is_cold(0)
        assert augmenter.is_cold(5)


class TestBorrowing:
    def test_cold_user_receives_borrowed_recs(self, fitted):
        dataset, _, recommender = fitted
        augmenter = ColdStartAugmenter(recommender, dataset)
        recs = augmenter.on_event(Retweet(user=1, tweet=10, time=110.0))
        users = {r.user for r in recs}
        # User 0 (followee of 5) is recommended tweet 10 directly, so the
        # cold user 5 inherits it.
        assert 0 in users
        assert 5 in users

    def test_unreachable_cold_user_gets_nothing(self, fitted):
        dataset, _, recommender = fitted
        augmenter = ColdStartAugmenter(recommender, dataset)
        recs = augmenter.on_event(Retweet(user=1, tweet=10, time=110.0))
        assert all(r.user != 6 for r in recs)

    def test_borrowed_scores_damped(self, fitted):
        dataset, _, recommender = fitted
        augmenter = ColdStartAugmenter(recommender, dataset, damping=0.5)
        recs = augmenter.on_event(Retweet(user=1, tweet=10, time=110.0))
        direct = {r.user: r.score for r in recs if r.user == 0}
        borrowed = {r.user: r.score for r in recs if r.user == 5}
        assert borrowed[5] == pytest.approx(0.5 * direct[0])

    def test_direct_output_untouched(self, fitted):
        dataset, train, _ = fitted
        plain = SimGraphRecommender(tau=0.0)
        plain.fit(dataset, train)
        augmented = ColdStartAugmenter(plain, dataset)
        event = Retweet(user=1, tweet=10, time=110.0)

        reference = SimGraphRecommender(tau=0.0)
        reference.fit(dataset, train)
        expected = {(r.user, r.score) for r in reference.on_event(event)}
        got = {
            (r.user, r.score)
            for r in augmented.on_event(event)
            if not augmented.is_cold(r.user)
        }
        assert got == expected

    def test_event_author_never_borrows_own_share(self, fitted):
        dataset, _, recommender = fitted
        augmenter = ColdStartAugmenter(recommender, dataset, cold_users={5})
        recs = augmenter.on_event(Retweet(user=5, tweet=10, time=110.0))
        assert all(r.user != 5 for r in recs)

    def test_coverage(self, fitted):
        dataset, _, recommender = fitted
        augmenter = ColdStartAugmenter(recommender, dataset,
                                       cold_users={5, 6})
        # User 5 follows user 0 (reachable); user 6 follows nobody.
        assert augmenter.coverage() == pytest.approx(0.5)

    def test_coverage_without_cold_users(self, fitted):
        dataset, _, recommender = fitted
        augmenter = ColdStartAugmenter(recommender, dataset, cold_users=set())
        assert augmenter.coverage() == 1.0
