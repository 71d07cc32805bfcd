"""Tests for repro.core.profiles."""

import math

import numpy as np
import pytest

from repro.core.profiles import RetweetProfiles
from repro.data.models import Retweet


def make_profiles() -> RetweetProfiles:
    return RetweetProfiles(
        [
            Retweet(user=1, tweet=10, time=0.0),
            Retweet(user=1, tweet=11, time=1.0),
            Retweet(user=2, tweet=10, time=2.0),
        ]
    )


class TestConstruction:
    def test_from_stream(self):
        profiles = make_profiles()
        assert profiles.profile(1) == {10, 11}
        assert profiles.profile(2) == {10}

    def test_add_idempotent(self):
        profiles = make_profiles()
        profiles.add(1, 10)
        assert profiles.profile_size(1) == 2
        assert profiles.popularity(10) == 2

    def test_extend(self):
        profiles = RetweetProfiles()
        profiles.extend([Retweet(3, 20, 0.0), Retweet(4, 20, 1.0)])
        assert profiles.popularity(20) == 2


class TestQueries:
    def test_unknown_user_empty(self):
        profiles = make_profiles()
        assert profiles.profile(99) == set()
        assert profiles.profile_size(99) == 0
        assert not profiles.has_profile(99)

    def test_users_iterates_profiled(self):
        assert sorted(make_profiles().users()) == [1, 2]

    def test_counts(self):
        profiles = make_profiles()
        assert profiles.user_count == 2
        assert profiles.tweet_count == 2

    def test_retweeters(self):
        assert make_profiles().retweeters(10) == {1, 2}
        assert make_profiles().retweeters(999) == set()


class TestTweetWeight:
    def test_weight_formula(self):
        profiles = make_profiles()
        # Tweet 10 has popularity 2: weight = 1/ln(3).
        assert profiles.tweet_weight(10) == pytest.approx(1.0 / math.log(3))
        # Tweet 11 has popularity 1: weight = 1/ln(2).
        assert profiles.tweet_weight(11) == pytest.approx(1.0 / math.log(2))

    def test_weight_of_unknown_tweet_zero(self):
        assert make_profiles().tweet_weight(999) == 0.0

    def test_popular_tweets_weigh_less(self):
        profiles = RetweetProfiles()
        for user in range(50):
            profiles.add(user, 1)
        profiles.add(0, 2)
        profiles.add(1, 2)
        assert profiles.tweet_weight(1) < profiles.tweet_weight(2)


class TestReadOnlyViews:
    """profile()/retweeters() return immutable snapshots for every key.

    Regression: the dict era returned the *live* internal set for known
    keys (a caller's ``.add`` corrupted the profile) but a fresh set for
    unknown keys.
    """

    def test_returns_frozenset_for_all_keys(self):
        profiles = make_profiles()
        assert isinstance(profiles.profile(1), frozenset)
        assert isinstance(profiles.profile(99), frozenset)
        assert isinstance(profiles.retweeters(10), frozenset)
        assert isinstance(profiles.retweeters(999), frozenset)

    def test_mutating_a_copy_never_corrupts_state(self):
        profiles = make_profiles()
        leaked = set(profiles.profile(1))
        leaked.add(12345)
        assert profiles.profile(1) == {10, 11}
        leaked = set(profiles.retweeters(10))
        leaked.add(12345)
        assert profiles.retweeters(10) == {1, 2}

    def test_snapshot_is_stable_across_adds(self):
        profiles = make_profiles()
        before = profiles.profile(1)
        profiles.add(1, 99)
        assert before == {10, 11}
        assert profiles.profile(1) == {10, 11, 99}


class TestFromArrays:
    """The bulk path answers exactly like pairs added one at a time."""

    PAIRS = [
        (1, 10), (1, 11), (2, 10), (2, 10),  # duplicate pair
        (3, 12), (3, 10), (5, 11),
    ]

    def _both(self):
        added = RetweetProfiles()
        for user, tweet in self.PAIRS:
            added.add(user, tweet)
        users = np.array([p[0] for p in self.PAIRS])
        tweets = np.array([p[1] for p in self.PAIRS])
        return added, RetweetProfiles.from_arrays(users, tweets)

    def test_queries_identical(self):
        ref, csr = self._both()
        for user in list(ref.users()) + [99]:
            assert csr.profile(user) == ref.profile(user)
            assert csr.profile_size(user) == ref.profile_size(user)
            assert csr.has_profile(user) == ref.has_profile(user)
        for tweet in list(ref.tweets()) + [999]:
            assert csr.retweeters(tweet) == ref.retweeters(tweet)
            assert csr.popularity(tweet) == ref.popularity(tweet)
            assert csr.tweet_weight(tweet) == pytest.approx(
                ref.tweet_weight(tweet)
            )
        assert sorted(csr.users()) == sorted(ref.users())
        assert sorted(csr.tweets()) == sorted(ref.tweets())
        assert csr.user_count == ref.user_count
        assert csr.tweet_count == ref.tweet_count

    def test_bulk_base_is_clean(self):
        _, csr = self._both()
        assert len(csr.dirt()[0]) == 0
        assert csr.dirty_users == frozenset()

    def test_overlay_add_on_frozen_base(self):
        _, csr = self._both()
        csr.add(1, 99)  # new tweet for a base user
        csr.add(42, 10)  # new user on a base tweet
        csr.add(1, 10)  # duplicate of a base pair: no-op
        assert csr.profile(1) == {10, 11, 99}
        assert csr.retweeters(10) == {1, 2, 3, 42}
        assert csr.popularity(10) == 4
        assert csr.user_count == 5
        assert csr.tweet_count == 4
        assert csr.dirty_users == {1, 42}
        assert csr.dirty_tweets == {99, 10}
        csr.mark_clean()
        assert len(csr.dirt()[0]) == 0

    def test_array_accessors(self):
        _, csr = self._both()
        assert csr.profile_array(1).tolist() == [10, 11]
        assert csr.retweeters_array(10).tolist() == [1, 2, 3]
        csr.add(1, 5)
        assert csr.profile_array(1).tolist() == [5, 10, 11]
        assert csr.profile_array(404).tolist() == []

    def test_empty_arrays(self):
        profiles = RetweetProfiles.from_arrays(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert profiles.user_count == 0
        assert profiles.profile(1) == set()
        profiles.add(1, 2)
        assert profiles.profile(1) == {2}

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError, match="parallel"):
            RetweetProfiles.from_arrays(
                np.array([1, 2]), np.array([10])
            )
