"""Tests for the DatasetBuilder test fixture helper (tests/builders.py)."""

import pytest

from repro.exceptions import DatasetError
from tests.builders import DatasetBuilder


class TestDatasetBuilder:
    def test_with_users_sequential_ids(self):
        ds = DatasetBuilder().with_users(3).build()
        assert sorted(ds.users) == [0, 1, 2]

    def test_with_users_appends(self):
        ds = DatasetBuilder().with_users(2).with_users(2, community=1).build()
        assert sorted(ds.users) == [0, 1, 2, 3]
        assert ds.users[3].community == 1

    def test_explicit_user(self):
        ds = DatasetBuilder().user(7, community=2).build()
        assert ds.users[7].community == 2

    def test_follow_chain(self):
        ds = DatasetBuilder().with_users(4).follow_chain(0, 1, 2, 3).build()
        assert ds.followees(0) == [1]
        assert ds.followees(2) == [3]

    def test_tweet_auto_ids(self):
        ds = (
            DatasetBuilder()
            .with_users(1)
            .tweet(author=0, at=0.0)
            .tweet(author=0, at=1.0)
            .build()
        )
        assert sorted(ds.tweets) == [0, 1]

    def test_tweet_explicit_id_advances_counter(self):
        ds = (
            DatasetBuilder()
            .with_users(1)
            .tweet(author=0, at=0.0, tweet_id=10)
            .tweet(author=0, at=1.0)
            .build()
        )
        assert sorted(ds.tweets) == [10, 11]

    def test_invalid_retweet_propagates(self):
        builder = DatasetBuilder().with_users(1).tweet(author=0, at=100.0)
        with pytest.raises(DatasetError):
            builder.retweet(user=0, tweet=0, at=50.0)

    def test_build_validates(self, tiny_dataset):
        # The conftest fixture itself exercises build(); just confirm state.
        assert tiny_dataset.popularity(0) == 3
