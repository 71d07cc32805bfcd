"""Tests for repro.data.split."""

import pytest

from repro.data.split import temporal_split
from repro.exceptions import DatasetError
from tests.builders import DatasetBuilder


def build_stream(n_actions: int = 20):
    """Dataset with one popular tweet retweeted by many users over time."""
    builder = DatasetBuilder().with_users(n_actions + 1)
    builder.tweet(author=0, at=0.0, tweet_id=0)
    for i in range(n_actions):
        builder.retweet(user=i + 1, tweet=0, at=float(i + 1))
    return builder.build()


class TestTemporalSplit:
    def test_fraction_respected(self):
        split = temporal_split(build_stream(20), train_fraction=0.9)
        assert len(split.train) == 18
        assert len(split.test) == 2

    def test_chronological_boundary(self):
        split = temporal_split(build_stream(20))
        assert max(r.time for r in split.train) <= min(r.time for r in split.test)
        assert split.boundary_time == split.test[0].time

    def test_min_retweets_filter(self):
        builder = DatasetBuilder().with_users(4)
        builder.tweet(author=0, at=0.0, tweet_id=0)  # retweeted twice
        builder.tweet(author=0, at=0.0, tweet_id=1)  # retweeted once
        builder.retweet(user=1, tweet=0, at=1.0)
        builder.retweet(user=2, tweet=0, at=2.0)
        builder.retweet(user=3, tweet=1, at=3.0)
        split = temporal_split(builder.build(), train_fraction=0.5)
        all_actions = split.train + split.test
        assert all(r.tweet == 0 for r in all_actions)

    def test_invalid_fraction_rejected(self):
        ds = build_stream(5)
        with pytest.raises(DatasetError):
            temporal_split(ds, train_fraction=0.0)
        with pytest.raises(DatasetError):
            temporal_split(ds, train_fraction=1.0)

    def test_too_few_actions_rejected(self):
        builder = DatasetBuilder().with_users(2)
        builder.tweet(author=0, at=0.0, tweet_id=0)
        builder.retweet(user=1, tweet=0, at=1.0)
        with pytest.raises(DatasetError):
            temporal_split(builder.build(), min_retweets=1)

    def test_never_empty_sides(self):
        # Extreme fractions still leave at least one action on each side.
        split = temporal_split(build_stream(10), train_fraction=0.99)
        assert len(split.test) >= 1
        split = temporal_split(build_stream(10), train_fraction=0.01)
        assert len(split.train) >= 1


class TestSliceTest:
    def test_figure16_slices(self):
        split = temporal_split(build_stream(100), train_fraction=0.9)
        mid = split.slice_test(0.90, 0.95)
        last = split.slice_test(0.95, 1.0)
        assert mid + last == split.test
        assert len(mid) == 5
        assert len(last) == 5

    def test_slice_clamps_to_test_window(self):
        split = temporal_split(build_stream(100), train_fraction=0.9)
        assert split.slice_test(0.0, 0.5) == []

    def test_empty_test_boundary_rejected(self):
        split = temporal_split(build_stream(100))
        object.__setattr__(split, "test", [])
        with pytest.raises(DatasetError):
            _ = split.boundary_time
