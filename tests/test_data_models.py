"""Tests for repro.data.models."""

import pytest

from repro.data.models import ActivityClass, Retweet, Tweet, User


class TestUser:
    def test_defaults(self):
        user = User(id=3)
        assert user.community == 0

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            User(id=-1)


class TestTweet:
    def test_defaults(self):
        tweet = Tweet(id=1, author=2, created_at=10.0)
        assert tweet.topic == -1

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            Tweet(id=-5, author=0, created_at=0.0)


class TestRetweet:
    def test_immutable(self):
        retweet = Retweet(user=1, tweet=2, time=3.0)
        with pytest.raises(AttributeError):
            retweet.time = 4.0  # type: ignore[misc]

    def test_equality(self):
        assert Retweet(1, 2, 3.0) == Retweet(1, 2, 3.0)


class TestActivityClass:
    def test_paper_thresholds(self):
        # Paper §6.1: <100 low, 100-1000 moderate, >1000 intensive.
        assert ActivityClass.classify(0) == ActivityClass.LOW
        assert ActivityClass.classify(99) == ActivityClass.LOW
        assert ActivityClass.classify(100) == ActivityClass.MODERATE
        assert ActivityClass.classify(999) == ActivityClass.MODERATE
        assert ActivityClass.classify(1000) == ActivityClass.INTENSIVE

    def test_custom_thresholds(self):
        assert ActivityClass.classify(5, low_max=3, moderate_max=10) == (
            ActivityClass.MODERATE
        )

    def test_all_names(self):
        assert ActivityClass.ALL == ("low", "moderate", "intensive")
