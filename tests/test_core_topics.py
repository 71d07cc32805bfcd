"""Tests for repro.core.topics (§7 topic-tweet merging)."""

import pytest

from repro.core.similarity import similarity
from repro.core.topics import (
    merge_by_coretweeters,
    merge_by_label,
    topic_profiles,
)
from repro.data.models import Retweet
from tests.builders import DatasetBuilder


def labelled_world():
    """Four tweets: 0/1 share topic 3; 2 has topic 8; 3 unlabelled."""
    builder = DatasetBuilder().with_users(4)
    builder.tweet(author=0, at=0.0, tweet_id=0, topic=3)
    builder.tweet(author=0, at=1.0, tweet_id=1, topic=3)
    builder.tweet(author=0, at=2.0, tweet_id=2, topic=8)
    builder.tweet(author=0, at=3.0, tweet_id=3)  # topic -1
    builder.retweet(user=1, tweet=0, at=10.0)
    builder.retweet(user=2, tweet=1, at=11.0)
    builder.retweet(user=3, tweet=2, at=12.0)
    return builder.build()


class TestMergeByLabel:
    def test_same_topic_merged(self):
        assignment = merge_by_label(labelled_world())
        assert assignment.topic_of[0] == assignment.topic_of[1]
        assert assignment.topic_of[0] != assignment.topic_of[2]

    def test_unlabelled_stay_alone(self):
        assignment = merge_by_label(labelled_world())
        assert assignment.topic_of[3] == 3  # maps to its own id

    def test_topic_count_and_compression(self):
        assignment = merge_by_label(labelled_world())
        assert assignment.topic_count == 3  # {3}, {8}, {unlabelled}
        assert assignment.compression() == pytest.approx(3 / 4)

    def test_members(self):
        assignment = merge_by_label(labelled_world())
        label = assignment.topic_of[0]
        assert assignment.members(label) == {0, 1}


class TestMergeByCoretweeters:
    def coretweet_world(self):
        """Tweets 0 and 1 share the same three retweeters; tweet 2 has
        disjoint ones."""
        builder = DatasetBuilder().with_users(7)
        for tid in range(3):
            builder.tweet(author=6, at=float(tid), tweet_id=tid)
        for user in (0, 1, 2):
            builder.retweet(user=user, tweet=0, at=10.0 + user)
            builder.retweet(user=user, tweet=1, at=20.0 + user)
        for user in (3, 4):
            builder.retweet(user=user, tweet=2, at=30.0 + user)
        return builder.build()

    def test_overlapping_tweets_merged(self):
        assignment = merge_by_coretweeters(self.coretweet_world(),
                                           min_jaccard=0.5)
        assert assignment.topic_of[0] == assignment.topic_of[1]
        assert assignment.topic_of[0] != assignment.topic_of[2]

    def test_high_threshold_prevents_merging(self):
        dataset = self.coretweet_world()
        # Make tweet 1's audience a strict superset: jaccard drops.
        from repro.data.models import Retweet as R

        dataset.add_retweet(R(user=5, tweet=1, time=50.0))
        assignment = merge_by_coretweeters(dataset, min_jaccard=0.99)
        assert assignment.topic_of[0] != assignment.topic_of[1]

    def test_unpopular_tweets_never_merge(self):
        builder = DatasetBuilder().with_users(3)
        builder.tweet(author=2, at=0.0, tweet_id=0)
        builder.tweet(author=2, at=1.0, tweet_id=1)
        builder.retweet(user=0, tweet=0, at=5.0)
        builder.retweet(user=0, tweet=1, at=6.0)
        assignment = merge_by_coretweeters(builder.build(), min_retweeters=2)
        assert assignment.topic_of[0] != assignment.topic_of[1]

    def test_invalid_jaccard_rejected(self):
        with pytest.raises(ValueError):
            merge_by_coretweeters(self.coretweet_world(), min_jaccard=0.0)

    def test_transitive_merging(self):
        """A ~ B and B ~ C merges all three even when A !~ C directly."""
        builder = DatasetBuilder().with_users(8)
        for tid in range(3):
            builder.tweet(author=7, at=float(tid), tweet_id=tid)
        # A: {0,1,2}; B: {1,2,3}; C: {2,3,4} — chain overlaps of 2/4.
        for user in (0, 1, 2):
            builder.retweet(user=user, tweet=0, at=10.0 + user)
        for user in (1, 2, 3):
            builder.retweet(user=user, tweet=1, at=20.0 + user)
        for user in (2, 3, 4):
            builder.retweet(user=user, tweet=2, at=30.0 + user)
        assignment = merge_by_coretweeters(builder.build(), min_jaccard=0.5)
        assert (
            assignment.topic_of[0]
            == assignment.topic_of[1]
            == assignment.topic_of[2]
        )


class TestTopicProfiles:
    def test_profiles_on_merged_items(self):
        dataset = labelled_world()
        assignment = merge_by_label(dataset)
        profiles = topic_profiles(dataset.retweets(), assignment)
        # Users 1 and 2 retweeted different tweets of the SAME topic:
        # their topic profiles now overlap.
        topic = assignment.topic_of[0]
        assert topic in profiles.profile(1)
        assert topic in profiles.profile(2)

    def test_topic_merging_creates_similarity(self):
        """The paper's motivation: small users become similar once their
        distinct-but-same-topic retweets are merged."""
        dataset = labelled_world()
        from repro.core.profiles import RetweetProfiles

        raw = RetweetProfiles(dataset.retweets())
        assert similarity(raw, 1, 2) == 0.0  # different tweets
        merged = topic_profiles(dataset.retweets(), merge_by_label(dataset))
        assert similarity(merged, 1, 2) > 0.0  # same topic tweet

    def test_popularity_counts_topic_engagement(self):
        dataset = labelled_world()
        assignment = merge_by_label(dataset)
        profiles = topic_profiles(dataset.retweets(), assignment)
        assert profiles.popularity(assignment.topic_of[0]) == 2
