"""Tests for repro.data.stats (the paper's §3 characterization)."""

import pytest

from repro.data.stats import (
    compute_dataset_stats,
    lifetime_survival,
    retweets_per_tweet,
    retweets_per_user,
    tweet_lifetimes,
)


class TestRawDistributions:
    def test_retweets_per_tweet_includes_zeros(self, tiny_dataset):
        counts = retweets_per_tweet(tiny_dataset)
        assert sorted(counts) == [2, 3]

    def test_retweets_per_user_includes_zeros(self, tiny_dataset):
        counts = retweets_per_user(tiny_dataset)
        assert sorted(counts) == [0, 0, 1, 2, 2]

    def test_tweet_lifetimes(self, tiny_dataset):
        lifetimes = tweet_lifetimes(tiny_dataset)
        # Tweet 0: created 0.0, last retweet 70.0 -> 70s in hours.
        assert lifetimes[0] == pytest.approx(70.0 / 3600.0)
        # Tweet 1: created 100.0, last retweet 160.0.
        assert lifetimes[1] == pytest.approx(60.0 / 3600.0)

    def test_lifetimes_exclude_never_retweeted(self):
        from tests.builders import DatasetBuilder

        ds = (
            DatasetBuilder()
            .with_users(2)
            .tweet(author=0, at=0.0, tweet_id=0)
            .build()
        )
        assert tweet_lifetimes(ds) == {}


class TestLifetimeSurvival:
    def test_checkpoints(self):
        lifetimes = {0: 0.5, 1: 2.0, 2: 100.0, 3: 0.1}
        survival = lifetime_survival(lifetimes, (1.0, 72.0))
        assert survival[1.0] == pytest.approx(0.5)
        assert survival[72.0] == pytest.approx(0.75)

    def test_empty(self):
        assert lifetime_survival({}, (1.0,)) == {1.0: 0.0}


class TestComputeDatasetStats:
    def test_table1_rows_structure(self, small_dataset):
        stats = compute_dataset_stats(small_dataset, path_sample_size=40)
        labels = [label for label, _ in stats.table1_rows()]
        assert labels[:3] == ["# nodes", "# edges", "# tweets"]
        assert "diameter" in labels
        assert "avg. path length" in labels

    def test_paper_shapes_hold(self, small_dataset):
        """The calibrated generator reproduces the §3 findings."""
        stats = compute_dataset_stats(small_dataset, path_sample_size=40)
        # Fig. 2: a large majority of tweets are never retweeted.
        assert stats.never_retweeted_fraction > 0.5
        # Fig. 3: power-law activity — mean well above median.
        assert stats.mean_retweets_per_user > stats.median_retweets_per_user
        # Fig. 4: most tweets die quickly; almost all before 72 hours.
        assert 0.15 < stats.lifetime_survival[1.0] < 0.75
        assert stats.lifetime_survival[72.0] > 0.80
        # A cold-start population exists (the paper reports ~25% at 2.2M
        # users; on a dense 400-user corpus the fraction is much smaller).
        assert stats.never_retweeting_user_fraction > 0.005

    def test_binned_rows_cover_all_tweets(self, small_dataset):
        stats = compute_dataset_stats(small_dataset, path_sample_size=20)
        total = sum(c for _, c in stats.retweets_per_tweet_binned)
        assert total == small_dataset.tweet_count

    def test_mean_tweets_per_user(self, small_dataset):
        stats = compute_dataset_stats(small_dataset, path_sample_size=20)
        expected = small_dataset.tweet_count / small_dataset.user_count
        assert stats.mean_tweets_per_user == pytest.approx(expected)

    def test_path_length_rows_sorted(self, small_dataset):
        stats = compute_dataset_stats(small_dataset, path_sample_size=30)
        distances = [d for d, _ in stats.path_length_rows]
        assert distances == sorted(distances)
