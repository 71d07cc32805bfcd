"""Tests for repro.analysis.homophily (paper Tables 2-3)."""

import pytest

from repro.analysis.homophily import (
    sample_active_users,
    similarity_by_distance,
    top_rank_distances,
)
from repro.core.profiles import RetweetProfiles
from tests.builders import DatasetBuilder


def homophily_world():
    """Users 0,1 adjacent + very similar; users 0,2 distant + similar;
    user 3 isolated in the graph but shares one tweet with 0."""
    builder = DatasetBuilder().with_users(6)
    builder.follow(0, 1)
    builder.follow(1, 4)
    builder.follow(4, 2)  # 0 -> 1 -> 4 -> 2: distance 3
    for tid in range(4):
        builder.tweet(author=5, at=float(tid), tweet_id=tid)
    # 0 and 1 share tweets 0,1; 0 and 2 share tweet 2; 0 and 3 share 3.
    for user, tid in [(0, 0), (1, 0), (0, 1), (1, 1),
                      (0, 2), (2, 2), (0, 3), (3, 3)]:
        builder.retweet(user=user, tweet=tid, at=10.0 + tid * 5 + user)
    return builder.build()


class TestSampleActiveUsers:
    def test_min_retweets_filter(self, small_dataset):
        users = sample_active_users(small_dataset, sample_size=50,
                                    min_retweets=5, seed=0)
        assert all(
            small_dataset.user_retweet_count(u) >= 5 for u in users
        )

    def test_sample_size_respected(self, small_dataset):
        users = sample_active_users(small_dataset, sample_size=20,
                                    min_retweets=1, seed=0)
        assert len(users) == 20

    def test_small_pool_taken_whole(self):
        ds = homophily_world()
        users = sample_active_users(ds, sample_size=100, min_retweets=1)
        assert set(users) == {0, 1, 2, 3}

    def test_deterministic(self, small_dataset):
        a = sample_active_users(small_dataset, 20, 1, seed=5)
        b = sample_active_users(small_dataset, 20, 1, seed=5)
        assert a == b


class TestSimilarityByDistance:
    def test_buckets_by_distance(self):
        ds = homophily_world()
        profiles = RetweetProfiles(ds.retweets())
        rows = similarity_by_distance(ds, profiles, users=[0])
        by_label = {row.label: row for row in rows}
        assert by_label["1"].pair_count == 1  # user 1
        assert by_label["3"].pair_count == 1  # user 2
        assert by_label["Impossible"].pair_count == 1  # user 3

    def test_close_pairs_more_similar(self):
        ds = homophily_world()
        profiles = RetweetProfiles(ds.retweets())
        rows = similarity_by_distance(ds, profiles, users=[0])
        by_label = {row.label: row for row in rows}
        assert (
            by_label["1"].mean_similarity > by_label["3"].mean_similarity
        )

    def test_percentages_sum_to_100(self):
        ds = homophily_world()
        profiles = RetweetProfiles(ds.retweets())
        rows = similarity_by_distance(ds, profiles, users=[0, 1, 2])
        assert sum(row.percentage for row in rows) == pytest.approx(100.0)

    def test_empty_users(self):
        ds = homophily_world()
        profiles = RetweetProfiles(ds.retweets())
        assert similarity_by_distance(ds, profiles, users=[]) == []

    def test_paper_homophily_shape_on_synthetic(self, small_dataset):
        """Table 2's load-bearing signature: directly connected pairs have
        the highest mean similarity ("strong homophily").  Note the
        paper's own tail is non-monotone (their d4 > d3 and "Impossible"
        > d2), so only the d1 dominance is asserted."""
        profiles = RetweetProfiles(small_dataset.retweets())
        users = sample_active_users(small_dataset, 60, 5, seed=1)
        rows = similarity_by_distance(small_dataset, profiles, users)
        by_distance = {row.distance: row for row in rows}
        d1 = by_distance[1].mean_similarity
        total = sum(r.pair_count for r in rows)
        global_mean = (
            sum(r.mean_similarity * r.pair_count for r in rows) / total
        )
        assert d1 > by_distance[2].mean_similarity
        assert d1 > global_mean


class TestTopRankDistances:
    def test_rank_rows_shape(self, small_dataset):
        profiles = RetweetProfiles(small_dataset.retweets())
        users = sample_active_users(small_dataset, 40, 5, seed=2)
        rows = top_rank_distances(small_dataset, profiles, users, top_n=5)
        assert [row.rank for row in rows] == [1, 2, 3, 4, 5]
        for row in rows:
            if row.distance_percentages:
                assert sum(row.distance_percentages.values()) == pytest.approx(
                    100.0
                )

    def test_rank1_closer_than_rank5(self, small_dataset):
        """Table 3's signature: the most similar user is the closest."""
        profiles = RetweetProfiles(small_dataset.retweets())
        users = sample_active_users(small_dataset, 80, 5, seed=3)
        rows = top_rank_distances(small_dataset, profiles, users, top_n=5)
        assert rows[0].average_distance <= rows[4].average_distance + 0.3

    def test_users_without_enough_peers_skipped(self):
        ds = homophily_world()
        profiles = RetweetProfiles(ds.retweets())
        rows = top_rank_distances(ds, profiles, users=[2], top_n=5)
        assert all(not row.distance_percentages for row in rows)
