"""The columnar ``TwitterDataset``: parity with the dict dataset it
replaced (the oracle in ``tests/test_dataset_oracle.py``) on a generated
corpus, its array paths, and the checks of its bulk construction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import Retweet, Tweet, TwitterDataset, User, temporal_split
from repro.data.stats import retweets_per_tweet, retweets_per_user
from repro.exceptions import DatasetError, GraphError
from tests.test_dataset_oracle import assert_same_follows, generated_pair


@pytest.fixture(scope="module")
def corpora():
    return generated_pair(120, 9)


@pytest.fixture(scope="module")
def columnar(corpora):
    return corpora[0]


@pytest.fixture(scope="module")
def object_dataset(corpora):
    return corpora[1]


class TestProtocolParity:
    """Every read answers identically to the dict dataset."""

    def test_counts(self, columnar, object_dataset):
        assert columnar.user_count == object_dataset.user_count
        assert columnar.tweet_count == object_dataset.tweet_count
        assert columnar.retweet_count == object_dataset.retweet_count

    def test_retweet_log_identical(self, columnar, object_dataset):
        assert columnar.retweets() == object_dataset.retweets()

    def test_profiles_and_retweeters(self, columnar, object_dataset):
        for u in object_dataset.users:
            assert columnar.profile(u) == object_dataset.profile(u)
            assert columnar.user_retweet_count(u) == (
                object_dataset.user_retweet_count(u)
            )
            assert columnar.activity_class(u) == object_dataset.activity_class(u)
        for t in object_dataset.tweets:
            assert columnar.retweeters(t) == object_dataset.retweeters(t)
            assert columnar.popularity(t) == object_dataset.popularity(t)

    def test_follow_edges(self, columnar, object_dataset):
        for u in object_dataset.users:
            assert columnar.followees(u) == object_dataset.followees(u)
            assert sorted(columnar.followers(u)) == sorted(
                object_dataset.followers(u)
            )

    def test_follow_graph_materialization(self, columnar, object_dataset):
        assert_same_follows(columnar.follow_graph, object_dataset.follow_graph)

    def test_entity_mappings(self, columnar, object_dataset):
        assert list(columnar.users.items()) == list(object_dataset.users.items())
        assert list(columnar.tweets.items()) == list(
            object_dataset.tweets.items()
        )
        assert columnar.users.get(-1) is None
        with pytest.raises(KeyError):
            columnar.users[-1]
        with pytest.raises(KeyError):
            columnar.tweets["7"]

    def test_min_retweets_and_span(self, columnar, object_dataset):
        assert columnar.tweets_with_min_retweets() == (
            object_dataset.tweets_with_min_retweets()
        )
        assert columnar.time_span() == object_dataset.time_span()

    def test_downstream_consumers_accept_it(self, columnar, object_dataset):
        """The split and stats layers agree on both containers."""
        s1 = temporal_split(object_dataset)
        s2 = temporal_split(columnar)
        assert s1.train == s2.train and s1.test == s2.test
        assert retweets_per_tweet(columnar) == retweets_per_tweet(object_dataset)
        assert retweets_per_user(columnar) == retweets_per_user(object_dataset)

    def test_validate_passes(self, columnar):
        columnar.validate()


class TestArrayPaths:
    def test_array_views_sorted(self, columnar, object_dataset):
        tweet = next(
            t for t in object_dataset.tweets if object_dataset.popularity(t) > 1
        )
        row = columnar.retweeters_array(tweet)
        assert row.dtype == np.int64
        assert np.all(np.diff(row) > 0)
        assert set(row.tolist()) == object_dataset.retweeters(tweet)

    def test_retweet_arrays_chronological(self, columnar, object_dataset):
        users, tweets, times = columnar.retweet_arrays()
        assert np.all(np.diff(times) >= 0)
        assert [
            Retweet(*r) for r in zip(users.tolist(), tweets.tolist(), times.tolist())
        ] == object_dataset.retweets()

    def test_positions_roundtrip(self, columnar):
        ids = columnar.user_ids
        indptr, targets = columnar.follow_indptr, columnar.follow_targets
        for i, user in enumerate(ids.tolist()):
            row = targets[indptr[i] : indptr[i + 1]]
            assert ids[row].tolist() == columnar.followees(user)


class TestConstruction:
    def _tiny_columns(self, **overrides):
        columns = dict(
            user_ids=np.array([1, 2, 3]),
            follow_src=np.array([1, 2]),
            follow_dst=np.array([2, 3]),
            tweet_ids=np.array([10]),
            tweet_authors=np.array([1]),
            tweet_times=np.array([5.0]),
            rt_users=np.array([2]),
            rt_tweets=np.array([10]),
            rt_times=np.array([6.0]),
        )
        columns.update(overrides)
        return columns

    def test_from_arrays(self):
        ds = TwitterDataset.from_arrays(**self._tiny_columns())
        assert ds.user_count == 3
        assert ds.profile(2) == {10}
        assert ds.retweeters(10) == {2}
        assert ds.followees(1) == [2]
        assert ds.users[3] == User(id=3)
        assert ds.tweets[10] == Tweet(id=10, author=1, created_at=5.0)

    def test_duplicate_user_ids_rejected(self):
        with pytest.raises(DatasetError, match="duplicate user id 1"):
            TwitterDataset.from_arrays(
                **self._tiny_columns(user_ids=np.array([1, 1, 3]))
            )
        with pytest.raises(DatasetError, match="duplicate tweet id 10"):
            TwitterDataset.from_arrays(
                **self._tiny_columns(
                    tweet_ids=np.array([10, 10]),
                    tweet_authors=np.array([1, 2]),
                    tweet_times=np.array([5.0, 6.0]),
                )
            )

    def test_unknown_references_rejected(self):
        """The message ``add_*`` gives for the first bad record."""
        for overrides, message in [
            ({"follow_src": np.array([1, 9])}, "unknown user id 9"),
            ({"follow_dst": np.array([2, 7])}, "unknown user id 7"),
            ({"tweet_authors": np.array([4])}, "unknown user id 4"),
            ({"rt_users": np.array([9])}, "unknown user id 9"),
            ({"rt_tweets": np.array([99])}, "unknown tweet id 99"),
        ]:
            with pytest.raises(DatasetError, match=message):
                TwitterDataset.from_arrays(**self._tiny_columns(**overrides))

    def test_self_follow_rejected(self):
        with pytest.raises(GraphError, match="self-loop on node 1"):
            TwitterDataset.from_arrays(
                **self._tiny_columns(follow_dst=np.array([1, 3]))
            )

    def test_retweet_before_creation_rejected(self):
        with pytest.raises(
            DatasetError, match="retweet at 1.0 precedes tweet 10 creation at 5.0"
        ):
            TwitterDataset.from_arrays(
                **self._tiny_columns(rt_times=np.array([1.0]))
            )

    def test_columns_must_be_parallel(self):
        """A short column in any kind is an error, not a misaligned or
        broadcast record."""
        for overrides, kind in [
            ({"user_communities": np.array([0, 1])}, "user"),
            ({"follow_dst": np.array([2])}, "follow"),
            ({"tweet_times": np.array([5.0, 6.0])}, "tweet"),
            ({"tweet_topics": np.array([], dtype=np.int64)}, "tweet"),
            ({"rt_users": np.array([2, 3])}, "retweet"),
            ({"rt_times": np.array([6.0, 7.0])}, "retweet"),
        ]:
            with pytest.raises(
                DatasetError, match=f"{kind} columns must be parallel"
            ):
                TwitterDataset.from_arrays(**self._tiny_columns(**overrides))

    def test_duplicate_follow_edges_collapse(self):
        ds = TwitterDataset.from_arrays(
            **self._tiny_columns(
                follow_src=np.array([1, 1, 2]),
                follow_dst=np.array([2, 2, 3]),
            )
        )
        assert ds.followees(1) == [2]
        assert ds.follow_graph.edge_count == 2

    def test_empty_dataset_round_trip(self):
        ds = TwitterDataset()
        ds.add_user(User(id=5))
        assert ds.user_count == 1
        assert ds.retweet_count == 0
        assert ds.profile(5) == set()
        with pytest.raises(DatasetError, match="no timestamped"):
            ds.time_span()

    def test_unknown_user_lookup_raises(self, columnar):
        with pytest.raises(DatasetError, match="unknown user"):
            columnar.followees(-5)

    def test_community_preserved(self):
        ds = TwitterDataset()
        ds.add_user(User(id=1, community=2))
        ds.add_user(User(id=2))
        ds.add_tweet(Tweet(id=7, author=1, created_at=0.0))
        ds.add_retweet(Retweet(user=2, tweet=7, time=1.0))
        assert ds.users[1].community == 2
        assert ds.users[2].community == 0
