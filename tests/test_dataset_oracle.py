"""The dict-of-objects dataset as the oracle of the columnar one.

:class:`DictTwitterDataset` is the container the library used until
:class:`~repro.data.TwitterDataset` came to hold its corpus as columns:
one ``User`` / ``Tweet`` / ``Retweet`` object per record, a ``DiGraph``
follow graph and incrementally kept dict/set indexes.  It stays here,
verbatim, as the definition the columnar container must answer like.

The property drives both with the same random interleaving of
``add_*`` calls and reads — repeated follows and retweets, retweets out
of time order, unknown and duplicate ids, self-follows — and requires
every read to agree, every rejected call to raise the same error, and
:meth:`~repro.data.TwitterDataset.from_arrays` over the same records to
build what ``add_*`` builds.  User ids stay below 8, so the oracle's
predecessor sets iterate in id order whatever order their members
arrived in; ``followers`` is a set answer whose list order was the
set's, and is compared as one.  The last test pins the same parity on
a generated corpus, where the follow graph's predecessor order holds
too; ``tests/test_data_columnar.py`` compares the two read by read on
another and covers the array paths and the bulk checks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.synth.generate as generate_module
from repro.data import Retweet, Tweet, TwitterDataset, User
from repro.data.models import ActivityClass
from repro.exceptions import DatasetError, ReproError
from repro.graph import FollowGraph, followgraph
from repro.synth import SynthConfig, generate_dataset
from tests.test_graph_oracle import DiGraph


# ----------------------------------------------------------------------
# The oracle: the dict dataset, as the library held it
# ----------------------------------------------------------------------
class DictTwitterDataset:
    """Users + follow graph + tweets + retweet log, with indexes.

    The follow graph stores an edge ``u -> v`` when ``u`` follows ``v``
    (``v`` is a *followee* of ``u``), matching the paper's orientation:
    content flows from followees to followers, and the 2-hop exploration of
    §4.1 walks follow edges forward.
    """

    def __init__(self) -> None:
        self.users: dict[int, User] = {}
        self.tweets: dict[int, Tweet] = {}
        self.follow_graph = DiGraph()
        self._retweets: list[Retweet] = []
        self._retweets_sorted = True
        # Secondary indexes, maintained incrementally.
        self._retweeters: dict[int, set[int]] = {}  # tweet -> users
        self._profile: dict[int, set[int]] = {}  # user -> tweets retweeted
        self._user_retweet_count: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_user(self, user: User) -> None:
        """Register ``user``; duplicate ids are rejected."""
        if user.id in self.users:
            raise DatasetError(f"duplicate user id {user.id}")
        self.users[user.id] = user
        self.follow_graph.add_node(user.id)

    def add_follow(self, follower: int, followee: int) -> None:
        """Record that ``follower`` follows ``followee``."""
        self._check_user(follower)
        self._check_user(followee)
        self.follow_graph.add_edge(follower, followee)

    def add_tweet(self, tweet: Tweet) -> None:
        """Register an original post; its author must exist."""
        if tweet.id in self.tweets:
            raise DatasetError(f"duplicate tweet id {tweet.id}")
        self._check_user(tweet.author)
        self.tweets[tweet.id] = tweet

    def add_retweet(self, retweet: Retweet) -> None:
        """Append a sharing action and update all indexes.

        A user retweeting the same tweet twice is idempotent for the
        profile/popularity indexes (matching how the paper counts distinct
        retweeters) but the raw log keeps every action.
        """
        self._check_user(retweet.user)
        if retweet.tweet not in self.tweets:
            raise DatasetError(f"unknown tweet id {retweet.tweet}")
        tweet = self.tweets[retweet.tweet]
        if retweet.time < tweet.created_at:
            raise DatasetError(
                f"retweet at {retweet.time} precedes tweet {tweet.id} "
                f"creation at {tweet.created_at}"
            )
        if self._retweets and retweet.time < self._retweets[-1].time:
            self._retweets_sorted = False
        self._retweets.append(retweet)
        self._retweeters.setdefault(retweet.tweet, set()).add(retweet.user)
        self._profile.setdefault(retweet.user, set()).add(retweet.tweet)
        self._user_retweet_count[retweet.user] = (
            self._user_retweet_count.get(retweet.user, 0) + 1
        )

    def _check_user(self, user_id: int) -> None:
        if user_id not in self.users:
            raise DatasetError(f"unknown user id {user_id}")

    # ------------------------------------------------------------------
    # Core accessors
    # ------------------------------------------------------------------
    @property
    def user_count(self) -> int:
        """Number of registered users."""
        return len(self.users)

    @property
    def tweet_count(self) -> int:
        """Number of original posts."""
        return len(self.tweets)

    @property
    def retweet_count(self) -> int:
        """Number of sharing actions in the log."""
        return len(self._retweets)

    def retweets(self) -> list[Retweet]:
        """The retweet log in chronological order (cached sort)."""
        if not self._retweets_sorted:
            self._retweets.sort(key=lambda r: (r.time, r.user, r.tweet))
            self._retweets_sorted = True
        return self._retweets

    def popularity(self, tweet_id: int) -> int:
        """m(i): number of distinct users who retweeted ``tweet_id``."""
        return len(self._retweeters.get(tweet_id, ()))

    def retweeters(self, tweet_id: int) -> set[int]:
        """Distinct users who retweeted ``tweet_id``."""
        return set(self._retweeters.get(tweet_id, ()))

    def profile(self, user_id: int) -> set[int]:
        """L_u: the set of tweets ``user_id`` has retweeted."""
        return set(self._profile.get(user_id, ()))

    def user_retweet_count(self, user_id: int) -> int:
        """Total sharing actions performed by ``user_id``."""
        return self._user_retweet_count.get(user_id, 0)

    def activity_class(
        self, user_id: int, low_max: int = 100, moderate_max: int = 1000
    ) -> str:
        """Activity stratum of ``user_id`` (see :class:`ActivityClass`)."""
        return ActivityClass.classify(
            self.user_retweet_count(user_id), low_max, moderate_max
        )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def tweets_with_min_retweets(self, min_retweets: int = 2) -> set[int]:
        """Tweets retweeted by at least ``min_retweets`` distinct users.

        The paper restricts both training and evaluation to messages with
        >= 2 retweets (§3.1.2, §6.1).
        """
        return {
            tweet_id
            for tweet_id, users in self._retweeters.items()
            if len(users) >= min_retweets
        }

    def followees(self, user_id: int) -> list[int]:
        """Accounts ``user_id`` follows."""
        self._check_user(user_id)
        return list(self.follow_graph.successors(user_id))

    def followers(self, user_id: int) -> list[int]:
        """Accounts following ``user_id``."""
        self._check_user(user_id)
        return list(self.follow_graph.predecessors(user_id))

    def time_span(self) -> tuple[float, float]:
        """(first, last) timestamps over tweets and retweets."""
        times: list[float] = [t.created_at for t in self.tweets.values()]
        times.extend(r.time for r in self._retweets)
        if not times:
            raise DatasetError("dataset holds no timestamped event")
        return min(times), max(times)

    def validate(self) -> None:
        """Check referential integrity of every index; raise on corruption."""
        for tweet_id, users in self._retweeters.items():
            if tweet_id not in self.tweets:
                raise DatasetError(f"index references unknown tweet {tweet_id}")
            for user_id in users:
                if user_id not in self.users:
                    raise DatasetError(f"index references unknown user {user_id}")
        recount: dict[int, int] = {}
        for retweet in self._retweets:
            recount[retweet.user] = recount.get(retweet.user, 0) + 1
        if recount != self._user_retweet_count:
            raise DatasetError("user retweet counts diverge from the log")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DictTwitterDataset(users={self.user_count}, "
            f"tweets={self.tweet_count}, retweets={self.retweet_count})"
        )


# ----------------------------------------------------------------------
# Reads, compared
# ----------------------------------------------------------------------
def outcome(read):
    """``read()``'s answer, or the error it raised."""
    try:
        return read()
    except ReproError as exc:
        return type(exc), str(exc)


def assert_same_reads(got, want, log: bool = True) -> None:
    """Every read of ``got`` answers as ``want``'s (the log last: reading
    it sorts an out-of-order log)."""
    assert (got.user_count, got.tweet_count, got.retweet_count) == (
        want.user_count, want.tweet_count, want.retweet_count
    )
    assert list(got.users.items()) == list(want.users.items())
    assert list(got.tweets.items()) == list(want.tweets.items())
    for tweet in range(-1, 8):
        assert got.popularity(tweet) == want.popularity(tweet)
        assert got.retweeters(tweet) == want.retweeters(tweet)
        assert (tweet in got.tweets) == (tweet in want.tweets)
    for user in range(-1, 9):
        assert got.profile(user) == want.profile(user)
        assert got.user_retweet_count(user) == want.user_retweet_count(user)
        assert got.activity_class(user, 2, 4) == want.activity_class(user, 2, 4)
        assert outcome(lambda: got.followees(user)) == outcome(
            lambda: want.followees(user)
        )
        assert outcome(lambda: sorted(got.followers(user))) == outcome(
            lambda: sorted(want.followers(user))
        )
        assert (user in got.users) == (user in want.users)
    for least in (1, 2, 3):
        assert got.tweets_with_min_retweets(least) == (
            want.tweets_with_min_retweets(least)
        )
    assert outcome(got.time_span) == outcome(want.time_span)
    assert_same_follows(got.follow_graph, want.follow_graph)
    if log:
        assert got.retweets() == want.retweets()


def assert_same_follows(got: FollowGraph, want: DiGraph) -> None:
    """Same nodes and successors, each in the same order, and the same
    predecessors (a set in the dict graph)."""
    assert list(got.nodes()) == list(want.nodes())
    assert got.edge_count == want.edge_count
    for node in want.nodes():
        assert got.successors(node) == list(want.successors(node))
        assert sorted(got.predecessors(node)) == sorted(want.predecessors(node))


# ----------------------------------------------------------------------
# The property
# ----------------------------------------------------------------------
TIMES = st.sampled_from([0.0, 1.0, 1.5, 2.0, 4.0, 7.5])


@st.composite
def interleavings(draw) -> list[tuple]:
    """Some users and tweets, then random calls and reads whose ids
    mostly name those; the rest are unknown or repeats."""
    users = draw(st.lists(st.integers(0, 7), min_size=1, max_size=6, unique=True))
    tweets = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True))
    user = st.one_of(st.sampled_from(users), st.integers(0, 7))
    tweet = st.one_of(st.sampled_from(tweets), st.integers(0, 6))
    calls = st.one_of(
        st.tuples(st.just("user"), st.integers(0, 7), st.integers(0, 2)),
        st.tuples(st.just("follow"), user, user),
        st.tuples(st.just("tweet"), tweet, user, TIMES, st.integers(-1, 3)),
        st.tuples(st.just("retweet"), user, tweet, TIMES),
        st.tuples(st.just("retweet"), st.sampled_from(users), tweet, TIMES),
        st.tuples(st.just("read"), st.booleans()),
    )
    first = [("user", u, draw(st.integers(0, 2))) for u in users]
    first += [
        ("tweet", t, draw(st.sampled_from(users)), draw(TIMES), -1)
        for t in tweets[: draw(st.integers(0, len(tweets)))]
    ]
    return first + draw(st.lists(calls, max_size=60))


def call(dataset, kind: str, args: tuple):
    """Apply one ``add_*`` call; return the error it raised, if any."""
    try:
        if kind == "user":
            dataset.add_user(User(id=args[0], community=args[1]))
        elif kind == "follow":
            dataset.add_follow(*args)
        elif kind == "tweet":
            tweet_id, author, at, topic = args
            dataset.add_tweet(
                Tweet(id=tweet_id, author=author, created_at=at, topic=topic)
            )
        else:
            dataset.add_retweet(Retweet(*args))
    except ReproError as exc:
        return type(exc), str(exc)
    return None


def from_records(records: dict[str, list[tuple]]) -> TwitterDataset:
    """:meth:`TwitterDataset.from_arrays` over records of each kind."""
    users = records["user"]
    follows = records["follow"]
    tweets = records["tweet"]
    retweets = records["retweet"]

    def column(rows, at, dtype=np.int64):
        return np.array([row[at] for row in rows], dtype=dtype)

    return TwitterDataset.from_arrays(
        user_ids=column(users, 0), user_communities=column(users, 1),
        follow_src=column(follows, 0), follow_dst=column(follows, 1),
        tweet_ids=column(tweets, 0), tweet_authors=column(tweets, 1),
        tweet_times=column(tweets, 2, np.float64),
        tweet_topics=column(tweets, 3),
        rt_users=column(retweets, 0), rt_tweets=column(retweets, 1),
        rt_times=column(retweets, 2, np.float64),
    )


def replay(records: dict[str, list[tuple]]):
    """The oracle fed ``records`` kind by kind, and the error of the
    first call it rejected."""
    oracle = DictTwitterDataset()
    for kind in ("user", "follow", "tweet", "retweet"):
        for args in records[kind]:
            error = call(oracle, kind, args)
            if error:
                return oracle, error
    return oracle, None


@pytest.mark.parametrize("few_ids", [0, 2**31], ids=["lookup", "dict"])
@settings(max_examples=300, deadline=None)
@given(calls=interleavings())
def test_add_and_read_interleavings_answer_like_the_dict_dataset(few_ids, calls):
    """Every user lookup goes through ``FollowGraph.positions``: once
    with each of its two paths forced, ``from_arrays`` included."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(followgraph, "_FEW_IDS", few_ids)
        check_interleaving(calls)


def check_interleaving(calls: list[tuple]) -> None:
    got, want = TwitterDataset(), DictTwitterDataset()
    accepted = {"user": [], "follow": [], "tweet": [], "retweet": []}
    attempted = {kind: [] for kind in accepted}
    for kind, *args in calls:
        if kind == "read":
            assert_same_reads(got, want, log=args[0])
            continue
        error = call(got, kind, tuple(args))
        assert error == call(want, kind, tuple(args))
        attempted[kind].append(tuple(args))
        if error is None:
            accepted[kind].append(tuple(args))
    assert_same_reads(got, want)
    got.validate()

    # Bulk over the accepted records: what add_* builds from them.
    oracle, error = replay(accepted)
    assert error is None
    assert_same_reads(from_records(accepted), oracle)
    # Bulk over every attempt: the first rejected call's error, or the
    # same dataset.
    oracle, error = replay(attempted)
    try:
        bulk = from_records(attempted)
    except ReproError as exc:
        assert (type(exc), str(exc)) == error
    else:
        assert error is None
        assert_same_reads(bulk, oracle)


# ----------------------------------------------------------------------
# Generated corpora
# ----------------------------------------------------------------------
class _DictFromArrays(DictTwitterDataset):
    @classmethod
    def from_arrays(cls, *, user_ids, user_communities, follow_src, follow_dst,
                    tweet_ids, tweet_authors, tweet_times, tweet_topics,
                    rt_users, rt_tweets, rt_times):
        """The generator's columns through ``add_*``, row by row, kind by
        kind."""
        dataset = cls()
        for user_id, community in zip(user_ids.tolist(), user_communities.tolist()):
            dataset.add_user(User(id=user_id, community=community))
        for follower, followee in zip(follow_src.tolist(), follow_dst.tolist()):
            dataset.add_follow(follower, followee)
        for row in zip(*(c.tolist() for c in (
            tweet_ids, tweet_authors, tweet_times, tweet_topics
        ))):
            dataset.add_tweet(Tweet(*row))
        for row in zip(rt_users.tolist(), rt_tweets.tolist(), rt_times.tolist()):
            dataset.add_retweet(Retweet(*row))
        dataset.validate()
        return dataset


def generated_pair(n_users: int, seed: int):
    """The same generator run into the columnar and the dict dataset."""
    config = SynthConfig(n_users=n_users, seed=seed)
    got = generate_dataset(config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generate_module, "TwitterDataset", _DictFromArrays)
        want = generate_dataset(config)
    return got, want


def test_generated_corpus_reads_like_the_dict_dataset():
    """Follow graph node, successor and predecessor order included: the
    generator follows in node and row order, which the view replays.
    (``tests/test_data_columnar.py`` reads another corpus, 120 users
    seed 9, check by check.)"""
    got, want = generated_pair(150, 19)
    assert_same_reads(got, want)
