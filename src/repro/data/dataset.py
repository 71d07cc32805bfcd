"""The dataset container, held as columns.

:class:`TwitterDataset` bundles everything the paper's crawl produced —
users, the follow graph, tweets and the chronological retweet log — as
flat numpy columns, so a corpus of the crawl's order (2.2M users) is a
handful of arrays rather than one Python object per entity:

* users: the nodes of a :class:`~repro.graph.FollowGraph`, which holds
  the follow relation as CSR arrays and numbers users in registration
  order; a community column sits beside them;
* tweets: id / author / creation-time / topic columns, registration
  order;
* retweets: the raw log as three columns, with deduplicated CSR indexes
  for tweet -> retweeters (popularity m(i)), user -> profile (L_u) and
  per-user action counts (activity strata).

``add_*`` check a record and append it to a buffer that the first read
after a write compacts, as ``FollowGraph`` does; :meth:`from_arrays`
puts whole columns through the same checks.  ``users`` and ``tweets``
are id -> object views built on access; ``follow_graph`` is the
:class:`~repro.graph.FollowGraph` itself, which the service and every
offline analysis read.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from typing import Callable, Iterator

import numpy as np

from repro.data.models import ActivityClass, Retweet, Tweet, User
from repro.exceptions import DatasetError, GraphError
from repro.graph.followgraph import FollowGraph

__all__ = ["TwitterDataset"]

_NO_IDS = np.empty(0, dtype=np.int64)
_NO_TIMES = np.empty(0, dtype=np.float64)


def _pairs_csr(
    keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct ``(key, value)`` pairs as ``(unique keys, indptr, values)``:
    row ``i`` holds the sorted partners of ``unique keys[i]``."""
    pairs = np.unique(np.stack((keys, values)), axis=1)
    unique, counts = np.unique(pairs[0], return_counts=True)
    indptr = np.zeros(len(unique) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return unique, indptr, pairs[1]


def _row(csr: tuple[np.ndarray, np.ndarray, np.ndarray], key: int) -> np.ndarray:
    keys, indptr, values = csr
    i = keys.searchsorted(key)
    if i == len(keys) or keys[i] != key:
        return _NO_IDS
    return values[indptr[i] : indptr[i + 1]]


def _find(ids: np.ndarray, rank: np.ndarray, keys) -> np.ndarray:
    """Position in ``ids`` (put in order by ``rank``) of each of
    ``keys``, or -1."""
    keys = np.asarray(keys, dtype=np.int64)
    if not len(ids):
        return np.full(keys.shape, -1)
    at = rank[np.minimum(np.searchsorted(ids, keys, sorter=rank), len(ids) - 1)]
    return np.where(ids[at] == keys, at, -1)


def _position(ids: np.ndarray, rank: np.ndarray, key: int) -> int:
    """:func:`_find` for one key."""
    k = ids.searchsorted(key, sorter=rank)
    return int(rank[k]) if k < len(ids) and ids[rank[k]] == key else -1


def _merged(columns: tuple, buffers: tuple) -> tuple[tuple, tuple]:
    """``columns`` with ``buffers`` appended, and emptied buffers."""
    merged = tuple(
        np.concatenate((old, np.frombuffer(new, dtype=old.dtype)))
        for old, new in zip(columns, buffers)
    )
    return merged, tuple(array(new.typecode) for new in buffers)


def _check_ids(kind: str, ids: np.ndarray) -> None:
    """Ids are non-negative, as :class:`User` and :class:`Tweet` require."""
    negative = ids < 0
    if negative.any():
        raise ValueError(
            f"{kind} id must be non-negative, got {ids[negative.argmax()]}"
        )


def _repeats(ids: np.ndarray) -> np.ndarray:
    """Where ``ids`` repeats an id seen earlier in it."""
    first = np.ones(len(ids), dtype=bool)
    if len(ids) < 2:
        return ~first
    first[np.unique(ids, return_index=True)[1]] = False
    return first


class _Entities(Mapping):
    """Read-only id -> entity view over an id column; an object is built
    per access."""

    __slots__ = ("_ids", "_find", "_make")

    def __init__(
        self, ids: np.ndarray, find: Callable[[int], int],
        make: Callable[[int], object],
    ):
        self._ids, self._find, self._make = ids, find, make

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids.tolist())

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, key: int):
        i = self._find(key) if isinstance(key, (int, np.integer)) else -1
        if i < 0:
            raise KeyError(key)
        return self._make(i)

    def values(self) -> list:
        """Every entity, in order (built by position, not looked up)."""
        return [self._make(i) for i in range(len(self._ids))]

    def items(self) -> list:
        return list(zip(self, self.values()))


class TwitterDataset:
    """Users + follow graph + tweets + retweet log, with indexes.

    The follow relation stores ``u -> v`` when ``u`` follows ``v`` (``v``
    is a *followee* of ``u``), matching the paper's orientation: content
    flows from followees to followers, and the 2-hop exploration of §4.1
    walks follow edges forward.  Users and tweets iterate in registration
    order, follow rows in insertion order (a repeated follow keeps its
    first place), and :meth:`retweets` keeps arrival order until a
    retweet arrives out of time order; the log is then sorted by (time,
    user, tweet) when next read.
    """

    def __init__(self) -> None:
        #: The follow relation; its nodes are the users.  Read it; write
        #: through ``add_user`` / ``add_follow``.
        self.follow_graph = FollowGraph()
        self._communities = array("i")
        self._user_rank = _NO_IDS
        #: Tweet id / author / creation time / topic, and the log's
        #: user / tweet / time columns.
        self._tweets = (_NO_IDS, _NO_IDS, _NO_TIMES, np.empty(0, np.int32))
        self._tweet_rank = _NO_IDS
        self._log = (_NO_IDS, _NO_IDS, _NO_TIMES)
        #: Records added since the last compaction, and the creation
        #: time of each tweet ``add_tweet`` buffered.
        self._new_tweets = (array("q"), array("q"), array("d"), array("i"))
        self._new_tweet_times: dict[int, float] = {}
        self._new_log = (array("q"), array("q"), array("d"))
        #: Whether the log is in time order, and the time of its last
        #: record.
        self._log_sorted, self._last_time = True, None
        self._indexes = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_user(self, user: User) -> None:
        """Register ``user``; duplicate ids are rejected."""
        self._add_users([user.id], [user.community])

    def add_follow(self, follower: int, followee: int) -> None:
        """Record that ``follower`` follows ``followee``."""
        self._add_follows([follower], [followee])

    def add_tweet(self, tweet: Tweet) -> None:
        """Register an original post; its author must exist."""
        self._add_tweets(
            [tweet.id], [tweet.author], [tweet.created_at], [tweet.topic]
        )
        self._new_tweet_times[tweet.id] = tweet.created_at

    def add_retweet(self, retweet: Retweet) -> None:
        """Append a sharing action.

        A user retweeting the same tweet twice is idempotent for the
        profile/popularity indexes (matching how the paper counts distinct
        retweeters) but the raw log keeps every action.
        """
        self._add_retweets([retweet.user], [retweet.tweet], [retweet.time])

    @classmethod
    def from_arrays(
        cls, *, user_ids: np.ndarray, follow_src: np.ndarray,
        follow_dst: np.ndarray, tweet_ids: np.ndarray,
        tweet_authors: np.ndarray, tweet_times: np.ndarray,
        rt_users: np.ndarray, rt_tweets: np.ndarray, rt_times: np.ndarray,
        user_communities: np.ndarray | None = None,
        tweet_topics: np.ndarray | None = None,
    ) -> "TwitterDataset":
        """The dataset ``add_*`` would build from these records, column by
        column in that order, raising what the first offending call
        would raise.  The columns of each kind must be parallel."""
        for kind, columns in (
            ("user", (user_ids, user_communities)),
            ("follow", (follow_src, follow_dst)),
            ("tweet", (tweet_ids, tweet_authors, tweet_times, tweet_topics)),
            ("retweet", (rt_users, rt_tweets, rt_times)),
        ):
            if len({len(c) for c in columns if c is not None}) > 1:
                raise DatasetError(f"{kind} columns must be parallel")
        dataset = cls()
        dataset._add_users(
            user_ids,
            np.zeros(len(user_ids)) if user_communities is None
            else user_communities,
        )
        dataset._add_follows(follow_src, follow_dst)
        dataset._add_tweets(
            tweet_ids, tweet_authors, tweet_times,
            np.full(len(tweet_ids), -1) if tweet_topics is None
            else tweet_topics,
        )
        dataset._add_retweets(rt_users, rt_tweets, rt_times)
        return dataset

    # The checks: each batch of records is checked against the dataset
    # and the records before it, then appended.  ``add_*`` pass one
    # record, ``from_arrays`` whole columns.
    def _add_users(self, ids, communities) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        _check_ids("user", ids)
        bad = _repeats(ids) | (self._user_positions(ids) >= 0)
        if bad.any():
            raise DatasetError(f"duplicate user id {ids[bad.argmax()]}")
        self.follow_graph.add_nodes(ids.tolist())
        self._communities.frombytes(np.asarray(communities, np.intc).tobytes())

    def _add_follows(self, followers, followees) -> None:
        pairs = np.asarray((followers, followees), dtype=np.int64)
        i, j = self._user_positions(pairs.ravel()).reshape(2, -1)
        followers, followees = pairs
        bad = (i < 0) | (j < 0) | (followers == followees)
        if bad.any():
            k = bad.argmax()
            if i[k] < 0 or j[k] < 0:
                unknown = followers[k] if i[k] < 0 else followees[k]
                raise DatasetError(f"unknown user id {unknown}")
            raise GraphError(
                f"self-loop on node {int(followers[k])!r} is not allowed"
            )
        self.follow_graph.add_edges(i, j)

    def _add_tweets(self, ids, authors, times, topics) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        _check_ids("tweet", ids)
        authors = np.asarray(authors, dtype=np.int64)
        repeated = _repeats(ids) | self._tweet_times(ids)[0]
        unknown = self._user_positions(authors) < 0
        if (repeated | unknown).any():
            k = (repeated | unknown).argmax()
            if repeated[k]:
                raise DatasetError(f"duplicate tweet id {ids[k]}")
            raise DatasetError(f"unknown user id {authors[k]}")
        for column, values, kind in zip(
            self._new_tweets, (ids, authors, times, topics),
            (np.int64, np.int64, np.float64, np.intc),
        ):
            column.frombytes(np.asarray(values, kind).tobytes())

    def _add_retweets(self, users, tweets, times) -> None:
        users = np.asarray(users, dtype=np.int64)
        tweets = np.asarray(tweets, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        unknown_user = self._user_positions(users) < 0
        known, created = self._tweet_times(tweets)
        bad = unknown_user | ~known | (times < created)
        if bad.any():
            k = bad.argmax()
            if unknown_user[k]:
                raise DatasetError(f"unknown user id {users[k]}")
            if not known[k]:
                raise DatasetError(f"unknown tweet id {tweets[k]}")
            raise DatasetError(
                f"retweet at {float(times[k])} precedes tweet {tweets[k]} "
                f"creation at {float(created[k])}"
            )
        if not len(times):
            return
        if (self._last_time is not None and times[0] < self._last_time) or (
            np.any(times[1:] < times[:-1])
        ):
            self._log_sorted = False
        self._last_time = float(times[-1])
        for column, values in zip(self._new_log, (users, tweets, times)):
            column.frombytes(values.tobytes())

    def _user_positions(self, ids) -> np.ndarray:
        """Position of each of ``ids`` in :attr:`follow_graph`, or -1."""
        if len(ids) < 64:  # a few records: the graph's own id index
            at, present = self.follow_graph.positions(np.asarray(ids).tolist())
            return np.where(present, at, -1)
        known = self.follow_graph.ids
        if len(self._user_rank) != len(known):
            self._user_rank = np.argsort(known, kind="stable")
        return _find(known, self._user_rank, ids)

    def _tweet_times(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which of ``ids`` are tweets, and their creation times (0 where
        not)."""
        if len(self._new_tweets[0]) > len(self._new_tweet_times):
            self._compact()  # buffered by from_arrays: not in the dict
        at = _find(self._tweets[0], self._tweet_rank, ids)
        known = at >= 0
        created = np.zeros(len(ids))
        created[known] = self._tweets[2][at[known]]
        if self._new_tweet_times:
            for k, tweet in enumerate(ids.tolist()):
                if tweet in self._new_tweet_times:
                    known[k] = True
                    created[k] = self._new_tweet_times[tweet]
        return known, created

    def _compact(self) -> None:
        """Merge the buffered tweets and retweets into their columns."""
        if len(self._new_tweets[0]):
            self._tweets, self._new_tweets = _merged(self._tweets, self._new_tweets)
            self._tweet_rank = np.argsort(self._tweets[0], kind="stable")
            self._new_tweet_times = {}
        if len(self._new_log[0]):
            self._log, self._new_log = _merged(self._log, self._new_log)
            self._indexes = None

    def _index(self):
        """Retweeter and profile CSRs, and action counts aligned with the
        profile's users."""
        if self._indexes is None or len(self._new_log[0]):
            self._compact()
            users, tweets, _ = self._log
            profiles = _pairs_csr(users, tweets)
            counts = np.bincount(
                np.searchsorted(profiles[0], users), minlength=len(profiles[0])
            )
            self._indexes = (_pairs_csr(tweets, users), profiles, counts)
        return self._indexes

    # ------------------------------------------------------------------
    # Core accessors
    # ------------------------------------------------------------------
    @property
    def user_count(self) -> int:
        """Number of registered users."""
        return self.follow_graph.node_count

    @property
    def tweet_count(self) -> int:
        """Number of original posts."""
        return len(self._tweets[0]) + len(self._new_tweets[0])

    @property
    def retweet_count(self) -> int:
        """Number of sharing actions in the log."""
        return len(self._log[0]) + len(self._new_log[0])

    @property
    def user_ids(self) -> np.ndarray:
        """``int64`` user ids, by position in :attr:`follow_graph`."""
        return self.follow_graph.ids

    @property
    def follow_indptr(self) -> np.ndarray:
        """Row pointers of the follow CSR (rows by user position)."""
        return self.follow_graph.csr()[0]

    @property
    def follow_targets(self) -> np.ndarray:
        """Followee positions of the follow CSR, rows in insertion order."""
        return self.follow_graph.csr()[1]

    def retweet_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The log as (users, tweets, times) columns, chronological."""
        self._compact()
        if not self._log_sorted:
            users, tweets, times = self._log
            order = np.lexsort((tweets, users, times))
            self._log = (users[order], tweets[order], times[order])
            self._log_sorted, self._last_time = True, float(times[order[-1]])
        return self._log

    def retweets(self) -> list[Retweet]:
        """The retweet log in chronological order, as objects."""
        return list(map(Retweet, *(c.tolist() for c in self.retweet_arrays())))

    def popularity(self, tweet_id: int) -> int:
        """m(i): number of distinct users who retweeted ``tweet_id``."""
        return len(self.retweeters_array(tweet_id))

    def retweeters(self, tweet_id: int) -> set[int]:
        """Distinct users who retweeted ``tweet_id``."""
        return set(self.retweeters_array(tweet_id).tolist())

    def retweeters_array(self, tweet_id: int) -> np.ndarray:
        """Distinct retweeters of ``tweet_id``, ascending (a view)."""
        return _row(self._index()[0], tweet_id)

    def profile(self, user_id: int) -> set[int]:
        """L_u: the set of tweets ``user_id`` has retweeted."""
        return set(_row(self._index()[1], user_id).tolist())

    def user_retweet_count(self, user_id: int) -> int:
        """Total sharing actions performed by ``user_id``."""
        _, (users, _, _), counts = self._index()
        i = users.searchsorted(user_id)
        return int(counts[i]) if i < len(users) and users[i] == user_id else 0

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
    @property
    def users(self) -> Mapping[int, User]:
        """id -> :class:`User`, in registration order."""
        return _Entities(
            self.follow_graph.ids,
            lambda user_id: self._user_positions([user_id])[0],
            self._make_user,
        )

    def _make_user(self, i: int) -> User:
        return User(
            id=int(self.follow_graph.ids[i]), community=self._communities[i]
        )

    @property
    def tweets(self) -> Mapping[int, Tweet]:
        """id -> :class:`Tweet`, in registration order."""
        self._compact()
        ids, authors, times, topics = self._tweets
        rank = self._tweet_rank
        return _Entities(
            ids, lambda tweet_id: _position(ids, rank, tweet_id),
            lambda i: Tweet(
                id=int(ids[i]), author=int(authors[i]),
                created_at=float(times[i]), topic=int(topics[i]),
            ),
        )

    def tweets_with_min_retweets(self, min_retweets: int = 2) -> set[int]:
        """Tweets retweeted by at least ``min_retweets`` distinct users.

        The paper restricts both training and evaluation to messages with
        >= 2 retweets (§3.1.2, §6.1).
        """
        tweets, indptr, _ = self._index()[0]
        return set(tweets[np.diff(indptr) >= min_retweets].tolist())

    def followees(self, user_id: int) -> list[int]:
        """Accounts ``user_id`` follows, in follow order."""
        self._check_user(user_id)
        return self.follow_graph.successors(user_id)

    def followers(self, user_id: int) -> list[int]:
        """Accounts following ``user_id``, in registration order."""
        self._check_user(user_id)
        return self.follow_graph.predecessors(user_id)

    def _check_user(self, user_id: int) -> None:
        if user_id not in self.follow_graph:
            raise DatasetError(f"unknown user id {user_id}")

    def time_span(self) -> tuple[float, float]:
        """(first, last) timestamps over tweets and retweets."""
        self._compact()
        times = np.concatenate((self._tweets[2], self._log[2]))
        if not len(times):
            raise DatasetError("dataset holds no timestamped event")
        return float(times.min()), float(times.max())

    def validate(self) -> None:
        """Put every stored record through :meth:`from_arrays`' checks
        again; raise on corruption."""
        self._compact()
        follow_src, follow_dst = self.follow_graph.edge_arrays()
        tweet_ids, authors, times, topics = self._tweets
        rt_users, rt_tweets, rt_times = self._log
        self.from_arrays(
            user_ids=self.follow_graph.ids, follow_src=follow_src,
            follow_dst=follow_dst, tweet_ids=tweet_ids,
            tweet_authors=authors, tweet_times=times, rt_users=rt_users,
            rt_tweets=rt_tweets, rt_times=rt_times,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TwitterDataset(users={self.user_count}, "
            f"tweets={self.tweet_count}, retweets={self.retweet_count})"
        )
