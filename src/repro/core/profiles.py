"""Retweet profiles: the interest signal behind every similarity score.

A user's *profile* ``L_u`` is the set of tweets they retweeted (paper
Def. 3.1); a tweet's *popularity* ``m(i)`` is its distinct-retweeter count.
Both come from one relation, the distinct ``(user, tweet)`` pairs, which
:class:`RetweetProfiles` holds as arrays — the retweet graph as a growing
sparse matrix (ten Thij et al., PAPERS.md), kept the way
:class:`~repro.graph.followgraph.FollowGraph` keeps the follows:

* the **base**: the pairs sorted both ways, user -> tweets and the
  tweet -> users transpose, as CSR rows (:class:`_CSRIndex`).  Lookups
  are binary searches with no per-pair Python object, which is what lets
  a paper-scale corpus (:meth:`RetweetProfiles.from_arrays`) fit in RAM;
* the **log**: every genuinely new pair recorded since the last
  :meth:`~RetweetProfiles.mark_clean`, as two int64 columns in arrival
  order.  The log is also the write buffer: :meth:`RetweetProfiles.add`
  only validates the two ids and appends them, so its end may hold an
  *unresolved suffix* of raw pairs, repeats included.  Every read
  resolves that suffix first, and so does an ``add`` that takes it past
  the merge bound (below).  A few pairs are resolved one by one, through
  the scalar repeat check of the per-event path, into the *tail*: the
  resolved pairs not merged into the base yet, indexed per tweet and per
  user so the per-event reads (``retweeters``, ``popularity``) stay
  cheap.  More (:data:`BULK_SUFFIX` is the crossover) are resolved with
  the tail in one vectorized pass that keeps the first arrival of each
  pair, drops those the base holds, compacts the log in place and merges
  the rest into the base.  That pass also runs at ``mark_clean`` and
  whenever the log past the base outgrows :data:`TAIL_FRACTION` of the
  base.

Dirt is a watermark on the log.  A pair ``sim(u, v)`` can only change
when ``u`` or ``v`` gained a tweet or both retweeted a tweet whose
``m(i)`` — hence its ``1/log(1 + m(i))`` weight — changed, so the users
and tweets of the log's pairs from the *clean index* on are exactly what
the delta maintenance engine (:mod:`repro.core.delta`) needs to bound
the region of the SimGraph it rescores.  ``mark_clean(upto)`` consumes
the dirt up to a log index; :meth:`~RetweetProfiles.as_of` reads the
profiles as they stood at one.

Ids are integers (``Retweet.user`` / ``.tweet`` are ``int``); both
storage paths reject anything else with a :class:`DatasetError` that
names the id.  Query results (:meth:`~RetweetProfiles.profile`,
:meth:`~RetweetProfiles.retweeters`) are **immutable snapshots**
(``frozenset``), for known and unknown keys alike.
"""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_left
from typing import Iterable, Iterator

import numpy as np

from repro.core.csr import lookup, ranges, sorted_unique
from repro.data.models import Retweet
from repro.exceptions import DatasetError

__all__ = ["RetweetProfiles"]

#: The tail is merged into the base when it and the unresolved suffix
#: hold more pairs than this fraction of the base (and more than
#: :data:`MIN_TAIL`): each merge copies the base once, so merges stay
#: O(1) amortized per pair while the tail's per-pair set entries stay a
#: small share of the memory.
TAIL_FRACTION = 1 / 8
#: The tail is not merged for its size while it holds this many pairs
#: or fewer.
MIN_TAIL = 4096
#: An unresolved suffix of more pairs than this is resolved in one
#: vectorized pass that merges it into the base, a shorter one pair by
#: pair into the tail.  Timed as the read after n new pairs over the 100k
#: tier's history base, tails of 0 to 10k pairs, the pass costs
#: 1.1-3.5x the pairwise check at 1,024 pairs, 0.68-1.59x at 2,048 and
#: 0.45-0.97x at 4,096: 2,048 keeps the worst loss on either side of it
#: smallest.
BULK_SUFFIX = 2048

_EMPTY_ROW = np.empty(0, dtype=np.int64)
_EMPTY_SET: frozenset[int] = frozenset()


def _indptr(counts: np.ndarray) -> np.ndarray:
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _id(value, what: str) -> int:
    """``value`` as a Python int, or a :class:`DatasetError` naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise DatasetError(
            f"retweet {what} ids must be integers, got {value!r}"
        ) from None


def _pair_keys(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """One int64 key per pair ``(first[k], second[k])``: equal pairs get
    equal keys, and the keys ascend as the pairs do (by ``first``, then
    ``second``).  Offsets from the minima when the spans fit in 63 bits,
    else ranks among the distinct ids."""
    if not len(first):
        return _EMPTY_ROW
    low, high = int(first.min()), int(first.max())
    floor, ceiling = int(second.min()), int(second.max())
    width = ceiling - floor + 1
    if (high - low + 1) * width >= 2**63:
        first = sorted_unique(first, return_inverse=True)[1]
        distinct, second = sorted_unique(second, return_inverse=True)
        low, floor, width = 0, 0, len(distinct)
    keys = first - low
    keys *= width
    keys += second - floor
    return keys


def _run_heads(values: np.ndarray) -> np.ndarray:
    """Where each run of equal neighbours in ``values`` starts."""
    heads = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=heads[1:])
    return np.flatnonzero(heads)


def _id_column(values, what: str) -> np.ndarray:
    column = np.asarray(values)
    if len(column) and column.dtype.kind not in "iu":
        column = np.array(
            [_id(value, what) for value in column.tolist()], dtype=np.int64
        )
    return np.ascontiguousarray(column, dtype=np.int64)


class _CSRIndex:
    """One direction of the pair set: sorted keys + CSR rows.

    ``keys`` is sorted and unique; row ``i`` of ``items`` (the slice
    ``indptr[i]:indptr[i+1]``) holds the sorted partner ids of
    ``keys[i]``.  Lookup is a binary search — no per-key dict entry, so
    a million-user index costs three flat arrays.  An index is never
    written: :meth:`merged` and :meth:`without` return new ones.
    """

    __slots__ = ("keys", "indptr", "items", "_keys", "_indptr", "_items")

    def __init__(self, keys: np.ndarray, indptr: np.ndarray, items: np.ndarray):
        self.keys = keys
        self.indptr = indptr
        self.items = items
        # The scalar lookups of the per-event path bisect these views,
        # which yield Python ints without a numpy call per probe.
        self._keys = memoryview(keys)
        self._indptr = memoryview(indptr)
        self._items = memoryview(items)

    @classmethod
    def empty(cls) -> "_CSRIndex":
        return cls(_EMPTY_ROW, np.zeros(1, dtype=np.int64), _EMPTY_ROW)

    def position(self, key: int) -> int:
        """Row of ``key`` or -1 when absent."""
        keys = self._keys
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            return i
        return -1

    def row(self, key: int) -> np.ndarray:
        i = self.position(key)
        if i < 0:
            return _EMPTY_ROW
        return self.items[self._indptr[i] : self._indptr[i + 1]]

    def row_size(self, key: int) -> int:
        i = self.position(key)
        if i < 0:
            return 0
        return self._indptr[i + 1] - self._indptr[i]

    def spans(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, lengths)`` in ``items`` of the rows of ``keys`` (an
        absent key's is empty), found by :func:`lookup`."""
        at, found = lookup(self.keys, keys, np.arange(len(self.keys)))
        at = at[found]
        starts = np.zeros(len(keys), dtype=np.int64)
        lengths = np.zeros(len(keys), dtype=np.int64)
        starts[found] = self.indptr[at]
        lengths[found] = self.indptr[at + 1] - starts[found]
        return starts, lengths

    def row_contains(self, i: int, value: int) -> bool:
        """Does row ``i`` hold ``value``?"""
        items, hi = self._items, self._indptr[i + 1]
        j = bisect_left(items, value, self._indptr[i], hi)
        return j < hi and items[j] == value

    def _locate(
        self, keys: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(row, found, at)`` of pairs sorted by (key, value): each
        key's row (its insertion point when absent), whether it has one,
        and the flat position of the first item not below its value in
        that row — a binary search of every row at once."""
        row = self.keys.searchsorted(keys)
        found = row < len(self.keys)
        found[found] = self.keys[row[found]] == keys[found]
        lo = self.indptr[row]
        ends = self.indptr[np.minimum(row + 1, len(self.keys))]
        hi = np.where(found, ends, lo)
        active = np.flatnonzero(lo < hi)
        while len(active):
            mid = (lo[active] + hi[active]) // 2
            below = self.items[mid] < values[active]
            lo[active[below]] = mid[below] + 1
            hi[active[~below]] = mid[~below]
            active = active[lo[active] < hi[active]]
        return row, found, lo

    def held(
        self, values: np.ndarray, row: np.ndarray, found: np.ndarray, at: np.ndarray
    ) -> np.ndarray:
        """Which of the pairs that :meth:`_locate` placed at ``(row,
        found, at)`` the index holds, given their ``values``."""
        inside = np.flatnonzero(found)
        inside = inside[at[inside] < self.indptr[row[inside] + 1]]
        held = np.zeros(len(values), dtype=bool)
        held[inside[self.items[at[inside]] == values[inside]]] = True
        return held

    def merged(self, keys: np.ndarray, values: np.ndarray) -> "_CSRIndex":
        """This index plus the pairs ``(keys[k], values[k])``, none of
        which it holds: the pairs are sorted by one packed key, then
        inserted in place (:meth:`inserted`)."""
        order = np.argsort(_pair_keys(keys, values))
        keys, values = keys[order], values[order]
        return self.inserted(keys, values, *self._locate(keys, values))

    def inserted(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        row: np.ndarray,
        found: np.ndarray,
        at: np.ndarray,
    ) -> "_CSRIndex":
        """This index plus pairs sorted by (key, value), none of which it
        holds, that :meth:`_locate` placed at ``(row, found, at)``: each
        array is copied once, with the new entries in their places."""
        heads = _run_heads(keys)
        rows, fresh = row[heads], ~found[heads]
        slots, fresh = rows[fresh], keys[heads[fresh]]
        counts = np.insert(np.diff(self.indptr), slots, 0)
        # A key's row moves down by the new keys below it.
        counts[rows + fresh.searchsorted(keys[heads])] += np.diff(
            heads, append=len(keys)
        )
        return _CSRIndex(
            np.insert(self.keys, slots, fresh),
            _indptr(counts),
            np.insert(self.items, at, values),
        )

    def without(self, keys: np.ndarray, values: np.ndarray) -> "_CSRIndex":
        """This index minus the pairs ``(keys[k], values[k])``, every one
        of which it holds; a key left without items loses its row."""
        order = np.lexsort((values, keys))
        keys, values = keys[order], values[order]
        row, _, at = self._locate(keys, values)
        counts = np.diff(self.indptr)
        counts -= np.bincount(row, minlength=len(counts))
        kept = counts > 0
        return _CSRIndex(
            self.keys[kept], _indptr(counts[kept]), np.delete(self.items, at)
        )


class RetweetProfiles:
    """User -> retweeted-tweets map with the inverted tweet -> users index."""

    def __init__(self, retweets: Iterable[Retweet] = ()):
        self._by_user = _CSRIndex.empty()
        self._by_tweet = _CSRIndex.empty()
        #: The log: the pairs added from the clean index on, in arrival
        #: order (entry ``k`` has log index ``_clean + k``); the entries
        #: from log index ``_resolved`` on are the unresolved suffix.
        self._log_users = array("q")
        self._log_tweets = array("q")
        self._clean = 0
        self._resolved = 0
        self._user_count = 0
        self._new_tail(0)
        self.extend(retweets)

    @classmethod
    def from_arrays(
        cls,
        users: np.ndarray,
        tweets: np.ndarray,
    ) -> "RetweetProfiles":
        """Freeze a bulk corpus of ``(user, tweet)`` retweet pairs.

        ``users``/``tweets`` are parallel integer arrays — the raw
        retweet log, duplicates allowed (a repeat retweet changes
        neither ``L_u`` nor ``m(i)``, exactly like :meth:`add`).  The
        distinct pairs become the base; the result is *clean*: only
        later :meth:`add` calls make dirt.
        """
        users = _id_column(users, "user")
        tweets = _id_column(tweets, "tweet")
        if users.shape != tweets.shape:
            raise ValueError(
                f"users ({users.shape}) and tweets ({tweets.shape}) "
                "must be parallel arrays"
            )
        instance = cls()
        if len(users) == 0:
            return instance
        _, distinct = sorted_unique(_pair_keys(users, tweets), return_index=True)
        users, tweets = users[distinct], tweets[distinct]
        instance._install_base(
            _CSRIndex.empty().merged(users, tweets),
            _CSRIndex.empty().merged(tweets, users),
        )
        return instance

    def _install_base(self, by_user: _CSRIndex, by_tweet: _CSRIndex) -> None:
        """Make the pair set exactly the base ``by_user`` / ``by_tweet``:
        the whole log is resolved and in it."""
        self._by_user, self._by_tweet = by_user, by_tweet
        self._user_count = len(by_user.keys)
        self._resolved = self._clean + len(self._log_users)
        self._new_tail(self._resolved)

    def add(self, user: int, tweet: int) -> None:
        """Record that ``user`` retweeted ``tweet`` (idempotent).

        The two ids are appended to the log and nothing is probed: a
        repeat is found when the unresolved suffix is resolved, by the
        next read or once the suffix takes the log past the merge bound.
        Only a genuinely new (user, tweet) pair stays in the log and so
        dirties the user and the tweet: a repeated retweet changes
        neither ``L_u`` nor ``m(i)``, so it must not enlarge the
        maintenance region, wherever its first copy is held.  A
        non-integer id raises :class:`DatasetError` and records nothing.
        """
        if type(user) is not int or type(tweet) is not int:
            user, tweet = _id(user, "user"), _id(tweet, "tweet")
        users = self._log_users
        users.append(user)
        try:
            self._log_tweets.append(tweet)
        except OverflowError:
            users.pop()
            raise
        if self._clean + len(users) > self._tail_limit:
            self._resolve(merge=True)

    def extend(self, retweets: Iterable[Retweet]) -> None:
        """Record a batch of retweet actions."""
        for retweet in retweets:
            self.add(retweet.user, retweet.tweet)

    def log_pairs(
        self, start: int, stop: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(users, tweets)`` of the log's pairs with log index in
        ``[start, stop)`` (default: to the end); the log holds them
        from the clean index on."""
        self._resolve()
        if start < self._clean:
            raise ValueError(
                f"log index {start} is before the clean index {self._clean}"
            )
        return self._columns(start, stop)

    def _columns(
        self, start: int, stop: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The log's columns from log index ``start`` to ``stop``."""
        lo = start - self._clean
        hi = len(self._log_users) if stop is None else stop - self._clean
        return (
            np.frombuffer(self._log_users[lo:hi], dtype=np.int64),
            np.frombuffer(self._log_tweets[lo:hi], dtype=np.int64),
        )

    def _resolve(self, merge: bool = False) -> None:
        """Resolve the unresolved suffix.

        A suffix of at most :data:`BULK_SUFFIX` pairs joins the tail pair
        by pair (:meth:`_record`); a longer one, or any suffix when
        ``merge``, is resolved with the tail in one pass that merges both
        into the base (:meth:`_merge`).
        """
        start = self._resolved - self._clean
        pending = len(self._log_users) - start
        if merge or pending > BULK_SUFFIX:
            self._merge()
        elif pending:
            users, tweets = self._log_users[start:], self._log_tweets[start:]
            del self._log_users[start:], self._log_tweets[start:]
            for user, tweet in zip(users, tweets):
                self._record(user, tweet)
            self._resolved = self._clean + len(self._log_users)

    def _record(self, user: int, tweet: int) -> None:
        """Resolve one pair: unless the tail or the base holds it, it
        joins the tail and the log."""
        profile = self._tail_profiles.get(user)
        if profile is not None and tweet in profile:
            return
        row = self._by_user.position(user)
        if row >= 0 and self._by_user.row_contains(row, tweet):
            return
        if profile is None:
            profile = self._tail_profiles[user] = set()
            if row < 0:
                self._user_count += 1
        profile.add(tweet)
        retweeters = self._tail_retweeters.get(tweet)
        if retweeters is None:
            retweeters = self._tail_retweeters[tweet] = set()
        retweeters.add(user)
        self._log_users.append(user)
        self._log_tweets.append(tweet)

    def _merge(self) -> None:
        """Resolve the log past the base, the tail and the unresolved
        suffix, in one pass and merge it into the base.

        The first arrival of each pair is kept (one sort of packed keys;
        the tail's pairs are distinct and come first, so they all stay
        where they are), those the base holds are dropped (a binary
        search of every row at once), and the log is compacted in place
        to the rest, in arrival order.  The by-user direction takes them
        as sorted and located; each direction copies its arrays once.
        """
        start = self._merged - self._clean
        if start == len(self._log_users):
            return
        log_users, log_tweets = self._columns(self._merged)
        keys = _pair_keys(log_users, log_tweets)
        order = np.argsort(keys)
        # The first arrival of each pair: the least position of its run.
        first = np.minimum.reduceat(order, _run_heads(keys[order]))
        users, tweets = log_users[first], log_tweets[first]
        located = self._by_user._locate(users, tweets)
        new = ~self._by_user.held(tweets, *located)
        users, tweets = users[new], tweets[new]
        kept = np.sort(first[new])
        del self._log_users[start:], self._log_tweets[start:]
        self._log_users.frombytes(memoryview(log_users[kept]).cast("B"))
        self._log_tweets.frombytes(memoryview(log_tweets[kept]).cast("B"))
        self._by_user = self._by_user.inserted(
            users, tweets, *(part[new] for part in located)
        )
        self._by_tweet = self._by_tweet.merged(tweets, users)
        self._user_count = len(self._by_user.keys)
        self._resolved = end = self._clean + len(self._log_users)
        self._new_tail(end)

    def _new_tail(self, merged: int) -> None:
        """Start an empty tail at log index ``merged``: every pair
        before it is in the base."""
        #: The tail by user and by tweet.
        self._tail_profiles: dict[int, set[int]] = {}
        self._tail_retweeters: dict[int, set[int]] = {}
        #: Log index of the first pair not in the base.
        self._merged = merged
        #: Log index past which the tail is merged into the base.
        self._tail_limit = merged + max(
            MIN_TAIL, int(TAIL_FRACTION * len(self._by_user.items))
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def profile(self, user: int) -> frozenset[int]:
        """L_u — the tweets ``user`` retweeted (empty when unknown).

        Returns an immutable snapshot: callers can keep or combine it
        freely, and mutating a *copy* (``set(...)``) never touches the
        stored profile.
        """
        self._resolve()
        return _snapshot(
            self._by_user.row(user), self._tail_profiles.get(user)
        )

    def profile_array(self, user: int) -> np.ndarray:
        """L_u as a sorted int64 array (flat-array consumers); a view of
        the base when the tail holds nothing of ``user``."""
        self._resolve()
        return _sorted(self._by_user.row(user), self._tail_profiles.get(user))

    def profile_size(self, user: int) -> int:
        """|L_u| without copying the set."""
        self._resolve()
        return self._by_user.row_size(user) + len(
            self._tail_profiles.get(user, ())
        )

    def profile_rows(self, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The profiles of many distinct ``users`` at once: ``(sizes,
        tweets)``, each profile ascending, concatenated in the order
        given (an unknown user's is empty)."""
        return self._rows(users, by_user=True)

    def profile_sizes(self, users: np.ndarray) -> np.ndarray:
        """|L_u| of many distinct ``users`` (0 when unknown)."""
        return self._sizes(users, by_user=True)

    def has_profile(self, user: int) -> bool:
        """True when ``user`` retweeted at least one tweet."""
        self._resolve()
        return user in self._tail_profiles or self._by_user.position(user) >= 0

    def users(self) -> Iterator[int]:
        """Every user with a non-empty profile, ascending."""
        self._resolve()
        return _keys(self._by_user, self._tail_profiles)

    def tweets(self) -> Iterator[int]:
        """Every tweet retweeted at least once, ascending."""
        self._resolve()
        return _keys(self._by_tweet, self._tail_retweeters)

    def popularity(self, tweet: int) -> int:
        """m(i) — number of distinct users who retweeted ``tweet``."""
        self._resolve()
        return self._by_tweet.row_size(tweet) + len(
            self._tail_retweeters.get(tweet, ())
        )

    def retweeters(self, tweet: int) -> frozenset[int]:
        """Distinct retweeters of ``tweet`` (immutable snapshot).

        Like :meth:`profile`, the return value is a ``frozenset`` —
        safe to hold, never aliased to internal state.
        """
        self._resolve()
        return _snapshot(
            self._by_tweet.row(tweet), self._tail_retweeters.get(tweet)
        )

    def retweeters_array(self, tweet: int) -> np.ndarray:
        """Distinct retweeters as a sorted int64 array."""
        self._resolve()
        return _sorted(
            self._by_tweet.row(tweet), self._tail_retweeters.get(tweet)
        )

    def retweeter_rows(
        self, tweets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The retweeters of many distinct ``tweets`` at once:
        ``(popularities, users)``, each tweet's users ascending,
        concatenated in the order given."""
        return self._rows(tweets, by_user=False)

    def tweet_weights(self, tweets: np.ndarray) -> np.ndarray:
        """:meth:`tweet_weight` of many distinct ``tweets``, as float64:
        each distinct popularity is weighed once, by the same
        expression, so the values are the scalar ones bit for bit."""
        counts, slot = sorted_unique(
            self._sizes(tweets, by_user=False),
            return_inverse=True,
        )
        weights = [1.0 / math.log1p(m) if m else 0.0 for m in counts.tolist()]
        return np.array(weights, dtype=np.float64)[slot]

    def _tail_hits(
        self, keys: np.ndarray, by_user: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(slot, partners)`` of the tail's pairs whose key is one of
        ``keys``: the key's place in ``keys`` and the other id."""
        users, tweets = self._columns(self._merged)
        if not len(users):
            return _EMPTY_ROW, _EMPTY_ROW
        tail_keys, partners = (users, tweets) if by_user else (tweets, users)
        slot, hit = lookup(keys, tail_keys)
        return slot[hit], partners[hit]

    def _sizes(self, keys: np.ndarray, by_user: bool) -> np.ndarray:
        self._resolve()
        keys = np.asarray(keys, dtype=np.int64)
        _, sizes = self._base(by_user).spans(keys)
        slot, _ = self._tail_hits(keys, by_user)
        return sizes + np.bincount(slot, minlength=len(keys))

    def _base(self, by_user: bool) -> _CSRIndex:
        return self._by_user if by_user else self._by_tweet

    def _rows(
        self, keys: np.ndarray, by_user: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """The base rows of ``keys`` plus the tail's pairs, each row
        ascending: the tail's items are merged in by one sort, only
        when the tail holds some."""
        self._resolve()
        base = self._base(by_user)
        keys = np.asarray(keys, dtype=np.int64)
        starts, lengths = base.spans(keys)
        items = base.items[ranges(starts, lengths)]
        slot, partners = self._tail_hits(keys, by_user)
        if not len(slot):
            return lengths, items
        owner = np.concatenate(
            (np.arange(len(keys), dtype=np.int64).repeat(lengths), slot)
        )
        items = np.concatenate((items, partners))
        lengths = lengths + np.bincount(slot, minlength=len(keys))
        return lengths, items[np.lexsort((items, owner))]

    def tweet_weight(self, tweet: int) -> float:
        """The Def. 3.1 contribution of one common tweet: 1/log(1+m(i)).

        Rare co-retweets weigh more than popular ones (Breese et al.'s
        inverse-popularity correction).  Natural log, as is conventional.
        """
        m = self.popularity(tweet)
        if m == 0:
            return 0.0
        return 1.0 / math.log1p(m)

    @property
    def user_count(self) -> int:
        """Number of users with at least one retweet."""
        self._resolve()
        return self._user_count

    @property
    def tweet_count(self) -> int:
        """Number of tweets retweeted at least once."""
        self._resolve()
        by_tweet = self._by_tweet
        return len(by_tweet.keys) + sum(
            by_tweet.position(tweet) < 0 for tweet in self._tail_retweeters
        )

    # ------------------------------------------------------------------
    # Dirt: the log from the clean index on (§6.3 at service scale)
    # ------------------------------------------------------------------
    @property
    def log_end(self) -> int:
        """Log index the next new pair gets: new pairs ever added by
        :meth:`add` (the base of :meth:`from_arrays` has none)."""
        self._resolve()
        return self._clean + len(self._log_users)

    @property
    def dirty_users(self) -> frozenset[int]:
        """Users whose profile gained a tweet since :meth:`mark_clean`."""
        self._resolve()
        return frozenset(self._log_users)

    @property
    def dirty_tweets(self) -> frozenset[int]:
        """Tweets whose popularity m(i) changed since :meth:`mark_clean`.

        Their ``1/log(1 + m(i))`` weight changed, so every pair of their
        co-retweeters may have a stale similarity numerator.
        """
        self._resolve()
        return frozenset(self._log_tweets)

    def dirt(self) -> tuple[np.ndarray, np.ndarray]:
        """``(dirty users, dirty tweets)`` as ascending int64 arrays."""
        users, tweets = self.log_pairs(self._clean)
        return sorted_unique(users), sorted_unique(tweets)

    def mark_clean(self, upto: int | None = None) -> None:
        """Checkpoint: the pairs before log index ``upto`` (default: all
        of them) are what the SimGraph was built from.

        Callers invoke this right after a (re)build; the pairs from
        ``upto`` on stay dirt for the next delta maintenance run.  The
        log is resolved and the tail merged into the base here.
        """
        self._resolve(merge=True)
        end = self._resolved
        upto = end if upto is None else upto
        if not self._clean <= upto <= end:
            raise ValueError(
                f"clean index {upto} outside the log [{self._clean}, {end}]"
            )
        del self._log_users[: upto - self._clean]
        del self._log_tweets[: upto - self._clean]
        self._clean = upto

    def as_of(self, index: int) -> "RetweetProfiles":
        """The profiles as they stood when the log ended at ``index``
        (the clean index or later): ``self`` when nothing was added
        since, else a copy without the later pairs, whose dirt is the
        log before ``index``.  Costs a copy of the base."""
        self._resolve()
        end = self._resolved
        if index == end:
            return self
        if not self._clean <= index <= end:
            raise ValueError(
                f"log index {index} outside the log [{self._clean}, {end}]"
            )
        if index < self._merged:
            # Some later pairs are in the base already: take them out.
            users, tweets = self._columns(index, self._merged)
            by_user = self._by_user.without(users, tweets)
            by_tweet = self._by_tweet.without(tweets, users)
        else:
            users, tweets = self._columns(self._merged, index)
            by_user = self._by_user.merged(users, tweets)
            by_tweet = self._by_tweet.merged(tweets, users)
        view = RetweetProfiles()
        view._log_users = self._log_users[: index - self._clean]
        view._log_tweets = self._log_tweets[: index - self._clean]
        view._clean = self._clean
        view._install_base(by_user, by_tweet)
        return view


def _snapshot(base: np.ndarray, tail: set[int] | None) -> frozenset[int]:
    if not len(base):
        return frozenset(tail) if tail else _EMPTY_SET
    snapshot = frozenset(base.tolist())
    return snapshot.union(tail) if tail else snapshot


def _sorted(base: np.ndarray, tail: set[int] | None) -> np.ndarray:
    if not tail:
        return base
    merged = np.concatenate(
        (base, np.fromiter(tail, dtype=np.int64, count=len(tail)))
    )
    merged.sort()
    return merged


def _keys(base: _CSRIndex, tail: dict[int, set[int]]) -> Iterator[int]:
    if not tail:
        return iter(base.keys.tolist())
    extra = np.fromiter(tail, dtype=np.int64, count=len(tail))
    return iter(np.union1d(base.keys, extra).tolist())
