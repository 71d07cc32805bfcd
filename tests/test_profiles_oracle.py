"""The dict-of-sets retweet profiles as the oracle of the log-backed ones.

:class:`DictRetweetProfiles` is the store :class:`~repro.core.profiles.
RetweetProfiles` kept until its pairs became a CSR base plus an append
log: ``dict[int, set[int]]`` in both directions and two dirty sets.  It
stays here as the definition the log-backed store must answer like.
One extension models the log's watermark: ``mark_clean(later=k)`` keeps
the dirt of the last ``k`` new pairs, which is what
``RetweetProfiles.mark_clean(upto)`` does with ``k = log_end - upto``
(the service used to get the same dirt by adding the pairs it held
during a maintenance job after ``mark_clean()``).

The properties drive both stores with the same random interleaving of
new and repeated retweets, ``mark_clean(upto)`` at random watermarks,
compactions at random points (explicit, and forced by a tiny tail
limit) and ``as_of`` views, and require every query, the dirty sets,
``user_count`` and ``tweet_count`` to be equal; the batch reads of many
users or tweets must equal the per-id reads.  The last property pins
Def. 3.1 bit for bit: the same pairs held in any base/tail layout give
identical ``similarity``, ``similarities_from`` and ``update_weights``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.profiles as profiles_module
from repro.core import SimGraphBuilder
from repro.core.profiles import RetweetProfiles
from repro.core.similarity import similarities_from, similarity
from repro.core.update import update_weights
from repro.exceptions import DatasetError
from repro.graph import FollowGraph

USERS = range(9)
TWEETS = range(100, 112)


# ----------------------------------------------------------------------
# The oracle: the dict profiles, as the library held them
# ----------------------------------------------------------------------
class DictRetweetProfiles:
    """User -> retweeted-tweets map with the inverted tweet -> users index."""

    def __init__(self) -> None:
        self._profiles: dict[int, set[int]] = {}
        self._retweeters: dict[int, set[int]] = {}
        self._dirty_users: set[int] = set()
        self._dirty_tweets: set[int] = set()
        #: Genuinely new pairs since mark_clean, in arrival order (only
        #: ``mark_clean(later=...)`` reads it).
        self._arrivals: list[tuple[int, int]] = []
        #: Genuinely new pairs ever added.
        self.new_pairs = 0

    def add(self, user: int, tweet: int) -> None:
        """Record that ``user`` retweeted ``tweet`` (idempotent).

        Only a genuinely new (user, tweet) pair dirties the user and the
        tweet: a repeated retweet changes neither ``L_u`` nor ``m(i)``.
        """
        profile = self._profiles.setdefault(user, set())
        if tweet in profile:
            return
        profile.add(tweet)
        self._retweeters.setdefault(tweet, set()).add(user)
        self._dirty_users.add(user)
        self._dirty_tweets.add(tweet)
        self._arrivals.append((user, tweet))
        self.new_pairs += 1

    def profile(self, user: int) -> frozenset[int]:
        return frozenset(self._profiles.get(user, ()))

    def profile_size(self, user: int) -> int:
        return len(self._profiles.get(user, ()))

    def has_profile(self, user: int) -> bool:
        return user in self._profiles

    def users(self):
        return iter(self._profiles.keys())

    def tweets(self):
        return iter(self._retweeters.keys())

    def popularity(self, tweet: int) -> int:
        return len(self._retweeters.get(tweet, ()))

    def retweeters(self, tweet: int) -> frozenset[int]:
        return frozenset(self._retweeters.get(tweet, ()))

    def tweet_weight(self, tweet: int) -> float:
        m = self.popularity(tweet)
        if m == 0:
            return 0.0
        return 1.0 / math.log1p(m)

    @property
    def dirty_users(self) -> frozenset[int]:
        return frozenset(self._dirty_users)

    @property
    def dirty_tweets(self) -> frozenset[int]:
        return frozenset(self._dirty_tweets)

    @property
    def has_dirty(self) -> bool:
        return bool(self._dirty_users) or bool(self._dirty_tweets)

    def mark_clean(self, later: int = 0) -> None:
        """Checkpoint; the last ``later`` new pairs stay dirt."""
        kept = self._arrivals[len(self._arrivals) - later:] if later else []
        self._dirty_users = {user for user, _ in kept}
        self._dirty_tweets = {tweet for _, tweet in kept}
        self._arrivals = kept

    @property
    def user_count(self) -> int:
        return len(self._profiles)

    @property
    def tweet_count(self) -> int:
        return len(self._retweeters)


def assert_same(profiles: RetweetProfiles, oracle: DictRetweetProfiles) -> None:
    """Every query of ``profiles`` equals the oracle's, unknown keys
    included."""
    for user in [*USERS, 99]:
        expected = oracle.profile(user)
        assert profiles.profile(user) == expected
        assert isinstance(profiles.profile(user), frozenset)
        assert profiles.profile_array(user).tolist() == sorted(expected)
        assert profiles.profile_size(user) == oracle.profile_size(user)
        assert profiles.has_profile(user) == oracle.has_profile(user)
    for tweet in [*TWEETS, 999]:
        expected = oracle.retweeters(tweet)
        assert profiles.retweeters(tweet) == expected
        assert profiles.retweeters_array(tweet).tolist() == sorted(expected)
        assert profiles.popularity(tweet) == oracle.popularity(tweet)
        assert profiles.tweet_weight(tweet) == oracle.tweet_weight(tweet)
    assert_batch_reads_are_scalar_reads(profiles)
    assert list(profiles.users()) == sorted(oracle.users())
    assert list(profiles.tweets()) == sorted(oracle.tweets())
    assert profiles.user_count == oracle.user_count
    assert profiles.tweet_count == oracle.tweet_count
    assert profiles.dirty_users == oracle.dirty_users
    assert profiles.dirty_tweets == oracle.dirty_tweets
    assert (len(profiles.dirt()[0]) > 0) == oracle.has_dirty
    users, tweets = profiles.dirt()
    assert users.tolist() == sorted(oracle.dirty_users)
    assert tweets.tolist() == sorted(oracle.dirty_tweets)
    assert profiles.log_end == oracle.new_pairs


def assert_batch_reads_are_scalar_reads(profiles: RetweetProfiles) -> None:
    """The batch reads of many ids equal the per-id reads, in the order
    asked, for ids held in the base, in the tail, in both, and not at
    all (99, -5; 999, -1)."""
    users = np.array([4, 99, *USERS[:4], -5, *USERS[5:]], dtype=np.int64)
    sizes, tweets = profiles.profile_rows(users)
    assert sizes.tolist() == [profiles.profile_size(u) for u in users.tolist()]
    assert tweets.tolist() == [
        t for u in users.tolist() for t in profiles.profile_array(u).tolist()
    ]
    assert profiles.profile_sizes(users).tolist() == sizes.tolist()
    tweets = np.array([999, *TWEETS[::-1], -1], dtype=np.int64)
    counts, retweeters = profiles.retweeter_rows(tweets)
    assert counts.tolist() == [profiles.popularity(t) for t in tweets.tolist()]
    assert retweeters.tolist() == [
        u for t in tweets.tolist() for u in profiles.retweeters_array(t).tolist()
    ]
    weights = profiles.tweet_weights(tweets)
    assert weights.dtype == np.float64
    assert weights.tolist() == [profiles.tweet_weight(t) for t in tweets.tolist()]
    for empty in (profiles.profile_rows([]), profiles.retweeter_rows([])):
        assert [len(part) for part in empty] == [0, 0]
    assert len(profiles.tweet_weights([])) == 0


pair = st.tuples(st.sampled_from(USERS), st.sampled_from(TWEETS))
operation = st.one_of(
    st.tuples(st.just("add"), pair),
    st.tuples(st.just("clean"), st.floats(0, 1)),
    st.tuples(st.just("compact"), st.none()),
    st.tuples(st.just("as_of"), st.floats(0, 1)),
)


def replayed(base, history, index: int, clean: int) -> DictRetweetProfiles:
    """The oracle of ``from_arrays(base)`` followed by ``history``, the
    new pairs in log order, as of log index ``index`` with dirt from
    ``clean`` on."""
    oracle = DictRetweetProfiles()
    for user, tweet in base:
        oracle.add(user, tweet)
    oracle.mark_clean()
    # The from_arrays base is no log entry: count from here on.
    oracle.new_pairs = 0
    for user, tweet in history[:index]:
        oracle.add(user, tweet)
    oracle.mark_clean(later=index - clean)
    return oracle


@settings(max_examples=150, deadline=None)
@given(
    base=st.lists(pair, max_size=25),
    operations=st.lists(operation, max_size=60),
    min_tail=st.sampled_from([0, 2, 5, 4096]),
)
def test_log_profiles_answer_like_the_dict_oracle(base, operations, min_tail):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(profiles_module, "MIN_TAIL", min_tail)
        if base:
            users, tweets = (np.array(column) for column in zip(*base))
            profiles = RetweetProfiles.from_arrays(users, tweets)
        else:
            profiles = RetweetProfiles()
        oracle = replayed(base, [], 0, 0)
        history: list[tuple[int, int]] = []
        clean = 0
        for kind, arg in operations:
            if kind == "add":
                before = oracle.new_pairs
                profiles.add(*arg)
                oracle.add(*arg)
                if oracle.new_pairs > before:
                    history.append(arg)
            elif kind == "clean":
                upto = clean + int(arg * (profiles.log_end - clean))
                profiles.mark_clean(upto)
                oracle.mark_clean(later=profiles.log_end - upto)
                clean = upto
            elif kind == "compact":
                profiles._resolve(merge=True)
            else:
                index = clean + int(arg * (profiles.log_end - clean))
                assert_same(
                    profiles.as_of(index), replayed(base, history, index, clean)
                )
            assert_same(profiles, oracle)


# ----------------------------------------------------------------------
# The log as write buffer: runs of adds with no read in between
# ----------------------------------------------------------------------
def _ids(user: int, tweet: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct users and tweets around one pair, unknown ids included."""
    users = np.array(sorted({user, (user + 4) % len(USERS), 99}), dtype=np.int64)
    tweets = np.array(sorted({tweet, 999, TWEETS[0]}), dtype=np.int64)
    return users, tweets


def _rows(oracle: DictRetweetProfiles, ids, read) -> list[list[int]]:
    return [
        [len(read(i)) for i in ids.tolist()],
        [x for i in ids.tolist() for x in sorted(read(i))],
    ]


#: Every read that resolves the log, as ``(the read of RetweetProfiles,
#: the same read of the oracle)`` around one ``(user, tweet)``.
READS = {
    "profile": (
        lambda p, u, t: p.profile(u),
        lambda o, u, t: o.profile(u),
    ),
    "profile_array": (
        lambda p, u, t: p.profile_array(u).tolist(),
        lambda o, u, t: sorted(o.profile(u)),
    ),
    "profile_size": (
        lambda p, u, t: p.profile_size(u),
        lambda o, u, t: o.profile_size(u),
    ),
    "profile_rows": (
        lambda p, u, t: [c.tolist() for c in p.profile_rows(_ids(u, t)[0])],
        lambda o, u, t: _rows(o, _ids(u, t)[0], o.profile),
    ),
    "profile_sizes": (
        lambda p, u, t: p.profile_sizes(_ids(u, t)[0]).tolist(),
        lambda o, u, t: _rows(o, _ids(u, t)[0], o.profile)[0],
    ),
    "has_profile": (
        lambda p, u, t: p.has_profile(u),
        lambda o, u, t: o.has_profile(u),
    ),
    "users": (lambda p, u, t: list(p.users()), lambda o, u, t: sorted(o.users())),
    "tweets": (
        lambda p, u, t: list(p.tweets()),
        lambda o, u, t: sorted(o.tweets()),
    ),
    "popularity": (
        lambda p, u, t: p.popularity(t),
        lambda o, u, t: o.popularity(t),
    ),
    "retweeters": (
        lambda p, u, t: p.retweeters(t),
        lambda o, u, t: o.retweeters(t),
    ),
    "retweeters_array": (
        lambda p, u, t: p.retweeters_array(t).tolist(),
        lambda o, u, t: sorted(o.retweeters(t)),
    ),
    "retweeter_rows": (
        lambda p, u, t: [c.tolist() for c in p.retweeter_rows(_ids(u, t)[1])],
        lambda o, u, t: _rows(o, _ids(u, t)[1], o.retweeters),
    ),
    "tweet_weights": (
        lambda p, u, t: p.tweet_weights(_ids(u, t)[1]).tolist(),
        lambda o, u, t: [o.tweet_weight(i) for i in _ids(u, t)[1].tolist()],
    ),
    "user_count": (lambda p, u, t: p.user_count, lambda o, u, t: o.user_count),
    "tweet_count": (
        lambda p, u, t: p.tweet_count,
        lambda o, u, t: o.tweet_count,
    ),
    "log_end": (lambda p, u, t: p.log_end, lambda o, u, t: o.new_pairs),
    "dirt": (
        lambda p, u, t: [c.tolist() for c in p.dirt()],
        lambda o, u, t: [sorted(o.dirty_users), sorted(o.dirty_tweets)],
    ),
    "dirty_users": (
        lambda p, u, t: p.dirty_users,
        lambda o, u, t: o.dirty_users,
    ),
    "dirty_tweets": (
        lambda p, u, t: p.dirty_tweets,
        lambda o, u, t: o.dirty_tweets,
    ),
}

#: Runs draw from 9 x 12 pairs, so they repeat pairs of their own, of
#: the base and of the tail.
deferred_operation = st.one_of(
    st.tuples(st.just("run"), st.lists(pair, min_size=1, max_size=40)),
    st.tuples(st.just("read"), st.tuples(st.sampled_from(sorted(READS)), pair)),
    st.tuples(st.just("clean"), st.floats(0, 1)),
    st.tuples(st.just("as_of"), st.floats(0, 1)),
    st.tuples(st.just("log_pairs"), st.tuples(st.floats(0, 1), st.floats(0, 1))),
)


@settings(max_examples=200, deadline=None)
@given(
    base=st.lists(pair, max_size=25),
    operations=st.lists(deferred_operation, max_size=25),
    bulk=st.sampled_from([0, 3, 256]),
    min_tail=st.sampled_from([0, 6, 4096]),
)
def test_deferred_log_answers_like_the_dict_oracle(
    base, operations, bulk, min_tail
):
    """Runs of adds leave an unresolved suffix; whichever read comes
    first resolves it (pair by pair or in bulk, as ``bulk`` forces, with
    merges forced by a small ``min_tail``) and answers like the oracle.
    ``mark_clean``, ``as_of`` and ``log_pairs`` take their log indices
    from the oracle, so each can be the first read after a run; the
    watermark of ``mark_clean`` falls inside the run just resolved, so
    the log must hold first arrivals in arrival order."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(profiles_module, "BULK_SUFFIX", bulk)
        patch.setattr(profiles_module, "MIN_TAIL", min_tail)
        if base:
            users, tweets = (np.array(column) for column in zip(*base))
            profiles = RetweetProfiles.from_arrays(users, tweets)
        else:
            profiles = RetweetProfiles()
        oracle = replayed(base, [], 0, 0)
        history: list[tuple[int, int]] = []
        clean = run_start = 0
        for kind, arg in operations:
            if kind == "run":
                run_start = oracle.new_pairs
                for user, tweet in arg:
                    profiles.add(user, tweet)
                    oracle.add(user, tweet)
                    if oracle.new_pairs > len(history):
                        history.append((user, tweet))
                continue
            end = oracle.new_pairs
            low = max(clean, run_start)
            if kind == "read":
                name, (user, tweet) = arg
                ours, theirs = READS[name]
                assert ours(profiles, user, tweet) == theirs(oracle, user, tweet)
            elif kind == "clean":
                upto = low + int(arg * (end - low))
                profiles.mark_clean(upto)
                oracle.mark_clean(later=end - upto)
                clean = upto
            elif kind == "as_of":
                index = low + int(arg * (end - low))
                assert_same(
                    profiles.as_of(index), replayed(base, history, index, clean)
                )
            else:
                start, stop = (clean + int(x * (end - clean)) for x in sorted(arg))
                users, tweets = profiles.log_pairs(start, stop)
                logged = list(zip(users.tolist(), tweets.tolist()))
                assert logged == history[start:stop]
            assert_same(profiles, oracle)
        assert_same(profiles, oracle)
        users, tweets = profiles.log_pairs(clean)
        assert list(zip(users.tolist(), tweets.tolist())) == history[clean:]


def test_a_bad_id_records_nothing():
    profiles = RetweetProfiles()
    profiles.add(1, 10)
    with pytest.raises(DatasetError):
        profiles.add(2, "x")
    with pytest.raises(OverflowError):
        profiles.add(3, 2**64)
    assert profiles.log_pairs(0)[0].tolist() == [1]
    assert profiles.retweeters(10) == {1}


def test_mark_clean_outside_the_log_is_rejected():
    profiles = RetweetProfiles()
    profiles.add(1, 10)
    profiles.mark_clean()
    profiles.add(2, 10)
    with pytest.raises(ValueError, match="outside the log"):
        profiles.mark_clean(0)
    with pytest.raises(ValueError, match="outside the log"):
        profiles.mark_clean(3)
    with pytest.raises(ValueError, match="outside the log"):
        profiles.as_of(0)
    with pytest.raises(ValueError, match="before the clean index"):
        profiles.log_pairs(0)
    assert profiles.log_pairs(1)[0].tolist() == [2]


@pytest.mark.parametrize("user,tweet,bad", [(1, "a", "'a'"), ("u", 10, "'u'"),
                                            (1, 2.5, "2.5")])
def test_non_integer_ids_are_rejected_on_both_paths(user, tweet, bad):
    with pytest.raises(DatasetError, match=f"must be integers, got {bad}"):
        RetweetProfiles().add(user, tweet)
    with pytest.raises(DatasetError, match=f"must be integers, got {bad}"):
        RetweetProfiles.from_arrays(np.array([user]), np.array([tweet]))


def test_numpy_integer_ids_are_ids():
    profiles = RetweetProfiles()
    profiles.add(np.int64(1), np.int32(10))
    assert profiles.retweeters(10) == {1}
    assert type(next(profiles.users())) is int


# ----------------------------------------------------------------------
# Def. 3.1 does not depend on the layout
# ----------------------------------------------------------------------
def laid_out(pairs, compactions) -> RetweetProfiles:
    """``pairs`` added in order, the tail merged before each position
    in ``compactions``."""
    profiles = RetweetProfiles()
    for k, (user, tweet) in enumerate(pairs):
        if k in compactions:
            profiles._resolve(merge=True)
        profiles.add(user, tweet)
    return profiles


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(
        # Multiples of 1024 share their hash slots in a small set, so a
        # set's iteration order follows its insertion order, which
        # differs between the layouts: an unordered sum shows here.
        st.tuples(st.integers(0, 7), st.integers(0, 40).map(lambda k: k << 10)),
        min_size=20,
        max_size=120,
    ),
    compactions=st.sets(st.integers(1, 60), min_size=1, max_size=4),
)
def test_similarity_is_bit_identical_in_any_layout(pairs, compactions):
    pairs = pairs + [(user, pairs[0][1]) for user in range(8)]
    flat = laid_out(pairs, set())
    merged = laid_out(pairs, compactions)
    for u in range(8):
        assert similarities_from(flat, u) == similarities_from(merged, u)
        for v in range(8):
            assert similarity(flat, u, v) == similarity(merged, u, v)
    graph = FollowGraph()
    for u in range(8):
        for v in range(8):
            if u != v:
                graph.add_edge(u, v)
    builder = SimGraphBuilder(tau=0.0)
    old = builder.build(graph, flat)
    a = update_weights(old, graph, flat, builder).arrays()
    b = update_weights(old, graph, merged, builder).arrays()
    for left, right in zip(a, b):
        assert left.tobytes() == right.tobytes()
