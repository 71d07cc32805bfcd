"""Bounded per-tweet warm-state cache for incremental re-propagation.

Every time a tweet gains retweets, Algorithm 1 re-runs from the enlarged
seed set; warm-starting from the previous fixpoint (``initial=``) makes
that re-run touch only the newly pinned seeds' neighbourhoods.  The
recommender and the online service previously kept those fixpoints in an
unbounded dict — on a heavy stream that grows without limit, and state
for tweets past the relevance horizon is dead weight.

:class:`WarmStateCache` bounds the memory two ways:

* **LRU capacity** — at most ``capacity`` tweets retain warm state; the
  least recently propagated tweet is evicted first (a cold start from
  the seed set alone is always correct, just more work);
* **the 72-hour rule** (paper §3.1.2) — a tweet older than ``max_age``
  seconds is never propagated again, so its state is evicted as soon as
  the clock passes ``created_at + max_age`` (checked on access and swept
  opportunistically on insert).

The stored state is opaque to the cache: the reference engine caches the
fixpoint probability dict, the CSR engine caches its compiled
:class:`~repro.core.propagation_csr.CSRWarmState` arrays so a warm
re-propagation never rebuilds a Python dict.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Iterable

from repro.obs import NULL, MetricsRegistry

__all__ = ["WarmStateCache", "DEFAULT_CAPACITY"]

#: Default LRU bound: enough for every tweet alive inside a 72h horizon
#: on the corpora this repo replays, small enough to stay O(MBs).
DEFAULT_CAPACITY = 4096

#: Expired-entry sweeps run once per this many puts (amortized O(1)).
SWEEP_INTERVAL = 256


class WarmStateCache:
    """LRU of per-tweet warm propagation state with age-based eviction.

    Parameters
    ----------
    capacity:
        Maximum number of tweets with retained state (must be >= 1).
    max_age:
        Relevance horizon in seconds (the paper's 72 hours); ``None``
        disables age eviction and leaves only the LRU bound.
    metrics:
        Observability registry (default: no-op).  Records hit/miss
        counters, eviction counters split by cause (``lru`` /
        ``expired`` / ``invalidated``) and a current-size gauge.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        max_age: float | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        if max_age is not None and max_age <= 0:
            raise ValueError(f"max_age must be positive, got {max_age}")
        self.capacity = capacity
        self.max_age = max_age
        self.metrics = metrics if metrics is not None else NULL
        #: Lifetime hit/miss totals, mirrored as ``warmcache.hits`` /
        #: ``warmcache.misses`` counters — kept as plain attributes too so
        #: :class:`~repro.service.engine.ServiceStats` can read them even
        #: when several components share one registry.
        self.hits = 0
        self.misses = 0
        #: tweet id -> (created_at | None, state)
        self._entries: OrderedDict[int, tuple[float | None, Any]] = (
            OrderedDict()
        )
        self._puts = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, tweet: int) -> bool:
        return tweet in self._entries

    def _expired(self, created_at: float | None, now: float | None) -> bool:
        return (
            self.max_age is not None
            and created_at is not None
            and now is not None
            and now - created_at > self.max_age
        )

    def get(self, tweet: int, now: float | None = None) -> Any | None:
        """Warm state for ``tweet``, or None on miss.

        A hit refreshes the entry's LRU position.  When ``now`` is given
        and the tweet's stored ``created_at`` is past the horizon, the
        entry is evicted and the lookup misses — the caller is about to
        skip the propagation anyway (the 72h rule).
        """
        entry = self._entries.get(tweet)
        if entry is None:
            self.misses += 1
            self.metrics.counter("warmcache.misses").inc()
            return None
        created_at, state = entry
        if self._expired(created_at, now):
            del self._entries[tweet]
            self.misses += 1
            self.metrics.counter("warmcache.evictions[expired]").inc()
            self.metrics.counter("warmcache.misses").inc()
            self.metrics.gauge("warmcache.size").set(len(self._entries))
            return None
        self._entries.move_to_end(tweet)
        self.hits += 1
        self.metrics.counter("warmcache.hits").inc()
        return state

    def put(
        self,
        tweet: int,
        state: Any,
        created_at: float | None = None,
        now: float | None = None,
    ) -> None:
        """Store ``state`` for ``tweet`` (most-recently-used position).

        ``created_at`` is the tweet's creation time for the 72h rule
        (``None`` = never age-evicted).  Passing ``now`` additionally
        sweeps already-expired entries every ``SWEEP_INTERVAL`` puts —
        opportunistic cleanup, amortized O(1), that keeps a quiet cache
        from holding a dead horizon's state.
        """
        if self._expired(created_at, now):
            self.pop(tweet)
            return
        self._entries[tweet] = (created_at, state)
        self._entries.move_to_end(tweet)
        self._puts += 1
        if now is not None and self._puts % SWEEP_INTERVAL == 0:
            self.sweep(now)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.metrics.counter("warmcache.evictions[lru]").inc()
        self.metrics.gauge("warmcache.size").set(len(self._entries))

    def pop(self, tweet: int) -> bool:
        """Drop ``tweet``'s state (e.g. its propagation was age-skipped).

        Returns True when an entry was actually evicted.
        """
        if self._entries.pop(tweet, None) is not None:
            self.metrics.counter("warmcache.evictions[invalidated]").inc()
            self.metrics.gauge("warmcache.size").set(len(self._entries))
            return True
        return False

    def tweets(self) -> tuple[int, ...]:
        """Cached tweet ids, least-recently-used first (a snapshot)."""
        return tuple(self._entries)

    def invalidate_tweets(self, tweets: Iterable[int]) -> int:
        """Drop the named tweets' state; returns the count evicted.

        The delta maintenance path calls this with the tweets whose
        cached fixpoints involve affected users — a scoped alternative
        to :meth:`clear` when a rebuild only re-weighed part of the
        graph.  Unknown tweets are ignored.
        """
        dropped = 0
        for tweet in tweets:
            if self._entries.pop(tweet, None) is not None:
                dropped += 1
        if dropped:
            self.metrics.counter("warmcache.evictions[invalidated]").inc(
                dropped
            )
            self.metrics.gauge("warmcache.size").set(len(self._entries))
        return dropped

    def restate(self, convert) -> None:
        """Replace every state by ``convert(state)``; recency order and
        counters are untouched."""
        for tweet, (created_at, state) in list(self._entries.items()):
            self._entries[tweet] = (created_at, convert(state))

    def sweep(self, now: float) -> int:
        """Evict every entry past the horizon; returns the count evicted."""
        if self.max_age is None:
            return 0
        expired = [
            tweet
            for tweet, (created_at, _) in self._entries.items()
            if created_at is not None and now - created_at > self.max_age
        ]
        for tweet in expired:
            del self._entries[tweet]
        if expired:
            self.metrics.counter("warmcache.evictions[expired]").inc(
                len(expired)
            )
            self.metrics.gauge("warmcache.size").set(len(self._entries))
        return len(expired)

    def clear(self) -> None:
        """Drop all state (SimGraph rebuilt: compiled indices changed)."""
        if self._entries:
            self.metrics.counter("warmcache.evictions[invalidated]").inc(
                len(self._entries)
            )
        self._entries.clear()
        self.metrics.gauge("warmcache.size").set(0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WarmStateCache(size={len(self._entries)}, "
            f"capacity={self.capacity}, max_age={self.max_age})"
        )
