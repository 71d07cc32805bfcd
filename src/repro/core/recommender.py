"""The end-to-end SimGraph recommender.

Glues the pieces of §4-§5 together behind the common
:class:`~repro.baselines.base.Recommender` interface:

* **fit** builds retweet profiles from the train split and constructs the
  SimGraph by 2-hop exploration of the follow graph (a pre-built SimGraph
  can be injected instead — that is how the §6.3 update strategies are
  evaluated);
* **on_event** buffers the retweet in the postponed scheduler (§5.4); when
  a tweet's batch becomes due, Algorithm 1 propagates from its current
  retweeters and every positive non-seed probability becomes a
  recommendation — every batch released together is scored by **one**
  engine invocation;
* tweets older than the relevance horizon (72 hours, §3.1.2) are never
  propagated again; per-tweet warm state for the incremental path lives
  in a bounded :class:`~repro.core.warmcache.WarmStateCache` (LRU +
  horizon eviction) instead of an unbounded dict.
"""

from __future__ import annotations

from repro.baselines.base import Recommendation, Recommender
from repro.core.profiles import RetweetProfiles
from repro.core.propagation_csr import (
    PROP_BACKENDS,
    make_propagation_engine,
    nonseed_candidates,
)
from repro.core.scheduler import DelayPolicy, PostponedScheduler, PropagationTask
from repro.core.simgraph import BACKENDS, DEFAULT_TAU, SimGraph, SimGraphBuilder
from repro.core.thresholds import DynamicThreshold, ThresholdPolicy
from repro.core.warmcache import DEFAULT_CAPACITY, WarmStateCache
from repro.data.dataset import TwitterDataset
from repro.data.models import Retweet
from repro.obs import NULL, MetricsRegistry

__all__ = ["SimGraphRecommender"]

HOUR = 3600.0


class SimGraphRecommender(Recommender):
    """Homophily-based propagation recommender (the paper's contribution).

    Parameters
    ----------
    tau:
        Similarity threshold of the SimGraph construction (Def. 4.1).
    threshold:
        Propagation-threshold policy; defaults to the dynamic γ(t).
    delay_policy:
        Postponement policy (§5.4); ``None`` (default) propagates on
        every retweet — Algorithm 1's trigger — which stays cheap thanks
        to warm-started incremental propagation.  Pass a
        :class:`DelayPolicy` to batch retweets per tweet instead.
    max_tweet_age:
        Relevance horizon in seconds; propagation is skipped for older
        tweets (the paper's 72-hour rule) and their warm state evicted.
    min_score:
        Probabilities below this floor are not emitted as recommendations.
    simgraph:
        Inject a pre-built similarity graph (skips construction in
        :meth:`fit`) — used by the incremental-update experiments.
    backend:
        SimGraph build backend: ``"reference"`` (pure-Python loop) or
        ``"vectorized"`` (sparse matmul; identical edges, faster builds).
    prop_backend:
        Propagation backend: ``"csr"`` (default; compiled numpy CSR
        arrays) or ``"reference"`` (the pure-Python frontier loop, the
        readable Alg. 1 oracle).  Both engines produce identical
        results — see :mod:`repro.core.propagation_csr`.
    warm_cache_size:
        LRU bound of the per-tweet warm-state cache (incremental
        re-propagation reuses the previous fixpoint; an evicted tweet
        simply cold-starts).
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` shared with the
        builder, propagation engine, warm cache and scheduler; ``None``
        (default) keeps instrumentation free via the no-op registry.
    """

    name = "SimGraph"

    def __init__(
        self,
        tau: float = DEFAULT_TAU,
        threshold: ThresholdPolicy | None = None,
        delay_policy: DelayPolicy | None = None,
        max_tweet_age: float = 72 * HOUR,
        min_score: float = 1e-6,
        simgraph: SimGraph | None = None,
        backend: str = "reference",
        prop_backend: str = "csr",
        warm_cache_size: int = DEFAULT_CAPACITY,
        metrics: MetricsRegistry | None = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; available: {', '.join(BACKENDS)}"
            )
        if prop_backend not in PROP_BACKENDS:
            raise ValueError(
                f"unknown propagation backend {prop_backend!r}; "
                f"available: {', '.join(PROP_BACKENDS)}"
            )
        self.tau = tau
        self.backend = backend
        self.prop_backend = prop_backend
        self.warm_cache_size = warm_cache_size
        self.metrics = metrics if metrics is not None else NULL
        self.threshold = threshold if threshold is not None else DynamicThreshold()
        self.delay_policy = delay_policy
        self.max_tweet_age = max_tweet_age
        self.min_score = min_score
        self.simgraph = simgraph
        self._engine = None
        self._scheduler: PostponedScheduler | None = None
        self._profiles = RetweetProfiles()
        self._retweeters: dict[int, set[int]] = {}
        self._dataset: TwitterDataset | None = None
        self._targets: set[int] | None = None
        #: Per-tweet propagation fixpoints for incremental warm starts,
        #: bounded by LRU capacity and the relevance horizon.
        self._warm = WarmStateCache(
            capacity=warm_cache_size,
            max_age=max_tweet_age,
            metrics=self.metrics,
        )

    # ------------------------------------------------------------------
    # Recommender interface
    # ------------------------------------------------------------------
    def fit(
        self,
        dataset: TwitterDataset,
        train: list[Retweet],
        target_users: set[int] | None = None,
    ) -> None:
        self._dataset = dataset
        self._targets = target_users
        self._profiles = RetweetProfiles(train)
        if self.simgraph is None:
            builder = SimGraphBuilder(
                tau=self.tau,
                backend=self.backend,
                metrics=self.metrics,
            )
            self.simgraph = builder.build(dataset.follow_graph, self._profiles)
        self._engine = make_propagation_engine(
            self.simgraph,
            prop_backend=self.prop_backend,
            threshold=self.threshold,
            metrics=self.metrics,
        )
        self._scheduler = (
            PostponedScheduler(self.delay_policy, metrics=self.metrics)
            if self.delay_policy
            else None
        )
        self._retweeters = {}
        for retweet in train:
            self._retweeters.setdefault(retweet.tweet, set()).add(retweet.user)
        self._warm.clear()

    def on_event(self, event: Retweet) -> list[Recommendation]:
        self._check_fitted()
        if self._scheduler is not None:
            recommendations = self._run_tasks(self._scheduler.offer(event))
            self._absorb(event)
            return recommendations
        task = PropagationTask(
            tweet=event.tweet, users=(event.user,), due_time=event.time
        )
        # Register the event before propagating so the seed set is
        # current (immediate mode has no batching window).
        self._absorb(event)
        return self._run_tasks([task])

    def finalize(self, end_time: float) -> list[Recommendation]:
        self._check_fitted()
        if self._scheduler is None:
            return []
        return self._run_tasks(self._scheduler.flush(now=end_time))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _absorb(self, event: Retweet) -> None:
        self._retweeters.setdefault(event.tweet, set()).add(event.user)

    def _run_tasks(
        self, tasks: list[PropagationTask]
    ) -> list[Recommendation]:
        """Score every released task in one batched engine invocation."""
        assert self._engine is not None and self._dataset is not None
        runnable: list[tuple[PropagationTask, float | None, set[int]]] = []
        for task in tasks:
            tweet = self._dataset.tweets.get(task.tweet)
            created_at = tweet.created_at if tweet is not None else None
            if created_at is not None and self.max_tweet_age is not None:
                if task.due_time - created_at > self.max_tweet_age:
                    self._warm.pop(task.tweet)
                    continue
            seeds = set(self._retweeters.get(task.tweet, set()))
            seeds.update(task.users)
            self._retweeters[task.tweet] = seeds
            runnable.append((task, created_at, seeds))
        if not runnable:
            return []
        self._engine.propagate_many(
            [seeds for _, _, seeds in runnable],
            popularities=[len(seeds) for _, _, seeds in runnable],
            initials=[
                self._warm.get(task.tweet, now=task.due_time)
                for task, _, _ in runnable
            ],
        )
        recommendations: list[Recommendation] = []
        for (task, created_at, seeds), state in zip(
            runnable, self._engine.take_states()
        ):
            self._warm.put(
                task.tweet, state, created_at=created_at, now=task.due_time
            )
            # By-user order makes the emission stream backend-independent
            # (the engines' own membership orders differ).
            users, scores = nonseed_candidates(state, seeds, self.min_score)
            for user, score in zip(users.tolist(), scores.tolist()):
                if self._targets is not None and user not in self._targets:
                    continue
                recommendations.append(
                    Recommendation(
                        user=user, tweet=task.tweet, score=score,
                        time=task.due_time,
                    )
                )
        return recommendations

    def _check_fitted(self) -> None:
        if self._engine is None:
            raise RuntimeError("fit() must be called before processing events")
