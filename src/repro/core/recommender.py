"""The end-to-end SimGraph recommender: a thin adapter over
:class:`~repro.service.RecommendationService`, so the figures measure the
loop the service runs, minus its online budget and known-pair dedup."""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Recommendation, Recommender
from repro.core.propagation_csr import PROP_BACKENDS
from repro.core.scheduler import DelayPolicy
from repro.core.simgraph import DEFAULT_TAU, SimGraph
from repro.core.thresholds import ThresholdPolicy
from repro.core.warmcache import DEFAULT_CAPACITY
from repro.data.dataset import TwitterDataset
from repro.data.models import Retweet
from repro.obs import NULL, MetricsRegistry
# A module reference, not its names: repro.service imports repro.core.
from repro.service import engine as service_engine

__all__ = ["SimGraphRecommender"]


class SimGraphRecommender(Recommender):
    """Homophily-based propagation recommender (the paper's contribution).

    :class:`~repro.service.ServiceConfig` validates the arguments;
    ``delay_policy=None`` propagates on every retweet (Algorithm 1), a
    :class:`DelayPolicy` batches per tweet (§5.4); ``simgraph`` injects a
    pre-built graph (the §6.3 update strategies); ``metrics`` defaults to
    the no-op registry.
    """

    name = "SimGraph"

    def __init__(
        self, tau: float = DEFAULT_TAU, threshold: ThresholdPolicy | None = None,
        delay_policy: DelayPolicy | None = None,
        max_tweet_age: float = 72 * 3600.0, min_score: float = 1e-6,
        simgraph: SimGraph | None = None, prop_backend: str = "csr",
        warm_cache_size: int = DEFAULT_CAPACITY,
        metrics: MetricsRegistry | None = None,
    ):
        if prop_backend not in PROP_BACKENDS:
            raise ValueError(
                f"unknown propagation backend {prop_backend!r}; "
                f"available: {', '.join(PROP_BACKENDS)}"
            )
        self.config = service_engine.ServiceConfig(
            tau=tau, min_score=min_score, max_tweet_age=max_tweet_age,
            rebuild_interval=float("inf"), use_scheduler=delay_policy is not None,
            prop_backend=prop_backend, warm_cache_size=warm_cache_size,
        )
        self.prop_backend = prop_backend
        metrics = NULL if metrics is None else metrics
        self._service_args = (threshold, delay_policy, metrics)
        self.simgraph = simgraph
        self._service: service_engine.RecommendationService | None = None

    def fit(self, dataset: TwitterDataset, train: list[Retweet],
            target_users: set[int] | None = None) -> None:
        service = service_engine.RecommendationService(self.config, *self._service_args)
        service.follow_graph = dataset.follow_graph.copy()
        service.tweets = dict(dataset.tweets.items())
        for retweet in train:
            service.absorb_retweet(retweet.user, retweet.tweet)
        if self.simgraph is None:
            self.simgraph = service.rebuild("from scratch")
        else:
            service._adopt(self.simgraph)
        self._service = service
        self._targets = (
            None if target_users is None else np.fromiter(target_users, np.int64)
        )

    def on_event(self, event: Retweet) -> list[Recommendation]:
        return self._emit(self._fitted()._ingest(event.user, event.tweet, event.time))

    def finalize(self, end_time: float) -> list[Recommendation]:
        service = self._fitted()
        return self._emit(service._drain(end_time)) if self.config.use_scheduler else []

    def _emit(self, released: list[service_engine.Candidates]) -> list[Recommendation]:
        """Each task's candidates for target users, in ascending-user order."""
        recommendations = []
        for tweet, when, users, scores in released:
            if self._targets is not None:
                keep = np.isin(users, self._targets)
                users, scores = users[keep], scores[keep]
            recommendations += [
                Recommendation(user=user, tweet=tweet, score=score, time=when)
                for user, score in zip(users.tolist(), scores.tolist())
            ]
        return recommendations

    def _fitted(self) -> service_engine.RecommendationService:
        if self._service is None:
            raise RuntimeError("fit() must be called before processing events")
        return self._service
