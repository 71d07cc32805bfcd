"""Tests for repro.service.engine (the online service facade)."""

import pytest

from repro.core import CSRPropagationEngine
from repro.exceptions import ConfigError, DatasetError
from repro.service import RecommendationService, ServiceConfig
from repro.shard.replay import drive_service, ingest_graph
from repro.synth import SynthConfig, generate_dataset


def warm_service(**config_kwargs) -> RecommendationService:
    """A service with three co-retweeting users and one fresh tweet."""
    defaults = {"use_scheduler": False, "min_score": 1e-6}
    defaults.update(config_kwargs)
    service = RecommendationService(ServiceConfig(**defaults))
    for user in range(5):
        service.add_user(user)
    service.add_follow(0, 1)
    service.add_follow(1, 2)
    service.add_follow(2, 0)
    service.add_follow(1, 0)
    service.add_follow(2, 1)
    service.add_follow(0, 2)
    # Warm-up history: users 0-2 co-retweet two tweets (time-ordered).
    service.post_tweet(tweet_id=100, author=3, at=0.0)
    service.post_tweet(tweet_id=101, author=3, at=1.0)
    at = 10.0
    for tid in (100, 101):
        for user in (0, 1, 2):
            service.retweet(user=user, tweet=tid, at=at)
            at += 1.0
    service.rebuild("from scratch")
    service.post_tweet(tweet_id=200, author=3, at=500.0)
    return service


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"daily_budget": 0},
            {"rebuild_interval": 0.0},
            {"rebuild_strategy": "bogus"},
            {"tau": -1.0},
            {"min_score": 0.0},
            {"backend": "gpu"},
            {"build_workers": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ServiceConfig(**kwargs)

    def test_defaults_valid(self):
        ServiceConfig()


class TestIngestion:
    # Validation, delivery, budget, 72h and scheduler cases live in
    # tests/test_service_contract.py, which runs them over this service
    # and the sharded coordinator alike.
    def test_stats_counted(self):
        service = warm_service()
        before = service.stats.events_ingested
        service.retweet(user=0, tweet=200, at=600.0)
        assert service.stats.events_ingested == before + 1
        assert service.stats.propagations_run > 0


class TestVectorizedBackend:
    def test_vectorized_service_matches_reference(self):
        reference = warm_service()
        vectorized = warm_service(backend="vectorized")
        assert set(vectorized.simgraph.graph.edges()) == set(
            reference.simgraph.graph.edges()
        )
        ref_notes = reference.retweet(user=0, tweet=200, at=600.0)
        vec_notes = vectorized.retweet(user=0, tweet=200, at=600.0)
        assert {(n.user, n.tweet) for n in vec_notes} == {
            (n.user, n.tweet) for n in ref_notes
        }

    def test_build_workers_accepted(self):
        service = warm_service(backend="vectorized", build_workers=2)
        assert service.simgraph.edge_count > 0


class TestScoreBatch:
    def test_matches_single_direct_solve(self):
        from repro.core.linear import LinearSystem

        service = warm_service()
        service.retweet(user=0, tweet=200, at=600.0)
        batch = service.score_batch([200, 100])
        assert set(batch) == {200, 100}
        assert batch[200]  # users 1 and 2 gain mass from seed 0
        # The service iterates the thresholded frontier fixpoint, so it
        # tracks the exact solve up to the threshold truncation.
        single = LinearSystem(service.simgraph).solve_direct({0}).probabilities
        for user, p in batch[200].items():
            assert p == pytest.approx(single[user], abs=1e-3)
            assert p >= service.config.min_score

    def test_seeds_excluded(self):
        service = warm_service()
        batch = service.score_batch([100])
        # Users 0-2 retweeted tweet 100: they are seeds, never targets —
        # and they exhaust the SimGraph, so nothing remains.
        assert not {0, 1, 2} & set(batch[100])
        assert batch[100] == {}

    def test_unknown_tweet_rejected(self):
        service = warm_service()
        with pytest.raises(DatasetError):
            service.score_batch([100, 999])

    def test_empty_batch(self):
        service = warm_service()
        assert service.score_batch([]) == {}


class TestScoreBatchCompiled:
    """Every backend's batch path must agree with both ground truths."""

    TWEETS = [200, 100, 101]

    @staticmethod
    def ready(prop_backend: str) -> RecommendationService:
        service = warm_service(prop_backend=prop_backend)
        service.retweet(user=0, tweet=200, at=600.0)
        return service

    @pytest.mark.parametrize("prop_backend", ["csr", "auto"])
    def test_matches_reference_backend(self, prop_backend):
        compiled = self.ready(prop_backend)
        assert type(compiled._engine) is CSRPropagationEngine
        assert compiled.score_batch(self.TWEETS) == self.ready(
            "reference"
        ).score_batch(self.TWEETS)

    def test_backends_agree_on_300_users(self):
        # Large enough for the thresholded fixpoint to stop short of the
        # exact linear solve: a backend answering from the latter
        # returns different user sets here.
        dataset = generate_dataset(SynthConfig(n_users=300, seed=5))
        retweets = dataset.retweets()
        head = retweets[: len(retweets) // 2]
        tweets = list(dict.fromkeys(e.tweet for e in head))[-40:]

        def scored(prop_backend: str):
            service = RecommendationService(
                ServiceConfig(use_scheduler=False, prop_backend=prop_backend)
            )
            ingest_graph(service, dataset)
            drive_service(service, dataset, head)
            return service.score_batch(tweets)

        assert scored("reference") == scored("csr") == scored("auto")

    def test_matches_per_tweet_propagate(self):
        # The joint propagate_many kernel is bit-identical to dispatching
        # each tweet through a single engine.propagate call.
        service = self.ready("csr")
        batch = service.score_batch(self.TWEETS)
        for tweet in self.TWEETS:
            seeds = set(service._retweeters.get(tweet, set()))
            single = service._engine.propagate(
                seeds, popularity=len(seeds)
            ).probabilities
            expected = {
                user: p
                for user, p in single.items()
                if user not in seeds and p >= service.config.min_score
            }
            assert batch[tweet] == expected

    def test_pure_query_leaves_warm_state_alone(self):
        service = self.ready("csr")
        hits, misses = service.stats.warm_hits, service.stats.warm_misses
        service.score_batch(self.TWEETS)
        service.metrics_snapshot()
        assert (service.stats.warm_hits, service.stats.warm_misses) == (
            hits, misses
        )


class TestHealthGauges:
    """warm_hits / warm_misses / queue_depth mirror into the snapshot."""

    def test_gauges_mirror_stats(self):
        # The warm-up history already touched the cache (each retweet
        # probes it), so the gauges are non-trivial even on a "fresh"
        # fixture — what matters is that they exist and track stats.
        service = warm_service()
        gauges = service.metrics_snapshot()["gauges"]
        assert gauges["service.warm_hits"] == service.stats.warm_hits
        assert gauges["service.warm_misses"] == service.stats.warm_misses
        assert gauges["service.queue_depth"] == 0  # scheduler off

    def test_warm_cache_traffic_counted(self):
        service = warm_service()
        service.retweet(user=0, tweet=200, at=600.0)  # seeds the cache
        assert service.warm_answer(user=4, tweet=200, at=601.0) is not None
        assert service.warm_answer(user=4, tweet=101, at=602.0) is None
        gauges = service.metrics_snapshot()["gauges"]
        assert gauges["service.warm_hits"] == service.stats.warm_hits
        assert gauges["service.warm_misses"] == service.stats.warm_misses
        assert service.stats.warm_hits >= 1
        assert service.stats.warm_misses >= 1


def two_group_service() -> RecommendationService:
    """Two follow-disjoint communities: users 0-2 and users 5-7.

    User 8 follows the second group but starts with no retweet profile —
    the lever for a topology-changing delta later on.
    """
    service = RecommendationService(ServiceConfig(
        use_scheduler=False, min_score=1e-6,
    ))
    for group in ((0, 1, 2), (5, 6, 7)):
        for u in group:
            for v in group:
                if u != v:
                    service.add_follow(u, v)
    for target in (5, 6, 7):
        service.add_follow(8, target)
    service.post_tweet(tweet_id=100, author=9, at=0.0)
    service.post_tweet(tweet_id=101, author=9, at=1.0)
    service.post_tweet(tweet_id=300, author=9, at=2.0)
    service.post_tweet(tweet_id=301, author=9, at=3.0)
    at = 10.0
    for tid in (100, 101):
        for user in (0, 1, 2):
            service.retweet(user=user, tweet=tid, at=at)
            at += 1.0
    for tid in (300, 301):
        for user in (5, 6, 7):
            service.retweet(user=user, tweet=tid, at=at)
            at += 1.0
    service.rebuild("from scratch")
    service.post_tweet(tweet_id=200, author=9, at=50.0)
    service.post_tweet(tweet_id=201, author=9, at=51.0)
    return service


class TestScopedWarmInvalidation:
    def warmed(self):
        """Service with warm propagation state for tweets 200 and 201
        and *no* pending dirt (the warming retweets are consumed by a
        delta rebuild, then replayed as duplicates)."""
        service = two_group_service()
        service.retweet(user=0, tweet=200, at=60.0)
        service.retweet(user=5, tweet=201, at=61.0)
        service.rebuild("delta")
        service.retweet(user=0, tweet=200, at=70.0)
        service.retweet(user=5, tweet=201, at=71.0)
        assert not service.profiles.has_dirty
        assert set(service._warm.tweets()) >= {200, 201}
        return service

    def test_weights_only_delta_evicts_only_affected_group(self):
        service = self.warmed()
        # User 1 joins tweet 200: dirt confined to the first group.
        service.retweet(user=1, tweet=200, at=80.0)
        service.rebuild("delta")
        cached = set(service._warm.tweets())
        assert 200 not in cached
        assert 201 in cached
        counters = service.metrics_snapshot()["counters"]
        assert counters.get("maintenance.cache_invalidations", 0) >= 1

    def test_topology_changing_delta_flushes_everything(self):
        service = self.warmed()
        # User 8 gains its first profile overlap with group two: new
        # SimGraph edges appear, so every warm entry is dropped.
        service.retweet(user=8, tweet=300, at=80.0)
        service.rebuild("delta")
        assert service._warm.tweets() == ()

    def test_non_delta_rebuild_flushes_everything(self):
        service = self.warmed()
        service.rebuild("from scratch")
        assert service._warm.tweets() == ()

    def test_noop_delta_keeps_warm_state(self):
        service = self.warmed()
        before = service._warm.tweets()
        service.rebuild("delta")
        assert service._warm.tweets() == before


class TestMaintenance:
    def test_explicit_rebuild(self):
        service = warm_service()
        before = service.stats.rebuilds
        graph = service.rebuild("from scratch")
        assert service.stats.rebuilds == before + 1
        assert graph.edge_count > 0
        assert service.simgraph is graph

    def test_unknown_strategy_rejected(self):
        service = warm_service()
        with pytest.raises(ConfigError):
            service.rebuild("bogus")

    def test_periodic_rebuild_triggers(self):
        service = warm_service(rebuild_interval=100.0)
        before = service.stats.rebuilds
        service.retweet(user=0, tweet=200, at=5000.0)
        assert service.stats.rebuilds > before

    def test_crossfold_rebuild_runs_on_previous_graph(self):
        service = warm_service()
        service.rebuild("from scratch")
        refreshed = service.rebuild("crossfold")
        assert refreshed.node_count > 0
