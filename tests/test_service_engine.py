"""Tests for repro.service.engine (the online service facade)."""

import pytest

from repro.baselines.base import Recommendation
from repro.core import (
    CSRPropagationEngine,
    CSRWarmState,
    make_propagation_engine,
)
from repro.exceptions import ConfigError, DatasetError
from repro.service import RecommendationService, ServiceConfig
from repro.synth import SynthConfig, generate_dataset
from tests.service_replay import drive_service, ingest_graph
from tests.test_simgraph_oracle import oracle_build


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
            {"rebuild_strategy": "crossfold"},
            {"warm_cache_size": 0},
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
        """The service's build against the Def. 4.1 oracle loop: same
        edges, and a service that adopts the oracle's graph notifies the
        same users."""
        vectorized = warm_service()
        reference = warm_service()
        oracle = oracle_build(
            reference.follow_graph, reference.profiles, tau=reference.config.tau
        )
        reference._adopt(oracle)
        assert set(vectorized.simgraph.graph.edges()) == set(
            oracle.graph.edges()
        )
        ref_notes = reference.retweet(user=0, tweet=200, at=600.0)
        vec_notes = vectorized.retweet(user=0, tweet=200, at=600.0)
        assert {(n.user, n.tweet) for n in vec_notes} == {
            (n.user, n.tweet) for n in ref_notes
        }


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

    @pytest.mark.parametrize("prop_backend", ["csr"])
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

        assert scored("reference") == scored("csr")

    def test_matches_per_tweet_propagate(self):
        # The joint propagate_many kernel is bit-identical to dispatching
        # each tweet through a single engine.propagate call.
        service = self.ready("csr")
        batch = service.score_batch(self.TWEETS)
        for tweet in self.TWEETS:
            seeds = service.profiles.retweeters(tweet)
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


def two_group_service(**config_kwargs) -> RecommendationService:
    """Two follow-disjoint communities: users 0-2 and users 5-7.

    User 8 follows the second group but starts with no retweet profile —
    the lever for a topology-changing delta later on.
    """
    service = RecommendationService(ServiceConfig(
        use_scheduler=False, min_score=1e-6, **config_kwargs
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

    def test_kept_state_warm_starts_the_next_retweet(self):
        """A state the weights-only delta kept is moved onto the spliced
        arrays on ``csr`` (it used to be refused there as compiled
        against another graph): the next retweet of its tweet
        warm-starts from it and delivers what the reference engine's
        dict state gives."""

        def next_retweet(prop_backend: str) -> list[tuple]:
            service = two_group_service(prop_backend=prop_backend)
            service.retweet(user=0, tweet=200, at=60.0)
            service.retweet(user=5, tweet=201, at=61.0)
            service.rebuild("delta")
            service.retweet(user=0, tweet=200, at=70.0)
            service.retweet(user=5, tweet=201, at=71.0)
            service.retweet(user=1, tweet=200, at=80.0)
            service.rebuild("delta")
            assert 201 in service._warm.tweets()
            hits = service.stats.warm_hits
            delivered = service.retweet(user=6, tweet=201, at=90.0)
            assert service.stats.warm_hits == hits + 1
            return deliveries(delivered)

        assert next_retweet("csr") == next_retweet("reference")


class TestMaintenance:
    def test_explicit_rebuild(self):
        service = warm_service()
        before = service.stats.rebuilds
        graph = service.rebuild("from scratch")
        assert service.stats.rebuilds == before + 1
        assert graph.edge_count > 0
        assert service.simgraph is graph

    def test_unknown_strategy_rejected(self):
        """The service maintains by delta or from scratch; the other
        §6.3 strategies are offline comparisons (repro.core.update)."""
        service = warm_service()
        for name in ("bogus", "crossfold", "SimGraph updated", "old SimGraph"):
            with pytest.raises(ConfigError):
                service.rebuild(name)

    def test_periodic_rebuild_triggers(self):
        service = warm_service(rebuild_interval=100.0)
        before = service.stats.rebuilds
        service.retweet(user=0, tweet=200, at=5000.0)
        assert service.stats.rebuilds > before

    @pytest.mark.parametrize(
        "strategy", ["crossfold", "SimGraph updated", "old SimGraph"]
    )
    def test_report_less_rebuild_recompiles_the_csr(self, strategy):
        """A graph the service did not maintain itself — a §6.3
        strategy's, adopted the way Figure 16 hands one to the
        recommender — comes with no delta report and has one CSR
        refresh: compile it.  The compiled engine then delivers exactly
        what the reference loop delivers."""
        from repro.core.csr import CSRSimGraph
        from repro.core.update import STRATEGIES
        from tests.test_propagation_differential import assert_same_compiled

        dataset = generate_dataset(SynthConfig(n_users=300, seed=5))
        retweets = dataset.retweets()
        third = len(retweets) // 3

        def maintained(prop_backend: str) -> RecommendationService:
            service = RecommendationService(ServiceConfig(
                use_scheduler=False, prop_backend=prop_backend,
                rebuild_interval=1e12,
            ))
            ingest_graph(service, dataset)
            drive_service(service, dataset, retweets[:third])
            service.rebuild("from scratch")
            drive_service(service, dataset, retweets[third : 2 * third])
            return service

        def next_50(service) -> list[list[tuple]]:
            per_event: list[list[tuple]] = []
            drive_service(
                service, dataset, retweets[2 * third : 2 * third + 50],
                on_delivered=lambda _, recs: per_event.append(deliveries(recs)),
            )
            return per_event

        def adopt(service: RecommendationService) -> None:
            service._adopt(STRATEGIES[strategy](
                service.simgraph, service.follow_graph, service.profiles,
                service._builder,
            ))

        compiled = maintained("csr")
        before = compiled.metrics_snapshot()["counters"]
        adopt(compiled)
        after = compiled.metrics_snapshot()["counters"]
        assert compiled.simgraph.edge_count > 0
        assert_same_compiled(
            compiled._csr, CSRSimGraph.from_simgraph(compiled.simgraph)
        )
        assert (
            after["propagation.csr_compiled"]
            == before["propagation.csr_compiled"] + 1
        )
        assert after.get("propagation.csr_spliced", 0) == 0

        reference = maintained("reference")
        adopt(reference)
        delivered = next_50(compiled)
        assert any(delivered)
        assert delivered == next_50(reference)

    def test_delta_that_drops_a_node_splices_the_csr(self):
        """A delta that only moves rows splices them into the compiled
        CSR; so does one that leaves a node with no edge, which drops out
        of the graph while every later position shifts down — either way
        nothing is recompiled, and the compiled structure is what
        compiling the new graph gives."""
        from repro.core.csr import CSRSimGraph
        from tests.test_propagation_differential import assert_same_compiled

        service = RecommendationService(ServiceConfig(
            tau=0.5, prop_backend="csr", rebuild_strategy="delta",
            use_scheduler=False,
        ))
        for a, b in ((1, 2), (4, 5)):
            service.add_follow(a, b)
            service.add_follow(b, a)
        service.post_tweet(tweet_id=10, author=9, at=0.0)
        service.post_tweet(tweet_id=11, author=9, at=0.0)
        for at, (user, tweet) in enumerate(
            ((1, 10), (2, 10), (4, 11), (5, 11)), start=1
        ):
            service.retweet(user=user, tweet=tweet, at=float(at))
        service.rebuild("from scratch")
        assert set(service.simgraph.graph.nodes()) == {1, 2, 4, 5}

        def counters():
            return service.metrics_snapshot()["counters"]

        # One more retweeter of tweet 11: weights move, every node stays.
        service.retweet(user=6, tweet=11, at=10.0)
        service.rebuild("delta")
        assert counters()["propagation.csr_spliced"] == 1
        compiled = counters()["propagation.csr_compiled"]
        # Tweet 10 goes viral: sim(1, 2) = 1/log(1 + 8) < tau, both leave.
        for at, user in enumerate(range(20, 26), start=20):
            service.retweet(user=user, tweet=10, at=float(at))
        service.rebuild("delta")
        assert set(service.simgraph.graph.nodes()) == {4, 5}
        assert counters()["propagation.csr_spliced"] == 2
        assert counters()["propagation.csr_compiled"] == compiled
        assert_same_compiled(
            service._csr, CSRSimGraph.from_simgraph(service.simgraph)
        )


BOTH_PROP_BACKENDS = ("reference", "csr")


def deliveries(notifications) -> list[tuple]:
    return [(n.user, n.tweet, n.score, n.time) for n in notifications]


class TestCandidatesStayArrays:
    """Candidates travel as arrays from the engine to the budget; these
    pin the deliveries that travel could change, per ``prop_backend`` —
    each scenario must also deliver the same on both."""

    @staticmethod
    def on_both(scenario) -> list[tuple]:
        reference, csr = (scenario(name) for name in BOTH_PROP_BACKENDS)
        assert reference == csr
        return csr

    def test_off_graph_seed_and_carried_off_graph_entry(self):
        """Users 3 and 4 are not SimGraph nodes: seed 3 is never
        notified, the warm entry for 4 is carried and delivered."""
        states = {}

        def scenario(prop_backend):
            service = warm_service(prop_backend=prop_backend)
            service._warm.put(200, {4: 0.5}, created_at=500.0, now=550.0)
            out = deliveries(service.retweet(user=3, tweet=200, at=600.0))
            states[prop_backend] = service._warm.get(200)
            return out + deliveries(service.retweet(user=0, tweet=200, at=601.0))

        delivered = self.on_both(scenario)
        assert delivered[0] == (4, 200, 0.5, 600.0)
        assert [(u, t) for u, t, _, _ in delivered[1:]] == [(1, 200), (2, 200)]
        assert states["csr"].extra == {4: 0.5, 3: 1.0}
        assert len(states["csr"].indices) == 0
        assert states["reference"] == {4: 0.5, 3: 1.0}

    @pytest.mark.parametrize("bystander", [4, 6])
    def test_non_seed_at_exactly_one_is_still_a_candidate(self, bystander):
        """Seeds leave by identity, never by value: a carried warm
        entry at exactly 1.0 — off-graph (4) or a SimGraph node the
        propagation never reaches (6) — is notified."""

        def scenario(prop_backend):
            service = two_group_service(prop_backend=prop_backend)
            service._warm.put(200, {bystander: 1.0}, created_at=50.0, now=55.0)
            return deliveries(service.retweet(user=0, tweet=200, at=60.0))

        delivered = self.on_both(scenario)
        assert delivered[0] == (bystander, 200, 1.0, 60.0)
        assert {u for u, _, _, _ in delivered} == {bystander, 1, 2}

    @pytest.mark.parametrize(
        "daily_budget, expected, suppressed",
        [
            (1, [(2, 201), (1, 200)], 1),
            (30, [(2, 201), (1, 200), (2, 200)], 0),
        ],
    )
    def test_two_released_tasks_share_one_budget_in_score_order(
        self, daily_budget, expected, suppressed
    ):
        """One retweet releases the tasks of tweets 200 and 201.  User 2
        is a candidate for both and 201 scores higher, so with one slot
        it gets 201; users 1 and 2 tie on 200 and go lower id first."""

        def scenario(prop_backend):
            service = warm_service(
                prop_backend=prop_backend, use_scheduler=True,
                daily_budget=daily_budget,
            )
            service.post_tweet(tweet_id=201, author=3, at=501.0)
            service.post_tweet(tweet_id=202, author=3, at=502.0)
            assert service.retweet(user=0, tweet=200, at=600.0) == []
            assert service.retweet(user=0, tweet=201, at=601.0) == []
            assert service.retweet(user=1, tweet=201, at=602.0) == []
            before = service.stats.propagations_run
            out = service.retweet(user=3, tweet=202, at=20600.0)
            assert service.stats.propagations_run == before + 2
            assert service.stats.notifications_suppressed == suppressed
            counters = service.metrics_snapshot(deterministic=True)["counters"]
            assert counters["budget.delivered"] == len(expected)
            assert counters["budget.rejections"] == 3 - len(expected)
            return deliveries(out)

        delivered = self.on_both(scenario)
        assert [(u, t) for u, t, _, _ in delivered] == expected
        scores = {(u, t): s for u, t, s, _ in delivered}
        assert scores[(2, 201)] > scores[(1, 200)]
        if (2, 200) in scores:
            assert scores[(2, 200)] == scores[(1, 200)]

    def test_own_user_known_at_deliver_time_is_not_notified(self):
        """Scheduler path: user 1's retweet releases tweet 200's task
        (seeds {0}, so 1 is a candidate) and is absorbed before the
        budget runs — 1 already shares the tweet and is skipped, which
        is a rejection but not a budget suppression."""

        def scenario(prop_backend):
            service = warm_service(prop_backend=prop_backend, use_scheduler=True)
            assert service.retweet(user=0, tweet=200, at=600.0) == []
            out = service.retweet(user=1, tweet=200, at=20600.0)
            assert service.stats.notifications_suppressed == 0
            counters = service.metrics_snapshot(deterministic=True)["counters"]
            assert counters["budget.delivered"] == 1
            assert counters["budget.rejections"] == 1
            return deliveries(out)

        assert [(u, t) for u, t, _, _ in self.on_both(scenario)] == [(2, 200)]

    @pytest.mark.parametrize("prop_backend", BOTH_PROP_BACKENDS)
    def test_budget_counters_account_for_every_candidate(self, prop_backend):
        """delivered + rejections is the candidate count the scorer
        returned; only budget-exhausted ones count as suppressed."""
        service = warm_service(prop_backend=prop_backend, daily_budget=1)
        candidates = 0
        score_tasks = service._score_tasks

        def counting(tasks):
            nonlocal candidates
            scored = score_tasks(tasks)
            candidates += sum(len(c.users) for c in scored)
            return scored

        service._score_tasks = counting
        service.post_tweet(tweet_id=201, author=3, at=501.0)
        service.retweet(user=0, tweet=200, at=600.0)   # 1, 2 delivered
        service.retweet(user=0, tweet=201, at=601.0)   # 1, 2 out of budget
        service.retweet(user=1, tweet=200, at=602.0)   # 2 already notified
        counters = service.metrics_snapshot(deterministic=True)["counters"]
        assert candidates == 5
        assert counters["budget.delivered"] == 2
        assert counters["budget.delivered"] + counters["budget.rejections"] == 5
        assert service.stats.notifications_suppressed == 2

    @pytest.mark.parametrize("prop_backend", BOTH_PROP_BACKENDS)
    def test_recommendations_are_built_only_for_deliveries(
        self, prop_backend, monkeypatch
    ):
        import repro.service.engine as engine_module

        built = []

        def counting(**fields):
            built.append(fields)
            return Recommendation(**fields)

        dataset = generate_dataset(SynthConfig(n_users=120, seed=5))
        service = RecommendationService(ServiceConfig(
            use_scheduler=False, prop_backend=prop_backend, daily_budget=2,
        ))
        ingest_graph(service, dataset)
        monkeypatch.setattr(engine_module, "Recommendation", counting)
        delivered = drive_service(service, dataset, dataset.retweets()[:600])
        counters = service.metrics_snapshot(deterministic=True)["counters"]
        assert len(delivered) == service.stats.notifications_delivered > 0
        assert counters["budget.rejections"] > 0
        assert len(built) == len(delivered)

    def test_csr_result_equals_reference_and_decodes_lazily(self, monkeypatch):
        graph = warm_service().simgraph
        reference, csr = (
            make_propagation_engine(graph, prop_backend=name)
            for name in BOTH_PROP_BACKENDS
        )
        seeds, warm = {0, 3}, {4: 0.25, 1: 0.5}
        a = reference.propagate_many([seeds, {1}], initials=[warm, None])
        b = csr.propagate_many([seeds, {1}], initials=[warm, None])
        assert a == b and b == a
        assert b[0].probabilities == a[0].probabilities
        assert set(b[0].probabilities) == {0, 1, 2, 3, 4}
        assert b[0].probabilities is b[0].probabilities
        assert b[0] != csr.propagate({0})

        # The service never decodes the map: not on ingestion, not on
        # the warm-cache reads, not on batch scoring.
        def refuse(self):
            raise AssertionError("probability map built on the service path")

        monkeypatch.setattr(CSRWarmState, "probabilities", refuse)
        service = warm_service(prop_backend="csr")
        assert service.retweet(user=0, tweet=200, at=600.0)
        assert service.warm_answer(user=3, tweet=200, at=601.0)
        assert service.warm_scores([200])[200]
        assert service.score_batch([200])[200]
