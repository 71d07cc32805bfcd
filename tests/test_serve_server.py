"""Tests for repro.serve: admission ladder, batching server."""

import asyncio
import gc
import json
import math
import sys
import threading
import time

import pytest

from repro.baselines.base import Recommendation
from repro.exceptions import ConfigError, DatasetError
from repro.obs import MetricsRegistry
from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    AsyncRecommendationServer,
    PostRequest,
    RetweetRequest,
    ScoreRequest,
    ServeConfig,
    ServeResponse,
    TokenBucket,
    serve_stream,
)
from repro.eval import CapacityModel
from repro.service import RecommendationService, ServiceConfig


def warm_service(**config_kwargs) -> RecommendationService:
    """Five users, two historical tweets, one live tweet (id 200)."""
    defaults = {"use_scheduler": False, "min_score": 1e-6}
    defaults.update(config_kwargs)
    service = RecommendationService(ServiceConfig(**defaults))
    for user in range(5):
        service.add_user(user)
    for a, b in [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)]:
        service.add_follow(a, b)
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


class TestTokenBucket:
    def test_disabled_always_admits(self):
        bucket = TokenBucket(rate=None)
        assert all(bucket.try_take(float(t)) for t in range(100))

    def test_burst_then_dry(self):
        bucket = TokenBucket(rate=1.0, burst=3)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=2.0, burst=1)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.1)
        # 0.5s at 2 tokens/sec refills the single-token burst.
        assert bucket.try_take(0.6)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2)
        assert bucket.try_take(0.0)
        assert bucket.try_take(1000.0)
        assert bucket.try_take(1000.0)
        assert not bucket.try_take(1000.0)

    def test_backwards_time_refills_nothing(self):
        bucket = TokenBucket(rate=1000.0, burst=1)
        assert bucket.try_take(10.0)
        assert not bucket.try_take(5.0)

    @pytest.mark.parametrize("kwargs", [
        {"rate": 0.0}, {"rate": -1.0}, {"rate": 10.0, "burst": 0.5},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TokenBucket(**kwargs)


class TestAdmissionController:
    def test_ladder_rungs(self):
        controller = AdmissionController(
            AdmissionConfig(rate=None, shed_depth=10, degrade_depth=5)
        )
        assert controller.admit(0.0, queue_depth=0) == "full"
        assert controller.admit(0.0, queue_depth=4) == "full"
        assert controller.admit(0.0, queue_depth=5) == "degraded"
        assert controller.admit(0.0, queue_depth=10) == "shed"

    def test_dry_bucket_degrades(self):
        controller = AdmissionController(
            AdmissionConfig(rate=1.0, burst=1.0, shed_depth=100)
        )
        assert controller.admit(0.0, queue_depth=0) == "full"
        assert controller.admit(0.0, queue_depth=0) == "degraded"

    def test_default_degrade_depth_is_half_shed(self):
        assert AdmissionConfig(shed_depth=100).resolved_degrade_depth == 50
        assert AdmissionConfig(shed_depth=1).resolved_degrade_depth == 1

    def test_decisions_counted(self):
        metrics = MetricsRegistry()
        controller = AdmissionController(
            AdmissionConfig(rate=None, shed_depth=2, degrade_depth=1),
            metrics=metrics,
        )
        for depth in (0, 1, 2):
            controller.admit(0.0, queue_depth=depth)
        counters = metrics.snapshot()["counters"]
        for rung in ("full", "degraded", "shed"):
            assert counters[f"serve.admission[{rung}]"] == 1

    def test_from_capacity_calibration(self):
        model = CapacityModel(
            service_seconds_per_event=0.01, utilization=0.5
        )
        controller = AdmissionController.from_capacity(model, slo_seconds=0.5)
        assert controller.bucket.rate == pytest.approx(50.0)
        assert controller.config.degrade_depth == 50
        assert controller.config.shed_depth == 100

    @pytest.mark.parametrize("kwargs", [
        {"shed_depth": 0},
        {"shed_depth": 10, "degrade_depth": 0},
        {"shed_depth": 10, "degrade_depth": 11},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionConfig(**kwargs)


class TestServeConfig:
    @pytest.mark.parametrize("kwargs", [
        {"max_batch": 0},
        {"slo_p99": 0.0},
        {"shed_depth": 0},
        {"degrade_depth": 99, "shed_depth": 10},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises((ConfigError, ValueError)):
            ServeConfig(**kwargs)

    def test_from_capacity(self):
        model = CapacityModel(service_seconds_per_event=0.001)
        config = ServeConfig.from_capacity(
            model, slo_p99=0.1, max_batch=8
        )
        assert config.rate == pytest.approx(model.events_per_second)
        assert config.admission().resolved_degrade_depth == 100
        assert config.shed_depth == 200
        assert config.max_batch == 8


class TestServeStream:
    def test_retweets_match_direct_calls(self):
        direct = warm_service()
        expected = [
            direct.retweet(user=user, tweet=200, at=at)
            for user, at in [(0, 600.0), (1, 601.0), (2, 602.0)]
        ]
        served = warm_service()
        responses = serve_stream(
            served,
            [
                RetweetRequest(user=0, tweet=200, at=600.0),
                RetweetRequest(user=1, tweet=200, at=601.0),
                RetweetRequest(user=2, tweet=200, at=602.0),
            ],
        )
        assert [r.status for r in responses] == ["ok"] * 3
        assert [r.served_from for r in responses] == ["propagation"] * 3
        assert [r.notifications for r in responses] == expected

    def test_batches_coalesce(self):
        service = warm_service()
        metrics = MetricsRegistry()
        requests = [
            RetweetRequest(user=i % 3, tweet=200, at=600.0 + i)
            for i in range(20)
        ]
        serve_stream(
            service, requests, ServeConfig(max_batch=8),
            metrics,
        )
        snapshot = metrics.snapshot()
        # 20 requests, all enqueued up front, max_batch 8 -> 3 batches.
        assert snapshot["counters"]["serve.batches"] == 3
        assert snapshot["histograms"]["serve.batch_size"]["max"] == 8

    def test_per_request_dispatch(self):
        service = warm_service()
        metrics = MetricsRegistry()
        requests = [
            RetweetRequest(user=i % 3, tweet=200, at=600.0 + i)
            for i in range(5)
        ]
        serve_stream(service, requests, ServeConfig(max_batch=1), metrics)
        assert metrics.snapshot()["counters"]["serve.batches"] == 5

    def test_posts_interleave_with_retweets(self):
        service = warm_service()
        responses = serve_stream(
            service,
            [
                PostRequest(tweet=300, author=4, at=600.0),
                RetweetRequest(user=0, tweet=300, at=601.0),
                RetweetRequest(user=1, tweet=300, at=602.0),
            ],
        )
        assert [r.status for r in responses] == ["ok"] * 3
        assert 300 in service.tweets

    def test_score_requests_match_score_batch(self):
        direct = warm_service()
        direct.retweet(user=0, tweet=200, at=600.0)
        expected = direct.score_batch([200, 100])

        served = warm_service()
        served.retweet(user=0, tweet=200, at=600.0)
        responses = serve_stream(
            served,
            [ScoreRequest(tweets=(200, 100)), ScoreRequest(tweets=(200,))],
        )
        assert responses[0].scores == expected
        assert responses[1].scores == {200: expected[200]}

    def test_unknown_tweet_refused_at_admission(self):
        service = warm_service()
        results = serve_stream(
            service,
            [RetweetRequest(user=0, tweet=999, at=600.0)],
            return_exceptions=True,
        )
        assert isinstance(results[0], DatasetError)
        assert service.stats.events_ingested == 6  # history only

    def test_stale_event_fails_alone_in_its_batch(self):
        service = warm_service()
        results = serve_stream(
            service,
            [
                RetweetRequest(user=0, tweet=200, at=600.0),
                RetweetRequest(user=1, tweet=200, at=601.0),
                RetweetRequest(user=2, tweet=200, at=10.0),  # runs backwards
                RetweetRequest(user=2, tweet=200, at=602.0),
            ],
            ServeConfig(max_batch=8),
            return_exceptions=True,
        )
        assert [getattr(r, "status", None) for r in results] == [
            "ok", "ok", None, "ok",
        ]
        assert isinstance(results[2], DatasetError)
        assert results[0].notifications  # the good requests were scored
        assert service.stats.events_ingested == 6 + 3

    def test_unknown_request_type_rejected(self):
        service = warm_service()
        results = serve_stream(
            service, ["not a request"], return_exceptions=True
        )
        assert isinstance(results[0], ConfigError)

    def test_shed_responses_touch_nothing(self):
        service = warm_service()
        metrics = MetricsRegistry()
        requests = [
            RetweetRequest(user=i % 3, tweet=200, at=600.0 + i)
            for i in range(6)
        ]
        responses = serve_stream(
            service,
            requests,
            ServeConfig(shed_depth=2, degrade_depth=2),
            metrics,
        )
        statuses = [r.status for r in responses]
        assert statuses.count("shed") == 4
        assert statuses.count("ok") == 2
        shed = [r for r in responses if r.status == "shed"]
        assert all(r.served_from == "none" for r in shed)
        assert all(not r.notifications for r in shed)
        counters = metrics.snapshot()["counters"]
        assert counters["serve.shed"] == 4
        assert counters["serve.admission[shed]"] == 4
        # Shed events never reached the service.
        assert service.stats.events_ingested == 6 + 2

    def test_degraded_served_from_warm_cache(self):
        service = warm_service()
        # One full propagation of tweet 200 populates its warm state.
        service.retweet(user=0, tweet=200, at=600.0)
        metrics = MetricsRegistry()
        hits_before = service.stats.warm_hits
        requests = [
            RetweetRequest(user=1, tweet=200, at=601.0),
            # User 4 never retweeted anything: not a seed, so the cached
            # fixpoint still has non-seed scores to answer with.
            RetweetRequest(user=4, tweet=200, at=602.0),
        ]
        responses = serve_stream(
            service,
            requests,
            ServeConfig(shed_depth=10, degrade_depth=1),
            metrics,
        )
        assert [r.status for r in responses] == ["ok", "degraded"]
        degraded = responses[1]
        assert degraded.served_from == "warm-cache"
        assert degraded.notifications  # cache answer, not empty
        service.metrics_snapshot()
        assert service.stats.warm_hits > hits_before
        counters = metrics.snapshot()["counters"]
        assert counters["serve.admission[degraded]"] == 1
        # The degraded event still landed in the profiles.
        assert service.knows(4, 200)

    def test_degraded_miss_labeled(self):
        service = warm_service()
        metrics = MetricsRegistry()
        # No propagation of tweet 200 yet: the warm cache has no entry.
        responses = serve_stream(
            service,
            [
                RetweetRequest(user=0, tweet=200, at=600.0),
                RetweetRequest(user=1, tweet=200, at=601.0),
            ],
            ServeConfig(shed_depth=10, degrade_depth=1),
            metrics,
        )
        assert responses[1].status == "degraded"
        assert responses[1].served_from in ("warm-cache", "none")
        counters = metrics.snapshot()["counters"]
        assert counters["serve.admission[degraded]"] == 1

    def test_degrade_unsupported_escalates_to_shed(self):
        class BareService:
            """Duck service without warm_answer/ingest_batch."""

            def __init__(self, inner):
                self._inner = inner
                self.tweets = inner.tweets

            def retweet(self, user, tweet, at):
                return self._inner.retweet(user=user, tweet=tweet, at=at)

            def post_tweet(self, tweet_id, author, at):
                return self._inner.post_tweet(
                    tweet_id=tweet_id, author=author, at=at
                )

        metrics = MetricsRegistry()
        service = BareService(warm_service())
        responses = serve_stream(
            service,
            [
                RetweetRequest(user=0, tweet=200, at=600.0),
                RetweetRequest(user=1, tweet=200, at=601.0),
            ],
            ServeConfig(shed_depth=10, degrade_depth=1),
            metrics,
        )
        assert [r.status for r in responses] == ["ok", "shed"]
        counters = metrics.snapshot()["counters"]
        assert counters["serve.degrade_unsupported"] == 1

    def test_latency_recorded_per_status(self):
        service = warm_service()
        metrics = MetricsRegistry()
        serve_stream(
            service,
            [RetweetRequest(user=0, tweet=200, at=600.0)],
            metrics=metrics,
        )
        histograms = metrics.snapshot()["histograms"]
        assert histograms["serve.latency_seconds"]["count"] == 1
        assert histograms["serve.latency_seconds[ok]"]["count"] == 1
        assert histograms["serve.latency_seconds"]["timing"] is True


class TestDeterminism:
    def run_once(self) -> tuple[str, str]:
        service = warm_service()
        metrics = MetricsRegistry()
        requests = [
            RetweetRequest(user=i % 3, tweet=200, at=600.0 + i)
            for i in range(12)
        ]
        serve_stream(
            service, requests, ServeConfig(max_batch=4),
            metrics,
        )
        serve_snap = json.dumps(
            metrics.snapshot(deterministic=True), sort_keys=True
        )
        service_snap = json.dumps(
            service.metrics_snapshot(deterministic=True), sort_keys=True
        )
        return serve_snap, service_snap

    def test_deterministic_snapshots_byte_stable(self):
        first = self.run_once()
        second = self.run_once()
        assert first[0] == second[0]
        assert first[1] == second[1]


class TestServerLifecycle:
    def test_double_start_rejected(self):
        async def run():
            server = AsyncRecommendationServer(warm_service())
            async with server:
                with pytest.raises(ConfigError):
                    await server.start()

        asyncio.run(run())

    def test_stop_idempotent(self):
        async def run():
            server = AsyncRecommendationServer(warm_service())
            await server.start()
            await server.stop()
            await server.stop()

        asyncio.run(run())

    def test_heap_frozen_while_any_server_runs(self):
        async def run():
            first = AsyncRecommendationServer(warm_service())
            second = AsyncRecommendationServer(warm_service())
            await first.start()
            await second.start()
            assert gc.get_freeze_count() > 0
            await first.stop()
            assert gc.get_freeze_count() > 0
            await second.stop()
            assert gc.get_freeze_count() == 0

        asyncio.run(run())

    def test_submit_await_roundtrip(self):
        async def run():
            server = AsyncRecommendationServer(warm_service())
            async with server:
                response = await server.submit(
                    RetweetRequest(user=0, tweet=200, at=600.0)
                )
            return response

        response = asyncio.run(run())
        assert response.status == "ok"
        assert response.latency_s > 0.0


class ExclusiveService:
    """Duck service that raises if two calls ever overlap."""

    def __init__(self):
        self._busy = threading.Lock()
        self.seen: list[tuple] = []

    def ingest_batch(self, events):
        if not self._busy.acquire(blocking=False):
            raise RuntimeError("two batches ran at once")
        try:
            time.sleep(0)
            self.seen.extend(events)
            return [[] for _ in events]
        finally:
            self._busy.release()

    def retweet(self, user, tweet, at):
        return self.ingest_batch([(user, tweet, at)])[0]


class NoopService:
    """Duck service that answers every retweet with nothing.

    ``ingest_batch`` waits for ``release`` (set by default) after
    signalling ``entered``, so a test can hold a batch in flight.
    """

    def __init__(self, delay: float = 0.0):
        self.delay = delay
        self.entered = threading.Event()
        self.release = threading.Event()
        self.release.set()
        #: Every event ingested, in the order it ran.
        self.seen: list[tuple] = []
        #: The thread each ``ingest_batch`` call ran on.
        self.threads: list[int] = []

    def ingest_batch(self, events):
        self.entered.set()
        assert self.release.wait(10)
        time.sleep(self.delay)
        self.seen.extend(events)
        self.threads.append(threading.get_ident())
        return [[] for _ in events]

    def retweet(self, user, tweet, at):
        return self.ingest_batch([(user, tweet, at)])[0]

    def warm_answer(self, user, tweet, at):
        return None

    def post_tweet(self, tweet_id, author, at):
        pass


def retweets(n: int) -> list[RetweetRequest]:
    return [RetweetRequest(user=i, tweet=1, at=float(i)) for i in range(n)]


class TestServeResponse:
    def test_repr_summarises_the_payload(self):
        notifications = [
            Recommendation(user=i, tweet=7, score=0.5, time=1.0)
            for i in range(10_000)
        ]
        response = ServeResponse(
            status="ok", served_from="propagation",
            notifications=notifications, scores={7: None, 8: {1: 0.5}},
        )
        text = repr(response)
        assert len(text) < 200
        assert "'ok'" in text and "'propagation'" in text
        assert "10000" in text and "scores=2" in text


class TestBackpressure:
    def test_admission_runs_while_a_batch_is_in_flight(self):
        """The ladder answers on the loop while the worker is busy: that
        is why a backlog runs on a thread of its own."""
        service = NoopService()
        service.release.clear()
        metrics = MetricsRegistry()
        config = ServeConfig(degrade_depth=2, shed_depth=4)

        async def run():
            server = AsyncRecommendationServer(service, config, metrics)
            requests = retweets(8)
            in_flight = [server.submit_nowait(r) for r in requests[:2]]
            async with server:
                while not service.entered.is_set():
                    await asyncio.sleep(0.001)
                # The worker holds both requests; the inbox is empty again.
                later = [server.submit_nowait(r) for r in requests[2:]]
                await asyncio.sleep(0.01)
                assert not any(f.done() for f in in_flight + later[:4])
                assert [f.result().status for f in later[4:]] == ["shed"] * 2
                counters = metrics.snapshot()["counters"]
                assert counters["serve.admission[degraded]"] == 2
                assert counters["serve.admission[shed]"] == 2
                service.release.set()
                responses = await asyncio.wait_for(
                    asyncio.gather(*in_flight, *later), 10
                )
            return [r.status for r in responses]

        assert asyncio.run(run()) == (
            ["ok"] * 4 + ["degraded"] * 2 + ["shed"] * 2
        )


class TestWorkerLoop:
    def test_stop_answers_every_request_in_flight(self):
        async def run():
            server = AsyncRecommendationServer(
                NoopService(delay=0.005), ServeConfig(max_batch=2)
            )
            await server.start()
            futures = [server.submit_nowait(r) for r in retweets(7)]
            await asyncio.wait_for(server.stop(), 10)
            assert all(f.done() for f in futures)
            return [f.result().status for f in futures]

        assert asyncio.run(run()) == ["ok"] * 7

    def test_submit_while_stopping_is_refused(self):
        async def run():
            server = AsyncRecommendationServer(NoopService())
            await server.start()
            stopping = asyncio.create_task(server.stop())
            await asyncio.sleep(0)
            refused = server.submit_nowait(retweets(1)[0])
            await stopping
            return refused

        refused = asyncio.run(run())
        with pytest.raises(ConfigError, match="stopping"):
            refused.result()

    def test_escaped_batch_error_resolves_the_batch(self):
        def broken(batch):
            raise RuntimeError("boom")

        metrics = MetricsRegistry()

        async def run():
            server = AsyncRecommendationServer(NoopService(), metrics=metrics)
            server._run_batch = broken
            failed = [server.submit_nowait(r) for r in retweets(3)]
            async with server:
                outcomes = await asyncio.wait_for(
                    asyncio.gather(*failed, return_exceptions=True), 10
                )
                # The same error on the loop, for a lone request.
                lone = await asyncio.wait_for(
                    asyncio.gather(
                        server.submit_nowait(retweets(1)[0]),
                        return_exceptions=True,
                    ),
                    10,
                )
                del server._run_batch
                # Both sites survived the error and serve on.
                after = await asyncio.wait_for(
                    server.submit(retweets(1)[0]), 10
                )
            return outcomes + lone, after

        outcomes, after = asyncio.run(run())
        assert len(outcomes) == 4 and all(
            isinstance(o, RuntimeError) and str(o) == "boom" for o in outcomes
        )
        assert after.status == "ok"
        counters = metrics.snapshot()["counters"]
        assert counters["serve.batches[worker]"] >= 1
        assert counters["serve.batches[loop]"] == 2

    def test_error_inside_async_with_joins_the_worker(self):
        threads = threading.active_count()

        async def run():
            async with AsyncRecommendationServer(NoopService()) as server:
                await server.submit(retweets(1)[0])
                assert threading.active_count() == threads + 1
                raise KeyError("client failure")

        with pytest.raises(KeyError):
            asyncio.run(run())
        assert threading.active_count() == threads
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("n, max_batch", [(23, 5), (8, 8), (1, 4), (9, 1)])
    def test_serve_stream_fills_every_batch(self, n, max_batch):
        metrics = MetricsRegistry()
        serve_stream(
            NoopService(), retweets(n), ServeConfig(max_batch=max_batch),
            metrics,
        )
        snapshot = metrics.snapshot()
        batches = math.ceil(n / max_batch)
        assert snapshot["counters"]["serve.batches"] == batches
        # Submitted before start: nothing is held for the loop.
        assert snapshot["counters"]["serve.batches[worker]"] == batches
        sizes = snapshot["histograms"]["serve.batch_size"]
        assert sizes["count"] == batches
        assert sizes["max"] == min(n, max_batch)

    def test_fifo_under_a_tiny_switch_interval(self):
        """One consumer takes the inbox in arrival order, however the two
        threads interleave: every request runs once, in order."""
        service = NoopService()
        metrics = MetricsRegistry()
        requests = retweets(600)

        async def run():
            async with AsyncRecommendationServer(
                service,
                ServeConfig(max_batch=7, shed_depth=1000, degrade_depth=1000),
                metrics,
            ) as server:
                futures = []
                for start in range(0, len(requests), 3):
                    futures += [
                        server.submit_nowait(r)
                        for r in requests[start:start + 3]
                    ]
                    await asyncio.sleep(0)
                return await asyncio.wait_for(asyncio.gather(*futures), 30)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            responses = asyncio.run(run())
        finally:
            sys.setswitchinterval(interval)
        assert [r.status for r in responses] == ["ok"] * len(requests)
        assert service.seen == [(r.user, r.tweet, r.at) for r in requests]
        sizes = metrics.snapshot()["histograms"]["serve.batch_size"]
        assert sizes["total"] == len(requests) and sizes["max"] <= 7


class TestExecutionSites:
    """An idle server runs a lone request on the loop; a backlog goes to
    the worker.  Either way at most one batch runs at a time, in order."""

    def test_lone_requests_run_on_the_loop(self):
        service = NoopService()
        metrics = MetricsRegistry()

        async def run():
            async with AsyncRecommendationServer(
                service, metrics=metrics
            ) as server:
                return [
                    await asyncio.wait_for(server.submit(r), 10)
                    for r in retweets(3)
                ]

        assert [r.status for r in asyncio.run(run())] == ["ok"] * 3
        assert service.threads == [threading.get_ident()] * 3
        snapshot = metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["serve.batches"] == 3
        assert counters["serve.batches[loop]"] == 3
        assert "serve.batches[worker]" not in counters
        assert snapshot["histograms"]["serve.batch_size"]["count"] == 3

    def test_a_held_request_counts_toward_the_depth(self):
        metrics = MetricsRegistry()

        async def run():
            async with AsyncRecommendationServer(
                NoopService(), ServeConfig(degrade_depth=1, shed_depth=2),
                metrics,
            ) as server:
                first = server.submit_nowait(retweets(1)[0])
                depth = metrics.snapshot()["gauges"]["serve.queue_depth"]
                second = server.submit_nowait(retweets(2)[1])
                return depth, await asyncio.wait_for(
                    asyncio.gather(first, second), 10
                )

        depth, (first, second) = asyncio.run(run())
        assert depth == 1
        assert (first.status, second.status) == ("ok", "degraded")

    def test_requests_of_one_turn_run_on_the_worker(self):
        service = NoopService()
        metrics = MetricsRegistry()
        requests = retweets(3)

        async def run():
            async with AsyncRecommendationServer(
                service, metrics=metrics
            ) as server:
                futures = [server.submit_nowait(r) for r in requests[:2]]
                await asyncio.wait_for(asyncio.gather(*futures), 10)
                on_worker = list(service.threads)
                # Both answered, the server is idle again.
                await asyncio.wait_for(server.submit(requests[2]), 10)
            return on_worker

        on_worker = asyncio.run(run())
        assert service.seen == [(r.user, r.tweet, r.at) for r in requests]
        assert on_worker and threading.get_ident() not in on_worker
        assert service.threads[len(on_worker):] == [threading.get_ident()]
        counters = metrics.snapshot()["counters"]
        assert counters["serve.batches[worker]"] == len(on_worker)
        assert counters["serve.batches[loop]"] == 1

    def test_fifo_across_sites_under_a_tiny_switch_interval(self):
        """Single requests one loop turn apart, then bursts of three: the
        loop and the worker both run batches, never two at once, and
        every request runs once, in order."""
        service = ExclusiveService()
        metrics = MetricsRegistry()
        requests = retweets(600)
        sizes = [1, 1, 1, 3, 3, 3]

        async def run():
            async with AsyncRecommendationServer(
                service,
                ServeConfig(max_batch=7, shed_depth=1000, degrade_depth=1000),
                metrics,
            ) as server:
                futures = []
                start = 0
                for turn in range(len(requests)):
                    if start >= len(requests):
                        break
                    size = sizes[turn % len(sizes)]
                    futures += [
                        server.submit_nowait(r)
                        for r in requests[start:start + size]
                    ]
                    start += size
                    await asyncio.sleep(0)
                return await asyncio.wait_for(asyncio.gather(*futures), 30)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            responses = asyncio.run(run())
        finally:
            sys.setswitchinterval(interval)
        assert [r.status for r in responses] == ["ok"] * len(requests)
        assert service.seen == [(r.user, r.tweet, r.at) for r in requests]
        counters = metrics.snapshot()["counters"]
        assert counters["serve.batches[loop]"] >= 1
        assert counters["serve.batches[worker]"] >= 1
        assert (
            counters["serve.batches[loop]"] + counters["serve.batches[worker]"]
            == counters["serve.batches"]
        )

    def test_stop_before_the_next_turn_answers_a_lone_request(self):
        service = NoopService()
        metrics = MetricsRegistry()

        async def run():
            server = AsyncRecommendationServer(service, metrics=metrics)
            await server.start()
            future = server.submit_nowait(retweets(1)[0])
            # Awaited directly, stop() runs before the loop's next turn.
            await server.stop()
            assert future.done()
            return future.result()

        assert asyncio.run(run()).status == "ok"
        assert service.seen == [(0, 1, 0.0)]
        counters = metrics.snapshot()["counters"]
        assert counters["serve.batches[worker]"] == 1
        assert "serve.batches[loop]" not in counters
