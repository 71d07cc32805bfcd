"""The service contract, asserted once over every deployment.

``RecommendationService`` and ``ShardedRecommendationService`` share one
serving loop (:class:`repro.service.engine.ServiceCore`); these cases pin
what that loop promises — validation before state changes, the 72h rule,
the online daily budget, warm-up absorption, health metrics — on the
single-process service and on 1- and 2-shard in-process coordinators,
under the one configuration all of them accept (reference backends,
``delta`` maintenance).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.exceptions import DatasetError
from repro.service import RecommendationService, ServiceConfig
from repro.service.engine import ServiceCore
from repro.shard import ShardedRecommendationService
from repro.shard.replay import drive_service, ingest_graph
from repro.synth import SynthConfig, generate_dataset

DEPLOYMENTS = {
    "single": RecommendationService,
    "shard1": lambda config: ShardedRecommendationService(
        1, config, start_method="inprocess"
    ),
    "shard2": lambda config: ShardedRecommendationService(
        2, config, start_method="inprocess"
    ),
}


def close(service) -> None:
    closer = getattr(service, "close", None)
    if closer is not None:
        closer()


@pytest.fixture(params=sorted(DEPLOYMENTS))
def warm_service(request):
    """Factory of services with three co-retweeting users (0-2), two
    bystanders (3, 4) and one fresh tweet (200, posted at t=500)."""
    created = []

    def make(**config_kwargs) -> ServiceCore:
        defaults = {
            "rebuild_strategy": "delta",
            "use_scheduler": False,
            "min_score": 1e-6,
        }
        defaults.update(config_kwargs)
        service = DEPLOYMENTS[request.param](ServiceConfig(**defaults))
        created.append(service)
        for user in range(5):
            service.add_user(user)
        for a, b in [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)]:
            service.add_follow(a, b)
        service.post_tweet(tweet_id=100, author=3, at=0.0)
        service.post_tweet(tweet_id=101, author=3, at=1.0)
        at = 10.0
        for tweet in (100, 101):
            for user in (0, 1, 2):
                service.retweet(user=user, tweet=tweet, at=at)
                at += 1.0
        service.rebuild("from scratch")
        service.post_tweet(tweet_id=200, author=3, at=500.0)
        return service

    yield make
    for service in created:
        close(service)


def state_of(service: ServiceCore) -> tuple:
    return (
        dataclasses.replace(service.stats),
        service._clock,
        service.known_pairs(),
        set(service.tweets),
        service.profiles.user_count,
    )


def test_same_core(warm_service):
    assert isinstance(warm_service(), ServiceCore)


def test_duplicate_tweet_id_rejected(warm_service):
    service = warm_service()
    before = state_of(service)
    with pytest.raises(DatasetError, match="duplicate tweet id 200"):
        service.post_tweet(tweet_id=200, author=3, at=600.0)
    assert state_of(service) == before


def test_unknown_tweet_id_rejected_without_state_change(warm_service):
    service = warm_service()
    before = state_of(service)
    with pytest.raises(DatasetError, match="unknown tweet id 999"):
        service.retweet(user=0, tweet=999, at=600.0)
    assert state_of(service) == before


def test_time_running_backwards_rejected_without_state_change(warm_service):
    service = warm_service()
    service.retweet(user=0, tweet=200, at=600.0)
    before = state_of(service)
    with pytest.raises(DatasetError, match="monotone"):
        service.retweet(user=1, tweet=200, at=10.0)
    with pytest.raises(DatasetError, match="monotone"):
        service.post_tweet(tweet_id=201, author=3, at=10.0)
    assert state_of(service) == before
    assert service._clock == 600.0


def test_flush_without_scheduler_returns_nothing(warm_service):
    service = warm_service()
    service.retweet(user=0, tweet=200, at=600.0)
    before = state_of(service)
    assert service.flush() == []
    assert service.flush(700.0) == []
    assert state_of(service) == before


def test_similar_users_notified_once(warm_service):
    service = warm_service()
    first = service.retweet(user=0, tweet=200, at=600.0)
    assert {n.user for n in first} == {1, 2}
    second = service.retweet(user=1, tweet=200, at=700.0)
    assert second == []  # 2 already notified, 0 and 1 retweeted it


def test_72h_old_task_is_skipped_and_its_warm_entry_dropped(warm_service):
    service = warm_service(max_tweet_age=3600.0)
    assert service.retweet(user=0, tweet=200, at=600.0)
    assert 200 in service._warm.tweets()
    ran = service.stats.propagations_run
    assert service.retweet(user=1, tweet=200, at=500.0 + 7200.0) == []
    assert service.stats.propagations_run == ran
    assert 200 not in service._warm.tweets()
    # The event itself still counts and still lands in the profiles.
    assert service.knows(1, 200)


def test_daily_budget_suppression_counted(warm_service):
    service = warm_service(daily_budget=1)
    service.post_tweet(tweet_id=201, author=3, at=650.0)
    delivered = service.retweet(user=0, tweet=200, at=700.0)
    delivered += service.retweet(user=0, tweet=201, at=800.0)
    assert sorted((n.user, n.tweet) for n in delivered) == [(1, 200), (2, 200)]
    assert service.stats.notifications_delivered == 2
    assert service.stats.notifications_suppressed == 2
    counters = service.metrics_snapshot(deterministic=True)["counters"]
    assert counters["budget.delivered"] == 2
    assert counters["budget.rejections"] == 2
    # Next day the budget is fresh.
    service.post_tweet(tweet_id=202, author=3, at=700.0 + 86400.0)
    assert service.retweet(user=0, tweet=202, at=800.0 + 86400.0)


def test_absorbed_retweets_reach_the_next_rebuild(warm_service):
    service = warm_service()
    service.add_follow(3, 0)
    service.rebuild()
    edges = service.edge_count
    events = service.stats.events_ingested
    # Tweet 102 was never posted: absorption needs no registration.
    for tweet in (100, 101, 102):
        service.absorb_retweet(3, tweet)
    assert service.stats.events_ingested == events
    assert service.edge_count == edges  # nothing moves until maintenance
    service.rebuild()
    assert service.edge_count > edges
    notified = {n.user for n in service.retweet(user=0, tweet=200, at=600.0)}
    assert 3 in notified


def test_scheduler_backlog_shows_in_health_and_drains(warm_service):
    service = warm_service(use_scheduler=True)
    assert service.retweet(user=0, tweet=200, at=600.0) == []
    gauges = service.metrics_snapshot()["gauges"]
    assert gauges["service.queue_depth"] == service.stats.queue_depth == 1
    assert service.flush(600.0 + 5 * 3600.0)
    assert service.flush() == []
    assert service.metrics_snapshot()["gauges"]["service.queue_depth"] == 0


def test_released_tasks_share_the_budget_in_score_order(warm_service):
    """One retweet releases the tasks of tweets 200 and 201.  User 2 is
    a candidate for both with a single slot and gets the higher score
    (201); the tie between users 1 and 2 on 200 goes to the lower id."""
    service = warm_service(use_scheduler=True, daily_budget=1)
    service.post_tweet(tweet_id=201, author=3, at=501.0)
    service.post_tweet(tweet_id=202, author=3, at=502.0)
    assert service.retweet(user=0, tweet=200, at=600.0) == []
    assert service.retweet(user=0, tweet=201, at=601.0) == []
    assert service.retweet(user=1, tweet=201, at=602.0) == []
    delivered = service.retweet(user=3, tweet=202, at=20600.0)
    assert [(n.user, n.tweet) for n in delivered] == [(2, 201), (1, 200)]
    assert delivered[0].score > delivered[1].score
    assert service.stats.notifications_suppressed == 1
    counters = service.metrics_snapshot(deterministic=True)["counters"]
    assert counters["budget.delivered"] == 2
    assert counters["budget.rejections"] == 1


def test_own_user_known_at_deliver_time_is_not_notified(warm_service):
    """Scheduler path: user 1's retweet releases tweet 200's task with
    seeds {0} — 1 is a candidate — and is absorbed before the budget
    runs, so 1 is skipped: a rejection, not a budget suppression."""
    service = warm_service(use_scheduler=True)
    assert service.retweet(user=0, tweet=200, at=600.0) == []
    delivered = service.retweet(user=1, tweet=200, at=20600.0)
    assert [(n.user, n.tweet) for n in delivered] == [(2, 200)]
    assert service.stats.notifications_suppressed == 0
    counters = service.metrics_snapshot(deterministic=True)["counters"]
    assert counters["budget.delivered"] == 1
    assert counters["budget.rejections"] == 1


def test_metric_families_equal_between_single_and_one_shard():
    """Over the pinned golden corpus the shared loop reports the same
    numbers whichever scorer is plugged in."""
    dataset = generate_dataset(SynthConfig(n_users=60, n_communities=5, seed=3))
    config = ServiceConfig(rebuild_strategy="delta", rebuild_interval=86400.0)
    families = ("service.", "budget.", "scheduler.", "warmcache.")

    def run(service) -> dict:
        try:
            ingest_graph(service, dataset)
            drive_service(service, dataset, dataset.retweets())
            snapshot = service.metrics_snapshot(deterministic=True)
        finally:
            close(service)
        return {
            section: {
                name: value
                for name, value in snapshot[section].items()
                if name.startswith(families)
            }
            for section in ("counters", "gauges", "histograms")
        }

    single = run(DEPLOYMENTS["single"](config))
    sharded = run(DEPLOYMENTS["shard1"](config))
    assert single == sharded
    assert single["counters"]["service.rebuild[delta]"] > 0
    assert single["counters"]["budget.delivered"] > 0
    assert single["counters"]["scheduler.postponements"] > 0
    assert single["counters"]["warmcache.hits"] > 0
