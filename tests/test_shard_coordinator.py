"""Coordinator behaviour: fault paths, empty shards, config validation."""

from __future__ import annotations

import dataclasses
import multiprocessing
import time
import warnings

import pytest

from repro.core import PROP_BACKENDS
from repro.data.builders import DatasetBuilder
from repro.exceptions import ConfigError, ShardError
from repro.service import RecommendationService, ServiceConfig
from repro.shard import ShardedRecommendationService
from repro.shard.replay import drive_service, ingest_graph

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


def _dataset():
    """Five users, two tight follow clusters, a handful of retweets."""
    return (
        DatasetBuilder()
        .with_users(6)
        .follow(0, 1).follow(1, 0).follow(2, 0).follow(2, 1)
        .follow(3, 4).follow(4, 3).follow(5, 3).follow(5, 4)
        .tweet(author=1, at=0.0, tweet_id=0)
        .tweet(author=4, at=10.0, tweet_id=1)
        .retweet(user=0, tweet=0, at=50.0)
        .retweet(user=2, tweet=0, at=90.0)
        .retweet(user=3, tweet=1, at=120.0)
        .retweet(user=5, tweet=1, at=160.0)
        .build()
    )


def _config(**overrides):
    base = dict(rebuild_strategy="delta", use_scheduler=False)
    base.update(overrides)
    return ServiceConfig(**base)


# ----------------------------------------------------------------------
# Configuration validation
# ----------------------------------------------------------------------
def test_rejects_zero_shards():
    with pytest.raises(ConfigError):
        ShardedRecommendationService(0)


def test_rejects_unshardable_rebuild_strategy():
    with pytest.raises(ConfigError, match="crossfold"):
        ShardedRecommendationService(
            2, config=ServiceConfig(rebuild_strategy="crossfold")
        )


def test_rejects_non_reference_backends():
    with pytest.raises(ConfigError, match="backend='reference'"):
        ShardedRecommendationService(
            2,
            config=ServiceConfig(
                rebuild_strategy="delta", backend="vectorized"
            ),
        )


def test_prop_backend_is_not_consulted():
    """Any propagation backend is accepted, silently: workers never use it."""
    for prop_backend in PROP_BACKENDS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            service = ShardedRecommendationService(
                2,
                config=_config(prop_backend=prop_backend),
                start_method="inprocess",
            )
        service.add_user(1)
        service.post_tweet(7, author=1, at=0.0)
        assert service.retweet(user=1, tweet=7, at=1.0) == []
        service.close()


def test_explicit_rebuild_strategy_validated():
    service = ShardedRecommendationService(
        2, config=_config(), start_method="inprocess"
    )
    service.add_user(1)
    with pytest.raises(ConfigError):
        service.rebuild("crossfold")
    service.close()


# ----------------------------------------------------------------------
# Empty shards
# ----------------------------------------------------------------------
def test_more_shards_than_users_routes_and_merges_exactly():
    """Shards owning zero users must not disturb routing or the merge."""
    dataset = _dataset()
    retweets = dataset.retweets()
    config = _config()

    single = RecommendationService(config)
    ingest_graph(single, dataset)
    expected = drive_service(single, dataset, retweets)

    sharded = ShardedRecommendationService(
        8, config=config, start_method="inprocess"
    )
    ingest_graph(sharded, dataset)
    got = drive_service(sharded, dataset, retweets)
    assert got == expected
    assert sharded.stats == single.stats
    assert 0 in sharded.plan.shard_sizes()  # at least one shard is empty
    sharded.close()


# ----------------------------------------------------------------------
# Fault paths
# ----------------------------------------------------------------------
@needs_fork
def test_dead_worker_surfaces_shard_error_without_hanging():
    dataset = _dataset()
    service = ShardedRecommendationService(
        2, config=_config(), start_method="fork", request_timeout=30.0
    )
    ingest_graph(service, dataset)
    service.post_tweet(0, author=1, at=0.0)  # spawns workers (first rebuild)
    assert service.plan is not None

    victim = service._workers[0]
    victim._proc.kill()
    victim._proc.join(timeout=5.0)

    started = time.monotonic()
    with pytest.raises(ShardError, match="shard 0"):
        service.rebuild("from scratch")
    assert time.monotonic() - started < 10.0
    service.close()


@needs_fork
def test_worker_exception_reports_traceback():
    service = ShardedRecommendationService(
        2, config=_config(), start_method="fork", request_timeout=30.0
    )
    service.add_user(1)
    service.add_user(2)
    service.post_tweet(0, author=1, at=0.0)
    with pytest.raises(ShardError, match="unknown shard op"):
        service._request_all([0], "no-such-op", {0: {}})
    # The worker survives a bad request and keeps serving.
    replies = service._request_all([0], "ping", {0: {}})
    assert replies[0]["shard"] == 0
    service.close()


@pytest.mark.parametrize("started", [False, True])
def test_close_is_idempotent_and_blocks_reuse(started):
    """A closed service refuses every request before touching state —
    whether or not its workers had ever started."""
    service = ShardedRecommendationService(
        2, config=_config(), start_method="inprocess"
    )
    ingest_graph(service, _dataset())
    if started:
        service.post_tweet(0, author=1, at=0.0)  # first rebuild starts workers
        service.retweet(user=0, tweet=0, at=50.0)
        assert service._workers is not None
    service.close()
    service.close()
    stats = dataclasses.replace(service.stats)
    known = service.known_pairs()
    for request in (
        lambda: service.retweet(user=2, tweet=0, at=90.0),
        lambda: service.post_tweet(1, author=4, at=90.0),
        lambda: service.flush(90.0),
        lambda: service.rebuild(),
        lambda: service.export_simgraph(),
    ):
        with pytest.raises(ShardError, match="service is closed"):
            request()
    assert service.stats == stats
    assert service.known_pairs() == known
    assert 1 not in service.tweets


@needs_fork
def test_context_manager_shuts_workers_down():
    dataset = _dataset()
    with ShardedRecommendationService(
        2, config=_config(), start_method="fork"
    ) as service:
        ingest_graph(service, dataset)
        drive_service(service, dataset, dataset.retweets())
        procs = [w._proc for w in service._workers]
        assert all(p.is_alive() for p in procs)
    for proc in procs:
        proc.join(timeout=5.0)
    assert not any(p.is_alive() for p in procs)
