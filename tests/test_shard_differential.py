"""Shard-vs-single differential suite: sharded output is bit-identical.

Every leg drives the same synthetic corpus through a single-process
:class:`RecommendationService` and a :class:`ShardedRecommendationService`
with the *identical* call sequence, then requires exact equality — not
approximate — of:

* the per-event delivered notification lists (scores, users, order);
* the aggregate service stats;
* the assembled SimGraph (edges with weights, and node sets).

The matrix covers shard counts {1, 2, 4, 8}, both supported rebuild
strategies, scheduler on/off, frequent delta maintenance, snapshot
warm-boot mid-stream, and a real fork-multiprocessing leg (the rest run
workers in-process — same protocol, no IPC — to keep the matrix fast).
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.core.persistence import save_simgraph
from repro.service import RecommendationService, ServiceConfig
from repro.shard import ShardedRecommendationService
from repro.shard.replay import drive_service, ingest_graph
from repro.synth import SynthConfig, generate_dataset

DAY = 86400.0


@pytest.fixture(scope="module")
def corpus():
    dataset = generate_dataset(
        SynthConfig(n_users=90, n_communities=6, time_span=8 * DAY, seed=11)
    )
    return dataset, dataset.retweets()


def _config(**overrides) -> ServiceConfig:
    base = dict(rebuild_strategy="delta", rebuild_interval=3 * DAY)
    base.update(overrides)
    return ServiceConfig(**base)


def _run_single(config, dataset, retweets):
    service = RecommendationService(config)
    ingest_graph(service, dataset)
    events = []
    delivered = drive_service(
        service, dataset, retweets,
        on_delivered=lambda e, recs: events.append((e, tuple(recs))),
    )
    return delivered, events, service


def _run_sharded(n_shards, config, dataset, retweets, start_method="inprocess"):
    service = ShardedRecommendationService(
        n_shards, config=config, start_method=start_method
    )
    ingest_graph(service, dataset)
    events = []
    delivered = drive_service(
        service, dataset, retweets,
        on_delivered=lambda e, recs: events.append((e, tuple(recs))),
    )
    return delivered, events, service


def _edge_map(simgraph):
    return {(u, v): w for u, v, w in simgraph.graph.edges()}


def _assert_identical(single, sharded):
    s_del, s_ev, s_svc = single
    d_del, d_ev, d_svc = sharded
    assert d_del == s_del
    assert d_ev == s_ev
    assert d_svc.stats == s_svc.stats
    exported = d_svc.export_simgraph()
    assert _edge_map(exported) == _edge_map(s_svc.simgraph)
    assert set(exported.graph.nodes()) == set(s_svc.simgraph.graph.nodes())
    d_svc.close()


@pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
def test_delta_strategy_matrix(corpus, n_shards):
    dataset, retweets = corpus
    config = _config()
    single = _run_single(config, dataset, retweets)
    sharded = _run_sharded(n_shards, config, dataset, retweets)
    _assert_identical(single, sharded)


def test_from_scratch_strategy(corpus):
    dataset, retweets = corpus
    config = _config(rebuild_strategy="from scratch")
    single = _run_single(config, dataset, retweets)
    sharded = _run_sharded(4, config, dataset, retweets)
    _assert_identical(single, sharded)


def test_without_scheduler(corpus):
    dataset, retweets = corpus
    config = _config(use_scheduler=False)
    single = _run_single(config, dataset, retweets)
    sharded = _run_sharded(2, config, dataset, retweets)
    _assert_identical(single, sharded)


def test_frequent_delta_rebuilds(corpus):
    """Short maintenance interval: many delta rounds, cross-shard patches."""
    dataset, retweets = corpus
    config = _config(rebuild_interval=DAY)
    single = _run_single(config, dataset, retweets)
    sharded = _run_sharded(4, config, dataset, retweets)
    assert single[2].stats.rebuilds >= 4  # the leg actually exercises delta
    _assert_identical(single, sharded)


def test_snapshot_warm_boot(corpus, tmp_path):
    """Both services adopt the same mmap snapshot mid-stream; still exact."""
    dataset, retweets = corpus
    half = len(retweets) // 2
    first, second = retweets[:half], retweets[half:]
    config = _config()

    single = RecommendationService(config)
    sharded = ShardedRecommendationService(
        4, config=config, start_method="inprocess"
    )
    ingest_graph(single, dataset)
    ingest_graph(sharded, dataset)
    assert drive_service(single, dataset, first, flush=False) == drive_service(
        sharded, dataset, first, flush=False
    )

    path = tmp_path / "warmboot.simgraph"
    save_simgraph(single.simgraph, path, format=2)
    single.load_snapshot(path, mmap=True)
    sharded.load_snapshot(path, mmap=True)
    assert sharded.stats == single.stats

    s_del = drive_service(single, dataset, second)
    d_del = drive_service(sharded, dataset, second)
    assert d_del == s_del
    assert sharded.stats == single.stats
    assert _edge_map(sharded.export_simgraph()) == _edge_map(single.simgraph)
    sharded.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)
def test_fork_multiprocessing_leg():
    """The real IPC path (pipes + processes) is exact too."""
    dataset = generate_dataset(
        SynthConfig(n_users=40, n_communities=4, time_span=4 * DAY, seed=5)
    )
    retweets = dataset.retweets()
    config = _config()
    single = _run_single(config, dataset, retweets)
    sharded = _run_sharded(3, config, dataset, retweets, start_method="fork")
    _assert_identical(single, sharded)


def test_sharded_metrics_report_routing(corpus):
    """shard.* observability counters are populated during a replay."""
    dataset, retweets = corpus
    _, _, service = _run_sharded(4, _config(), dataset, retweets)
    snapshot = service.metrics_snapshot(deterministic=True)
    counters = snapshot["counters"]
    assert counters["shard.events_routed"] == service.stats.propagations_run
    assert "shard.solo_grants" in counters
    gauges = snapshot["gauges"]
    assert 0.0 <= gauges["shard.boundary_edge_fraction"] <= 1.0
    assert gauges["shard.workers"] == 4
    service.close()


def test_dirty_only_fringe_through_the_coordinator():
    """The coordinator routes the same ``needed`` pairs the single
    process patches.  In the dirty-only world (see test_core_delta) the
    follower of a merely co-retweeting core user is in nobody's fringe,
    and the sharded delta still lands on the from-scratch graph."""
    from tests.test_core_delta import (
        DIRTY, DIRTY_ONLY_FOLLOWS, DIRTY_ONLY_HISTORY, FOLLOWER,
    )

    def replay(service, final_strategy):
        for follower, followee in DIRTY_ONLY_FOLLOWS:
            service.add_follow(follower, followee)
        for tweet in (10, 11, 12):
            service.post_tweet(tweet_id=tweet, author=9, at=0.0)
        for at, (user, tweet) in enumerate(DIRTY_ONLY_HISTORY, start=1):
            service.retweet(user=user, tweet=tweet, at=float(at))
        service.rebuild("from scratch")
        service.retweet(user=DIRTY, tweet=10, at=100.0)
        service.rebuild(final_strategy)
        return service

    config = _config(tau=1e-6, use_scheduler=False)
    oracle = replay(RecommendationService(config), "from scratch")
    single = replay(RecommendationService(config), "delta")
    sharded = replay(
        ShardedRecommendationService(2, config=config, start_method="inprocess"),
        "delta",
    )
    try:
        assert oracle.simgraph.graph.has_edge(FOLLOWER, 2)
        for service in (single, sharded):
            counters = service.metrics_snapshot()["counters"]
            assert counters["maintenance.rows_patched"] == 1
            assert counters["maintenance.pairs_needed"] == 1
        exported = sharded.export_simgraph()
        assert _edge_map(exported) == _edge_map(single.simgraph)
        expected = _edge_map(oracle.simgraph)
        assert _edge_map(exported).keys() == expected.keys()
        for pair, weight in _edge_map(exported).items():
            assert weight == pytest.approx(expected[pair], abs=1e-12)
    finally:
        sharded.close()
