"""Differential harness for the delta maintenance engine.

Pins the exactness contract of :mod:`repro.core.delta`:

* ``delta`` produces the *same edge set* as ``from scratch`` with
  weights equal within 1e-12 (fringe pairs are accumulated from the
  other side of the symmetric measure), whether the old graph came from
  the builder (``vectorized``) or from the Def. 4.1 oracle loop
  (``reference``, ``tests/test_simgraph_oracle.py``), with and without
  a row cap;
* an empty delta is the identity (same object, no work);
* the service's ``delta`` rebuild agrees with a from-scratch service on
  both propagation backends, and the compiled CSR it splices equals a
  recompile;
* a recomputed row keeps the *edge order* a from-scratch build gives it (the compiled kernel's segment sums, hence
  the served scores, depend on it).

Property-based cases draw random contiguous slices of the held-out
stream (run under ``HYPOTHESIS_PROFILE=ci`` in CI for reproducibility).
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RetweetProfiles, SimGraphBuilder
from repro.core.delta import affected_region, apply_delta
from repro.core.simmatrix import DEFAULT_CHUNK_SIZE
from repro.core.update import apply_strategy
from repro.data import temporal_split
from repro.service import RecommendationService, ServiceConfig
from repro.synth import SynthConfig, generate_dataset
from tests.test_graph_oracle import follow_pairs, to_digraph
from tests.test_propagation_differential import assert_same_compiled
from tests.test_simgraph_oracle import BUILDS, build_with, from_simgraph

TAU = 0.001

#: Absolute tolerance for weights computed by a different accumulation
#: order (fringe-side vs row-side walks of the same sum).
WEIGHT_ATOL = 1e-12


@functools.lru_cache(maxsize=None)
def corpus():
    """(dataset, split) for a small synthetic corpus, built once."""
    dataset = generate_dataset(SynthConfig(n_users=150, n_communities=4, seed=23))
    return dataset, temporal_split(dataset)


@functools.lru_cache(maxsize=None)
def old_graph(origin: str, max_influencers: int | None = None):
    """The pre-delta SimGraph built on the train slice by ``origin``
    (the oracle or the builder)."""
    dataset, split = corpus()
    builder = SimGraphBuilder(tau=TAU, max_influencers=max_influencers)
    return build_with(
        origin, dataset.follow_graph, RetweetProfiles(split.train), builder
    ), builder


def edge_map(simgraph):
    return {(u, v): w for u, v, w in to_digraph(simgraph).edges()}


def assert_same_edges(actual, expected, atol=WEIGHT_ATOL):
    actual_edges, expected_edges = edge_map(actual), edge_map(expected)
    assert set(actual_edges) == set(expected_edges)
    for pair, weight in actual_edges.items():
        assert weight == pytest.approx(expected_edges[pair], abs=atol)


def held_out_slice(count: int):
    """The first ``count`` events of the held-out stream."""
    _, split = corpus()
    return split.test[:count]


class TestDeltaMatchesFromScratch:
    @pytest.mark.parametrize("origin", BUILDS)
    def test_exact_on_stream_slice(self, origin):
        dataset, split = corpus()
        old, _ = old_graph(origin)
        extra = held_out_slice(120)
        refreshed = apply_strategy(
            "delta", old, dataset.follow_graph, split.train, extra
        )
        full = apply_strategy(
            "from scratch", old, dataset.follow_graph, split.train, extra
        )
        assert_same_edges(refreshed, full)
        assert set(to_digraph(refreshed).nodes()) == set(to_digraph(full).nodes())

    @pytest.mark.parametrize("origin", BUILDS)
    def test_exact_with_row_cap(self, origin):
        dataset, split = corpus()
        old, builder = old_graph(origin, max_influencers=5)
        extra = held_out_slice(80)
        refreshed = apply_strategy(
            "delta", old, dataset.follow_graph, split.train, extra,
            builder=builder,
        )
        full = apply_strategy(
            "from scratch", old, dataset.follow_graph, split.train, extra,
            builder=builder,
        )
        assert_same_edges(refreshed, full)

    def test_build_backends_agree_after_delta(self):
        """A delta over the oracle's rows (inverted-index walk order)
        and over the builder's (sparse emission order) lands on the same
        graph."""
        dataset, split = corpus()
        extra = held_out_slice(120)
        results = {}
        for origin in BUILDS:
            old, _ = old_graph(origin)
            results[origin] = apply_strategy(
                "delta", old, dataset.follow_graph, split.train, extra
            )
        assert_same_edges(results["vectorized"], results["reference"])

    def test_empty_delta_is_identity(self):
        dataset, split = corpus()
        old, _ = old_graph("reference")
        refreshed = apply_strategy(
            "delta", old, dataset.follow_graph, split.train, []
        )
        assert refreshed is old


def test_recomputed_rows_keep_from_scratch_edge_order():
    """More core users than one chunk holds, so a chunk boundary is
    crossed: every core row out of ``apply_delta`` lists its edges in
    the order the vectorized from-scratch build lists them.  The order
    is scipy's (first-touch emission of the chunk Gram, then a
    non-canonical elementwise product), so sorting the Gram's indices
    changes it — and with it the compiled kernel's float sums."""
    dataset = generate_dataset(SynthConfig(n_users=1200, n_communities=4, seed=23))
    split = temporal_split(dataset)
    profiles = RetweetProfiles(split.train)
    builder = SimGraphBuilder(tau=TAU)
    old = builder.build(dataset.follow_graph, profiles)
    profiles.mark_clean()
    for event in split.test[:400]:
        profiles.add(event.user, event.tweet)
    plan = affected_region(profiles, dataset.follow_graph, hops=builder.hops)
    assert len(plan.core) > DEFAULT_CHUNK_SIZE
    refreshed, report = apply_delta(
        old, dataset.follow_graph, profiles, builder, plan=plan
    )
    full = builder.build(dataset.follow_graph, profiles)
    assert report.topology_changed
    unsorted_rows = 0
    got, want = to_digraph(refreshed), to_digraph(full)
    for user in sorted(plan.core):
        row = list(got.out_row(user).items())
        assert row == list(want.out_row(user).items()), user
        unsorted_rows += [v for v, _ in row] != sorted(v for v, _ in row)
    # The property has teeth only if emission order is not id order.
    assert unsorted_rows > 0


@settings(max_examples=12, deadline=None)
@given(
    start=st.integers(min_value=0, max_value=150),
    length=st.integers(min_value=0, max_value=80),
)
def test_delta_matches_from_scratch_on_random_slices(start, length):
    """Property: any contiguous slice of the held-out stream, absorbed
    as a delta, reproduces the from-scratch graph."""
    dataset, split = corpus()
    old, _ = old_graph("reference")
    extra = split.test[start : start + length]
    refreshed = apply_strategy(
        "delta", old, dataset.follow_graph, split.train, extra
    )
    full = apply_strategy(
        "from scratch", old, dataset.follow_graph, split.train, extra
    )
    assert_same_edges(refreshed, full)


def replay_service(rebuild_strategy: str, prop_backend: str):
    """Drive a service through a fixed stream with periodic rebuilds."""
    dataset, split = corpus()
    service = RecommendationService(ServiceConfig(
        tau=TAU,
        rebuild_strategy=rebuild_strategy,
        prop_backend=prop_backend,
        rebuild_interval=6 * 3600.0,
        use_scheduler=False,
        min_score=1e-6,
    ))
    for u, v in follow_pairs(dataset.follow_graph):
        service.add_follow(u, v)
    for event in split.train:
        service.absorb_retweet(event.user, event.tweet)
    tweets = sorted(
        dataset.tweets.values(), key=lambda t: (t.created_at, t.id)
    )
    base = split.test[0].time if split.test else 0.0
    for tweet in tweets:
        service.post_tweet(
            tweet_id=tweet.id, author=tweet.author,
            at=min(tweet.created_at, base),
        )
    hits = []
    for event in split.test[:120]:
        for rec in service.retweet(user=event.user, tweet=event.tweet,
                                   at=event.time):
            hits.append((rec.user, rec.tweet))
    return service, sorted(hits)


class TestServiceDelta:
    @pytest.fixture(scope="class")
    def streams(self):
        results = {}
        for strategy in ("from scratch", "delta"):
            for prop in ("reference", "csr"):
                results[(strategy, prop)] = replay_service(strategy, prop)
        return results

    def test_delta_service_matches_from_scratch(self, streams):
        service_full, hits_full = streams[("from scratch", "reference")]
        service_delta, hits_delta = streams[("delta", "reference")]
        assert hits_delta == hits_full
        assert_same_edges(service_delta.simgraph, service_full.simgraph)

    def test_prop_backends_agree_under_delta(self, streams):
        _, hits_ref = streams[("delta", "reference")]
        _, hits_csr = streams[("delta", "csr")]
        assert hits_csr == hits_ref

    def test_spliced_csr_equals_recompile(self, streams):
        """Every delta rebuild refreshed the compiled CSR by splicing the
        report's changed rows (or recompiled when a node went away);
        either way it is array for array what a recompile gives."""
        service, _ = streams[("delta", "csr")]
        counters = service.metrics_snapshot()["counters"]
        assert counters.get("propagation.csr_spliced", 0) > 0
        assert_same_compiled(
            service.simgraph, from_simgraph(service.simgraph)
        )

    def test_delta_rebuilds_actually_ran(self, streams):
        service, _ = streams[("delta", "reference")]
        counters = service.metrics_snapshot()["counters"]
        assert counters.get("service.rebuild[delta]", 0) > 0
        assert counters.get("maintenance.dirty_users", 0) > 0
