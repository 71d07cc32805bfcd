"""Tests for repro.core.delta — the scoped maintenance engine."""

import tracemalloc

import numpy as np
import pytest

from repro.core import RetweetProfiles, SimGraphBuilder
from repro.core.delta import DeltaPlan, affected_region, apply_delta
from repro.graph import FollowGraph
from repro.obs import MetricsRegistry
from tests.test_graph_oracle import to_digraph
from tests.test_simgraph_oracle import BUILDS, build_with


def follow_chain(*edges) -> FollowGraph:
    graph = FollowGraph()
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


#: The dirty-only-fringe world.  DIRTY retweets tweet 10, which CLEAN
#: already shares: m(10) changes, so CLEAN is core — but only as a
#: co-retweeter.  FOLLOWER follows CLEAN (sharing the untouched tweet 11
#: with it) and reaches no dirty user within 2 hops; NEAR follows DIRTY.
DIRTY, CLEAN, FOLLOWER, NEAR, FAR = 1, 2, 3, 4, 5
DIRTY_ONLY_FOLLOWS = ((FOLLOWER, CLEAN), (FAR, FOLLOWER), (NEAR, DIRTY))
DIRTY_ONLY_HISTORY = (
    (CLEAN, 10), (CLEAN, 11), (FOLLOWER, 11), (FAR, 11), (DIRTY, 12), (NEAR, 12),
)


def edge_map(simgraph):
    return {(u, v): w for u, v, w in to_digraph(simgraph).edges()}


class TestDirtyTracking:
    def test_fresh_profiles_are_fully_dirty(self):
        profiles = RetweetProfiles()
        profiles.add(1, 10)
        profiles.add(2, 10)
        assert profiles.dirty_users == {1, 2}
        assert profiles.dirty_tweets == {10}
        assert len(profiles.dirt()[0]) > 0

    def test_mark_clean_resets(self):
        profiles = RetweetProfiles()
        profiles.add(1, 10)
        profiles.mark_clean()
        assert len(profiles.dirt()[0]) == 0
        assert profiles.dirty_users == frozenset()
        assert profiles.dirty_tweets == frozenset()

    def test_duplicate_retweet_stays_clean(self):
        profiles = RetweetProfiles()
        profiles.add(1, 10)
        profiles.mark_clean()
        profiles.add(1, 10)
        assert len(profiles.dirt()[0]) == 0

    def test_new_retweet_dirties_user_and_tweet(self):
        profiles = RetweetProfiles()
        profiles.add(1, 10)
        profiles.add(2, 20)
        profiles.mark_clean()
        profiles.add(1, 20)
        assert profiles.dirty_users == {1}
        assert profiles.dirty_tweets == {20}


class TestAffectedRegion:
    def test_core_is_dirty_users_plus_coretweeters(self):
        # 1 and 2 co-retweet tweet 10; a fresh retweet by 3 of tweet 10
        # changes m(10), dragging 1 and 2 into the core as well.
        profiles = RetweetProfiles()
        for user in (1, 2):
            profiles.add(user, 10)
        profiles.mark_clean()
        profiles.add(3, 10)
        plan = affected_region(profiles, FollowGraph())
        assert plan.dirty_users == {3}
        assert plan.dirty_tweets == {10}
        assert set(plan.core.tolist()) == {1, 2, 3}

    def test_fresh_tweet_keeps_core_small(self):
        profiles = RetweetProfiles()
        for user in (1, 2):
            profiles.add(user, 10)
        profiles.mark_clean()
        profiles.add(3, 99)  # fresh tweet: no co-retweeters to drag in
        plan = affected_region(profiles, FollowGraph())
        assert set(plan.core.tolist()) == {3}

    def test_fringe_is_khop_in_neighbourhood(self):
        # 5 -> 4 -> 3(core): both 4 and 5 reach the core within 2 hops.
        graph = follow_chain((5, 4), (4, 3))
        profiles = RetweetProfiles()
        profiles.mark_clean()
        profiles.add(3, 10)
        plan = affected_region(profiles, graph, hops=2)
        assert plan.core.tolist() == [3]
        assert plan.fringe.tolist() == [4, 5]
        assert plan.needed == {3: {4, 5}}
        assert plan.candidates == {4: {3}, 5: {3}}

    def test_fringe_respects_hop_radius(self):
        graph = follow_chain((6, 5), (5, 4), (4, 3))
        profiles = RetweetProfiles()
        profiles.mark_clean()
        profiles.add(3, 10)
        plan = affected_region(profiles, graph, hops=2)
        assert 6 not in plan.fringe.tolist()  # three hops away

    def test_core_users_never_in_fringe(self):
        graph = follow_chain((2, 1))
        profiles = RetweetProfiles()
        profiles.mark_clean()
        profiles.add(1, 10)
        profiles.add(2, 11)
        plan = affected_region(profiles, graph)
        assert plan.core.tolist() == [1, 2]
        assert plan.fringe.tolist() == []

    def test_extra_sources_join_core(self):
        profiles = RetweetProfiles()
        profiles.mark_clean()
        plan = affected_region(profiles, FollowGraph(), extra_sources=[7])
        assert plan.core.tolist() == [7]
        assert not plan.is_empty

    def test_fringe_is_of_dirty_users_only(self):
        # CLEAN is core merely as a co-retweeter of dirty tweet 10: every
        # input of sim(FOLLOWER, CLEAN) is unchanged, so FOLLOWER (and
        # FAR behind it) has nothing to patch.  Same for an extra source.
        profiles = RetweetProfiles()
        for user, tweet in DIRTY_ONLY_HISTORY:
            profiles.add(user, tweet)
        profiles.mark_clean()
        profiles.add(DIRTY, 10)
        plan = affected_region(
            profiles, follow_chain(*DIRTY_ONLY_FOLLOWS, (6, 7)),
            extra_sources=[7],
        )
        assert set(plan.core.tolist()) == {DIRTY, CLEAN, 7}
        assert plan.needed == {DIRTY: {NEAR}}
        assert plan.fringe.tolist() == [NEAR]

    def test_empty_delta_is_empty_plan(self):
        profiles = RetweetProfiles()
        profiles.add(1, 10)
        profiles.mark_clean()
        plan = affected_region(profiles, FollowGraph())
        assert plan.is_empty
        assert plan.affected.tolist() == []

    def test_affected_is_core_union_fringe(self):
        graph = follow_chain((5, 4), (4, 3))
        profiles = RetweetProfiles()
        profiles.mark_clean()
        profiles.add(3, 10)
        plan = affected_region(profiles, graph)
        assert set(plan.affected.tolist()) == set(plan.core.tolist()) | set(
            plan.fringe.tolist()
        )

    def test_candidates_is_reverse_of_needed(self):
        plan = DeltaPlan(
            core=np.array([1, 2]), fringe=np.array([4, 5]),
            pair_core=np.array([1, 1, 2]), pair_fringe=np.array([4, 5, 4]),
            dirty_users=frozenset(), dirty_tweets=frozenset(),
        )
        assert plan.needed == {1: {4, 5}, 2: {4}}
        assert plan.candidates == {4: {1, 2}, 5: {1}}


class TestApplyDelta:
    def build_world(self):
        graph = follow_chain((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))
        profiles = RetweetProfiles()
        for user in (1, 2, 3):
            profiles.add(user, 10)
        builder = SimGraphBuilder(tau=1e-6)
        old = builder.build(graph, profiles)
        profiles.mark_clean()
        return graph, profiles, builder, old

    def test_empty_delta_returns_same_object(self):
        graph, profiles, builder, old = self.build_world()
        refreshed, report = apply_delta(old, graph, profiles, builder)
        assert refreshed is old
        assert report.noop
        assert report.core_size == 0
        assert not report.topology_changed
        assert report.changed_users.tolist() == []

    def test_report_counts_match_plan(self):
        graph, profiles, builder, old = self.build_world()
        profiles.add(1, 99)
        plan = affected_region(profiles, graph, hops=builder.hops)
        refreshed, report = apply_delta(
            old, graph, profiles, builder, plan=plan
        )
        assert not report.noop
        assert report.core_size == len(plan.core)
        assert report.fringe_size == len(plan.fringe)
        assert report.rows_patched == len(plan.fringe)
        assert np.array_equal(report.affected_users, plan.affected)
        assert np.isin(report.changed_users, report.affected_users).all()

    def test_weight_only_delta_not_topology_changed(self):
        # A fresh solo tweet only grows |L_1|: every pair keeps its
        # edge but re-weighs, so the topology is preserved.
        graph, profiles, builder, old = self.build_world()
        profiles.add(1, 99)
        refreshed, report = apply_delta(old, graph, profiles, builder)
        assert not report.topology_changed
        assert {(u, v) for u, v, _ in to_digraph(refreshed).edges()} == {
            (u, v) for u, v, _ in to_digraph(old).edges()
        }
        full = builder.build(graph, profiles)
        assert {(u, v, w) for u, v, w in to_digraph(refreshed).edges()} == {
            (u, v, w) for u, v, w in to_digraph(full).edges()
        }

    def test_edge_gain_flags_topology_changed(self):
        graph = follow_chain((1, 2), (2, 1))
        profiles = RetweetProfiles()
        profiles.add(1, 10)
        profiles.add(2, 20)
        builder = SimGraphBuilder(tau=1e-6)
        old = builder.build(graph, profiles)
        assert to_digraph(old).edge_count == 0
        profiles.mark_clean()
        profiles.add(2, 10)  # first shared tweet: edges appear
        refreshed, report = apply_delta(old, graph, profiles, builder)
        assert report.topology_changed
        assert to_digraph(refreshed).edge_count == 2

    def test_old_graph_is_not_mutated(self):
        graph, profiles, builder, old = self.build_world()
        before = sorted(to_digraph(old).edges())
        profiles.add(1, 99)
        refreshed, _ = apply_delta(old, graph, profiles, builder)
        assert refreshed is not old
        assert sorted(to_digraph(old).edges()) == before

    def test_metrics_counters_fire(self):
        graph, profiles, builder, old = self.build_world()
        profiles.add(1, 99)
        metrics = MetricsRegistry()
        apply_delta(old, graph, profiles, builder, metrics=metrics)
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["maintenance.dirty_users"] == 1
        assert snapshot["counters"]["maintenance.rows_recomputed"] >= 1
        assert snapshot["counters"]["maintenance.pairs_rescored"] >= 1

    @pytest.mark.parametrize("origin", BUILDS)
    def test_dirty_only_fringe_still_equals_from_scratch(self, origin):
        graph = follow_chain(*DIRTY_ONLY_FOLLOWS)
        profiles = RetweetProfiles()
        for user, tweet in DIRTY_ONLY_HISTORY:
            profiles.add(user, tweet)
        builder = SimGraphBuilder(tau=1e-6)
        old = build_with(origin, graph, profiles, builder)
        assert to_digraph(old).has_edge(FOLLOWER, CLEAN)
        profiles.mark_clean()
        profiles.add(DIRTY, 10)
        refreshed, report = apply_delta(old, graph, profiles, builder)
        assert FOLLOWER not in report.affected_users.tolist()
        assert report.rows_patched == 1 and report.pairs_needed == 1
        expected = edge_map(builder.build(graph, profiles))
        actual = edge_map(refreshed)
        assert actual.keys() == expected.keys()
        for pair, weight in actual.items():
            assert weight == pytest.approx(expected[pair], abs=1e-12)
        # The row nobody looked at is carried over as it was.
        assert FOLLOWER not in report.changed_users.tolist()
        assert list(refreshed.influencers(FOLLOWER)) == list(
            old.influencers(FOLLOWER)
        )

    def test_report_says_what_was_written(self):
        graph, profiles, builder, old = self.build_world()
        profiles.add(1, 99)
        metrics = MetricsRegistry()
        _, report = apply_delta(old, graph, profiles, builder, metrics=metrics)
        counters = metrics.snapshot()["counters"]
        assert counters["maintenance.rows_changed"] == len(report.changed_users)
        assert counters["maintenance.pairs_needed"] == report.pairs_needed == 2
        assert counters["maintenance.edges_added"] == report.edges_added == 0
        assert counters["maintenance.edges_removed"] == report.edges_removed == 0

    def test_edge_counts_follow_topology(self):
        graph = follow_chain((1, 2), (2, 1))
        profiles = RetweetProfiles()
        profiles.add(1, 10)
        profiles.add(2, 11)
        builder = SimGraphBuilder(tau=1e-6)
        old = builder.build(graph, profiles)
        profiles.mark_clean()
        profiles.add(2, 10)  # 1 and 2 now share a tweet: two new edges
        _, report = apply_delta(old, graph, profiles, builder)
        assert (report.edges_added, report.edges_removed) == (2, 0)

    def test_max_influencers_promotes_fringe(self):
        graph, profiles, builder, old = self.build_world()
        capped = SimGraphBuilder(tau=1e-6, max_influencers=1)
        old_capped = capped.build(graph, profiles)
        profiles.mark_clean()
        profiles.add(1, 99)
        refreshed, report = apply_delta(old_capped, graph, profiles, capped)
        # Fringe rows cannot be partially patched under a row cap.
        assert report.fringe_size == 0
        full = capped.build(graph, profiles)
        assert {(u, v) for u, v, _ in to_digraph(refreshed).edges()} == {
            (u, v) for u, v, _ in to_digraph(full).edges()
        }

    def test_dropped_user_prunes_isolated_nodes(self):
        graph = follow_chain((1, 2), (2, 1))
        profiles = RetweetProfiles()
        profiles.add(1, 10)
        profiles.add(2, 10)
        builder = SimGraphBuilder(tau=1e-6)
        old = builder.build(graph, profiles)
        assert set(to_digraph(old).nodes()) == {1, 2}
        profiles.mark_clean()
        # Tweet 10 goes viral: m(10) explodes and the pair's similarity
        # collapses below any meaningful tau.
        strict = SimGraphBuilder(tau=0.5)
        old_strict = strict.build(graph, profiles)
        profiles.add(3, 10)
        refreshed, report = apply_delta(old_strict, graph, profiles, strict)
        full = strict.build(graph, profiles)
        assert set(to_digraph(refreshed).nodes()) == set(to_digraph(full).nodes())

    def test_tau_and_hops_inherited_from_old(self):
        graph, profiles, builder, old = self.build_world()
        profiles.add(1, 99)
        refreshed, _ = apply_delta(old, graph, profiles, builder)
        assert refreshed.tau == old.tau


def ring_world(components: int, size: int = 20):
    """Disjoint ``size``-user follow rings; neighbours share a tweet."""
    graph, profiles = FollowGraph(), RetweetProfiles()
    for base in range(0, components * size, size):
        for i in range(size):
            graph.add_edge(base + i, base + (i + 1) % size)
            graph.add_edge(base + i, base + (i + 2) % size)
            profiles.add(base + i, base + i)
            profiles.add(base + i, base + (i + 1) % size)
    return graph, profiles


def test_delta_memory_follows_the_region_not_the_corpus():
    """One fixed delta inside the first ring, on a corpus of 100 rings
    and of 400, from the compiled graph a service holds: what
    ``apply_delta`` allocates at its peak may grow only by the spliced
    arrays (a few words per untouched user and edge) — not by a row
    dict per user, nor by an incidence row, nor by a walk over the
    whole follow graph."""

    def peak(components):
        graph, profiles = ring_world(components)
        builder = SimGraphBuilder(tau=1e-6)
        old = builder.build(graph, profiles)
        old.index, old.out_indptr, old.out_indices  # compiled outside the traced region
        profiles.mark_clean()
        for user in range(5):
            profiles.add(user, (user + 7) % 20)
        tracemalloc.start()
        try:
            _, report = apply_delta(old, graph, profiles, builder)
            _, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.core_size == 11
        return peak_bytes

    extra_users = 300 * 20
    assert peak(400) - peak(100) < 100 * extra_users
