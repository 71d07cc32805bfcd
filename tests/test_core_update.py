"""Tests for repro.core.update (paper §6.3, Figure 16 strategies)."""

import pytest

from repro.core.profiles import RetweetProfiles
from repro.core.simgraph import SimGraphBuilder
from repro.core.update import (
    STRATEGIES,
    apply_strategy,
    crossfold,
    delta,
    from_scratch,
    old_simgraph,
    update_weights,
)
from repro.data import temporal_split
from tests.test_graph_oracle import to_digraph


@pytest.fixture(scope="module")
def world(small_dataset):
    split = temporal_split(small_dataset, train_fraction=0.9)
    mid = split.slice_test(0.90, 0.95)
    builder = SimGraphBuilder(tau=0.001)
    profiles = RetweetProfiles(split.train)
    old = builder.build(small_dataset.follow_graph, profiles)
    return small_dataset, split, mid, builder, old


class TestStrategies:
    def test_registry_names(self):
        assert set(STRATEGIES) == {
            "from scratch",
            "old SimGraph",
            "crossfold",
            "SimGraph updated",
            "delta",
        }

    def test_old_simgraph_is_identity(self, world):
        dataset, split, mid, builder, old = world
        profiles = RetweetProfiles(split.train)
        profiles.extend(mid)
        assert old_simgraph(old, dataset.follow_graph, profiles, builder) is old

    def test_from_scratch_differs_from_old(self, world):
        dataset, split, mid, builder, old = world
        profiles = RetweetProfiles(split.train)
        profiles.extend(mid)
        rebuilt = from_scratch(old, dataset.follow_graph, profiles, builder)
        assert rebuilt is not old
        old_edges = set((u, v) for u, v, _ in to_digraph(old).edges())
        new_edges = set((u, v) for u, v, _ in to_digraph(rebuilt).edges())
        assert old_edges != new_edges

    def test_update_weights_keeps_topology(self, world):
        dataset, split, mid, builder, old = world
        profiles = RetweetProfiles(split.train)
        profiles.extend(mid)
        refreshed = update_weights(old, dataset.follow_graph, profiles, builder)
        old_edges = set((u, v) for u, v, _ in to_digraph(old).edges())
        new_edges = set((u, v) for u, v, _ in to_digraph(refreshed).edges())
        assert old_edges == new_edges

    def test_update_weights_recomputes_weights(self, world):
        dataset, split, mid, builder, old = world
        profiles = RetweetProfiles(split.train)
        profiles.extend(mid)
        refreshed = update_weights(old, dataset.follow_graph, profiles, builder)
        before = to_digraph(old)
        changed = sum(
            1
            for u, v, w in to_digraph(refreshed).edges()
            if abs(w - before.weight(u, v)) > 1e-12
        )
        assert changed > 0

    def test_delta_matches_from_scratch(self, world):
        dataset, split, mid, builder, old = world
        via_delta = apply_strategy(
            "delta", old, dataset.follow_graph, split.train, mid,
            builder=builder,
        )
        profiles = RetweetProfiles(split.train)
        profiles.extend(mid)
        full = from_scratch(old, dataset.follow_graph, profiles, builder)
        delta_edges = {(u, v): w for u, v, w in to_digraph(via_delta).edges()}
        full_edges = {(u, v): w for u, v, w in to_digraph(full).edges()}
        assert set(delta_edges) == set(full_edges)
        # Fringe pairs are scored from the core side of the symmetric
        # walk, so weights may differ by last-ulp round-off.
        for pair, w in delta_edges.items():
            assert w == pytest.approx(full_edges[pair], abs=1e-12)

    def test_delta_with_empty_slice_is_same_object(self, world):
        dataset, split, _, builder, old = world
        profiles = RetweetProfiles(split.train)
        profiles.mark_clean()
        assert delta(old, dataset.follow_graph, profiles, builder) is old

    def test_crossfold_explores_old_simgraph(self, world):
        dataset, split, mid, builder, old = world
        profiles = RetweetProfiles(split.train)
        profiles.extend(mid)
        folded = crossfold(old, dataset.follow_graph, profiles, builder)
        # Crossfold may add transitive edges absent from the old graph.
        assert folded.node_count > 0
        # Every crossfold source was reachable in the old SimGraph.
        for u, _, _ in to_digraph(folded).edges():
            assert u in old


class TestEmptyDeltaEquivalence:
    """§6.3 sanity: with *no* new retweets, maintenance must be a no-op.

    If the update slice is empty the profiles are unchanged, so every
    strategy should reproduce the graph it started from — *from scratch*
    exactly, *SimGraph updated* up to float round-off, and *crossfold*
    as an edge-superset (2-hop exploration of the SimGraph may add
    transitive edges, but may neither drop edges nor change weights).
    """

    def test_from_scratch_with_empty_delta_is_identity(self, world):
        dataset, split, _, builder, old = world
        profiles = RetweetProfiles(split.train)  # no .extend(): empty delta
        rebuilt = from_scratch(old, dataset.follow_graph, profiles, builder)
        assert sorted(to_digraph(rebuilt).edges()) == sorted(to_digraph(old).edges())
        assert rebuilt.tau == old.tau

    def test_update_weights_with_empty_delta_keeps_weights(self, world):
        dataset, split, _, builder, old = world
        profiles = RetweetProfiles(split.train)
        refreshed = update_weights(old, dataset.follow_graph, profiles, builder)
        old_edges = {(u, v) for u, v, _ in to_digraph(old).edges()}
        new_edges = {(u, v) for u, v, _ in to_digraph(refreshed).edges()}
        assert old_edges == new_edges
        before = to_digraph(old)
        for u, v, w in to_digraph(refreshed).edges():
            assert w == pytest.approx(before.weight(u, v), abs=1e-12)

    def test_crossfold_with_empty_delta_preserves_old_edges(self, world):
        dataset, split, _, builder, old = world
        profiles = RetweetProfiles(split.train)
        folded = crossfold(old, dataset.follow_graph, profiles, builder)
        old_edges = {(u, v) for u, v, _ in to_digraph(old).edges()}
        new_edges = {(u, v) for u, v, _ in to_digraph(folded).edges()}
        assert old_edges <= new_edges  # nothing dropped
        before, after = to_digraph(old), to_digraph(folded)
        for u, v in old_edges:  # retained edges keep their exact weight
            assert after.weight(u, v) == before.weight(u, v)

    def test_crossfold_via_apply_strategy_with_empty_slice(self, world):
        dataset, split, _, builder, old = world
        folded = apply_strategy(
            "crossfold", old, dataset.follow_graph, split.train, [],
            builder=builder,
        )
        old_edges = {(u, v) for u, v, _ in to_digraph(old).edges()}
        assert old_edges <= {(u, v) for u, v, _ in to_digraph(folded).edges()}


class TestApplyStrategy:
    def test_unknown_name_rejected(self, world):
        dataset, split, mid, _, old = world
        with pytest.raises(KeyError):
            apply_strategy("bogus", old, dataset.follow_graph, split.train, mid)

    def test_dispatch_matches_direct_call(self, world):
        dataset, split, mid, builder, old = world
        via_name = apply_strategy(
            "SimGraph updated", old, dataset.follow_graph, split.train, mid,
            builder=builder,
        )
        profiles = RetweetProfiles(split.train)
        profiles.extend(mid)
        direct = update_weights(old, dataset.follow_graph, profiles, builder)
        assert sorted(to_digraph(via_name).edges()) == sorted(to_digraph(direct).edges())

    def test_default_builder_uses_old_tau(self, world):
        dataset, split, mid, _, old = world
        refreshed = apply_strategy(
            "from scratch", old, dataset.follow_graph, split.train, mid
        )
        assert refreshed.tau == old.tau
