"""A warm state carries its seeds: the chain a tweet's retweets drive.

Every retweet of a live tweet re-propagates it from the previous
fixpoint with one more seed.  The compiled engine's states remember the
seeds they were pinned with, so the next task looks up only the seeds it
adds and — when none of those is a node of the SimGraph — hands back the
fixpoint it was given instead of loading, solving and gathering it
again.  This suite pins that shortcut to the reference engine step by
step, pins what may and may not be shared between the two states, and
pins every way out of the shortcut to the entry-by-entry load.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CSRPropagationEngine, CSRWarmState, PropagationEngine
from repro.core.csr import sorted_unique
from repro.core.propagation_csr import nonseed_candidates
from repro.obs import MetricsRegistry
from repro.service.engine import DAY, Candidates
from tests.test_propagation_differential import (
    KERNEL_WORK,
    OFF_GRAPH,
    POLICIES,
    draw_simgraph,
    random_graph,
)
from tests.test_service_engine import deliveries, warm_service
from tests.test_simgraph_oracle import from_simgraph


# ----------------------------------------------------------------------
# (a) the chain, step by step, against the reference
# ----------------------------------------------------------------------
@st.composite
def seed_chain(draw):
    """One graph, one policy and the seeds each step adds: users of the
    graph (with out-edges or without — the draw leaves many isolated),
    users outside it, seeds already pinned, and ``None``."""
    simgraph, n = draw_simgraph(draw)
    seed = st.one_of(
        st.integers(0, n - 1),
        st.integers(OFF_GRAPH, OFF_GRAPH + 3),
        st.none(),
    )
    steps = draw(
        st.lists(st.lists(seed, max_size=3), min_size=2, max_size=8)
    )
    return simgraph, draw(st.sampled_from(sorted(POLICIES))), steps


@settings(max_examples=120, deadline=None)
@given(seed_chain())
def test_warm_chain_equals_reference_step_by_step(case):
    simgraph, policy, steps = case
    registries = {"csr": MetricsRegistry(), "reference": MetricsRegistry()}
    compiled = CSRPropagationEngine(
        simgraph, threshold=POLICIES[policy](), metrics=registries["csr"]
    )
    reference = PropagationEngine(
        simgraph, threshold=POLICIES[policy](), metrics=registries["reference"]
    )
    seeds: list = []
    state = mapping = None
    for added in steps:
        fresh = {
            s for s in added if s is not None and s not in seeds
        }
        seeds = seeds + added
        (want,) = reference.propagate_many([seeds], initials=[mapping])
        (got,) = compiled.propagate_many([seeds], initials=[state])
        previous, (state,) = state, compiled.take_states()
        (mapping,) = reference.take_states()
        assert got == want
        assert (got.iterations, got.updates, got.converged) == (
            want.iterations, want.updates, want.converged
        )
        assert state.probabilities() == mapping
        assert state.seeds == {s for s in seeds if s is not None}
        assert sorted(simgraph_positions(compiled, state.seeds)) == sorted(
            state.seed_idx.tolist()
        )
        if previous and not any(s in compiled.simgraph for s in fresh):
            # Nothing new inside the graph: the fixpoint is re-emitted.
            assert state.indices is previous.indices
            assert state.values is previous.values
            assert got.iterations == got.updates == 0
        users, scores = nonseed_candidates(state, set(state.seeds), 1e-6)
        assert dict(zip(users.tolist(), scores.tolist())) == {
            u: p for u, p in mapping.items()
            if u not in state.seeds and p >= 1e-6
        }
        assert users.tolist() == sorted(users.tolist())
    csr, reference = (
        registries[name].snapshot(deterministic=True)
        for name in ("csr", "reference")
    )
    for name in KERNEL_WORK:
        csr["counters"].pop(name)
    assert csr == reference


def simgraph_positions(engine, seeds):
    return [engine.simgraph.index[s] for s in seeds if s in engine.simgraph.index]


# ----------------------------------------------------------------------
# (b) what a re-emitted state shares, and that nobody can write to it
# ----------------------------------------------------------------------
@pytest.fixture
def chain():
    """An engine, its state for seeds {0, 1} and the re-emission of
    that state for one more, off-graph, seed."""
    simgraph = random_graph(50, 170, seed=3)
    engine = CSRPropagationEngine(simgraph)
    engine.propagate({0, 1})
    first = engine.take_state()
    result = engine.propagate({0, 1, OFF_GRAPH}, initial=first)
    return engine, first, engine.take_state(), result


def test_reemitted_state_shares_arrays_and_candidates(chain):
    engine, first, second, result = chain
    assert (result.iterations, result.updates, result.converged) == (0, 0, True)
    assert second is not first
    assert second.indices is first.indices
    assert second.values is first.values
    assert second.seed_idx is first.seed_idx
    assert second.seeds == {0, 1, OFF_GRAPH}
    assert dict(second.extra) == {OFF_GRAPH: 1.0}
    # The state it came from is as it was.
    assert first.seeds == {0, 1} and dict(first.extra) == {}
    # Candidates are computed once per fixpoint, whichever state asks.
    users, scores = nonseed_candidates(first, {0, 1}, 1e-6)
    engine.propagate_many([{0, 1, OFF_GRAPH + 1}], initials=[first])
    (third,) = engine.take_states()
    again = nonseed_candidates(third, {0, 1, OFF_GRAPH + 1}, 1e-6)
    assert again[0] is users and again[1] is scores
    # ... but not for another floor, and not for other seeds.
    assert nonseed_candidates(third, {0, 1, OFF_GRAPH + 1}, 0.5)[0] is not users
    fewer = nonseed_candidates(third, {0}, 1e-6)
    assert 1 in fewer[0].tolist() and 1 not in users.tolist()


def test_states_cannot_be_written_through(chain):
    _, first, second, _ = chain
    for state in (first, second):
        for array in (state.indices, state.values, state.seed_idx):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        with pytest.raises(TypeError):
            state.extra[7] = 1.0
        with pytest.raises(AttributeError):
            state.seeds.add(7)
        for array in nonseed_candidates(state, set(state.seeds), 1e-6):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


def test_hand_built_state_does_not_freeze_the_callers_arrays(chain):
    engine, first, _, _ = chain
    indices, values = first.indices.copy(), first.values.copy()
    built = CSRWarmState(engine.simgraph, indices, values, {})
    with pytest.raises(ValueError, match="read-only"):
        built.values[0] = 0.5
    values[0] = values[0]  # the caller's own array stays writeable


def test_carried_off_graph_entry_that_becomes_a_seed_leaves_the_candidates():
    """A mapping can carry an entry the graph never saw; it is a
    candidate until the user retweets — the one case in which the
    re-emitted state must not inherit the candidates."""
    simgraph = random_graph(50, 170, seed=3)
    engine = CSRPropagationEngine(simgraph)
    reference = PropagationEngine(simgraph)
    warm = {OFF_GRAPH: 0.25, 5: 0.5}
    engine.propagate({0, 1}, initial=warm)
    first = engine.take_state()
    assert OFF_GRAPH in nonseed_candidates(first, {0, 1}, 1e-6)[0].tolist()
    seeds = {0, 1, OFF_GRAPH}
    got = engine.propagate(seeds, initial=first)
    second = engine.take_state()
    assert second.indices is first.indices
    assert got == reference.propagate(
        seeds, initial=reference.propagate({0, 1}, initial=warm).probabilities
    )
    users, _ = nonseed_candidates(second, seeds, 1e-6)
    assert OFF_GRAPH not in users.tolist()
    assert dict(second.extra) == {OFF_GRAPH: 1.0}


# ----------------------------------------------------------------------
# (c) every way out of the shortcut lands on the entry-by-entry load
# ----------------------------------------------------------------------
def both_engines(simgraph, policy="beta"):
    return (
        CSRPropagationEngine(simgraph, threshold=POLICIES[policy]()),
        PropagationEngine(simgraph, threshold=POLICIES[policy]()),
    )


@pytest.mark.parametrize("added", [{OFF_GRAPH}, {7}, {7, OFF_GRAPH}, set()])
@pytest.mark.parametrize(
    "fallback", ["mapping", "hand-built", "not-a-subset", "non-positive"]
)
def test_fallbacks_equal_the_reference(fallback, added):
    simgraph = random_graph(50, 170, seed=17)
    engine, reference = both_engines(simgraph)
    base = {0, 1, 2}
    engine.propagate(base)
    state = engine.take_state()
    mapping = reference.propagate(base).probabilities
    seeds = base | added
    if fallback == "mapping":
        initial = state.probabilities()
    elif fallback == "hand-built":
        initial = CSRWarmState(
            engine.simgraph, state.indices, state.values, dict(state.extra)
        )
        assert initial.seeds is None and initial.seed_idx is None
    elif fallback == "not-a-subset":
        # User 2 stops being a seed: its 1.0 is carried as a warm entry.
        initial, seeds = state, {0, 1} | added
    else:
        # A state that claims its seeds but holds an entry the warm
        # load filters out (p <= 0): nothing may be re-emitted.
        values = state.values.copy()
        victim = next(
            k for k, i in enumerate(state.indices.tolist())
            if i not in state.seed_idx.tolist()
        )
        values[victim] = 0.0
        initial = CSRWarmState(
            engine.simgraph, state.indices, values, dict(state.extra),
            seeds=state.seeds, seed_idx=state.seed_idx,
        )
        mapping = initial.probabilities()
        assert not initial.all_positive()
    want = reference.propagate(seeds, initial=mapping)
    got = engine.propagate(seeds, initial=initial)
    assert got == want
    after = engine.take_state()
    assert after.indices is not state.indices
    assert after.seeds == seeds
    # Whatever came in, what goes out is a pinned state again.
    chained = engine.propagate(seeds | {OFF_GRAPH + 9}, initial=after)
    assert engine.take_state().indices is after.indices
    assert chained == reference.propagate(
        seeds | {OFF_GRAPH + 9}, initial=want.probabilities
    )


def test_state_of_another_compiled_graph_is_refused():
    simgraph = random_graph(50, 170, seed=29)
    engine = CSRPropagationEngine(simgraph)
    twin = CSRPropagationEngine(from_simgraph(simgraph))
    twin.propagate({0, 1})
    for seeds in ({0, 1, OFF_GRAPH}, {0, 1, 7}):
        with pytest.raises(ValueError, match="different SimGraph"):
            engine.propagate(seeds, initial=twin.take_state())
    # ... and the engine is none the worse for it.
    assert engine.propagate({0, 1}) == twin.propagate({0, 1})


# ----------------------------------------------------------------------
# (d) the sort + neighbour-diff helper is np.unique
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.integers(min_value=-(2**62), max_value=2**62), max_size=60
    ),
    st.integers(min_value=1, max_value=5),
)
def test_sorted_unique_is_np_unique(values, repeats):
    array = np.array(values * repeats, dtype=np.int64)
    got = sorted_unique(array)
    want = np.unique(array)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize(
    "array", [np.empty(0, dtype=np.int64), np.full(9, 4), np.array([3])],
    ids=["empty", "all-equal", "single"],
)
def test_sorted_unique_edge_cases(array):
    before = array.copy()
    assert sorted_unique(array).tolist() == np.unique(array).tolist()
    assert array.tolist() == before.tolist()  # the input is not sorted in place


# ----------------------------------------------------------------------
# (e) the budget over per-tweet known users
# ----------------------------------------------------------------------
def on_both(scenario):
    reference, csr = scenario("reference"), scenario("csr")
    assert reference == csr
    return csr


def test_same_pair_twice_in_one_release_is_delivered_once():
    service = warm_service()
    service.retweet(user=0, tweet=200, at=600.0)  # 1 and 2 notified
    service.post_tweet(tweet_id=201, author=3, at=601.0)
    twice = Candidates(
        201, 700.0, np.array([1, 2]), np.array([0.5, 0.25])
    )
    out = service._deliver([twice, twice])
    assert [(r.user, r.tweet) for r in out] == [(1, 201), (2, 201)]
    assert service.stats.notifications_suppressed == 0
    counters = service.metrics_snapshot(deterministic=True)["counters"]
    assert counters["budget.rejections"] == 2
    assert service.knows(1, 201) and service.knows(2, 201)
    assert service._deliver([twice]) == []


def test_day_rollover_reoffers_what_the_budget_suppressed():
    """Users 1 and 2 are out of budget when tweet 201 first scores them.
    The next two retweets of 201 come from outside the SimGraph, so the
    engine re-emits the same fixpoint (and the same candidate arrays)
    each time: suppressed again the same day, delivered the next."""

    def scenario(prop_backend):
        service = warm_service(prop_backend=prop_backend, daily_budget=1)
        service.post_tweet(tweet_id=201, author=3, at=501.0)
        out = [service.retweet(user=0, tweet=200, at=600.0)]
        out.append(service.retweet(user=0, tweet=201, at=601.0))
        assert service.stats.notifications_suppressed == 2
        state = service._warm.get(201)
        out.append(service.retweet(user=3, tweet=201, at=602.0))
        assert service.stats.notifications_suppressed == 4
        if prop_backend == "csr":
            assert service._warm.get(201).indices is state.indices
        out.append(service.retweet(user=4, tweet=201, at=601.0 + DAY))
        assert service.stats.notifications_suppressed == 4
        assert service.knows(1, 201) and service.knows(2, 201)
        return [deliveries(o) for o in out]

    first, none, still_none, next_day = on_both(scenario)
    assert [(u, t) for u, t, _, _ in first] == [(1, 200), (2, 200)]
    assert none == still_none == []
    assert [(u, t) for u, t, _, _ in next_day] == [(1, 201), (2, 201)]


def test_warm_reads_after_an_off_graph_retweet():
    """``warm_answer`` / ``warm_scores`` read a re-emitted state like any
    other — with the service's current seeds, which may have grown past
    the state's."""

    def scenario(prop_backend):
        service = warm_service(prop_backend=prop_backend)
        service.retweet(user=0, tweet=200, at=600.0)
        service.retweet(user=4, tweet=200, at=601.0)  # 4: not in the SimGraph
        scores = service.warm_scores([200])
        answer = service.warm_answer(user=1, tweet=200, at=602.0)
        return scores, deliveries(answer), service.warm_scores([200])

    scores, answer, after = on_both(scenario)
    assert set(scores[200]) == {1, 2}
    assert [(u, t) for u, t, _, _ in answer] == [(2, 200)]
    assert set(after[200]) == {2}


def test_known_pairs_cover_retweeters_and_deliveries():
    service = warm_service()
    before = service.known_pairs()
    assert before == {(u, t) for t in (100, 101) for u in (0, 1, 2)}
    service.absorb_retweet(4, 300)
    service.absorb_retweet(4, 300)
    delivered = service.retweet(user=0, tweet=200, at=600.0)
    assert service.known_pairs() == before | {(4, 300), (0, 200)} | {
        (r.user, r.tweet) for r in delivered
    }
    assert service.knows(4, 300) and not service.knows(3, 300)
    assert not service.knows(0, 999)
