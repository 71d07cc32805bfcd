"""Differential harness: the compiled propagation engine vs the reference.

The compiled backend (:mod:`repro.core.propagation_csr`) is only
trustworthy because this suite pins it to the reference frontier loop
(:mod:`repro.core.propagation`): on randomized SimGraphs and every
threshold policy (none / static β / dynamic γ(t)), both engines must
produce **identical** :class:`PropagationResult`\\ s — same membership,
probabilities within 1e-12 (the single-task path is bit-identical),
same iteration/update counts, same convergence flag — for cold starts,
warm starts (dict or :class:`CSRWarmState`) and batched scoring.  The
warm-start *equivalence* property (cold fixpoint == incremental
seed-by-seed resumption) is checked on both backends.  On hub graphs,
where the compiled kernel sums some iterations by pull and others by
push, the agreement is bit for bit whichever direction ran.  Any change
to either path that breaks agreement fails here first.

The compiled engine keeps ``n``-sized scratch between tasks, so the
suite also pins its hygiene: one engine driven through an arbitrary
interleaving of tasks answers like a fresh engine per task, a task that
dies leaves nothing behind, and a batch allocates for the users it
touches rather than for ``tasks x n``.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CSRPropagationEngine,
    CSRWarmState,
    DynamicThreshold,
    PropagationEngine,
    SimGraphRecommender,
    StaticThreshold,
    make_propagation_engine,
)
from repro.cli import build_parser
from repro.core.simgraph import SimGraph, SimGraphBuilder
from repro.data import temporal_split
from repro.exceptions import ConfigError
from repro.obs import NULL, MetricsRegistry, NullRegistry
from repro.service import ServiceConfig
from repro.synth import SynthConfig, generate_dataset
from tests.test_graph_oracle import DiGraph, to_digraph
from tests.test_simgraph_oracle import DictSimGraph, from_simgraph, simgraph_of

PROB_TOLERANCE = 1e-12

#: Counters only the compiled kernel records: the Def. 4.2 terms it
#: gathered and the iterations that summed them by push.
KERNEL_WORK = ("propagation.edges_gathered", "propagation.push_iterations")

#: id -> threshold-policy factory (fresh instance per use; DynamicThreshold
#: caches nothing but symmetry is cheap).
POLICIES = {
    "none": lambda: None,
    "beta": lambda: StaticThreshold(0.02),
    "gamma": lambda: DynamicThreshold(),
}


def random_graph(n, m, seed):
    rng = np.random.RandomState(seed)
    graph = DiGraph()
    graph.add_nodes(range(n))
    for _ in range(m):
        u, v = rng.randint(0, n, 2)
        if u != v:
            graph.add_edge(int(u), int(v), weight=float(rng.uniform(0.01, 0.99)))
    return simgraph_of(graph, tau=0.0)


def seed_sets_for(simgraph, seed, count=6, max_size=8):
    rng = np.random.RandomState(seed)
    users = sorted(simgraph.users.tolist())
    sets = []
    for _ in range(count):
        size = rng.randint(1, max_size)
        sets.append(set(rng.choice(users, size=size).tolist()))
    # One set with an off-graph seed: the engines must carry it at 1.0.
    sets.append(set(rng.choice(users, size=2).tolist()) | {10**6})
    return sets


def assert_same_result(reference, csr, tolerance=PROB_TOLERANCE):
    assert reference.iterations == csr.iterations
    assert reference.updates == csr.updates
    assert reference.converged == csr.converged
    assert set(reference.probabilities) == set(csr.probabilities)
    for user, p in reference.probabilities.items():
        assert csr.probabilities[user] == pytest.approx(p, abs=tolerance)


def assert_same_state(got, want):
    """Two :class:`CSRWarmState`\\ s hold the same arrays, entry for entry."""
    assert got.graph is want.graph
    assert got.indices.tolist() == want.indices.tolist()
    assert got.values.tolist() == want.values.tolist()
    assert list(got.extra.items()) == list(want.extra.items())


@pytest.fixture(scope="module", params=[3, 17, 29], ids=lambda s: f"graph{s}")
def simgraph(request):
    return random_graph(50, 170, request.param)


@pytest.fixture(params=["csr"])
def engine_cls(request):
    """The compiled engine under test, pinned to the reference loop.
    (Bit-identical in practice; the 1e-12 tolerance in
    :func:`assert_same_result` documents the contract the suite would
    still accept if a future reduction reorders sums.)"""
    return CSRPropagationEngine


class TestEngineDifferential:
    @pytest.mark.parametrize("policy", sorted(POLICIES), ids=str)
    def test_cold_start_identical(self, simgraph, engine_cls, policy):
        for i, seeds in enumerate(seed_sets_for(simgraph, seed=policy.__hash__() % 97)):
            ref = PropagationEngine(simgraph, threshold=POLICIES[policy]())
            csr = engine_cls(simgraph, threshold=POLICIES[policy]())
            a = ref.propagate(seeds)
            b = csr.propagate(seeds)
            assert_same_result(a, b)
            # The single-task path is bit-identical, not merely close.
            assert a.probabilities == b.probabilities, (policy, i)

    @pytest.mark.parametrize("policy", sorted(POLICIES), ids=str)
    def test_warm_start_identical(self, simgraph, engine_cls, policy):
        """Resuming from a previous fixpoint (dict initial) agrees."""
        ref = PropagationEngine(simgraph, threshold=POLICIES[policy]())
        csr = engine_cls(simgraph, threshold=POLICIES[policy]())
        sets = seed_sets_for(simgraph, seed=5)
        first, second = sets[0], sets[0] | sets[1]
        warm_ref = ref.propagate(first).probabilities
        warm_csr = csr.propagate(first).probabilities
        assert warm_ref == warm_csr
        assert_same_result(
            ref.propagate(second, initial=warm_ref),
            csr.propagate(second, initial=warm_csr),
        )

    def test_warm_state_matches_dict_initial(self, simgraph, engine_cls):
        """CSRWarmState resumption == the equivalent dict resumption."""
        csr = engine_cls(simgraph)
        sets = seed_sets_for(simgraph, seed=8)
        first, second = sets[0], sets[0] | sets[1]
        result = csr.propagate(first)
        state = csr.take_state()
        assert isinstance(state, CSRWarmState)
        via_state = csr.propagate(second, initial=state)
        via_dict = csr.propagate(second, initial=result.probabilities)
        assert via_state.probabilities == via_dict.probabilities
        assert via_state.iterations == via_dict.iterations
        assert via_state.updates == via_dict.updates

    def test_warm_state_rejects_foreign_graph(self, simgraph, engine_cls):
        donor = engine_cls(random_graph(10, 30, seed=99))
        donor.propagate([0])
        stale = donor.take_state()
        engine = engine_cls(simgraph)
        with pytest.raises(ValueError):
            engine.propagate([0], initial=stale)

    def test_popularity_override_identical(self, simgraph, engine_cls):
        """γ(t) depends on popularity, which can exceed |seeds|."""
        seeds = sorted(simgraph.users.tolist())[:4]
        for popularity in (None, 1, 50, 5000):
            assert_same_result(
                PropagationEngine(simgraph, threshold=DynamicThreshold()).propagate(
                    seeds, popularity=popularity
                ),
                engine_cls(simgraph, threshold=DynamicThreshold()).propagate(
                    seeds, popularity=popularity
                ),
            )

    def test_iteration_budget_identical(self, simgraph, engine_cls):
        """Non-convergence (budget exhausted) must agree too."""
        seeds = sorted(simgraph.users.tolist())[:3]
        for budget in (1, 2, 3):
            a = PropagationEngine(simgraph, max_iterations=budget).propagate(seeds)
            b = engine_cls(simgraph, max_iterations=budget).propagate(seeds)
            assert_same_result(a, b)

    def test_empty_and_off_graph_seeds(self, simgraph, engine_cls):
        for seeds in ([], [10**6], [10**6, 10**6 + 1]):
            assert_same_result(
                PropagationEngine(simgraph).propagate(seeds),
                engine_cls(simgraph).propagate(seeds),
            )

    def test_metrics_parity(self, simgraph):
        """Deterministic propagation.* counters agree across backends."""
        names = (
            "propagation.runs",
            "propagation.iterations",
            "propagation.updates",
            "propagation.threshold_skips",
        )
        counts = {}
        engines = {
            "reference": lambda registry: make_propagation_engine(
                simgraph,
                prop_backend="reference",
                threshold=StaticThreshold(0.02),
                metrics=registry,
            ),
            "csr": lambda registry: CSRPropagationEngine(
                simgraph, threshold=StaticThreshold(0.02), metrics=registry
            ),
        }
        for backend, factory in engines.items():
            registry = MetricsRegistry()
            engine = factory(registry)
            for seeds in seed_sets_for(simgraph, seed=13):
                engine.propagate(seeds)
            snapshot = registry.snapshot()["counters"]
            counts[backend] = {name: snapshot.get(name) for name in names}
        assert counts["reference"] == counts["csr"]


class TestBatchedDifferential:
    @pytest.mark.parametrize("policy", sorted(POLICIES), ids=str)
    def test_batch_matches_reference_singles(self, simgraph, engine_cls, policy):
        sets = seed_sets_for(simgraph, seed=21)
        ref = PropagationEngine(simgraph, threshold=POLICIES[policy]())
        csr = engine_cls(simgraph, threshold=POLICIES[policy]())
        singles = [ref.propagate(seeds) for seeds in sets]
        batch = csr.propagate_many(sets)
        assert len(batch) == len(sets)
        for a, b in zip(singles, batch):
            assert_same_result(a, b)

    def test_batch_matches_reference_batch(self, simgraph, engine_cls):
        """The reference engine's propagate_many (sequential loop) and
        the compiled joint batches implement the same contract."""
        sets = seed_sets_for(simgraph, seed=34)
        ref = PropagationEngine(simgraph).propagate_many(sets)
        csr = engine_cls(simgraph).propagate_many(sets)
        for a, b in zip(ref, csr):
            assert_same_result(a, b)

    def test_batch_with_mixed_initials(self, simgraph, engine_cls):
        """Warm tasks (dict and CSRWarmState) batched with cold ones."""
        sets = seed_sets_for(simgraph, seed=55)
        csr = engine_cls(simgraph)
        warm_result = csr.propagate(sets[0])
        warm_state = csr.take_state()
        initials = [warm_state, warm_result.probabilities, None]
        pops = [len(sets[0]) + 3, None, None]
        batch = csr.propagate_many(sets[:3], popularities=pops, initials=initials)
        ref = PropagationEngine(simgraph)
        ref.propagate(sets[0])
        expected = [
            ref.propagate(sets[0], popularity=pops[0], initial=warm_result.probabilities),
            ref.propagate(sets[1], initial=warm_result.probabilities),
            ref.propagate(sets[2]),
        ]
        for a, b in zip(expected, batch):
            assert_same_result(a, b)
        assert len(csr.take_states()) == 3

    def test_empty_batch(self, simgraph, engine_cls):
        assert engine_cls(simgraph).propagate_many([]) == []
        assert PropagationEngine(simgraph).propagate_many([]) == []


@pytest.mark.parametrize("backend", ["reference", "csr"])
@pytest.mark.parametrize(
    "popularities, initials",
    [([3], None), (None, [None]), ([1, 2, 3], None), (None, [None] * 3)],
    ids=[
        "short-popularities", "short-initials",
        "long-popularities", "long-initials",
    ],
)
def test_batch_length_mismatch_rejected(backend, popularities, initials):
    """A ``propagate_many`` whose three lists disagree in length is a
    caller bug: both engines name the lengths and do no work, instead of
    silently dropping (or ignoring) the trailing entries."""
    registry = MetricsRegistry()
    engine = make_propagation_engine(
        random_graph(10, 30, seed=4), prop_backend=backend, metrics=registry
    )
    with pytest.raises(ValueError, match="2 seed sets"):
        engine.propagate_many(
            [{0}, {1}], popularities=popularities, initials=initials
        )
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {} and snapshot["spans"] == []


class _RaisingPolicy:
    def threshold_for(self, popularity):
        raise RuntimeError("policy down")


class _ExplodingFrontier(NullRegistry):
    """Metrics sink whose ``fuse``-th frontier observation raises — i.e.
    mid-solve, with seeds, warm entries and updates already in scratch."""

    def __init__(self, fuse):
        super().__init__()
        self.fuse = fuse

    def histogram(self, name, base=2.0, timing=False):
        return self if name == "propagation.frontier" else super().histogram(name)

    def observe(self, value):
        self.fuse -= 1
        if self.fuse == 0:
            raise RuntimeError("metrics sink down")


@pytest.mark.parametrize(
    "failure", ["foreign-warm-state", "raising-policy", "mid-solve", "budget"]
)
def test_failed_task_leaves_scratch_clean(simgraph, failure):
    """The engine's scratch survives a task that dies: whatever the
    failure, the same engine then answers like a fresh one — for every
    singleton seed set, so a value leaked at *any* position would show."""
    policy = StaticThreshold(0.02)
    engine = CSRPropagationEngine(simgraph, threshold=policy)
    sets = seed_sets_for(simgraph, seed=89)
    engine.propagate(sets[0])
    state = engine.take_state()
    grown = sets[0] | sets[1] | sets[2]
    if failure == "foreign-warm-state":
        donor = CSRPropagationEngine(random_graph(10, 30, seed=99))
        donor.propagate([0])
        with pytest.raises(ValueError, match="different SimGraph"):
            # The first task of the batch completes, the second dies.
            engine.propagate_many(
                [grown, sets[3]], initials=[state, donor.take_state()]
            )
    elif failure == "raising-policy":
        engine.threshold = _RaisingPolicy()
        with pytest.raises(RuntimeError, match="policy down"):
            engine.propagate(grown, initial=state)
        engine.threshold = policy
    elif failure == "mid-solve":
        probe = CSRPropagationEngine(simgraph, threshold=policy)
        assert probe.propagate(grown, initial=state).iterations >= 2
        engine.metrics = _ExplodingFrontier(fuse=2)
        with pytest.raises(RuntimeError, match="metrics sink down"):
            engine.propagate(grown, initial=state)
        engine.metrics = NULL
    else:
        engine.max_iterations = 1
        assert not engine.propagate(grown, initial=state).converged
        engine.max_iterations = 200
    fresh = CSRPropagationEngine(simgraph, threshold=policy)
    probes = [{u} for u in sorted(simgraph.users.tolist())] + [grown]
    initials = [None] * (len(probes) - 1) + [state]
    assert engine.propagate_many(probes, initials=initials) == (
        fresh.propagate_many(probes, initials=initials)
    )
    for got, want in zip(engine.take_states(), fresh.take_states()):
        assert_same_state(got, want)


def test_batch_memory_follows_touched_users_not_graph_size():
    """A batch allocates for the users its tasks touch.  On 20,000 users
    in 20-user ring components a 64-task ``propagate_many`` must peak
    below ``tasks x n`` bytes — one boolean matrix of the dense joint
    fixpoint this engine used to run, which allocated a dozen."""
    n, block, tasks = 20_000, 20, 64
    users = np.arange(n, dtype=np.int64)
    offset = users % block
    base = users - offset
    indices = np.stack(
        [base + (offset + 1) % block, base + (offset + 2) % block], axis=1
    ).ravel()
    graph = SimGraph(
        users,
        np.arange(0, 2 * n + 1, 2, dtype=np.int64),
        indices,
        np.full(2 * n, 0.5),
        tau=0.0,
    )
    engine = CSRPropagationEngine(graph)
    seed_sets = [{7 * block * t, 7 * block * t + 3} for t in range(tasks)]
    warmed = engine.propagate_many(seed_sets)
    assert all(len(r.probabilities) == block for r in warmed)
    tracemalloc.start()
    try:
        results = engine.propagate_many(seed_sets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert results == warmed
    assert peak < tasks * n


def draw_digraph(draw, users):
    """A small random weighted DiGraph over ``users``, in their order."""
    n = len(users)
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(min_value=0.01, max_value=0.99),
            ).filter(lambda e: e[0] != e[1]),
            max_size=40,
        )
    )
    graph = DiGraph()
    graph.add_nodes(users)
    for u, v, w in edges:
        graph.add_edge(users[u], users[v], weight=w)
    return graph


def draw_simgraph(draw):
    """A small random SimGraph over users ``0..n-1``; returns (simgraph, n)."""
    n = draw(st.integers(min_value=2, max_value=12))
    return simgraph_of(draw_digraph(draw, list(range(n))), tau=0.0), n


@st.composite
def random_case(draw):
    simgraph, n = draw_simgraph(draw)
    seeds = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    warm = draw(st.sets(st.integers(0, n - 1), min_size=0, max_size=3))
    policy = draw(st.sampled_from(sorted(POLICIES)))
    return simgraph, seeds, warm, policy


@settings(max_examples=80, deadline=None)
@given(random_case())
def test_differential_property(case):
    """Property: the compiled engine agrees exactly with the reference
    on arbitrary graphs, seed sets, warm starts and threshold policies."""
    simgraph, seeds, warm, policy = case
    ref = PropagationEngine(simgraph, threshold=POLICIES[policy]())
    initial_ref = None
    if warm:
        initial_ref = ref.propagate(warm).probabilities
    a = ref.propagate(seeds, initial=initial_ref)
    compiled = CSRPropagationEngine(simgraph, threshold=POLICIES[policy]())
    initial = None
    if warm:
        compiled.propagate(warm)
        initial = compiled.take_state()
    b = compiled.propagate(seeds, initial=initial)
    assert a.probabilities == b.probabilities
    assert (a.iterations, a.updates, a.converged) == (
        b.iterations,
        b.updates,
        b.converged,
    )


@settings(max_examples=40, deadline=None)
@given(random_case())
def test_warm_start_equivalence_property(case):
    """Satellite property: with no threshold, a cold propagation from
    the full seed set equals incrementally adding seeds one at a time
    via ``initial=`` — on both backends.  (β/γ muting intentionally
    breaks this equality, so the property is stated for β = 0; the
    fixpoint tolerance is 1e-10, hence the looser comparison.)"""
    simgraph, seeds, _, _ = case
    ordered = sorted(seeds)
    engines = [
        make_propagation_engine(simgraph, prop_backend="reference"),
        CSRPropagationEngine(simgraph),
    ]
    for engine in engines:
        cold = engine.propagate(ordered)
        incremental = None
        for i in range(1, len(ordered) + 1):
            incremental = engine.propagate(
                ordered[:i],
                initial=None if i == 1 else incremental.probabilities,
            )
        assert set(cold.probabilities) <= set(incremental.probabilities)
        for user, p in cold.probabilities.items():
            assert incremental.probabilities[user] == pytest.approx(p, abs=1e-8)


class ShuffledInfluence:
    """A SimGraph whose :meth:`influenced` answers in a seeded random
    order: the frontier walk's order is all that differs."""

    def __init__(self, simgraph, seed):
        self.simgraph = simgraph
        self.rng = random.Random(seed)

    def __contains__(self, user):
        return user in self.simgraph

    def influencers(self, user):
        return self.simgraph.influencers(user)

    def influenced(self, user):
        users = list(self.simgraph.influenced(user))
        self.rng.shuffle(users)
        return tuple(users)


@st.composite
def order_case(draw):
    """A random graph over user ids in a drawn node order, so a
    predecessor set's hash order, the node order and a shuffle all
    differ; seeds, warm seeds, a policy and a shuffle seed.  The ids
    share their low ten bits, so in the engine's small sets they collide
    and iteration follows insertion, which is the ``influenced`` order:
    a Gauss-Seidel round (one reading this round's values) fails here."""
    n = draw(st.integers(min_value=2, max_value=12))
    users = draw(
        st.lists(
            st.integers(0, 10**4).map(lambda k: k << 10),
            min_size=n, max_size=n, unique=True,
        )
    )
    graph = draw_digraph(draw, users)
    seeds = draw(st.sets(st.sampled_from(users), min_size=1, max_size=n))
    warm = draw(st.sets(st.sampled_from(users), max_size=3))
    policy = draw(st.sampled_from(sorted(POLICIES)))
    return graph, seeds, warm, policy, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(order_case())
def test_frontier_order_cannot_change_a_value_property(case):
    """Property: the reference fixpoint is Jacobi-style (a round reads
    only the previous round's values) and muting depends on a user's own
    delta, so the order ``influenced`` lists users in cannot change a
    result or a threshold skip.  Three graphs: the dict oracle (its
    predecessor sets in hash order), its compiled array SimGraph (the
    transpose in node order) and a per-call shuffle of the latter."""
    graph, seeds, warm, policy, shuffle = case
    oracle = DictSimGraph(graph, tau=0.0)
    compiled = oracle.compile()
    outcomes = []
    for simgraph in (oracle, compiled, ShuffledInfluence(compiled, shuffle)):
        registry = MetricsRegistry()
        engine = PropagationEngine(
            simgraph, threshold=POLICIES[policy](), metrics=registry
        )
        initial = engine.propagate(warm).probabilities if warm else None
        result = engine.propagate(seeds, initial=initial)
        skips = registry.snapshot()["counters"].get("propagation.threshold_skips")
        outcomes.append((result, skips))
    assert outcomes[0] == outcomes[1] == outcomes[2]


OFF_GRAPH = 10**6


@st.composite
def interleaving(draw):
    """One graph, one policy and a schedule of steps; each step is a few
    tasks run either one by one (``propagate``) or as one batch."""
    simgraph, n = draw_simgraph(draw)
    users = st.integers(0, n - 1)
    task = st.fixed_dictionaries({
        "seeds": st.sets(st.one_of(users, st.just(OFF_GRAPH)), max_size=n),
        "popularity": st.one_of(st.none(), st.integers(1, 400)),
        "warm": st.sampled_from(["cold", "state", "mapping"]),
        "warm_seeds": st.sets(users, min_size=1, max_size=3),
    })
    steps = draw(
        st.lists(
            st.tuples(st.booleans(), st.lists(task, min_size=1, max_size=4)),
            min_size=1,
            max_size=6,
        )
    )
    return simgraph, draw(st.sampled_from(sorted(POLICIES))), steps


@settings(max_examples=60, deadline=None)
@given(interleaving())
def test_one_engine_interleaving_property(case):
    """Scratch hygiene: ONE compiled engine driven through any mix of
    cold, warm (state or mapping), thresholded and off-graph-seed tasks,
    singly and batched, returns what a fresh engine per task and the
    reference engine return — results, dict order, warm-state arrays
    and every metric total (the compiled kernel's own work counters,
    :data:`KERNEL_WORK`, against the fresh engines only: the reference
    loop has no directions to count)."""
    simgraph, policy, steps = case
    compiled = from_simgraph(simgraph)
    registries = {
        name: MetricsRegistry() for name in ("one", "fresh", "reference")
    }

    def fresh(metrics=None):
        return CSRPropagationEngine(
            compiled, threshold=POLICIES[policy](), metrics=metrics
        )

    def reference(metrics=None):
        return PropagationEngine(
            simgraph, threshold=POLICIES[policy](), metrics=metrics
        )

    one = fresh(registries["one"])
    for batched, tasks in steps:
        calls, expected = [], []
        for task in tasks:
            initial = ref_initial = None
            if task["warm"] != "cold":
                donor = fresh()
                mapping = donor.propagate(task["warm_seeds"]).probabilities
                ref_initial = reference().propagate(task["warm_seeds"]).probabilities
                initial = donor.take_state() if task["warm"] == "state" else mapping
            alone = fresh(registries["fresh"])
            result = alone.propagate(task["seeds"], task["popularity"], initial)
            assert result == reference(registries["reference"]).propagate(
                task["seeds"], task["popularity"], ref_initial
            )
            calls.append((task["seeds"], task["popularity"], initial))
            expected.append((result, alone.take_state()))
        if batched:
            results = one.propagate_many(*map(list, zip(*calls)))
            states = one.take_states()
        else:
            results, states = [], []
            for call in calls:
                results.append(one.propagate(*call))
                states.append(one.take_state())
        assert len(results) == len(states) == len(expected)
        for (want, want_state), got, state in zip(expected, results, states):
            assert got == want
            assert list(got.probabilities) == list(want.probabilities)
            assert_same_state(state, want_state)
    totals = {
        name: registry.snapshot(deterministic=True)
        for name, registry in registries.items()
    }
    for section in ("counters", "histograms"):
        assert totals["one"][section] == totals["fresh"][section]
    shared = {
        name: count for name, count in totals["one"]["counters"].items()
        if name not in KERNEL_WORK
    }
    assert shared == totals["reference"]["counters"]
    assert totals["one"]["histograms"] == totals["reference"]["histograms"]


# ----------------------------------------------------------------------
# Both directions: an iteration sums its dirty rows by pull (their
# influencer rows) or by push (the active users' out-edges that land in
# them), whichever gathers fewer edges, and both sum a row's terms in
# edge order.
# ----------------------------------------------------------------------
def hub_graph(n, hubs, seed):
    """A SimGraph over users ``0..n-1`` with three kinds of user.

    * Users ``0..hubs-1`` are hubs: each influences half the readers or
      more, so hub seeds' first round sums fewer edges by push and a
      reader's row then holds several hub terms.
    * The last third are silent: nobody influences them, so they hold 0
      unless seeded, and each reader's row holds three of them — terms
      pull sums and push skips.
    * The readers in between; the odd ones also read three random
      readers, so mass keeps moving after the hubs' round and the later
      rounds sum fewer edges by pull.  An even reader's sum is final
      after the hubs' round, so a push sum taken out of edge order shows
      in the result.

    The last two users also influence nobody: a fixpoint seeded there is
    just them, so hub seeds added to it push too.  The edges come
    shuffled, so a row's edge order is not its influencers' node order.
    """
    rng = np.random.RandomState(seed)
    silent = np.arange(n - n // 3, n - 2)
    readers = np.arange(hubs, n - n // 3)
    pairs = set()
    for reader in readers.tolist():
        pairs.update((reader, v) for v in rng.choice(silent, 3).tolist())
        if reader % 2:
            pairs.update((reader, v) for v in rng.choice(readers, 3).tolist())
    for hub in range(hubs):
        size = rng.randint(len(readers) // 2, len(readers) + 1)
        pairs.update((r, hub) for r in rng.choice(readers, size, replace=False).tolist())
    edges = sorted((u, v) for u, v in pairs if u != v)
    rng.shuffle(edges)
    sources, targets = zip(*edges)
    weights = rng.uniform(0.01, 0.99, len(edges))
    return SimGraph.from_edges(sources, targets, weights, tau=0.0, nodes=range(n))


def both_directions(simgraph, seeds, warm, warm_seeds, policy):
    """One task on both engines: ``(reference, csr, csr counters)``.
    ``warm`` is ``cold``, ``state`` (the fixpoint of ``warm_seeds`` as a
    pinned :class:`CSRWarmState`, which ``seeds`` extends) or
    ``mapping`` (that fixpoint as a dict)."""
    threshold = POLICIES[policy]
    reference = PropagationEngine(simgraph, threshold=threshold())
    registry = MetricsRegistry()
    csr = CSRPropagationEngine(simgraph, threshold=threshold(), metrics=registry)
    initial = ref_initial = None
    if warm != "cold":
        ref_initial = reference.propagate(warm_seeds).probabilities
        initial = ref_initial
        if warm == "state":
            donor = CSRPropagationEngine(simgraph, threshold=threshold())
            donor.propagate(warm_seeds)
            initial = donor.take_state()
            seeds = seeds | warm_seeds
    want = reference.propagate(seeds, initial=ref_initial)
    got = csr.propagate(seeds, initial=initial)
    return want, got, registry.snapshot()["counters"]


def assert_bit_identical(want, got):
    assert got.probabilities == want.probabilities
    assert (got.iterations, got.updates, got.converged) == (
        want.iterations, want.updates, want.converged
    )


@st.composite
def hub_case(draw):
    n = draw(st.integers(min_value=12, max_value=40))
    hubs = draw(st.integers(min_value=3, max_value=5))
    simgraph = hub_graph(n, hubs, draw(st.integers(0, 2**16)))
    users = st.integers(0, n - 1)
    seeds = draw(st.sets(users, max_size=2)) | set(range(hubs))
    warm = draw(st.sampled_from(["cold", "state", "mapping"]))
    warm_seeds = draw(st.sets(users, min_size=1, max_size=3))
    policy = draw(st.sampled_from(sorted(POLICIES)))
    return simgraph, seeds, warm, warm_seeds, policy


@settings(max_examples=150, deadline=None)
@given(hub_case())
def test_push_and_pull_equal_reference_property(case):
    """Property: whichever direction each iteration takes, the compiled
    engine's result is the reference's bit for bit — cold, pinned-state
    and mapping warm starts, with and without a threshold."""
    want, got, _ = both_directions(*case)
    assert_bit_identical(want, got)


@pytest.mark.parametrize("warm", ["cold", "state", "mapping"])
def test_both_directions_fire(warm):
    """Across fixed hub cases both directions run, and both answer like
    the reference: a kernel that never pushed (or never pulled) would
    leave half of the property above untested."""
    totals = dict.fromkeys(KERNEL_WORK + ("propagation.iterations",), 0)
    for seed in range(6):
        simgraph = hub_graph(30, 3, seed)
        for policy in sorted(POLICIES):
            want, got, counters = both_directions(
                simgraph, {0, 1, 2}, warm, {28, 29}, policy
            )
            assert_bit_identical(want, got)
            for name in totals:
                totals[name] += counters[name]
    pushes = totals["propagation.push_iterations"]
    assert pushes > 0
    assert totals["propagation.iterations"] - pushes > 0
    assert totals["propagation.edges_gathered"] > 0


def test_a_user_back_from_zero_is_pushed_once():
    """A user can fall back to 0 and rise again inside one task (here a
    warm value whose only live term underflows), and push must still
    gather its out-edges once.  The seed reaches ``u`` at 1e-200, so
    ``x``'s term through ``u`` underflows and ``x`` drops from its warm
    0.5 to 0; ``z`` then brings it back, and the round after pushes it
    into ``r``, a long row of users at 0."""
    s, u, a, x, z, r = range(6)
    quiet = range(6, 46)
    edges = [
        (u, s, 1e-200), (a, s, 0.5), (x, u, 1e-200), (x, z, 0.5),
        (z, a, 0.5), (r, x, 0.5),
    ] + [(r, q, 0.5) for q in quiet]
    sources, targets, weights = zip(*edges)
    simgraph = SimGraph.from_edges(
        sources, targets, weights, tau=0.0, nodes=range(46)
    )
    registry = MetricsRegistry()
    csr = CSRPropagationEngine(simgraph, tolerance=0.0, metrics=registry)
    reference = PropagationEngine(simgraph, tolerance=0.0)
    got = csr.propagate({s}, initial={x: 0.5})
    assert_bit_identical(reference.propagate({s}, initial={x: 0.5}), got)
    assert got.probabilities[x] == 0.0625
    assert registry.snapshot()["counters"]["propagation.push_iterations"] > 0


class TestRecommenderDifferential:
    """End-to-end: prop_backend must not change a single emission."""

    @pytest.fixture(scope="class")
    def emissions(self):
        dataset = generate_dataset(
            SynthConfig(n_users=250, n_communities=6, seed=23)
        )
        split = temporal_split(dataset)
        outputs = {}
        for prop_backend in ("reference", "csr"):
            recommender = SimGraphRecommender(prop_backend=prop_backend)
            recommender.fit(dataset, split.train)
            emitted = []
            for event in split.test[:120]:
                emitted.extend(recommender.on_event(event))
            emitted.extend(recommender.finalize(split.test[119].time))
            outputs[prop_backend] = emitted
        return outputs

    def test_identical_emissions(self, emissions):
        assert len(emissions["reference"]) > 0
        assert emissions["reference"] == emissions["csr"]

    def test_identical_hit_pairs(self, emissions):
        """The hit list — the (user, tweet) pairs delivered — is
        byte-identical across propagation backends."""
        pairs = {
            backend: [(r.user, r.tweet) for r in emitted]
            for backend, emitted in emissions.items()
        }
        assert pairs["reference"] == pairs["csr"]


@pytest.mark.parametrize("name", ["numba", "gpu", "auto"])
def test_unknown_backend_rejected_at_every_door(name, capsys):
    """Factory, recommender, service config and CLI refuse the same
    names — the retired "auto" alias included — and say which two
    exist; the builder refuses them as a *build* backend, naming the
    one it has."""
    listing = "available: csr, reference$"
    with pytest.raises(ValueError, match=listing):
        make_propagation_engine(random_graph(4, 6, seed=1), prop_backend=name)
    with pytest.raises(ValueError, match=listing):
        SimGraphRecommender(prop_backend=name)
    with pytest.raises(ConfigError, match=listing):
        ServiceConfig(prop_backend=name)
    for command in (["evaluate", "ds"], ["serve", "ds"], ["loadgen"]):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*command, "--prop-backend", name])
        assert exit_info.value.code == 2
        assert "'csr', 'reference'" in capsys.readouterr().err
    with pytest.raises(ValueError, match="available: vectorized$"):
        SimGraphBuilder(backend=name)


# ----------------------------------------------------------------------
# CSR splice: the delta path's one way to refresh a compiled graph
# ----------------------------------------------------------------------
CSR_ARRAYS = (
    "users", "inf_indptr", "inf_indices", "inf_weights", "inf_counts",
    "out_indptr", "out_indices",
)


def assert_same_compiled(actual: SimGraph, expected: SimGraph) -> None:
    for name in CSR_ARRAYS:
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert actual.index == expected.index


@st.composite
def splice_case(draw):
    """A SimGraph, and row edits of every kind a delta can make: new
    weights, edges added (some to brand-new nodes), edges removed, whole
    rows replaced in a new order."""
    simgraph, n = draw_simgraph(draw)
    edits = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["weight", "add", "remove", "row"]),
                st.integers(0, n - 1),
                st.integers(0, n + 3),
                st.floats(min_value=0.01, max_value=0.99),
            ),
            max_size=12,
        )
    )
    return simgraph, edits


def apply_edits(graph: DiGraph, edits) -> set[int]:
    """Apply ``edits`` the way delta surgery would; return changed rows."""
    changed = set()
    for kind, u, v, w in edits:
        row = graph.out_row(u)
        if kind == "weight" and row:
            graph.add_edge(u, next(iter(row)), weight=w)
        elif kind == "add" and u != v:
            graph.add_edge(u, v, weight=w)
        elif kind == "remove" and row:
            graph.remove_edge(u, next(reversed(row)))
        elif kind == "row":
            graph.set_row(u, dict(reversed(list(row.items()))))
        else:
            continue
        changed.add(u)
    return changed


@settings(max_examples=120, deadline=None)
@given(splice_case())
def test_splice_equals_recompile_property(case):
    """Property: splicing the changed rows into a compiled graph gives
    the arrays and index a recompile gives — for weight-only, edge-adding,
    edge-removing, reordering, node-appending and node-removing deltas
    (every node left without an edge goes, as after delta surgery) — and
    never writes to its (here read-only) source."""
    simgraph, edits = case
    compiled = from_simgraph(simgraph)
    for name in CSR_ARRAYS:
        getattr(compiled, name).flags.writeable = False
    before = {name: getattr(compiled, name).copy() for name in CSR_ARRAYS}
    index_before = dict(compiled.index)
    updated = DictSimGraph(to_digraph(simgraph).copy(), tau=simgraph.tau)
    graph = updated.graph
    changed = apply_edits(graph, edits)
    removed = [
        u for u in list(graph.nodes())
        if graph.out_degree(u) == 0 and graph.in_degree(u) == 0
    ]
    for u in removed:
        graph.remove_node(u)
    rows = [u for u in changed if u in graph]
    spliced = compiled.splice(
        np.array(rows, dtype=np.int64),
        np.array([len(graph.out_row(u)) for u in rows], dtype=np.int64),
        np.array([v for u in rows for v in graph.out_row(u)], dtype=np.int64),
        np.array(
            [w for u in rows for w in graph.out_row(u).values()], dtype=float
        ),
        removed=[u for u in removed if u in compiled],
        appended=[u for u in graph.nodes() if u not in compiled],
    )
    assert spliced is not compiled
    assert_same_compiled(spliced, from_simgraph(updated))
    assert spliced.inf_weights.flags.writeable
    for name in CSR_ARRAYS:
        assert np.array_equal(getattr(compiled, name), before[name]), name
    assert compiled.index == index_before


def three_users() -> SimGraph:
    """Users 1, 2 and 3: 1 -> 2 and 2 -> 3."""
    return SimGraph.from_edges([1, 2], [2, 3], [0.5, 0.25], tau=0.1)


def test_splice_keeps_tau_and_shares_the_index_when_no_node_changes():
    graph = three_users()
    spliced = graph.splice([1], [1], [3], [0.75])
    assert spliced.tau == graph.tau
    assert spliced.index is graph.index
    assert spliced._order is graph._order
    assert dict(spliced.influencers(1)) == {3: 0.75}
    assert spliced.influenced(3) == (1, 2)


@pytest.mark.parametrize(
    "edit, refused",
    [
        ({"rows": [99], "lengths": [1], "targets": [2]}, "row 99"),
        ({"rows": [1], "lengths": [1], "targets": [42]}, "target 42"),
        ({"removed": [77]}, "removed id 77"),
    ],
)
def test_splice_refuses_ids_the_graph_does_not_hold(edit, refused):
    """An id the graph does not hold is named, not read as some other
    user's position (user 1's, whose row it would overwrite, whose id
    it would target, or whose node it would drop)."""
    graph = three_users()
    edit = {"rows": [], "lengths": [], "targets": []} | edit
    weights = [0.5] * len(edit["targets"])
    with pytest.raises(ValueError, match=f"{refused} is not a node"):
        graph.splice(
            edit["rows"], edit["lengths"], edit["targets"], weights,
            removed=edit.get("removed", ()),
        )
