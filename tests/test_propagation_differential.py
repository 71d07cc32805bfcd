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
seed-by-seed resumption) is checked on both backends.  Any change to
either path that breaks agreement fails here first.
"""

from __future__ import annotations

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
from repro.core.simgraph import SimGraph
from repro.data import temporal_split
from repro.exceptions import ConfigError
from repro.graph.digraph import DiGraph
from repro.obs import MetricsRegistry
from repro.service import ServiceConfig
from repro.synth import SynthConfig, generate_dataset

PROB_TOLERANCE = 1e-12

#: id -> threshold-policy factory (fresh instance per use; DynamicThreshold
#: caches nothing but symmetry is cheap).
POLICIES = {
    "none": lambda: None,
    "beta": lambda: StaticThreshold(0.02),
    "gamma": lambda: DynamicThreshold(),
}


def random_graph(n, m, seed):
    import numpy as np

    rng = np.random.RandomState(seed)
    graph = DiGraph()
    graph.add_nodes(range(n))
    for _ in range(m):
        u, v = rng.randint(0, n, 2)
        if u != v:
            graph.add_edge(int(u), int(v), weight=float(rng.uniform(0.01, 0.99)))
    return SimGraph(graph, tau=0.0)


def seed_sets_for(simgraph, seed, count=6, max_size=8):
    import numpy as np

    rng = np.random.RandomState(seed)
    users = sorted(simgraph.users())
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
        seeds = sorted(simgraph.users())[:4]
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
        seeds = sorted(simgraph.users())[:3]
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


@st.composite
def random_case(draw):
    n = draw(st.integers(min_value=2, max_value=12))
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
    graph.add_nodes(range(n))
    for u, v, w in edges:
        graph.add_edge(u, v, weight=w)
    seeds = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    warm = draw(st.sets(st.integers(0, n - 1), min_size=0, max_size=3))
    policy = draw(st.sampled_from(sorted(POLICIES)))
    return SimGraph(graph, tau=0.0), seeds, warm, policy


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


@pytest.mark.parametrize("name", ["numba", "gpu"])
def test_unknown_backend_rejected_at_every_door(name):
    """Factory, recommender and service config refuse the same names and
    say which ones exist."""
    listing = "reference, csr, auto"
    with pytest.raises(ValueError, match=listing):
        make_propagation_engine(random_graph(4, 6, seed=1), prop_backend=name)
    with pytest.raises(ValueError, match=listing):
        SimGraphRecommender(prop_backend=name)
    with pytest.raises(ConfigError, match=listing):
        ServiceConfig(prop_backend=name)
