"""Tests for repro.core.propagation (paper Algorithm 1, Examples 4.3/5.1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.propagation import PropagationEngine
from repro.core.simgraph import SimGraph
from repro.core.thresholds import StaticThreshold

from tests.conftest import U, V, W, X, Y
from tests.test_graph_oracle import DiGraph
from tests.test_simgraph_oracle import simgraph_of


class TestPaperExample:
    def test_example_4_3_and_5_1(self, paper_example):
        """After x shares t1: p(w) = 0.25, then p(u) = 0.0625."""
        engine = PropagationEngine(paper_example)
        result = engine.propagate(seeds=[X])
        assert result.probabilities[X] == 1.0
        assert result.score(W) == pytest.approx(0.25)
        assert result.score(U) == pytest.approx(0.0625)
        assert result.converged

    def test_example_iteration_count(self, paper_example):
        # x -> w is iteration 1, w -> u is iteration 2, stop at 3rd pass.
        engine = PropagationEngine(paper_example)
        result = engine.propagate(seeds=[X])
        assert result.iterations <= 3

    def test_nonseed_scores_excludes_seeds(self, paper_example):
        engine = PropagationEngine(paper_example)
        result = engine.propagate(seeds=[X])
        scores = result.nonseed_scores([X])
        assert X not in scores
        assert W in scores


class TestSeedHandling:
    def test_seeds_pinned_at_one(self, paper_example):
        engine = PropagationEngine(paper_example)
        result = engine.propagate(seeds=[X, Y])
        assert result.probabilities[X] == 1.0
        assert result.probabilities[Y] == 1.0

    def test_seed_probability_never_recomputed(self, paper_example):
        # W influences X? No edge X->W exists, but even so X stays 1.
        engine = PropagationEngine(paper_example)
        result = engine.propagate(seeds=[X])
        assert result.probabilities[X] == 1.0

    def test_empty_seeds(self, paper_example):
        engine = PropagationEngine(paper_example)
        result = engine.propagate(seeds=[])
        assert result.nonseed_scores([]) == {}
        assert result.converged

    def test_seed_outside_graph(self, paper_example):
        engine = PropagationEngine(paper_example)
        result = engine.propagate(seeds=[777])
        assert result.probabilities[777] == 1.0
        assert result.score(U) == 0.0

    def test_more_seeds_higher_probabilities(self, paper_example):
        engine = PropagationEngine(paper_example)
        one = engine.propagate(seeds=[X]).score(W)
        # Y is W's other influencer: adding it can only raise p(W).
        two = engine.propagate(seeds=[X, Y]).score(W)
        assert two > one


class TestBounds:
    def test_probabilities_in_unit_interval(self, paper_example):
        engine = PropagationEngine(paper_example)
        result = engine.propagate(seeds=[X, Y, V])
        for p in result.probabilities.values():
            assert 0.0 <= p <= 1.0

    def test_unreached_users_absent(self, paper_example):
        engine = PropagationEngine(paper_example)
        result = engine.propagate(seeds=[U])
        # Nothing points at U's influencees... U influences nobody.
        assert result.nonseed_scores([U]) == {}


class TestCycles:
    def make_cycle(self) -> SimGraph:
        graph = DiGraph()
        graph.add_edge(0, 1, weight=0.9)
        graph.add_edge(1, 0, weight=0.9)
        graph.add_edge(0, 2, weight=0.9)
        graph.add_edge(1, 2, weight=0.9)
        return simgraph_of(graph, tau=0.0)

    def test_cyclic_graph_converges(self):
        engine = PropagationEngine(self.make_cycle())
        result = engine.propagate(seeds=[2])
        assert result.converged
        # Fixpoint: p0 = (p1*.9 + .9)/2, p1 = (p0*.9 + .9)/2 -> p = .9/1.1
        assert result.score(0) == pytest.approx(0.9 / 1.1, rel=1e-6)
        assert result.score(1) == pytest.approx(0.9 / 1.1, rel=1e-6)

    def test_max_iterations_flags_nonconvergence(self):
        engine = PropagationEngine(self.make_cycle(), max_iterations=1,
                                   tolerance=0.0)
        result = engine.propagate(seeds=[2])
        assert not result.converged


class TestThresholdOptimization:
    def test_beta_limits_propagation_depth(self, paper_example):
        exact = PropagationEngine(paper_example).propagate(seeds=[X])
        cut = PropagationEngine(
            paper_example, threshold=StaticThreshold(0.5)
        ).propagate(seeds=[X])
        # p(w) = 0.25 < beta: w's update is kept but not propagated to u.
        assert cut.score(W) == pytest.approx(0.25)
        assert cut.score(U) == 0.0
        assert exact.score(U) > 0.0

    def test_beta_reduces_updates(self):
        graph = DiGraph()
        for i in range(30):
            graph.add_edge(i, i + 1, weight=0.5)
        simgraph = simgraph_of(graph, tau=0.0)
        exact = PropagationEngine(simgraph).propagate(seeds=[30])
        cut = PropagationEngine(
            simgraph, threshold=StaticThreshold(0.05)
        ).propagate(seeds=[30])
        assert cut.updates < exact.updates

    def test_zero_threshold_equals_no_threshold(self, paper_example):
        exact = PropagationEngine(paper_example).propagate(seeds=[X])
        zero = PropagationEngine(
            paper_example, threshold=StaticThreshold(0.0)
        ).propagate(seeds=[X])
        assert exact.probabilities == zero.probabilities


class TestWarmStart:
    def test_warm_start_matches_cold(self, paper_example):
        engine = PropagationEngine(paper_example)
        cold_x = engine.propagate(seeds=[X])
        warm = engine.propagate(seeds=[X, Y], initial=cold_x.probabilities)
        cold = engine.propagate(seeds=[X, Y])
        for user in set(cold.probabilities) | set(warm.probabilities):
            assert warm.score(user) == pytest.approx(
                cold.score(user), abs=1e-8
            )

    def test_warm_start_cheaper(self):
        graph = DiGraph()
        for i in range(50):
            graph.add_edge(i, i + 1, weight=0.5)
        simgraph = simgraph_of(graph, tau=0.0)
        engine = PropagationEngine(simgraph)
        first = engine.propagate(seeds=[50])
        # Re-running with the same seeds warm should do (almost) no work.
        again = engine.propagate(seeds=[50], initial=first.probabilities)
        assert again.updates == 0

    def test_validation(self, paper_example):
        with pytest.raises(ValueError):
            PropagationEngine(paper_example, tolerance=-1.0)
        with pytest.raises(ValueError):
            PropagationEngine(paper_example, max_iterations=0)


@st.composite
def random_simgraph(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(min_value=0.01, max_value=0.99),
            ).filter(lambda e: e[0] != e[1]),
            max_size=30,
        )
    )
    graph = DiGraph()
    graph.add_nodes(range(n))
    for u, v, w in edges:
        graph.add_edge(u, v, weight=w)
    seeds = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    return simgraph_of(graph, tau=0.0), seeds


@settings(max_examples=60, deadline=None)
@given(random_simgraph())
def test_propagation_invariants(data):
    """Property: converges, probabilities bounded, seeds pinned."""
    simgraph, seeds = data
    engine = PropagationEngine(simgraph)
    result = engine.propagate(seeds=seeds)
    assert result.converged
    for user, p in result.probabilities.items():
        assert 0.0 <= p <= 1.0 + 1e-12
    for seed in seeds:
        assert result.probabilities[seed] == 1.0
