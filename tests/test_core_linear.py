"""Tests for repro.core.linear (paper §5.2-5.3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.linear import LinearSystem
from repro.core.propagation import PropagationEngine
from repro.core.simgraph import SimGraph
from repro.exceptions import ConvergenceError

from tests.conftest import U, W, X
from tests.test_graph_oracle import DiGraph
from tests.test_simgraph_oracle import simgraph_of


class TestStructure:
    def test_size_and_users(self, paper_example):
        system = LinearSystem(paper_example)
        assert system.size == 5
        assert system.users == [0, 1, 2, 3, 4]

    def test_matrix_rows_sum(self, paper_example):
        system = LinearSystem(paper_example)
        A = system.matrix()
        # Row of u: 1 on the diagonal, -sim/|Fu| elsewhere.
        # u has Fu = {v, w}: off-diagonal mass = (0.3 + 0.5)/2 = 0.4.
        row = A.getrow(0).toarray().ravel()
        assert row[0] == pytest.approx(1.0)
        assert row[1] == pytest.approx(-0.15)
        assert row[2] == pytest.approx(-0.25)

    def test_seed_rows_identity(self, paper_example):
        system = LinearSystem(paper_example)
        A = system.matrix(seeds=[W])
        row = A.getrow(W).toarray().ravel()
        assert row[W] == pytest.approx(1.0)
        assert abs(row).sum() == pytest.approx(1.0)


class TestDiagnostics:
    def test_diagonally_dominant(self, paper_example):
        assert LinearSystem(paper_example).is_diagonally_dominant()

    def test_iteration_norm_below_one(self, paper_example):
        norm = LinearSystem(paper_example).iteration_norm()
        assert 0.0 < norm < 1.0

    def test_spectral_radius_below_norm(self, paper_example):
        system = LinearSystem(paper_example)
        assert system.spectral_radius_estimate() <= (
            system.iteration_norm() + 1e-9
        )

    def test_empty_system(self):
        system = LinearSystem(SimGraph.from_edges((), (), (), tau=0.0))
        assert system.size == 0
        assert system.iteration_norm() == 0.0
        assert system.spectral_radius_estimate() == 0.0


class TestSolvers:
    @pytest.mark.parametrize("method", ["jacobi", "gauss_seidel", "sor"])
    def test_solvers_match_direct(self, paper_example, method):
        system = LinearSystem(paper_example)
        direct = system.solve_direct(seeds=[X])
        solver = getattr(system, f"solve_{method}")
        iterative = solver(seeds=[X])
        for user in range(5):
            assert iterative.probabilities.get(user, 0.0) == pytest.approx(
                direct.probabilities.get(user, 0.0), abs=1e-8
            )

    def test_solution_matches_paper_example(self, paper_example):
        system = LinearSystem(paper_example)
        stats = system.solve_jacobi(seeds=[X])
        assert stats.probabilities[W] == pytest.approx(0.25, abs=1e-9)
        assert stats.probabilities[U] == pytest.approx(0.0625, abs=1e-9)

    def test_matches_iterative_engine(self, paper_example):
        system = LinearSystem(paper_example)
        engine = PropagationEngine(paper_example)
        algebraic = system.solve_jacobi(seeds=[X]).probabilities
        iterative = engine.propagate(seeds=[X]).probabilities
        for user in set(algebraic) | set(iterative):
            assert algebraic.get(user, 0.0) == pytest.approx(
                iterative.get(user, 0.0), abs=1e-8
            )

    def test_sor_omega_validation(self, paper_example):
        system = LinearSystem(paper_example)
        with pytest.raises(ValueError):
            system.solve_sor(seeds=[X], omega=0.0)
        with pytest.raises(ValueError):
            system.solve_sor(seeds=[X], omega=2.0)

    def test_convergence_error_on_tiny_budget(self, paper_example):
        system = LinearSystem(paper_example)
        with pytest.raises(ConvergenceError):
            system.solve_jacobi(seeds=[X], max_iterations=1, tolerance=0.0)

    def test_gauss_seidel_iterations_not_more_than_jacobi(self, paper_example):
        system = LinearSystem(paper_example)
        jacobi = system.solve_jacobi(seeds=[X])
        gauss_seidel = system.solve_gauss_seidel(seeds=[X])
        assert gauss_seidel.iterations <= jacobi.iterations

    def test_no_seeds_zero_solution(self, paper_example):
        system = LinearSystem(paper_example)
        stats = system.solve_jacobi(seeds=[])
        assert stats.probabilities == {}


@st.composite
def random_simgraph(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(min_value=0.05, max_value=0.95),
            ).filter(lambda e: e[0] != e[1]),
            max_size=20,
        )
    )
    graph = DiGraph()
    graph.add_nodes(range(n))
    for u, v, w in edges:
        graph.add_edge(u, v, weight=w)
    seeds = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2))
    return simgraph_of(graph, tau=0.0), seeds


@settings(max_examples=40, deadline=None)
@given(random_simgraph())
def test_every_simgraph_system_is_dominant_and_solvable(data):
    """Property (§5.3): every SimGraph system is diagonally dominant and
    all three iterative solvers agree with the direct solution."""
    simgraph, seeds = data
    system = LinearSystem(simgraph)
    assert system.is_diagonally_dominant()
    direct = system.solve_direct(seeds)
    for method in ("solve_jacobi", "solve_gauss_seidel", "solve_sor"):
        stats = getattr(system, method)(seeds)
        for user in set(direct.probabilities) | set(stats.probabilities):
            assert stats.probabilities.get(user, 0.0) == pytest.approx(
                direct.probabilities.get(user, 0.0), abs=1e-7
            )
