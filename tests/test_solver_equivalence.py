"""Cross-solver equivalence for the §5.2 linear system.

Jacobi, Gauss-Seidel, SOR and the direct sparse LU factorization must
agree — on the paper's Figure 6 example (with the Example 4.3 / 5.1
golden values checked to the digit) and on random SimGraphs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.linear import LinearSystem
from repro.core.simgraph import SimGraph

from tests.conftest import U, V, W, X, Y
from tests.test_graph_oracle import DiGraph
from tests.test_simgraph_oracle import simgraph_of

METHODS = ("solve_direct", "solve_jacobi", "solve_gauss_seidel", "solve_sor")

#: Fixpoint after x shares t1 on the Figure 6 graph: Example 4.3 gives
#: p(w) = (1 * 0.5 + 0 * 0.1) / 2 = 0.25, Example 5.1 continues with
#: p(u) = (0 * 0.3 + 0.25 * 0.5) / 2 = 0.0625; v and y have no inbound
#: influence from the seed and stay at 0.
GOLDEN = {X: 1.0, W: 0.25, U: 0.0625, V: 0.0, Y: 0.0}


class TestPaperExampleGolden:
    @pytest.mark.parametrize("method", METHODS)
    def test_golden_values_to_the_digit(self, paper_example, method):
        system = LinearSystem(paper_example)
        stats = getattr(system, method)(seeds=[X])
        for user, expected in GOLDEN.items():
            assert stats.probabilities.get(user, 0.0) == pytest.approx(
                expected, abs=1e-9
            )

    def test_all_solvers_pairwise_agree(self, paper_example):
        system = LinearSystem(paper_example)
        solutions = [
            getattr(system, method)(seeds=[X]).probabilities
            for method in METHODS
        ]
        users = set().union(*solutions)
        for solved in solutions[1:]:
            for user in users:
                assert solved.get(user, 0.0) == pytest.approx(
                    solutions[0].get(user, 0.0), abs=1e-8
                )


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
def test_solvers_agree_on_random_simgraphs(data):
    """All four solvers converge to the same fixpoint on any SimGraph."""
    simgraph, seeds = data
    system = LinearSystem(simgraph)
    solutions = [
        getattr(system, method)(seeds).probabilities for method in METHODS
    ]
    users = set().union(*solutions)
    for solved in solutions[1:]:
        for user in users:
            assert solved.get(user, 0.0) == pytest.approx(
                solutions[0].get(user, 0.0), abs=1e-7
            )
