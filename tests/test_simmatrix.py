"""Tests for repro.core.simmatrix (the vectorized sparse backend)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.core.profiles import RetweetProfiles
from repro.core.similarity import similarities_from, similarity
from repro.core.simmatrix import (
    SimilarityMatrix,
    reachability_matrix,
    simgraph_edges,
)
from repro.graph import FollowGraph
from tests.test_graph_oracle import (
    DiGraph,
    follow_graph_of,
    k_hop_neighborhood,
)


def random_digraph(n: int, edge_probability: float, seed: int) -> DiGraph:
    rng = np.random.default_rng(seed)
    graph = DiGraph()
    graph.add_nodes(range(n))
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < edge_probability:
                graph.add_edge(u, v)
    return graph


def profiles_from(pairs) -> RetweetProfiles:
    profiles = RetweetProfiles()
    for user, tweet in pairs:
        profiles.add(user, tweet)
    return profiles


@pytest.fixture
def shared_profiles() -> RetweetProfiles:
    """Five users with overlapping profiles over six tweets."""
    return profiles_from(
        [(1, 100), (1, 101), (2, 100), (2, 102), (3, 101), (3, 102),
         (4, 103), (5, 100), (5, 101), (5, 104)]
    )


class TestSimilarityMatrix:
    def test_matches_reference_similarities_from(self, shared_profiles):
        matrix = SimilarityMatrix(shared_profiles)
        for u in shared_profiles.users():
            reference = similarities_from(shared_profiles, u)
            vectorized = matrix.similarities_from(u)
            assert set(vectorized) == set(reference)
            for v, score in reference.items():
                assert vectorized[v] == pytest.approx(score, abs=1e-12)

    def test_candidate_restriction(self, shared_profiles):
        matrix = SimilarityMatrix(shared_profiles)
        scores = matrix.similarities_from(1, candidates={2})
        assert set(scores) == {2}
        assert scores[2] == pytest.approx(similarity(shared_profiles, 1, 2))

    def test_unknown_user_empty(self, shared_profiles):
        assert SimilarityMatrix(shared_profiles).similarities_from(99) == {}

    def test_extra_user_without_profile_scores_nothing(self, shared_profiles):
        matrix = SimilarityMatrix(shared_profiles, extra_users=[42])
        assert 42 in matrix
        assert matrix.similarities_from(42) == {}
        assert 42 not in matrix.similarities_from(1)

    def test_similarity_rows_excludes_self(self, shared_profiles):
        matrix = SimilarityMatrix(shared_profiles)
        users = sorted(shared_profiles.users())
        rows = matrix.similarity_rows(users)
        assert rows.shape == (len(users), matrix.user_count)
        dense = rows.toarray()
        for r, u in enumerate(users):
            assert dense[r, matrix.position(u)] == 0.0

    def test_empty_inputs(self):
        empty = SimilarityMatrix(RetweetProfiles())
        assert empty.user_count == 0
        assert empty.similarity_rows([]).shape == (0, 0)

    def test_position_roundtrip(self, shared_profiles):
        matrix = SimilarityMatrix(shared_profiles)
        for u in shared_profiles.users():
            assert matrix.user_at(matrix.position(u)) == u
        positions = np.array([matrix.position(u) for u in (1, 3, 5)])
        assert matrix.users_at(positions) == [1, 3, 5]


def universe_of(graph) -> SimilarityMatrix:
    """A matrix whose universe is exactly the graph's nodes."""
    return SimilarityMatrix(RetweetProfiles(), extra_users=graph.nodes())


class TestReachabilityMatrix:
    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_matches_bfs_khop(self, hops):
        graph = random_digraph(40, edge_probability=0.08, seed=3)
        matrix = universe_of(graph)
        users = sorted(graph.nodes())
        reach = reachability_matrix(
            follow_graph_of(graph), hops, matrix, users
        )
        for u in users:
            row = reach.getrow(matrix.position(u))
            reached = {users[c] for c in row.indices}
            assert reached == k_hop_neighborhood(graph, u, hops)

    def test_empty_graph(self):
        reach = reachability_matrix(
            FollowGraph(), 2, universe_of(FollowGraph()), []
        )
        assert reach.shape == (0, 0)

    def test_cycle_excludes_source(self):
        graph = FollowGraph()
        graph.add_edge(0, 1)
        graph.add_edge(1, 0)
        reach = reachability_matrix(graph, 2, universe_of(graph), [0, 1])
        # 0 -> 1 -> 0 closes a cycle, but N2(0) never contains 0 itself.
        assert reach[0, 0] == 0.0
        assert reach[0, 1] == 1.0


def rows_of(edges) -> dict[int, dict[int, float]]:
    """``{source: {influencer: sim}}`` of :func:`simgraph_edges` arrays."""
    rows: dict[int, dict[int, float]] = {}
    for u, v, w in zip(*(column.tolist() for column in edges)):
        rows.setdefault(u, {})[v] = w
    return rows


class TestSimgraphEdges:
    def test_matches_reference_builder_loop(self, shared_profiles):
        graph = DiGraph()
        for u, v in [(1, 2), (2, 3), (3, 5), (1, 4), (5, 1)]:
            graph.add_edge(u, v)
        from tests.test_simgraph_oracle import oracle_edges_for_user

        expected = {
            u: oracle_edges_for_user(u, graph, shared_profiles, tau=0.0, hops=2)
            for u in graph.nodes()
        }
        expected = {u: kept for u, kept in expected.items() if kept}
        actual = rows_of(
            simgraph_edges(
                follow_graph_of(graph), shared_profiles, list(graph.nodes()),
                tau=0.0, hops=2,
            )
        )
        assert set(actual) == set(expected)
        for u, kept in expected.items():
            assert set(actual[u]) == set(kept)
            for v, score in kept.items():
                assert actual[u][v] == pytest.approx(score, abs=1e-12)

    def test_no_eligible_sources(self, shared_profiles):
        graph = FollowGraph()
        graph.add_edge(100, 101)  # no profiles on these nodes
        edges = simgraph_edges(graph, shared_profiles, [100, 101], tau=0.0)
        assert [len(column) for column in edges] == [0, 0, 0]

    def test_small_chunks_equal_one_chunk(self, shared_profiles):
        graph = FollowGraph()
        for u, v in [(1, 2), (2, 3), (3, 5), (1, 4), (5, 1)]:
            graph.add_edge(u, v)
        sources = list(graph.nodes())
        one = simgraph_edges(graph, shared_profiles, sources, tau=0.0)
        many = simgraph_edges(
            graph, shared_profiles, sources, tau=0.0, chunk_size=1
        )
        for a, b in zip(one, many):
            assert a.tobytes() == b.tobytes()


def per_user_incidence(profiles: RetweetProfiles, extra_users=()):
    """The incidence as ``SimilarityMatrix.__init__`` built it before its
    batch read, one user at a time: ``(users, tweets, indptr, cols)``."""
    universe = set(profiles.users())
    universe.update(extra_users)
    users = sorted(universe)
    tweets = sorted(profiles.tweets())
    tweet_index = {t: j for j, t in enumerate(tweets)}
    indptr = np.zeros(len(users) + 1, dtype=np.int64)
    cols: list[int] = []
    for i, user in enumerate(users):
        cols.extend(tweet_index[t] for t in sorted(profiles.profile(user)))
        indptr[i + 1] = len(cols)
    return users, tweets, indptr, np.asarray(cols, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-5, 30), st.integers(0, 40)), max_size=80),
    st.lists(st.integers(-10, 40), max_size=10),
    st.integers(0, 80),
)
def test_batch_incidence_equals_the_per_user_build(pairs, extra, clean_at):
    """The incidence, its weighted transpose and the profile sizes equal
    the per-user build's, with the profiles split between their base
    (before ``clean_at``) and their tail."""
    profiles = profiles_from(pairs[:clean_at])
    profiles.mark_clean()
    for user, tweet in pairs[clean_at:]:
        profiles.add(user, tweet)
    matrix = SimilarityMatrix(profiles, extra_users=iter(extra))
    users, tweets, indptr, cols = per_user_incidence(profiles, extra)
    assert matrix._users_arr.tolist() == users
    want = sparse.csr_matrix(
        (np.ones(len(cols)), cols, indptr), shape=(len(users), len(tweets))
    )
    for name in ("indptr", "indices", "data"):
        got = getattr(matrix._B, name)
        assert got.dtype == getattr(want, name).dtype
        np.testing.assert_array_equal(got, getattr(want, name))
    np.testing.assert_array_equal(matrix._sizes, np.diff(indptr))
    weights = [profiles.tweet_weight(t) for t in tweets]
    weighted = (want @ sparse.diags(np.asarray(weights) + 1j)).tocsr()
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(
            getattr(matrix._Bc_t, name), getattr(weighted.T.tocsr(), name)
        )
