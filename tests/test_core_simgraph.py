"""Tests for repro.core.simgraph (paper Definition 4.1 / Table 4)."""

from collections import Counter

import numpy as np
import pytest

from repro.core.persistence import save_simgraph
from repro.core.profiles import RetweetProfiles
from repro.core.propagation_csr import CSRPropagationEngine
from repro.core.simgraph import SimGraph, SimGraphBuilder
from tests.builders import DatasetBuilder
from tests.test_graph_oracle import to_digraph
from tests.test_simgraph_oracle import oracle_build


def linear_world():
    """0 -> 1 -> 2 -> 3 follow chain; 0, 2 and 3 co-retweet tweet 0."""
    dataset = (
        DatasetBuilder()
        .with_users(4)
        .follow_chain(0, 1, 2, 3)
        .tweet(author=1, at=0.0, tweet_id=0)
        .retweet(user=0, tweet=0, at=1.0)
        .retweet(user=2, tweet=0, at=2.0)
        .retweet(user=3, tweet=0, at=3.0)
        .build()
    )
    profiles = RetweetProfiles(dataset.retweets())
    return dataset, profiles


class TestBuilderValidation:
    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            SimGraphBuilder(tau=-0.1)

    def test_zero_hops_rejected(self):
        with pytest.raises(ValueError):
            SimGraphBuilder(hops=0)

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError):
            SimGraphBuilder(max_influencers=0)

    def test_unknown_backend_rejected(self):
        """One build is left; the per-user loop is a test oracle now."""
        for name in ("gpu", "reference"):
            with pytest.raises(ValueError, match="available: vectorized$"):
                SimGraphBuilder(backend=name)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            SimGraphBuilder(chunk_size=0)


class TestVectorizedBackend:
    """The sparse build against the Def. 4.1 oracle loop."""

    @pytest.mark.parametrize("kwargs", [{}, {"hops": 1}, {"max_influencers": 1}])
    def test_matches_reference(self, kwargs):
        dataset, profiles = linear_world()
        reference = oracle_build(
            dataset.follow_graph, profiles, tau=0.0, **kwargs
        )
        vectorized = SimGraphBuilder(tau=0.0, **kwargs).build(
            dataset.follow_graph, profiles
        )
        assert set(to_digraph(vectorized).edges()) == set(to_digraph(reference).edges())

    def test_restricted_sources_match(self):
        dataset, profiles = linear_world()
        reference = oracle_build(
            dataset.follow_graph, profiles, tau=0.0, users=[2]
        )
        vectorized = SimGraphBuilder(tau=0.0).build(
            dataset.follow_graph, profiles, users=[2]
        )
        assert set(to_digraph(vectorized).edges()) == set(to_digraph(reference).edges())


class TestTwoHopSemantics:
    def test_edges_limited_to_n2(self):
        dataset, profiles = linear_world()
        simgraph = SimGraphBuilder(tau=0.0).build(
            dataset.follow_graph, profiles
        )
        # User 0 reaches N2(0) = {1, 2}. User 3 shares a retweet with 0
        # but sits at distance 3, so no edge 0 -> 3 may exist.
        assert simgraph.similarity(0, 2) > 0.0
        assert simgraph.similarity(0, 3) == 0.0

    def test_one_hop_builder(self):
        dataset, profiles = linear_world()
        simgraph = SimGraphBuilder(tau=0.0, hops=1).build(
            dataset.follow_graph, profiles
        )
        # N1(0) = {1}; user 1 never retweeted, so 0 has no edges at all.
        assert simgraph.influencer_count(0) == 0

    def test_tau_prunes_edges(self):
        dataset, profiles = linear_world()
        loose = SimGraphBuilder(tau=0.0).build(dataset.follow_graph, profiles)
        strict = SimGraphBuilder(tau=0.99).build(dataset.follow_graph, profiles)
        assert strict.edge_count < loose.edge_count
        assert strict.edge_count == 0

    def test_cold_users_have_no_edges(self):
        dataset, profiles = linear_world()
        simgraph = SimGraphBuilder(tau=0.0).build(
            dataset.follow_graph, profiles
        )
        # User 1 never retweeted: no out-edges.
        assert simgraph.influencer_count(1) == 0

    def test_edge_weights_are_similarities(self):
        from repro.core.similarity import similarity

        dataset, profiles = linear_world()
        simgraph = SimGraphBuilder(tau=0.0).build(
            dataset.follow_graph, profiles
        )
        for u, v, w in to_digraph(simgraph).edges():
            assert w == pytest.approx(similarity(profiles, u, v))

    def test_users_parameter_restricts_sources(self):
        dataset, profiles = linear_world()
        simgraph = SimGraphBuilder(tau=0.0).build(
            dataset.follow_graph, profiles, users=[2]
        )
        assert all(u == 2 for u, _, _ in to_digraph(simgraph).edges())

    def test_max_influencers_cap(self):
        dataset, profiles = linear_world()
        capped = SimGraphBuilder(tau=0.0, max_influencers=1).build(
            dataset.follow_graph, profiles
        )
        for user in capped.users.tolist():
            assert capped.influencer_count(user) <= 1


class TestConstruction:
    def sections(self, indptr):
        users = np.array([1, 2], dtype=np.int64)
        indices = np.array([1], dtype=np.int64)
        weights = np.array([0.5])
        return users, np.array(indptr, dtype=np.int64), indices, weights

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(ValueError, match="indptr must run from 0 to 1"):
            SimGraph(*self.sections([1, 1, 1]), tau=0.0)

    def test_indptr_must_end_at_the_edge_count(self):
        """A row range past the last edge would count influencers that
        no row holds."""
        with pytest.raises(ValueError, match="indptr must run from 0 to 1"):
            SimGraph(*self.sections([0, 1, 3]), tau=0.0)


class TestSimGraphQueries:
    def test_influencers_and_influenced(self, paper_example):
        assert dict(paper_example.influencers(0)) == {1: 0.3, 2: 0.5}
        assert sorted(paper_example.influenced(4)) == [1, 2, 3]

    def test_influenced_in_node_order(self, paper_example):
        order = paper_example.users.tolist()
        for user in order:
            influenced = list(paper_example.influenced(user))
            assert influenced == sorted(influenced, key=order.index)

    def test_missing_user(self, paper_example):
        assert paper_example.influencers(99) == ()
        assert paper_example.influenced(99) == ()
        assert paper_example.influencer_count(99) == 0
        assert 99 not in paper_example

    def test_returns_are_immutable_snapshots(self, paper_example):
        """Regression: mutating a returned adjacency view must never
        corrupt graph state (the engines iterate these in hot loops)."""
        before_edges = paper_example.edge_count
        influencers = paper_example.influencers(0)
        influenced = paper_example.influenced(4)
        assert isinstance(influencers, tuple)
        assert isinstance(influenced, tuple)
        with pytest.raises(TypeError):
            influencers[0] = (99, 0.99)  # type: ignore[index]
        with pytest.raises(TypeError):
            influenced[0] = 99  # type: ignore[index]
        assert paper_example.edge_count == before_edges
        assert dict(paper_example.influencers(0)) == {1: 0.3, 2: 0.5}
        assert sorted(paper_example.influenced(4)) == [1, 2, 3]

    def test_similarity_lookup(self, paper_example):
        assert paper_example.similarity(0, 2) == 0.5
        assert paper_example.similarity(2, 0) == 0.0

    def test_mean_similarity(self, paper_example):
        weights = [0.3, 0.5, 0.5, 0.1, 0.4, 0.8]
        assert paper_example.mean_similarity() == pytest.approx(
            sum(weights) / len(weights)
        )

    def test_mean_similarity_empty(self):
        assert SimGraph.from_edges((), (), (), tau=0.1).mean_similarity() == 0.0

    def test_table4_rows_labels(self, paper_example):
        labels = [label for label, _ in paper_example.table4_rows(sample_size=10)]
        assert labels == [
            "Nb of nodes",
            "Nb of edges",
            "Mean Similarity Score",
            "Mean out-degree",
            "Diameter",
            "Mean smallest path",
        ]


#: What a compile adds to a graph's instance dict.
COMPILED = {"index", "out_indptr", "out_indices"}


@pytest.fixture
def compiles(monkeypatch) -> Counter:
    """How often any graph builds its id index and its transpose."""
    counts: Counter = Counter()
    for name in ("index", "_transpose"):
        prop = SimGraph.__dict__[name]

        def counted(graph, build=prop.func, name=name):
            counts[name] += 1
            return build(graph)

        monkeypatch.setattr(prop, "func", counted)
    return counts


class TestCompile:
    def test_the_engine_compiles_and_no_task_does(self, compiles):
        graph = SimGraph.from_edges(
            [0, 0, 2, 2, 1, 3], [1, 2, 3, 4, 4, 4],
            [0.3, 0.5, 0.5, 0.1, 0.4, 0.8], tau=0.0,
        )
        assert not COMPILED & vars(graph).keys()
        engine = CSRPropagationEngine(graph)
        assert COMPILED <= vars(graph).keys()
        assert compiles == {"index": 1, "_transpose": 1}
        assert engine.propagate({3}).probabilities[0] == pytest.approx(0.0625)
        engine.propagate_many([{4}, {3, 99}], initials=[None, engine.take_state()])
        assert compiles == {"index": 1, "_transpose": 1}

    def test_build_and_save_compile_nothing(self, compiles, tmp_path):
        """The ledger's tier builds a graph and only saves it."""
        dataset, profiles = linear_world()
        simgraph = SimGraphBuilder(tau=0.0, backend="vectorized").build(
            dataset.follow_graph, profiles
        )
        save_simgraph(simgraph, tmp_path / "graph.simgraph", format=2)
        assert simgraph.edge_count > 0
        assert not COMPILED & vars(simgraph).keys()
        assert not compiles


class TestOnSyntheticCorpus:
    def test_simgraph_smaller_than_follow_graph(self, small_dataset):
        """Paper Table 4: about half the users survive into SimGraph."""
        profiles = RetweetProfiles(small_dataset.retweets())
        simgraph = SimGraphBuilder(tau=0.001).build(
            small_dataset.follow_graph, profiles
        )
        assert 0 < simgraph.node_count <= small_dataset.user_count

    def test_longer_paths_than_follow_graph(self, small_dataset):
        """Paper: at comparable sparsity (their SimGraph has out-degree
        5.9 vs the crawl's 57.8) the SimGraph's mean path roughly doubles
        the follow graph's.  On a small dense corpus we match the sparse
        regime with an influencer cap."""
        from repro.graph.metrics import summarize_graph

        profiles = RetweetProfiles(small_dataset.retweets())
        simgraph = SimGraphBuilder(tau=0.001, max_influencers=4).build(
            small_dataset.follow_graph, profiles
        )
        follow = summarize_graph(small_dataset.follow_graph, sample_size=40)
        sim_summary = simgraph.summary(sample_size=40)
        assert sim_summary.mean_path_length > follow.mean_path_length
