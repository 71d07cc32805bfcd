"""Differential harness: the SimGraph build vs the Def. 4.1 oracle.

The one build (:class:`SimGraphBuilder`, chunked sparse products in
:mod:`repro.core.simmatrix`) is only trustworthy because this suite pins
it to the per-user loop of ``tests/test_simgraph_oracle.py``: on
randomized synthetic corpora both must produce **identical** SimGraph
edge sets (and node sets), similarities within 1e-12, and the end-to-end
recommender must emit identical top-k output whichever of the two built
its graph.  Any change to the build that breaks agreement fails here
first.  Cases keep their historical names: ``reference`` is the oracle,
``vectorized`` the builder.
"""

from __future__ import annotations

import pytest

from repro.core import RetweetProfiles, SimGraphBuilder, SimGraphRecommender
from repro.data import temporal_split
from repro.synth import SynthConfig, generate_dataset
from repro.utils.topk import top_k_items
from tests.test_graph_oracle import digraph_of, to_digraph
from tests.test_simgraph_oracle import oracle_build

#: Randomized synthetic corpora of several seeds/sizes (acceptance asks
#: for at least three).
CONFIGS = [
    SynthConfig(n_users=120, n_communities=4, seed=11),
    SynthConfig(n_users=250, n_communities=6, seed=23),
    SynthConfig(n_users=400, n_communities=6, seed=7, tweets_alpha=1.25),
]

SIM_TOLERANCE = 1e-12


def edge_map(simgraph) -> dict[tuple[int, int], float]:
    return {(u, v): w for u, v, w in to_digraph(simgraph).edges()}


def assert_same_simgraph(reference, vectorized) -> None:
    """Identical edge set + node set, weights within 1e-12."""
    ref_edges = edge_map(reference)
    vec_edges = edge_map(vectorized)
    assert set(ref_edges) == set(vec_edges)
    assert set(reference.users()) == set(vectorized.users.tolist())
    for pair, weight in ref_edges.items():
        assert vec_edges[pair] == pytest.approx(weight, abs=SIM_TOLERANCE)


@pytest.fixture(
    scope="module", params=range(len(CONFIGS)), ids=lambda i: f"corpus{i}"
)
def corpus(request):
    dataset = generate_dataset(CONFIGS[request.param])
    return dataset, RetweetProfiles(dataset.retweets())


def build_pair(dataset, profiles, exploration_graph=None, users=None, **kw):
    graph = exploration_graph if exploration_graph is not None else dataset.follow_graph
    reference = oracle_build(digraph_of(graph), profiles, users=users, **kw)
    vectorized = SimGraphBuilder(**kw).build(graph, profiles, users=users)
    return reference, vectorized


class TestSimGraphDifferential:
    def test_default_tau_identical(self, corpus):
        dataset, profiles = corpus
        reference, vectorized = build_pair(dataset, profiles, tau=0.001)
        assert reference.edge_count > 0
        assert_same_simgraph(reference, vectorized)

    def test_higher_tau_identical(self, corpus):
        dataset, profiles = corpus
        reference, vectorized = build_pair(dataset, profiles, tau=0.005)
        assert_same_simgraph(reference, vectorized)

    def test_capped_influencers_identical(self, corpus):
        dataset, profiles = corpus
        reference, vectorized = build_pair(
            dataset, profiles, tau=0.001, max_influencers=5
        )
        assert_same_simgraph(reference, vectorized)

    def test_one_hop_identical(self, corpus):
        dataset, profiles = corpus
        reference, vectorized = build_pair(dataset, profiles, tau=0.001, hops=1)
        assert_same_simgraph(reference, vectorized)

    def test_restricted_sources_identical(self, corpus):
        dataset, profiles = corpus
        users = sorted(profiles.users())[::3]
        reference, vectorized = build_pair(
            dataset, profiles, users=users, tau=0.001
        )
        assert_same_simgraph(reference, vectorized)

    def test_crossfold_exploration_identical(self, corpus):
        """The §6.3 crossfold path explores the previous SimGraph itself."""
        dataset, profiles = corpus
        previous = SimGraphBuilder(tau=0.001).build(
            dataset.follow_graph, profiles
        )
        reference, vectorized = build_pair(
            dataset, profiles, exploration_graph=previous.topology(), tau=0.001
        )
        assert_same_simgraph(reference, vectorized)

    def test_chunked_build_identical(self, corpus):
        """A build cut into many small chunks returns the exact edges."""
        dataset, profiles = corpus
        reference = oracle_build(dataset.follow_graph, profiles, tau=0.001)
        chunked = SimGraphBuilder(tau=0.001, chunk_size=32).build(
            dataset.follow_graph, profiles
        )
        assert_same_simgraph(reference, chunked)


class TestRecommenderDifferential:
    TOP_K = 10

    @pytest.fixture(scope="class")
    def recommendations(self):
        dataset = generate_dataset(CONFIGS[1])
        split = temporal_split(dataset)
        oracle = oracle_build(
            dataset.follow_graph, RetweetProfiles(split.train)
        ).compile()
        outputs = {}
        for backend, simgraph in (("reference", oracle), ("vectorized", None)):
            recommender = SimGraphRecommender(simgraph=simgraph)
            recommender.fit(dataset, split.train)
            emitted = []
            for event in split.test[:40]:
                emitted.extend(recommender.on_event(event))
            outputs[backend] = emitted
        return outputs

    def test_same_recommendation_set(self, recommendations):
        reference, vectorized = (
            recommendations["reference"], recommendations["vectorized"],
        )
        assert {(r.user, r.tweet) for r in reference} == {
            (r.user, r.tweet) for r in vectorized
        }
        assert len(reference) > 0

    def test_scores_within_tolerance(self, recommendations):
        # A pair can be re-recommended with an updated score on later
        # events, so compare the chronological score sequence per pair
        # (each pair is emitted at most once per event).
        def sequences(emitted):
            by_pair: dict[tuple[int, int], list[float]] = {}
            for r in emitted:
                by_pair.setdefault((r.user, r.tweet), []).append(r.score)
            return by_pair

        reference = sequences(recommendations["reference"])
        vectorized = sequences(recommendations["vectorized"])
        assert set(reference) == set(vectorized)
        for pair, scores in reference.items():
            assert vectorized[pair] == pytest.approx(
                scores, abs=SIM_TOLERANCE
            )

    def test_identical_topk_per_tweet(self, recommendations):
        """The delivered ranking — top-k users per tweet — is identical."""
        def topk(emitted):
            by_tweet: dict[int, dict[int, float]] = {}
            for r in emitted:
                by_tweet.setdefault(r.tweet, {})[r.user] = r.score
            return {
                tweet: [user for user, _ in top_k_items(scores, self.TOP_K)]
                for tweet, scores in by_tweet.items()
            }

        assert topk(recommendations["reference"]) == topk(
            recommendations["vectorized"]
        )
