"""The Def. 4.1 oracle: SimGraph construction one user at a time.

For every source ``u`` with a profile: walk the exploration graph
``hops`` levels out (``N2(u)`` at the paper's 2), score every reached
user with the Def. 3.1 inverted-index walk
(:func:`~repro.core.similarity.similarities_from`), keep the pairs with
``sim(u, w) >= tau`` and, under a row cap, the strongest
``max_influencers`` by (score, user id).  This is the construction as
the paper states it, in plain dicts; :class:`SimGraphBuilder` computes
the same edges for chunks of users through sparse products, and the
differential suites pin it against :func:`oracle_build`
(``tests/test_backend_differential.py`` first of all).

Suites that start from an existing SimGraph (delta maintenance, the
offline pipeline) take it from either :data:`BUILDS`: ``"reference"``
is this oracle, ``"vectorized"`` the builder.

The tests below pin the oracle itself to the definition, pair by pair,
through the pairwise :func:`~repro.core.similarity.similarity` and a
breadth-first k-hop walk.
"""

from __future__ import annotations

import pytest

from repro.core.profiles import RetweetProfiles
from repro.core.simgraph import DEFAULT_TAU, SimGraph, SimGraphBuilder
from repro.core.similarity import similarities_from, similarity
from repro.graph.digraph import DiGraph
from repro.graph.traversal import k_hop_neighborhood
from repro.synth import SynthConfig, generate_dataset
from repro.utils.topk import top_k_items

#: Who built a SimGraph a suite starts from (see module docstring).
BUILDS = ("reference", "vectorized")


def oracle_edges_for_user(
    user: int,
    exploration_graph,
    profiles: RetweetProfiles,
    tau: float = DEFAULT_TAU,
    hops: int = 2,
    max_influencers: int | None = None,
) -> dict[int, float]:
    """``user``'s out-row under Def. 4.1, in inverted-index walk order."""
    if user not in exploration_graph or not profiles.has_profile(user):
        return {}
    candidates = k_hop_neighborhood(exploration_graph, user, hops)
    scores = similarities_from(profiles, user, candidates=candidates)
    kept = {w: s for w, s in scores.items() if s >= tau}
    if max_influencers is not None and len(kept) > max_influencers:
        kept = dict(top_k_items(kept, max_influencers))
    return kept


def oracle_build(
    exploration_graph,
    profiles: RetweetProfiles,
    tau: float = DEFAULT_TAU,
    hops: int = 2,
    max_influencers: int | None = None,
    users=None,
) -> SimGraph:
    """The SimGraph of ``users`` (default: every node), row by row."""
    sources = exploration_graph.nodes() if users is None else users
    graph = DiGraph()
    for u in list(sources):
        row = oracle_edges_for_user(
            u, exploration_graph, profiles, tau, hops, max_influencers
        )
        for w, score in row.items():
            graph.add_edge(u, w, weight=score)
    return SimGraph(graph, tau=tau)


def build_with(
    origin: str, exploration_graph, profiles: RetweetProfiles,
    builder: SimGraphBuilder,
) -> SimGraph:
    """``builder``'s SimGraph, computed by the oracle or by the builder."""
    if origin == "reference":
        return oracle_build(
            exploration_graph, profiles, tau=builder.tau, hops=builder.hops,
            max_influencers=builder.max_influencers,
        )
    return builder.build(exploration_graph, profiles)


# ----------------------------------------------------------------------
# The oracle against the definition
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def corpus():
    dataset = generate_dataset(SynthConfig(n_users=90, n_communities=3, seed=5))
    return dataset.follow_graph, RetweetProfiles(dataset.retweets())


@pytest.mark.parametrize("hops", [1, 2])
def test_rows_are_every_close_enough_user_within_reach(corpus, hops):
    """Edge ``u -> w`` exactly when ``w`` is within ``hops`` follow steps
    of ``u`` and the pairwise Def. 3.1 score reaches ``tau``."""
    graph, profiles = corpus
    tau = 0.002
    simgraph = oracle_build(graph, profiles, tau=tau, hops=hops)
    assert simgraph.edge_count > 0
    for u in graph.nodes():
        expected = {
            w: similarity(profiles, u, w)
            for w in k_hop_neighborhood(graph, u, hops)
        }
        expected = {w: s for w, s in expected.items() if s >= tau}
        row = dict(simgraph.influencers(u))
        assert row.keys() == expected.keys(), u
        for w, score in row.items():
            assert score == pytest.approx(expected[w], abs=1e-12)


def test_cap_keeps_the_strongest_by_score_then_id(corpus):
    graph, profiles = corpus
    full = oracle_build(graph, profiles)
    capped = oracle_build(graph, profiles, max_influencers=2)
    for u in graph.nodes():
        row = dict(full.influencers(u))
        strongest = sorted(row, key=lambda w: (row[w], w))[-2:]
        assert sorted(dict(capped.influencers(u))) == sorted(strongest)


def test_sources_restrict_the_rows(corpus):
    graph, profiles = corpus
    users = sorted(profiles.users())[::4]
    restricted = oracle_build(graph, profiles, users=users)
    assert {u for u, _, _ in restricted.graph.edges()} <= set(users)
    full = oracle_build(graph, profiles)
    for u in users:
        assert dict(restricted.influencers(u)) == dict(full.influencers(u))
