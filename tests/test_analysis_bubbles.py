"""Tests for repro.analysis.bubbles (§7 future work)."""

import pytest

from repro.analysis.bubbles import (
    BubbleEscapeReranker,
    BubbleMap,
    identify_bubbles,
    recommendation_locality,
)
from repro.baselines.base import Recommendation
from repro.core.simgraph import SimGraph
from tests.test_graph_oracle import DiGraph
from tests.test_simgraph_oracle import simgraph_of


def two_bubble_simgraph() -> SimGraph:
    """Two similarity cliques: users 0-2 and users 10-12."""
    g = DiGraph()
    for base in (0, 10):
        members = [base + i for i in range(3)]
        for u in members:
            for v in members:
                if u != v:
                    g.add_edge(u, v, weight=0.5)
    return simgraph_of(g, tau=0.0)


@pytest.fixture
def bubbles():
    return identify_bubbles(two_bubble_simgraph(), seed=0)


class TestIdentifyBubbles:
    def test_two_bubbles_found(self, bubbles):
        assert bubbles.bubble_count == 2
        assert bubbles.bubble_of(0) == bubbles.bubble_of(2)
        assert bubbles.bubble_of(0) != bubbles.bubble_of(10)

    def test_unknown_user_none(self, bubbles):
        assert bubbles.bubble_of(99) is None

    def test_members_and_sizes(self, bubbles):
        label = bubbles.bubble_of(0)
        assert bubbles.members(label) == {0, 1, 2}
        assert set(bubbles.sizes().values()) == {3}

    def test_on_synthetic_simgraph(self, small_dataset):
        from repro.core import RetweetProfiles, SimGraphBuilder

        profiles = RetweetProfiles(small_dataset.retweets())
        simgraph = SimGraphBuilder(tau=0.005).build(
            small_dataset.follow_graph, profiles
        )
        bubbles = identify_bubbles(simgraph, seed=0)
        assert bubbles.bubble_count >= 1
        assert len(bubbles.labels) == simgraph.node_count


class TestRecommendationLocality:
    def test_fully_local(self, bubbles):
        recs = [Recommendation(user=0, tweet=5, score=0.5, time=0.0)]
        audience = {5: [1, 2]}  # same bubble as user 0
        assert recommendation_locality(recs, bubbles, audience) == 1.0

    def test_fully_foreign(self, bubbles):
        recs = [Recommendation(user=0, tweet=5, score=0.5, time=0.0)]
        audience = {5: [10, 11]}
        assert recommendation_locality(recs, bubbles, audience) == 0.0

    def test_unassessable_skipped(self, bubbles):
        recs = [
            Recommendation(user=99, tweet=5, score=0.5, time=0.0),  # no bubble
            Recommendation(user=0, tweet=6, score=0.5, time=0.0),  # no audience
        ]
        assert recommendation_locality(recs, bubbles, {}) == 0.0

    def test_majority_rule(self, bubbles):
        recs = [Recommendation(user=0, tweet=5, score=0.5, time=0.0)]
        audience = {5: [1, 10]}  # split audience counts as local (>= half)
        assert recommendation_locality(recs, bubbles, audience) == 1.0


class TestBubbleEscapeReranker:
    def test_invalid_weight_rejected(self, bubbles):
        with pytest.raises(ValueError):
            BubbleEscapeReranker(bubbles, escape_weight=1.5)

    def test_novelty_bounds(self, bubbles):
        reranker = BubbleEscapeReranker(bubbles)
        assert reranker.novelty(0, 5, {5: [1, 2]}) == 0.0
        assert reranker.novelty(0, 5, {5: [10, 11]}) == 1.0
        assert reranker.novelty(0, 5, {5: [1, 10]}) == pytest.approx(0.5)
        assert reranker.novelty(99, 5, {5: [1]}) == 0.0

    def test_zero_weight_preserves_ranking(self, bubbles):
        reranker = BubbleEscapeReranker(bubbles, escape_weight=0.0)
        recs = [
            Recommendation(user=0, tweet=5, score=0.9, time=0.0),
            Recommendation(user=0, tweet=6, score=0.4, time=0.0),
        ]
        out = reranker.rerank(recs, {5: [1], 6: [10]})
        assert [r.tweet for r in out] == [5, 6]
        assert out[0].score == pytest.approx(0.9)

    def test_escape_promotes_cross_bubble_content(self, bubbles):
        reranker = BubbleEscapeReranker(bubbles, escape_weight=1.0)
        recs = [
            Recommendation(user=0, tweet=5, score=0.6, time=0.0),  # local
            Recommendation(user=0, tweet=6, score=0.5, time=0.0),  # foreign
        ]
        audience = {5: [1, 2], 6: [10, 11]}
        out = reranker.rerank(recs, audience)
        # The foreign tweet wins despite a lower raw score.
        assert out[0].tweet == 6

    def test_partial_weight_trades_off(self, bubbles):
        recs = [
            Recommendation(user=0, tweet=5, score=0.6, time=0.0),
            Recommendation(user=0, tweet=6, score=0.5, time=0.0),
        ]
        audience = {5: [1, 2], 6: [10, 11]}
        mild = BubbleEscapeReranker(bubbles, escape_weight=0.1)
        strong = BubbleEscapeReranker(bubbles, escape_weight=0.9)
        assert mild.rerank(recs, audience)[0].tweet == 5
        assert strong.rerank(recs, audience)[0].tweet == 6

    def test_scores_never_negative(self, bubbles):
        reranker = BubbleEscapeReranker(bubbles, escape_weight=0.5)
        recs = [Recommendation(user=0, tweet=5, score=0.3, time=0.0)]
        out = reranker.rerank(recs, {5: [1]})
        assert out[0].score >= 0.0
