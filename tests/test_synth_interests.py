"""Tests for repro.synth.interests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.synth.config import SynthConfig
from repro.synth.interests import InterestModel


@pytest.fixture(scope="module")
def model():
    config = SynthConfig(n_users=200, n_communities=5, seed=3)
    return InterestModel(config, rng=11)


class TestCommunities:
    def test_every_user_assigned(self, model):
        assert len(model.communities) == 200
        assert set(model.communities) <= set(range(5))

    def test_every_community_nonempty(self, model):
        for community in range(5):
            assert (model.communities == community).any()

    def test_skewed_sizes(self, model):
        sizes = np.bincount(model.communities, minlength=5)
        assert sizes.max() > 2 * sizes.min()

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_every_community_inhabited_at_any_size(self, data):
        """Filling an empty community never empties another, however
        few users there are per community."""
        n_users = data.draw(st.integers(2, 200), label="n_users")
        n_communities = data.draw(st.integers(1, n_users), label="n_communities")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        config = SynthConfig(
            n_users=n_users, n_communities=n_communities, seed=seed
        )
        communities = InterestModel(config, rng=seed).communities
        assert np.array_equal(np.unique(communities), np.arange(n_communities))


class TestInterestVectors:
    def test_rows_are_distributions(self, model):
        sums = model.interest_matrix.sum(axis=1)
        assert np.allclose(sums, 1.0)
        assert (model.interest_matrix >= 0).all()

    def test_mass_concentrated_on_home_topics(self, model):
        config = model.config
        for user in range(0, 200, 17):
            community = model.community_of(user)
            home = model.home_topics(community)
            home_mass = model.interest_matrix[user, home].sum()
            assert home_mass > config.interest_concentration * 0.8

    def test_same_community_users_more_similar(self, model):
        # Cosine similarity within community beats across-community.
        matrix = model.interest_matrix
        communities = model.communities

        def cosine(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        same, cross = [], []
        rng = np.random.default_rng(0)
        for _ in range(300):
            u, v = rng.integers(0, 200, size=2)
            if u == v:
                continue
            value = cosine(matrix[u], matrix[v])
            (same if communities[u] == communities[v] else cross).append(value)
        assert np.mean(same) > np.mean(cross) + 0.2


class TestSampling:
    def test_draw_topic_in_range(self, model):
        rng = np.random.default_rng(1)
        topics = {model.draw_topic(0, rng) for _ in range(50)}
        assert topics <= set(range(model.config.n_topics))

    def test_draw_topic_biased_to_home(self, model):
        rng = np.random.default_rng(2)
        home = set(model.home_topics(model.community_of(0)).tolist())
        draws = [model.draw_topic(0, rng) for _ in range(300)]
        home_fraction = sum(1 for t in draws if t in home) / len(draws)
        assert home_fraction > 0.5

    def test_alignment_bounds(self, model):
        for topic in range(model.config.n_topics):
            value = model.alignment(0, topic)
            assert 0.0 <= value <= 1.0

    def test_alignment_high_for_home_topic(self, model):
        home = model.home_topics(model.community_of(0))
        assert model.alignment(0, int(home[0])) > 0.5


class TestDeterminism:
    def test_same_seed_same_model(self):
        config = SynthConfig(n_users=50, n_communities=3, seed=9)
        a = InterestModel(config, rng=4)
        b = InterestModel(config, rng=4)
        assert np.array_equal(a.communities, b.communities)
        assert np.array_equal(a.interest_matrix, b.interest_matrix)
