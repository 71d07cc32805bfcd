"""Tests for repro.core.similarity (paper Definition 3.1)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.profiles import RetweetProfiles
from repro.core.similarity import (
    pairwise_similarities,
    similarities_from,
    similarity,
)


def profiles_from(pairs) -> RetweetProfiles:
    profiles = RetweetProfiles()
    for user, tweet in pairs:
        profiles.add(user, tweet)
    return profiles


class TestSimilarity:
    def test_definition_3_1_by_hand(self):
        # L1 = {100, 101}, L2 = {100, 102}; m(100) = 2 via both users.
        profiles = profiles_from([(1, 100), (1, 101), (2, 100), (2, 102)])
        expected = (1.0 / math.log(3)) / 3  # one common tweet, union of 3
        assert similarity(profiles, 1, 2) == pytest.approx(expected)

    def test_symmetry(self):
        profiles = profiles_from([(1, 100), (1, 101), (2, 100)])
        assert similarity(profiles, 1, 2) == similarity(profiles, 2, 1)

    def test_self_similarity_zero(self):
        profiles = profiles_from([(1, 100)])
        assert similarity(profiles, 1, 1) == 0.0

    def test_disjoint_profiles_zero(self):
        profiles = profiles_from([(1, 100), (2, 101)])
        assert similarity(profiles, 1, 2) == 0.0

    def test_empty_profile_zero(self):
        profiles = profiles_from([(1, 100)])
        assert similarity(profiles, 1, 99) == 0.0

    def test_identical_profiles_maximal(self):
        profiles = profiles_from(
            [(1, 100), (1, 101), (2, 100), (2, 101), (3, 100), (3, 102)]
        )
        assert similarity(profiles, 1, 2) > similarity(profiles, 1, 3)

    def test_popular_common_tweet_weighs_less(self):
        # Pair (1,2) shares a niche tweet; pair (3,4) shares a viral one.
        pairs = [(1, 200), (2, 200)]
        pairs += [(u, 201) for u in range(3, 40)]
        profiles = profiles_from(pairs)
        assert similarity(profiles, 1, 2) > similarity(profiles, 3, 4)

    def test_bounded_below_one(self):
        profiles = profiles_from([(1, 100), (2, 100)])
        assert 0.0 < similarity(profiles, 1, 2) < 1.0


class TestSimilaritiesFrom:
    def test_matches_pairwise_calls(self):
        profiles = profiles_from(
            [(1, 100), (1, 101), (2, 100), (3, 101), (3, 102), (4, 125)]
        )
        scores = similarities_from(profiles, 1)
        assert set(scores) == {2, 3}
        for v, score in scores.items():
            assert score == pytest.approx(similarity(profiles, 1, v))

    def test_candidate_restriction(self):
        profiles = profiles_from([(1, 100), (2, 100), (3, 100)])
        scores = similarities_from(profiles, 1, candidates={2})
        assert set(scores) == {2}

    def test_empty_profile_empty_result(self):
        profiles = profiles_from([(1, 100)])
        assert similarities_from(profiles, 99) == {}

    def test_excludes_self(self):
        profiles = profiles_from([(1, 100), (2, 100)])
        assert 1 not in similarities_from(profiles, 1)


class TestPairwiseSimilarities:
    def test_canonical_ordering(self):
        profiles = profiles_from([(1, 100), (2, 100), (3, 100)])
        scores = pairwise_similarities(profiles)
        assert set(scores) == {(1, 2), (1, 3), (2, 3)}

    def test_restricted_pool(self):
        profiles = profiles_from([(1, 100), (2, 100), (3, 100)])
        scores = pairwise_similarities(profiles, users=[1, 2])
        assert set(scores) == {(1, 2)}

    def test_values_match_direct(self):
        profiles = profiles_from(
            [(1, 100), (1, 101), (2, 100), (2, 102), (3, 101)]
        )
        for (u, v), score in pairwise_similarities(profiles).items():
            assert score == pytest.approx(similarity(profiles, u, v))

    def test_each_pair_accumulated_once(self, monkeypatch):
        """Regression: one walk per user over a candidate set built once
        — not a fresh ``{v in pool : v > u}`` set per user, which made
        the pool filtering itself quadratic."""
        import importlib

        module = importlib.import_module("repro.core.similarity")
        calls: list[tuple[int, object]] = []
        original = module.similarities_from

        def recording(profiles, u, candidates=None):
            calls.append((u, candidates))
            return original(profiles, u, candidates=candidates)

        monkeypatch.setattr(module, "similarities_from", recording)
        profiles = profiles_from(
            [(1, 100), (2, 100), (3, 100), (4, 100), (5, 101)]
        )
        scores = module.pairwise_similarities(profiles)
        assert set(scores) == {(u, v) for u in range(1, 5) for v in range(u + 1, 5)}
        # One walk per pool member, every walk sharing one candidate
        # object (None = the whole pool when users is unspecified).
        assert sorted(u for u, _ in calls) == [1, 2, 3, 4, 5]
        assert all(candidates is None for _, candidates in calls)
        restricted = module.pairwise_similarities(profiles, users=[1, 2, 3])
        shared = [c for u, c in calls if c is not None]
        assert set(restricted) == {(1, 2), (1, 3), (2, 3)}
        assert all(c is shared[0] for c in shared)
        assert shared[0] == {1, 2, 3}


@st.composite
def retweet_corpus(draw):
    n_users = draw(st.integers(min_value=2, max_value=8))
    n_tweets = draw(st.integers(min_value=1, max_value=10))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_users - 1), st.integers(0, n_tweets - 1)
            ),
            max_size=60,
        )
    )
    return pairs


@settings(max_examples=80)
@given(retweet_corpus())
def test_similarity_properties(pairs):
    """Property: Def. 3.1 is symmetric, bounded to [0, 1), zero on self."""
    profiles = profiles_from(pairs)
    users = sorted(profiles.users()) or [0]
    for u in users:
        assert similarity(profiles, u, u) == 0.0
        for v in users:
            s_uv = similarity(profiles, u, v)
            assert 0.0 <= s_uv < 1.0
            assert s_uv == pytest.approx(similarity(profiles, v, u))


@settings(max_examples=60)
@given(retweet_corpus())
def test_similarities_from_is_exhaustive(pairs):
    """Property: the inverted-index scan finds exactly the non-zero pairs."""
    profiles = profiles_from(pairs)
    users = sorted(profiles.users())
    for u in users:
        scores = similarities_from(profiles, u)
        for v in users:
            if v == u:
                continue
            direct = similarity(profiles, u, v)
            if direct > 0:
                assert scores[v] == pytest.approx(direct)
            else:
                assert v not in scores
