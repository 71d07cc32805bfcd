"""Shared fixtures.

``paper_example`` reconstructs the similarity graph of the paper's
Figure 6 so tests can check Examples 4.3 and 5.1 to the digit.
``small_dataset`` is a session-scoped synthetic corpus small enough for
fast tests but large enough to exhibit the calibrated distributions.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.core.simgraph import SimGraph
from repro.synth import SynthConfig, generate_dataset
from tests.builders import DatasetBuilder

# Hypothesis profiles: "ci" pins the search to a fixed seed with no
# deadline so the differential/property suites are bit-reproducible across
# runners (select with HYPOTHESIS_PROFILE=ci); "dev" only drops deadlines.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

# Node ids for the paper's Figure 6 example.
U, V, W, X, Y = 0, 1, 2, 3, 4


@pytest.fixture
def paper_example() -> SimGraph:
    """The Figure 6 similarity graph.

    Edges (u -> influential user, weight = similarity):
    u->v (0.3), u->w (0.5), w->x (0.5), w->y (0.1), v->y (0.4),
    x->y (0.8) — wired so Examples 4.3 and 5.1 hold:
    after x shares t1, p(w) = 0.25 and then p(u) = 0.0625.
    """
    return SimGraph.from_edges(
        [U, U, W, W, V, X],
        [V, W, X, Y, Y, Y],
        [0.3, 0.5, 0.5, 0.1, 0.4, 0.8],
        tau=0.0,
    )


@pytest.fixture
def tiny_dataset():
    """A hand-built five-user dataset with deterministic co-retweets.

    Follow edges: 0->1->2, 0->3, 4->1.  Tweets by user 1 (t0) and user 2
    (t1); users 0, 3 and 4 retweet t0; users 0 and 3 retweet t1.
    """
    return (
        DatasetBuilder()
        .with_users(5)
        .follow(0, 1)
        .follow(1, 2)
        .follow(0, 3)
        .follow(4, 1)
        .tweet(author=1, at=0.0, tweet_id=0)
        .tweet(author=2, at=100.0, tweet_id=1)
        .retweet(user=0, tweet=0, at=50.0)
        .retweet(user=3, tweet=0, at=60.0)
        .retweet(user=4, tweet=0, at=70.0)
        .retweet(user=0, tweet=1, at=150.0)
        .retweet(user=3, tweet=1, at=160.0)
        .build()
    )


@pytest.fixture(scope="session")
def small_config() -> SynthConfig:
    """Session-wide small synthetic configuration."""
    return SynthConfig(n_users=400, n_communities=6, seed=7)


@pytest.fixture(scope="session")
def small_dataset(small_config):
    """Session-scoped 400-user synthetic corpus (generated once)."""
    return generate_dataset(small_config)
