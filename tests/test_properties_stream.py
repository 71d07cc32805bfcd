"""Cross-cutting property tests on the streaming pipeline.

These tie several subsystems together under hypothesis-generated inputs:
the scheduler must conserve events, warm-started propagation must agree
with cold runs on arbitrary graphs and seed sequences, and the round-trip
dataset IO must be lossless for arbitrary small corpora.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.propagation import PropagationEngine
from repro.core.scheduler import DelayPolicy, PostponedScheduler
from repro.core.simgraph import SimGraph
from repro.data.dataset import TwitterDataset
from repro.data.io import load_dataset, save_dataset
from repro.data.models import Retweet, Tweet, User
from tests.test_graph_oracle import DiGraph, follow_pairs
from tests.test_simgraph_oracle import simgraph_of


# ----------------------------------------------------------------------
# Scheduler conservation
# ----------------------------------------------------------------------
@st.composite
def retweet_stream(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=10_000.0),
                min_size=n,
                max_size=n,
            )
        )
    )
    events = []
    for i, t in enumerate(times):
        user = draw(st.integers(0, 10))
        tweet = draw(st.integers(0, 5))
        events.append(Retweet(user=user, tweet=tweet, time=t))
    return events


@settings(max_examples=60, deadline=None)
@given(retweet_stream())
def test_scheduler_conserves_every_event(events):
    """Property: every offered retweet appears in exactly one task."""
    scheduler = PostponedScheduler(
        DelayPolicy(scale=500.0, min_delay=10.0, max_delay=1000.0)
    )
    emitted: list[tuple[int, int]] = []
    for event in events:
        for task in scheduler.offer(event):
            emitted.extend((task.tweet, user) for user in task.users)
    for task in scheduler.flush():
        emitted.extend((task.tweet, user) for user in task.users)
    expected = [(e.tweet, e.user) for e in events]
    assert sorted(emitted) == sorted(expected)


@settings(max_examples=40, deadline=None)
@given(retweet_stream())
def test_scheduler_tasks_due_in_order(events):
    """Property: released tasks have non-decreasing due times per offer."""
    scheduler = PostponedScheduler(
        DelayPolicy(scale=500.0, min_delay=10.0, max_delay=1000.0)
    )
    last_due = float("-inf")
    for event in events:
        for task in scheduler.offer(event):
            assert task.due_time <= event.time
            assert task.due_time >= last_due
            last_due = task.due_time


# ----------------------------------------------------------------------
# Warm-start equivalence
# ----------------------------------------------------------------------
@st.composite
def graph_and_seed_batches(draw):
    n = draw(st.integers(min_value=3, max_value=9))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(min_value=0.05, max_value=0.9),
            ).filter(lambda e: e[0] != e[1]),
            max_size=25,
        )
    )
    graph = DiGraph()
    graph.add_nodes(range(n))
    for u, v, w in edges:
        graph.add_edge(u, v, weight=w)
    batches = draw(
        st.lists(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=3),
            min_size=1,
            max_size=4,
        )
    )
    return simgraph_of(graph, tau=0.0), batches


@settings(max_examples=50, deadline=None)
@given(graph_and_seed_batches())
def test_incremental_propagation_matches_cold(data):
    """Property: growing the seed set incrementally (warm starts) lands on
    the same fixpoint as one cold propagation with all seeds."""
    simgraph, batches = data
    engine = PropagationEngine(simgraph)
    seeds: set[int] = set()
    warm: dict[int, float] | None = None
    for batch in batches:
        seeds |= batch
        result = engine.propagate(seeds, initial=warm)
        warm = result.probabilities
    cold = engine.propagate(seeds).probabilities
    assert warm is not None
    for user in set(cold) | set(warm):
        assert warm.get(user, 0.0) == pytest.approx(
            cold.get(user, 0.0), abs=1e-7
        )


# ----------------------------------------------------------------------
# Dataset IO round-trip
# ----------------------------------------------------------------------
@st.composite
def tiny_corpus(draw):
    n_users = draw(st.integers(min_value=1, max_value=6))
    dataset = TwitterDataset()
    for user_id in range(n_users):
        dataset.add_user(User(id=user_id, community=user_id % 2))
    follows = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_users - 1), st.integers(0, n_users - 1)
            ).filter(lambda e: e[0] != e[1]),
            max_size=10,
            unique=True,
        )
    )
    for follower, followee in follows:
        dataset.add_follow(follower, followee)
    n_tweets = draw(st.integers(min_value=0, max_value=5))
    for tweet_id in range(n_tweets):
        dataset.add_tweet(
            Tweet(id=tweet_id, author=draw(st.integers(0, n_users - 1)),
                  created_at=float(tweet_id))
        )
    if n_tweets:
        retweets = draw(
            st.lists(
                st.tuples(
                    st.integers(0, n_users - 1),
                    st.integers(0, n_tweets - 1),
                    st.floats(min_value=10.0, max_value=100.0),
                ),
                max_size=15,
            )
        )
        for user, tweet, at in retweets:
            dataset.add_retweet(Retweet(user=user, tweet=tweet, time=at))
    return dataset


@settings(max_examples=30, deadline=None)
@given(tiny_corpus())
def test_io_round_trip_lossless(tmp_path_factory, dataset):
    """Property: save -> load preserves all entities and indexes."""
    path = tmp_path_factory.mktemp("roundtrip")
    save_dataset(dataset, path / "ds")
    loaded = load_dataset(path / "ds")
    assert loaded.user_count == dataset.user_count
    assert loaded.tweet_count == dataset.tweet_count
    assert loaded.retweets() == dataset.retweets()
    assert sorted(follow_pairs(loaded.follow_graph)) == sorted(
        follow_pairs(dataset.follow_graph)
    )
    for user in dataset.users:
        assert loaded.profile(user) == dataset.profile(user)
    loaded.validate()
