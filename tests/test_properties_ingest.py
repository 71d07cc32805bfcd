"""Property: any partition of a stream into ``ingest_batch`` calls ends
where the per-event replay ends.

One stream, drawn with repeated tweets, same-tweet gaps longer than the
scheduler's ``min_delay`` (an event that releases its own tweet's batch),
maintenance falling due mid-stream and tweets aging past the relevance
horizon, is ingested twice: one ``retweet`` per event, and as arbitrary
consecutive ``ingest_batch`` chunks.  Deliveries (event by event, then the
final drain), ``known_pairs()``, the warm cache's contents and
``ServiceStats`` must be equal, on both propagation engines, scheduler on
and off.  Only the ``propagation.*`` call counts may differ: a batch
scores its deferred tasks jointly.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import DelayPolicy
from repro.service import RecommendationService, ServiceConfig

USERS = range(1, 11)
FOLLOWS = [
    (2, 1), (3, 2), (4, 3), (5, 4), (6, 1), (7, 6), (8, 7), (3, 1), (5, 3),
    (7, 1), (8, 6), (9, 8), (10, 9), (10, 2), (9, 4),
]
HISTORY = range(100, 106)
LIVE = {1: 7, 2: 2, 3: 9}  # tweet -> author, all posted at t = 0
#: Seconds between events: 0 and 5 stay inside one 60 s scheduler
#: window, the rest release the previous batch of the same tweet.
GAPS = [0.0, 5.0, 61.0, 150.0, 400.0]


def world(use_scheduler: bool, prop_backend: str) -> RecommendationService:
    service = RecommendationService(
        ServiceConfig(
            min_score=1e-6, use_scheduler=use_scheduler,
            prop_backend=prop_backend, rebuild_interval=900.0,
            max_tweet_age=2400.0,
        ),
        delay_policy=DelayPolicy(60.0, 60.0, 60.0),
    )
    for user in USERS:
        service.add_user(user)
    for follower, followee in FOLLOWS:
        service.add_follow(follower, followee)
    for tweet in HISTORY:
        for user in USERS:
            if (user + tweet) % 3:
                service.absorb_retweet(user, tweet)
    for tweet, author in LIVE.items():
        service.post_tweet(tweet, author, 0.0)
    service.rebuild("from scratch")
    return service


@st.composite
def partitioned_streams(draw):
    steps = draw(st.lists(
        st.tuples(
            st.sampled_from(USERS), st.sampled_from(sorted(LIVE)),
            st.sampled_from(GAPS),
        ),
        min_size=1, max_size=24,
    ))
    events, at = [], 0.0
    for user, tweet, gap in steps:
        at += gap
        events.append((user, tweet, at))
    cuts = sorted(draw(st.sets(st.integers(0, len(events)))))
    bounds = [0, *cuts, len(events)]
    return events, [events[a:b] for a, b in zip(bounds, bounds[1:])]


def as_tuples(recs) -> list[tuple]:
    return [(r.user, r.tweet, r.time, r.score) for r in recs]


def warm_contents(service: RecommendationService) -> dict:
    """Per tweet: its horizon and the stored fixpoint, engine-neutral."""
    contents = {}
    for tweet, (created_at, state) in service._warm._entries.items():
        if isinstance(state, dict):
            contents[tweet] = (created_at, state)
        else:
            contents[tweet] = (
                created_at, state.seeds, state.indices.tolist(),
                state.values.tolist(), dict(state.extra),
            )
    return contents


# Three events of tweet 1, the third one releasing the first two's batch.
SELF_RELEASE = (
    [(2, 1, 10.0), (6, 1, 20.0), (3, 1, 100.0), (8, 1, 300.0)],
    [[(2, 1, 10.0), (6, 1, 20.0), (3, 1, 100.0), (8, 1, 300.0)]],
)
# The last event releases tweet 1's batch and tweet 3's second batch
# while tweet 3's first one (released at t=61) is still deferred: both of
# the event's tasks are delivered together, as sequentially.
CROSS_RELEASE = (
    [(2, 3, 0.0), (1, 3, 61.0), (1, 1, 61.0), (1, 1, 122.0)],
    [[(2, 3, 0.0), (1, 3, 61.0), (1, 1, 61.0), (1, 1, 122.0)]],
)


@pytest.mark.parametrize("use_scheduler", [False, True])
@pytest.mark.parametrize("prop_backend", ["reference", "csr"])
@settings(max_examples=60)
@example(stream=SELF_RELEASE)
@example(stream=CROSS_RELEASE)
@given(stream=partitioned_streams())
def test_any_partition_equals_per_event_replay(
    use_scheduler, prop_backend, stream
):
    events, chunks = stream
    sequential = world(use_scheduler, prop_backend)
    batched = world(use_scheduler, prop_backend)

    expected = [as_tuples(sequential.retweet(*event)) for event in events]
    got = [
        as_tuples(recs)
        for chunk in chunks
        for recs in batched.ingest_batch(chunk)
    ]
    assert got == expected
    end = events[-1][2]
    assert as_tuples(batched.flush(end)) == as_tuples(sequential.flush(end))
    assert batched.known_pairs() == sequential.known_pairs()
    assert warm_contents(batched) == warm_contents(sequential)
    assert batched.stats == sequential.stats
