"""Property tests for the §5.4 policies: γ(t) thresholds and δ scheduling.

The Hill-function threshold and the postponed scheduler are the two
pieces of the paper whose correctness is a set of *inequalities*, not a
worked example — exactly what property testing covers best:

* γ(t) = m^p / (k^p + m^p) is bounded in [0, 1), monotone in the
  popularity m(t) (also exhaustively, over 1..10^6 on a grid of k and
  p), equals 1/2 at m = k, and rejects non-positive k/p;
* the δ scheduler never releases a batch before its due time, releases
  batches in non-decreasing due-time order, keeps users FIFO within a
  batch, and loses / duplicates no event.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.scheduler import DelayPolicy, PostponedScheduler
from repro.core.thresholds import DynamicThreshold
from repro.data.models import Retweet

# ----------------------------------------------------------------------
# γ(t) — the Hill-function dynamic threshold
# ----------------------------------------------------------------------

ks = st.floats(min_value=0.1, max_value=1e4, allow_nan=False)
ps = st.floats(min_value=0.1, max_value=8.0, allow_nan=False)
scales = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)
popularities = st.integers(min_value=0, max_value=10**6)


@given(k=ks, p=ps, m=popularities)
def test_gamma_is_bounded(k, p, m):
    # Mathematically γ < 1, but float division saturates to exactly 1.0
    # when m^p dwarfs k^p — the closed bound is the honest invariant.
    gamma = DynamicThreshold(k=k, p=p).gamma(m)
    assert 0.0 <= gamma <= 1.0


@given(k=ks, p=ps, scale=scales, m=popularities)
def test_threshold_is_scaled_gamma(k, p, scale, m):
    policy = DynamicThreshold(k=k, p=p, scale=scale)
    assert 0.0 <= policy.threshold_for(m) <= scale
    assert policy.threshold_for(m) == pytest.approx(scale * policy.gamma(m))


@given(k=ks, p=ps, m=st.integers(min_value=0, max_value=10**5),
       step=st.integers(min_value=1, max_value=1000))
def test_gamma_is_monotone_in_popularity(k, p, m, step):
    """More popular tweets never get a *lower* threshold (paper §5.4)."""
    policy = DynamicThreshold(k=k, p=p)
    assert policy.gamma(m + step) >= policy.gamma(m)


#: The property's k and p ranges on a grid: both ends, the defaults, and
#: the pair whose textbook form dropped by one ulp between m=9,589 and
#: 10,449 (found by the property above under a random profile).
GRID_K = (0.1, 1.0, 4.5, 20.0, 1e3, 1e4)
GRID_P = (0.1, 1.0, 2.0, 4.71875, 8.0)


@pytest.mark.parametrize("k", GRID_K)
def test_gamma_is_monotone_over_every_popularity(k):
    """Every popularity 1..10^6: γ never drops.  (The textbook
    m^p / (k^p + m^p) drops by one ulp 111 times on this grid.)"""
    n = 10**6
    for p in GRID_P:
        gamma = DynamicThreshold(k=k, p=p).gamma
        values = np.fromiter(map(gamma, range(1, n + 1)), np.float64, count=n)
        assert not (np.diff(values) < 0).any(), (k, p)


@given(k=st.integers(min_value=1, max_value=10**4), p=ps)
def test_gamma_half_point_at_k(k, p):
    """γ reaches exactly 1/2 when m(t) = k, by construction."""
    assert DynamicThreshold(k=float(k), p=p).gamma(k) == pytest.approx(0.5)


@given(k=ks, p=ps)
def test_gamma_zero_for_unshared_tweet(k, p):
    assert DynamicThreshold(k=k, p=p).gamma(0) == 0.0


@given(bad=st.floats(max_value=0.0, allow_nan=False))
def test_non_positive_k_and_p_rejected(bad):
    with pytest.raises(ValueError):
        DynamicThreshold(k=bad)
    with pytest.raises(ValueError):
        DynamicThreshold(p=bad)
    with pytest.raises(ValueError):
        DynamicThreshold(scale=bad)


# ----------------------------------------------------------------------
# δ — the postponed scheduler
# ----------------------------------------------------------------------

#: (tweet, user, inter-arrival gap) triples; gaps keep the stream sorted.
event_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=30),
        st.floats(min_value=0.0, max_value=7200.0, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)

policies = st.builds(
    DelayPolicy,
    scale=st.floats(min_value=1.0, max_value=7200.0),
    min_delay=st.floats(min_value=0.0, max_value=300.0),
    max_delay=st.floats(min_value=300.0, max_value=14400.0),
)


def to_stream(triples) -> list[Retweet]:
    events, clock = [], 0.0
    for tweet, user, gap in triples:
        clock += gap
        events.append(Retweet(user=user, tweet=tweet, time=clock))
    return events


@given(triples=event_streams, policy=policies)
def test_no_batch_released_before_due(triples, policy):
    """A task released at event time *now* was due at or before *now*,
    and never before the batch's first event entered the scheduler."""
    scheduler = PostponedScheduler(policy)
    first_seen: dict[int, float] = {}
    for event in to_stream(triples):
        released = scheduler.offer(event)
        for task in released:
            assert task.due_time <= event.time
            assert task.due_time >= first_seen[task.tweet]
            # A released tweet may reopen later with a fresh first_seen —
            # possibly by this very event, so pop before the setdefault.
            first_seen.pop(task.tweet, None)
        first_seen.setdefault(event.tweet, event.time)


@given(triples=event_streams, policy=policies)
def test_release_order_is_non_decreasing_due_time(triples, policy):
    scheduler = PostponedScheduler(policy)
    due_times = []
    for event in to_stream(triples):
        due_times.extend(t.due_time for t in scheduler.offer(event))
    assert due_times == sorted(due_times)


@given(triples=event_streams, policy=policies)
def test_users_fifo_within_batch(triples, policy):
    """Within a tweet's batch, users appear in arrival order."""
    scheduler = PostponedScheduler(policy)
    arrival: dict[int, list[int]] = {}
    events = to_stream(triples)
    released = []
    for event in events:
        released.extend(scheduler.offer(event))
        arrival.setdefault(event.tweet, []).append(event.user)
    released.extend(scheduler.flush(now=events[-1].time))
    consumed: dict[int, int] = {}
    for task in released:
        start = consumed.get(task.tweet, 0)
        expected = arrival[task.tweet][start:start + len(task.users)]
        assert list(task.users) == expected
        consumed[task.tweet] = start + len(task.users)


@given(triples=event_streams, policy=policies)
def test_no_event_lost_or_duplicated(triples, policy):
    """offer + flush together release every event exactly once."""
    scheduler = PostponedScheduler(policy)
    events = to_stream(triples)
    released = []
    for event in events:
        released.extend(scheduler.offer(event))
    released.extend(scheduler.flush(now=events[-1].time))
    out = sorted((t.tweet, u) for t in released for u in t.users)
    assert out == sorted((e.tweet, e.user) for e in events)
    assert scheduler.pending_count == 0
