"""Temporal replay of the test stream (paper §6.1).

The replay engine drives a fitted recommender through the test retweets in
chronological order, collecting every *candidate recommendation* it emits
for the evaluated users.  The expensive pass runs **once**; daily budgets
and metrics for each top-k value are applied afterwards by
:mod:`repro.eval.metrics` — which is sound because a recommender's
emissions do not depend on k.

Candidate hygiene rules enforced here:

* only recommendations for target users are retained;
* a (user, tweet) pair already retweeted by that user in the train split
  is discarded — the user demonstrably knows the tweet;
* each (user, tweet) pair keeps its **earliest** emission time (fixing the
  advance-time measurement point) and the **highest** score any emission
  carried — recommenders refine their confidence as more retweets of the
  same tweet stream in, and the daily budget should rank on a method's
  best knowledge, not its first guess.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.baselines.base import Recommendation, Recommender
from repro.data.dataset import TwitterDataset
from repro.data.models import Retweet
from repro.exceptions import EvaluationError
from repro.obs import NULL, MetricsRegistry

__all__ = ["ReplayResult", "run_replay"]


@dataclass(frozen=True)
class ReplayResult:
    """Everything needed to score one method at any k."""

    name: str
    #: Earliest candidate per (user, tweet), target users only.
    candidates: list[Recommendation]
    target_users: frozenset[int]
    #: (user, tweet) -> time of the user's first retweet in the test set.
    first_retweet: dict[tuple[int, int], float]
    test_start: float
    test_end: float

    @property
    def test_days(self) -> float:
        """Length of the test window in days (minimum one)."""
        return max((self.test_end - self.test_start) / 86400.0, 1.0)


def run_replay(
    recommender: Recommender,
    dataset: TwitterDataset,
    train: list[Retweet],
    test: list[Retweet],
    target_users: set[int],
    fitted: bool = False,
    metrics: MetricsRegistry | None = None,
) -> ReplayResult:
    """Fit ``recommender`` and stream the test events through it.

    Set ``fitted=True`` when the recommender was already fitted by the
    caller (e.g. with an injected, strategy-updated SimGraph).

    ``metrics`` (default: no-op) wraps the fit and streaming stages in
    ``replay.*`` spans, counts events and candidate-recommendation flow,
    and records the achieved events/sec throughput (a timing gauge,
    excluded from deterministic snapshots).
    """
    metrics = metrics if metrics is not None else NULL
    if not test:
        raise EvaluationError("empty test stream")
    for earlier, later in zip(test, test[1:]):
        if later.time < earlier.time:
            raise EvaluationError("test stream is not in chronological order")
    if not fitted:
        with metrics.span("replay.fit"):
            recommender.fit(dataset, train, target_users=target_users)

    known: set[tuple[int, int]] = {
        (r.user, r.tweet) for r in train if r.user in target_users
    }
    first_retweet: dict[tuple[int, int], float] = {}
    candidates: dict[tuple[int, int], Recommendation] = {}
    emissions = metrics.counter("replay.emissions")

    def collect(recs: list[Recommendation]) -> None:
        emissions.inc(len(recs))
        for rec in recs:
            if rec.user not in target_users:
                continue
            key = (rec.user, rec.tweet)
            if key in known:
                continue
            existing = candidates.get(key)
            if existing is None:
                candidates[key] = rec
            elif rec.score > existing.score:
                # Keep the first emission time, upgrade to the best score.
                candidates[key] = Recommendation(
                    user=existing.user,
                    tweet=existing.tweet,
                    score=rec.score,
                    time=existing.time,
                )

    started = time.perf_counter()
    with metrics.span("replay.stream"):
        for event in test:
            collect(recommender.on_event(event))
            if event.user in target_users:
                key = (event.user, event.tweet)
                if key not in known and key not in first_retweet:
                    first_retweet[key] = event.time
        # The end-of-stream drain releases every still-buffered batch at
        # once — a single ``propagate_many`` — so it gets its own span
        # in the call tree.
        with metrics.span("replay.finalize"):
            collect(recommender.finalize(test[-1].time))
    elapsed = time.perf_counter() - started
    metrics.counter("replay.events").inc(len(test))
    metrics.counter("replay.candidates").inc(len(candidates))
    if elapsed > 0:
        metrics.gauge("replay.events_per_sec", timing=True).set(
            len(test) / elapsed
        )

    return ReplayResult(
        name=recommender.name,
        candidates=list(candidates.values()),
        target_users=frozenset(target_users),
        first_retweet=first_retweet,
        test_start=test[0].time,
        test_end=test[-1].time,
    )
