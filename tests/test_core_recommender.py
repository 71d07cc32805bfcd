"""Tests for repro.core.recommender (the end-to-end SimGraph method)."""

import pytest

from repro.core.recommender import SimGraphRecommender
from repro.core.scheduler import DelayPolicy
from repro.core.simgraph import SimGraph
from repro.data.models import Retweet
from repro.exceptions import ConfigError, DatasetError
from tests.builders import DatasetBuilder
from tests.test_graph_oracle import DiGraph
from tests.test_simgraph_oracle import simgraph_of


def co_retweet_world():
    """Users 0-4; 0/1/2 co-retweet two tweets in train; user 3 follows
    into their neighbourhood.  Tweet 10 is the test tweet."""
    builder = DatasetBuilder().with_users(5)
    builder.follow_chain(3, 0, 1)
    builder.follow(0, 1)
    builder.follow(1, 2)
    builder.follow(2, 0)
    builder.follow(3, 2)
    for tid, at in ((0, 0.0), (1, 10.0)):
        builder.tweet(author=4, at=at, tweet_id=tid)
    builder.tweet(author=4, at=1000.0, tweet_id=10)
    train = []
    for tid in (0, 1):
        for user in (0, 1, 2, 3):
            at = 20.0 + tid * 10 + user
            builder.retweet(user=user, tweet=tid, at=at)
            train.append(Retweet(user=user, tweet=tid, time=at))
    return builder.build(), train


class TestFit:
    def test_builds_simgraph(self):
        dataset, train = co_retweet_world()
        rec = SimGraphRecommender(tau=0.0)
        rec.fit(dataset, train)
        assert rec.simgraph is not None
        assert rec.simgraph.edge_count > 0

    def test_injected_simgraph_used(self):
        dataset, train = co_retweet_world()
        graph = DiGraph()
        graph.add_edge(0, 1, weight=0.5)
        injected = simgraph_of(graph, tau=0.0)
        rec = SimGraphRecommender(simgraph=injected)
        rec.fit(dataset, train)
        assert rec.simgraph is injected

    def test_min_score_outside_unit_interval_rejected(self):
        for floor in (0.0, 1.0, 2.0):
            with pytest.raises(ConfigError, match=r"min_score must be in \(0, 1\)"):
                SimGraphRecommender(min_score=floor)

    def test_unfitted_rejected(self):
        rec = SimGraphRecommender()
        with pytest.raises(RuntimeError):
            rec.on_event(Retweet(user=0, tweet=0, time=0.0))


class TestOnEvent:
    def test_immediate_mode_emits_recommendations(self):
        dataset, train = co_retweet_world()
        rec = SimGraphRecommender(tau=0.0)
        rec.fit(dataset, train)
        recs = rec.on_event(Retweet(user=0, tweet=10, time=1010.0))
        users = {r.user for r in recs}
        assert users  # co-retweeters of 0 get the new tweet
        assert 0 not in users  # the seed never gets recommended its own share

    def test_scores_are_propagation_probabilities(self):
        dataset, train = co_retweet_world()
        rec = SimGraphRecommender(tau=0.0)
        rec.fit(dataset, train)
        recs = rec.on_event(Retweet(user=0, tweet=10, time=1010.0))
        assert all(0.0 < r.score <= 1.0 for r in recs)
        assert all(r.tweet == 10 for r in recs)
        assert all(r.time == 1010.0 for r in recs)

    def test_target_filter(self):
        dataset, train = co_retweet_world()
        rec = SimGraphRecommender(tau=0.0)
        rec.fit(dataset, train, target_users={1})
        recs = rec.on_event(Retweet(user=0, tweet=10, time=1010.0))
        assert {r.user for r in recs} <= {1}

    def test_old_tweet_skipped(self):
        dataset, train = co_retweet_world()
        rec = SimGraphRecommender(tau=0.0, max_tweet_age=3600.0)
        rec.fit(dataset, train)
        # Tweet 10 created at t=1000; event 2 hours later is beyond age.
        recs = rec.on_event(Retweet(user=0, tweet=10, time=1000.0 + 7200.0))
        assert recs == []

    def test_min_score_floor(self):
        dataset, train = co_retweet_world()
        # Inside (0, 1), above every non-seed score of this world (< 0.46).
        rec = SimGraphRecommender(tau=0.0, min_score=0.99)
        rec.fit(dataset, train)
        assert rec.on_event(Retweet(user=0, tweet=10, time=1010.0)) == []

    def test_unknown_tweet_rejected(self):
        dataset, train = co_retweet_world()
        rec = SimGraphRecommender(tau=0.0)
        rec.fit(dataset, train)
        with pytest.raises(DatasetError, match="unknown tweet id 99"):
            rec.on_event(Retweet(user=0, tweet=99, time=1010.0))

    def test_seeds_accumulate_across_events(self):
        dataset, train = co_retweet_world()
        rec = SimGraphRecommender(tau=0.0)
        rec.fit(dataset, train)
        first = rec.on_event(Retweet(user=0, tweet=10, time=1010.0))
        second = rec.on_event(Retweet(user=1, tweet=10, time=1020.0))
        # After user 1 also shares, user 1 must not be recommended.
        assert all(r.user != 1 for r in second)
        # And scores for remaining users cannot drop below the first pass.
        first_scores = {r.user: r.score for r in first}
        for r in second:
            if r.user in first_scores:
                assert r.score >= first_scores[r.user] - 1e-12


class TestScheduledMode:
    def test_events_buffered_until_due(self):
        dataset, train = co_retweet_world()
        policy = DelayPolicy(scale=10**6, min_delay=3600.0, max_delay=10**6)
        rec = SimGraphRecommender(tau=0.0, delay_policy=policy)
        rec.fit(dataset, train)
        assert rec.on_event(Retweet(user=0, tweet=10, time=1010.0)) == []

    def test_finalize_flushes(self):
        dataset, train = co_retweet_world()
        policy = DelayPolicy(scale=10**6, min_delay=3600.0, max_delay=10**6)
        rec = SimGraphRecommender(tau=0.0, delay_policy=policy)
        rec.fit(dataset, train)
        rec.on_event(Retweet(user=0, tweet=10, time=1010.0))
        recs = rec.finalize(end_time=2000.0)
        assert recs
        assert all(r.time == 2000.0 for r in recs)

    def test_immediate_mode_finalize_empty(self):
        dataset, train = co_retweet_world()
        rec = SimGraphRecommender(tau=0.0)
        rec.fit(dataset, train)
        rec.on_event(Retweet(user=0, tweet=10, time=1010.0))
        assert rec.finalize(end_time=2000.0) == []

    def test_batch_collects_all_retweeters_as_seeds(self):
        dataset, train = co_retweet_world()
        policy = DelayPolicy(scale=10**6, min_delay=3600.0, max_delay=10**6)
        rec = SimGraphRecommender(tau=0.0, delay_policy=policy)
        rec.fit(dataset, train)
        rec.on_event(Retweet(user=0, tweet=10, time=1010.0))
        rec.on_event(Retweet(user=1, tweet=10, time=1020.0))
        recs = rec.finalize(end_time=2000.0)
        assert all(r.user not in (0, 1) for r in recs)


class TestWarmStartConsistency:
    def test_incremental_equals_fresh(self):
        """Processing events one at a time must land on the same fixpoint
        as a cold propagation with the full seed set."""
        dataset, train = co_retweet_world()
        incremental = SimGraphRecommender(tau=0.0)
        incremental.fit(dataset, train)
        incremental.on_event(Retweet(user=0, tweet=10, time=1010.0))
        last = incremental.on_event(Retweet(user=1, tweet=10, time=1020.0))

        # User 0's share arrives as history; the graph is the same one.
        fresh = SimGraphRecommender(simgraph=incremental.simgraph)
        fresh.fit(dataset, train + [Retweet(user=0, tweet=10, time=1010.0)])
        direct = fresh.on_event(Retweet(user=1, tweet=10, time=1020.0))

        assert {r.user: pytest.approx(r.score, abs=1e-8) for r in last} == {
            r.user: r.score for r in direct
        }
