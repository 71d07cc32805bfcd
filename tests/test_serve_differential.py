"""Differential suite: batched serving paths vs sequential ground truth.

Three contracts, each pinned exactly (full ``Recommendation`` tuples,
not counts):

* ``RecommendationService.ingest_batch`` delivers, event for event, what
  the same stream produces through sequential ``retweet`` calls — across
  scheduler on/off, reference/csr propagation, same-tweet repeats, an
  event releasing its own tweet's batch and a mid-stream SimGraph
  rebuild;
* the asyncio front-end at low load (no degradation, micro-batching on)
  returns the sequential responses for the same mixed post/retweet
  stream;
* the front-end over the compiled ``csr`` engine answers identically to
  the front-end over the dict-loop oracle the ledger's ``shard2``
  workload runs.
"""

import dataclasses

import pytest

from repro.serve import RetweetRequest, PostRequest, ServeConfig, serve_stream
from repro.service import RecommendationService, ServiceConfig
from repro.synth import SynthConfig, generate_dataset
from tests.test_graph_oracle import follow_pairs

SYNTH = SynthConfig(n_users=120, seed=9)


def build_service(**config_kwargs) -> RecommendationService:
    """A service primed with the synthetic corpus's history."""
    defaults = {"min_score": 1e-6}
    defaults.update(config_kwargs)
    return populate(RecommendationService(ServiceConfig(**defaults)))


def populate(service: RecommendationService) -> RecommendationService:
    """Absorb the synthetic corpus's history into ``service`` and build."""
    dataset = generate_dataset(SYNTH)
    for user in dataset.users:
        service.add_user(user)
    for follower, followee in follow_pairs(dataset.follow_graph):
        service.add_follow(follower, followee)
    for event in dataset.retweets():
        service.absorb_retweet(event.user, event.tweet)
    service.rebuild("from scratch")
    return service


def live_stream(
    service: RecommendationService, n_events: int = 40, repeats: int = 3
) -> list[tuple[int, int, float]]:
    """Post live tweets and derive a deterministic retweet stream.

    Every tweet is hit ``repeats`` times by different users, so streams
    carry the same-tweet collisions that force ``ingest_batch`` to flush
    mid-batch.
    """
    users = sorted(service.follow_graph.nodes())
    next_tweet = max(service.tweets, default=0) + 1
    n_tweets = max(1, n_events // repeats)
    t0 = 0.0
    for i in range(n_tweets):
        service.post_tweet(
            tweet_id=next_tweet + i, author=users[i % len(users)], at=t0
        )
    events = []
    at = t0
    for i in range(n_events):
        at += 60.0
        tweet = next_tweet + (i % n_tweets)
        user = users[(i * 7 + i // n_tweets) % len(users)]
        events.append((user, tweet, at))
    return events


def as_tuples(recs) -> list[tuple]:
    return [(r.user, r.tweet, r.time, r.score) for r in recs]


class TestIngestBatchEquality:
    @pytest.mark.parametrize("use_scheduler", [False, True])
    @pytest.mark.parametrize("prop_backend", ["reference", "csr"])
    def test_matches_sequential(self, use_scheduler, prop_backend):
        kwargs = {
            "use_scheduler": use_scheduler, "prop_backend": prop_backend,
        }
        sequential = build_service(**kwargs)
        batched = build_service(**kwargs)
        events = live_stream(sequential)
        live_stream(batched)  # identical posts

        expected = [
            as_tuples(sequential.retweet(user=u, tweet=t, at=at))
            for u, t, at in events
        ]
        got = []
        chunk = 7
        for start in range(0, len(events), chunk):
            for recs in batched.ingest_batch(events[start:start + chunk]):
                got.append(as_tuples(recs))
        assert got == expected
        # Scheduler backlogs drain identically too.
        final_at = events[-1][2]
        assert as_tuples(batched.flush(final_at)) == as_tuples(
            sequential.flush(final_at)
        )
        assert batched.known_pairs() == sequential.known_pairs()

    def test_mid_stream_rebuild(self):
        # A rebuild interval shorter than the stream span forces at
        # least one maintenance run inside a batch; the flush-before-
        # rebuild boundary must keep results identical.
        kwargs = {
            "use_scheduler": True,
            "prop_backend": "csr",
            "rebuild_interval": 600.0,
        }
        sequential = build_service(**kwargs)
        batched = build_service(**kwargs)
        events = live_stream(sequential, n_events=30)
        live_stream(batched)

        expected = [
            as_tuples(sequential.retweet(user=u, tweet=t, at=at))
            for u, t, at in events
        ]
        got = [
            as_tuples(recs)
            for recs in batched.ingest_batch(events)
        ]
        assert got == expected
        assert batched.stats.rebuilds == sequential.stats.rebuilds
        assert batched.stats.rebuilds >= 2

    def test_unknown_tweet_rejected_before_any_state_change(self):
        service = build_service(use_scheduler=False, prop_backend="csr")
        events = live_stream(service, n_events=6)
        known_before = service.known_pairs()
        bad = events[:3] + [(0, 10**9, events[-1][2])]
        from repro.exceptions import DatasetError

        with pytest.raises(DatasetError):
            service.ingest_batch(bad)
        assert service.known_pairs() == known_before
        assert service.stats.events_ingested == 0

    @pytest.mark.parametrize("use_scheduler", [False, True])
    def test_stale_event_batch_matches_sequential(self, use_scheduler):
        """A batch with a timestamp running backwards is rejected whole,
        before any state changes; replayed per event (what the server
        does) it ends exactly where sequential ingestion ends."""
        from repro.exceptions import DatasetError

        kwargs = {"use_scheduler": use_scheduler, "prop_backend": "csr"}
        sequential = build_service(**kwargs)
        batched = build_service(**kwargs)
        events = live_stream(sequential, n_events=9)
        live_stream(batched)
        events.insert(6, (events[0][0], events[0][1], events[0][2] - 1.0))

        def replay(service):
            out = []
            for user, tweet, at in events:
                try:
                    out.append(as_tuples(service.retweet(user, tweet, at)))
                except DatasetError:
                    out.append("error")
            return out

        expected = replay(sequential)
        assert expected.count("error") == 1

        stats_before = dataclasses.replace(batched.stats)
        known_before = batched.known_pairs()
        with pytest.raises(DatasetError, match="monotone"):
            batched.ingest_batch(events)
        assert batched.stats == stats_before
        assert batched.known_pairs() == known_before
        assert batched._clock == 0.0

        responses = serve_stream(
            batched,
            [RetweetRequest(user=u, tweet=t, at=at) for u, t, at in events],
            ServeConfig(max_batch=16),
            return_exceptions=True,
        )
        got = [
            "error" if isinstance(r, DatasetError)
            else as_tuples(r.notifications)
            for r in responses
        ]
        assert got == expected
        assert batched.stats == sequential.stats
        assert batched.known_pairs() == sequential.known_pairs()
        assert batched._clock == sequential._clock
        assert as_tuples(batched.flush()) == as_tuples(sequential.flush())

    def test_empty_batch(self):
        service = build_service(use_scheduler=False)
        assert service.ingest_batch([]) == []

    @pytest.mark.parametrize("prop_backend", ["reference", "csr"])
    def test_event_releasing_its_own_tweets_batch(self, prop_backend):
        """The event at t=100 releases the batch tweet 7 collected at
        t=10 and t=20.  That batch is seeded with the retweeters before
        the event: batched ingestion must not fold user 3 into it."""
        from repro.core import DelayPolicy

        def world():
            service = RecommendationService(
                ServiceConfig(
                    min_score=1e-6, rebuild_interval=1e9,
                    prop_backend=prop_backend,
                ),
                delay_policy=DelayPolicy(60, 60, 60),
            )
            for user in range(1, 9):
                service.add_user(user)
            for follower, followee in [
                (2, 1), (3, 2), (4, 3), (5, 4), (6, 1), (7, 6), (8, 7),
                (3, 1), (5, 3), (7, 1), (8, 6),
            ]:
                service.add_follow(follower, followee)
            for tweet in range(100, 104):
                for user in range(1, 9):
                    if (user + tweet) % 3:
                        service.absorb_retweet(user, tweet)
            service.post_tweet(7, 1, 0.0)
            service.rebuild("from scratch")
            return service

        events = [(2, 7, 10.0), (6, 7, 20.0), (3, 7, 100.0), (8, 7, 300.0)]
        sequential, batched = world(), world()
        expected = [as_tuples(sequential.retweet(*event)) for event in events]
        got = [as_tuples(recs) for recs in batched.ingest_batch(events)]
        assert got == expected
        scores = {user: score for user, _, _, score in expected[2]}
        assert scores[5] == pytest.approx(0.1380, abs=1e-4)
        assert batched.known_pairs() == sequential.known_pairs()


class TestServerVsDirect:
    def test_batched_server_matches_sequential_service(self):
        direct = build_service(use_scheduler=False, prop_backend="csr")
        served = build_service(use_scheduler=False, prop_backend="csr")
        events = live_stream(direct)
        live_stream(served)

        expected = [
            as_tuples(direct.retweet(user=u, tweet=t, at=at))
            for u, t, at in events
        ]
        responses = serve_stream(
            served,
            [RetweetRequest(user=u, tweet=t, at=at) for u, t, at in events],
            ServeConfig(max_batch=16),
        )
        assert [r.status for r in responses] == ["ok"] * len(events)
        assert [as_tuples(r.notifications) for r in responses] == expected

    def test_mixed_posts_and_retweets(self):
        direct = build_service(use_scheduler=False, prop_backend="csr")
        served = build_service(use_scheduler=False, prop_backend="csr")
        users = sorted(direct.follow_graph.nodes())
        next_tweet = max(direct.tweets, default=0) + 1

        stream = []
        at = 0.0
        for i in range(8):
            at += 30.0
            stream.append(("post", next_tweet + i, users[i], at))
            for j in range(3):
                at += 30.0
                stream.append(
                    ("retweet", users[(i * 3 + j + 1) % len(users)],
                     next_tweet + i, at)
                )

        expected = []
        for kind, *rest in stream:
            if kind == "post":
                tweet, author, at = rest
                direct.post_tweet(tweet_id=tweet, author=author, at=at)
                expected.append([])
            else:
                user, tweet, at = rest
                expected.append(
                    as_tuples(direct.retweet(user=user, tweet=tweet, at=at))
                )

        requests = [
            PostRequest(tweet=r[0], author=r[1], at=r[2])
            if kind == "post"
            else RetweetRequest(user=r[0], tweet=r[1], at=r[2])
            for kind, *r in stream
        ]
        responses = serve_stream(
            served, requests, ServeConfig(max_batch=8)
        )
        assert [as_tuples(r.notifications) for r in responses] == expected


class TestShardedServeSmoke:
    def test_sharded_server_matches_single(self):
        """The tier-1 twin of the ledger's ``saturate == shard2`` delivery
        tripwire: the compiled engine and the dict-loop oracle, each behind
        the front-end, answer every request identically."""
        from repro.core import CSRPropagationEngine, PropagationEngine
        from repro.shard import ShardedRecommendationService

        delta = {"min_score": 1e-6, "rebuild_strategy": "delta"}
        single = build_service(use_scheduler=False, **delta)
        sharded = ShardedRecommendationService(
            2,
            ServiceConfig(
                use_scheduler=False,
                prop_backend="reference",
                **delta,
            ),
            start_method="fork",
        )
        populate(sharded)
        assert type(single._engine) is CSRPropagationEngine
        assert type(sharded._engine) is PropagationEngine

        events = live_stream(single, n_events=18)
        live_stream(sharded)
        requests = [RetweetRequest(user=u, tweet=t, at=at) for u, t, at in events]
        config = ServeConfig(max_batch=8)
        single_responses = serve_stream(single, requests, config)
        sharded_responses = serve_stream(sharded, requests, config)
        assert [r.status for r in sharded_responses] == ["ok"] * len(events)
        assert [as_tuples(r.notifications) for r in sharded_responses] == [
            as_tuples(r.notifications) for r in single_responses
        ]
        assert any(r.notifications for r in single_responses)
