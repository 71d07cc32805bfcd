"""Clock-triggered maintenance runs in a forked child and is adopted a
quarter interval later.

The service forks at the due event, keeps serving the old graph, and
adopts the child's graph at the first event at or after ``ADOPTION_LAG *
rebuild_interval`` later.  When the fork or the child fails, the same
job runs in-process at adoption on the state the child would have read:
that path is the oracle.  On the golden corpus (``test_e2e_determinism``),
with several adoptions inside the replayed stream, both paths must agree
on deliveries, ``known_pairs()``, warm-cache contents, the deterministic
metrics snapshot and the adopted arrays — on both propagation engines
and both maintenance strategies.  The rest pins what can go wrong around
a job in flight: a child that dies, one that is late, an explicit
``rebuild()``, ``load_snapshot()`` or ``close()`` before adoption, and no
child left behind.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import threading
import time
import warnings

import pytest

import repro.core.profiles as profiles_module
import repro.service.engine as engine
from repro.core import SimGraphBuilder, save_simgraph
from repro.data import temporal_split
from repro.service import RecommendationService, ServiceConfig
from repro.synth import generate_dataset
from tests.test_e2e_determinism import CONFIG
from tests.test_graph_oracle import follow_pairs
from tests.test_propagation_differential import assert_same_compiled
from tests.test_properties_ingest import warm_contents

DAY = 86400.0
#: Two days: the replayed stream (~8.5 simulated days) holds four
#: adoptions, each a quarter interval (12 h) after its due event.
INTERVAL = 2 * DAY
COMBOS = [
    (prop, strategy)
    for prop in ("reference", "csr")
    for strategy in ("delta", "from scratch")
]


@functools.lru_cache(maxsize=None)
def corpus():
    dataset = generate_dataset(CONFIG)
    return dataset, temporal_split(dataset)


def booted(prop_backend: str = "csr", strategy: str = "delta"):
    """The golden corpus's service: follows, training history, tweets."""
    dataset, split = corpus()
    service = RecommendationService(ServiceConfig(
        rebuild_strategy=strategy,
        prop_backend=prop_backend,
        rebuild_interval=INTERVAL,
        use_scheduler=False,
        min_score=1e-6,
    ))
    for u, v in follow_pairs(dataset.follow_graph):
        service.add_follow(u, v)
    for event in split.train:
        service.absorb_retweet(event.user, event.tweet)
    base = split.test[0].time
    for tweet in sorted(dataset.tweets.values(), key=lambda t: (t.created_at, t.id)):
        service.post_tweet(
            tweet_id=tweet.id, author=tweet.author, at=min(tweet.created_at, base)
        )
    return service


def stream():
    return [(e.user, e.tweet, e.time) for e in corpus()[1].test]


def as_tuples(recs) -> list[tuple]:
    return [(r.user, r.tweet, r.score, r.time) for r in recs]


def replay(prop_backend: str, strategy: str):
    """Per-event deliveries of the held-out stream, and how many
    adoptions fell inside it.  The service is closed at the end (a job
    still in flight is dropped, on either path)."""
    service = booted(prop_backend, strategy)
    before = service.stats.rebuilds
    delivered = [as_tuples(service.retweet(*event)) for event in stream()]
    service.close()
    return service, delivered, service.stats.rebuilds - before


def no_fork(target, args):
    raise OSError("fork refused")


def dies(*args):
    os._exit(1)


def counters(service) -> dict:
    return service.metrics_snapshot()["counters"]


def held(service, job) -> list[tuple[int, int]]:
    """The pairs the profiles absorbed from the job's due event on."""
    users, tweets = service.profiles.log_pairs(job.due)
    return list(zip(users.tolist(), tweets.tolist()))


def job_in_flight(service):
    """Replay the stream until a job is in flight; the events left."""
    events = stream()
    for i, event in enumerate(events):
        service.retweet(*event)
        if service._job is not None:
            return events[i + 1:]
    raise AssertionError("no maintenance came due")


@pytest.fixture(scope="module")
def paths():
    """Each combination replayed forked and in-process."""
    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        for combo in COMBOS:
            runs[combo, "forked"] = replay(*combo)
        patch.setattr(engine, "_fork_child", no_fork)
        for combo in COMBOS:
            runs[combo, "in-process"] = replay(*combo)
    return runs


@pytest.mark.parametrize("prop_backend,strategy", COMBOS)
def test_forked_equals_in_process(paths, prop_backend, strategy):
    forked, forked_hits, adoptions = paths[(prop_backend, strategy), "forked"]
    oracle, oracle_hits, oracle_adoptions = paths[
        (prop_backend, strategy), "in-process"
    ]
    assert adoptions >= 3
    assert oracle_adoptions == adoptions
    assert any(forked_hits)
    assert forked_hits == oracle_hits
    assert forked.known_pairs() == oracle.known_pairs()
    assert warm_contents(forked) == warm_contents(oracle)
    assert json.dumps(
        forked.metrics_snapshot(deterministic=True), sort_keys=True
    ) == json.dumps(oracle.metrics_snapshot(deterministic=True), sort_keys=True)
    assert forked.stats == oracle.stats
    assert_same_compiled(forked.simgraph, oracle.simgraph)
    # The forked run really forked; the oracle really ran in-process.
    assert "maintenance.child_failures" not in counters(forked)
    assert counters(oracle)["maintenance.child_failures"] == oracle.stats.rebuilds - 1
    assert counters(forked)[f"service.rebuild[{strategy}]"] >= adoptions


def test_lagged_graph_is_the_due_events():
    """What is adopted was computed from the state at the due event: a
    from-scratch build of the profiles as they stood then."""
    service = booted("csr", "from scratch")
    rest = job_in_flight(service)
    job = service._job
    expected = SimGraphBuilder(tau=service.config.tau).build(
        service.follow_graph, service.profiles.as_of(job.due)
    )
    for event in rest:
        service.retweet(*event)
        if service._job is not job:
            break
    assert service._job is not job
    assert_same_compiled(service.simgraph, expected)


def unresolved_job() -> tuple:
    """A delta job that comes due right after a run of absorbed retweets
    no read has resolved: more than ``BULK_SUFFIX`` pairs, new ones,
    repeats of them and repeats of the history.  Returns the service
    once the job is adopted, the job, the log index the run resolves
    to, and what the service delivered around the job."""
    _, split = corpus()
    service = booted("csr", "delta")
    service.rebuild()
    fresh = [(e.user, e.tweet) for e in split.test[:70]]
    run = fresh + [(e.user, e.tweet) for e in split.train] + fresh[::3]
    held = service.profiles.retweeters
    resolved = service.profiles.log_end + len(
        {(user, tweet) for user, tweet in run if user not in held(tweet)}
    )
    for user, tweet in run:
        service.absorb_retweet(user, tweet)
    profiles = service.profiles
    pending = profiles._clean + len(profiles._log_users) - profiles._resolved
    assert pending == len(run) > profiles_module.BULK_SUFFIX
    at = service.stats.last_rebuild_at + INTERVAL
    events = [(e.user, e.tweet) for e in split.test[70:]]
    delivered = [as_tuples(service.retweet(*events[0], at))]
    job = service._job
    assert job is not None
    for k, (user, tweet) in enumerate(events[1:]):
        delivered.append(as_tuples(service.retweet(user, tweet, job.adopt_at + k)))
    assert service._job is None
    service.close()
    return service, job, resolved, delivered


def test_a_job_due_on_an_unresolved_log_is_the_same_forked_or_not(monkeypatch):
    """The due event resolves the log before the job reads its
    watermark, so the forked child and the in-process oracle build from
    the same resolved log, and adoption consumes the dirt up to it.  The
    crossover is lowered below the run so the due event's read takes the
    bulk pass."""
    monkeypatch.setattr(profiles_module, "BULK_SUFFIX", 256)
    forked, job, resolved, hits = unresolved_job()
    monkeypatch.setattr(engine, "_fork_child", no_fork)
    oracle, oracle_job, oracle_resolved, oracle_hits = unresolved_job()
    assert job.due == oracle_job.due == resolved == oracle_resolved
    assert "maintenance.child_failures" not in counters(forked)
    assert counters(oracle)["maintenance.child_failures"] > 0
    maintenance = [
        {k: v for k, v in service.metrics_snapshot(deterministic=True)[
            "counters"].items() if k.startswith("maintenance.")}
        for service in (forked, oracle)
    ]
    assert maintenance[0] == maintenance[1]
    assert maintenance[0]["maintenance.rows_recomputed"] > 0
    assert hits == oracle_hits
    assert_same_compiled(forked.simgraph, oracle.simgraph)
    for service in (forked, oracle):
        service.profiles.log_pairs(job.due)
        with pytest.raises(ValueError, match="before the clean index"):
            service.profiles.log_pairs(job.due - 1)


def test_killed_child_gives_the_same_graph(monkeypatch, paths):
    reference, hits, _ = paths[("csr", "delta"), "forked"]
    fork = engine._fork_child
    forks = []

    def first_child_dies(target, args):
        forks.append(target)
        return fork(dies if len(forks) == 1 else target, args)

    monkeypatch.setattr(engine, "_fork_child", first_child_dies)
    service, got, _ = replay("csr", "delta")
    assert got == hits
    assert_same_compiled(service.simgraph, reference.simgraph)
    assert counters(service)["maintenance.child_failures"] == 1
    assert len(forks) >= 3


def test_late_child_blocks_the_adopting_event_and_is_counted(monkeypatch, paths):
    reference, hits, _ = paths[("csr", "delta"), "forked"]
    service = booted("csr", "delta")
    booting = service._job
    fork = engine._fork_child

    def slow(*args):
        time.sleep(0.2)
        engine._run_in_child(*args)

    monkeypatch.setattr(
        engine, "_fork_child", lambda target, args: fork(slow, args)
    )
    waits = []
    late = counters(service).get("maintenance.late", 0)
    delivered = []
    for event in stream():
        job = service._job
        started = time.perf_counter()
        delivered.append(as_tuples(service.retweet(*event)))
        if job is not None and job is not booting and service._job is not job:
            waits.append(time.perf_counter() - started)
    service.close()
    assert len(waits) >= 3
    assert min(waits) >= 0.15
    assert counters(service)["maintenance.late"] - late >= len(waits)
    assert delivered == hits
    assert_same_compiled(service.simgraph, reference.simgraph)


def test_finished_child_is_not_late():
    service = booted("csr", "delta")
    rest = job_in_flight(service)
    late = counters(service).get("maintenance.late", 0)
    assert service._job._conn.poll(30)  # the child has sent its outcome
    for event in rest:
        if event[2] >= service._job.adopt_at:
            service.retweet(*event)
            break
    assert service._job is None
    assert counters(service).get("maintenance.late", 0) == late
    assert not multiprocessing.active_children()


def test_explicit_rebuild_adopts_the_job_first():
    service = booted("csr", "delta")
    job_in_flight(service)
    job, rebuilds = service._job, service.stats.rebuilds
    absorbed = held(service, job)
    graph = service.rebuild("from scratch")
    assert service._job is None
    assert service.stats.rebuilds == rebuilds + 2
    assert len(service.profiles.dirt()[0]) == 0
    for user, tweet in absorbed:
        assert user in service.profiles.retweeters(tweet)
    expected = SimGraphBuilder(tau=service.config.tau).build(
        service.follow_graph, service.profiles
    )
    assert_same_compiled(graph, expected)
    assert not multiprocessing.active_children()


def test_load_snapshot_discards_the_job(tmp_path):
    service = booted("csr", "delta")
    path = save_simgraph(service.simgraph, tmp_path / "graph.simgraph", format=2)
    rest = job_in_flight(service)
    service.retweet(*rest[0])
    absorbed = held(service, service._job)
    assert absorbed
    rebuilds = service.stats.rebuilds
    service.load_snapshot(path)
    assert service._job is None
    assert service.stats.rebuilds == rebuilds + 1
    assert not multiprocessing.active_children()
    for user, tweet in absorbed:
        assert user in service.profiles.retweeters(tweet)
    assert counters(service).get("service.rebuild[delta]", 0) == rebuilds - 1
    assert service.metrics_snapshot()["gauges"]["maintenance.in_flight"] == 0


def test_close_discards_the_job_and_the_service_goes_on():
    service = booted("csr", "delta")
    rest = job_in_flight(service)
    service.retweet(*rest[0])
    job = service._job
    workdir = job._workdir
    due_dirt = service.profiles.dirty_users
    absorbed = held(service, job)
    service.close()
    assert service._job is None
    assert not os.path.exists(workdir)
    assert not multiprocessing.active_children()
    # Nothing is lost: the job's dirt and the retweets since its due
    # event wait for the next maintenance.
    assert service.profiles.dirty_users >= due_dirt | {u for u, _ in absorbed}
    rebuilds = service.stats.rebuilds
    for event in rest[1:]:
        service.retweet(*event)
    assert service.stats.rebuilds > rebuilds
    service.close()
    assert not multiprocessing.active_children()


def test_no_child_outlives_adoption():
    service = booted("csr", "delta")
    adoptions = 0
    for event in stream():
        rebuilds = service.stats.rebuilds
        service.retweet(*event)
        adoptions += service.stats.rebuilds - rebuilds
        in_flight = service._job.process if service._job is not None else None
        assert set(multiprocessing.active_children()) <= {in_flight}
    assert adoptions >= 3
    service.close()
    assert not multiprocessing.active_children()


def test_fork_deprecation_warning_is_not_an_error():
    """Python 3.12+ emits a DeprecationWarning when a process with other
    threads forks (the serving worker forks beside the event loop's
    thread).  With another thread alive and every warning an error, the
    job still forks, and the child's graph is adopted."""
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            service, _, adoptions = replay("csr", "delta")
    finally:
        stop.set()
        other.join()
    assert adoptions
    assert "maintenance.child_failures" not in counters(service)
