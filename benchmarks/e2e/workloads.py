"""The five workloads: what each sends, to what, and why.

Every workload is a fixed *event count* derived from ``--seconds`` at
the workload's nominal rate, never a wall-clock cut-off: per-event cost
rises as hot tweets accumulate seeds, so only a fixed stream from a
fixed seed makes two commits do identical work.  Open-loop workloads
send that stream on a schedule ``--seconds`` long; closed-loop ones
drain a stream sized to take about that long on the recording box.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.eval.budget import CapacityModel
from repro.serve import (
    LoadProfile,
    PostRequest,
    RetweetRequest,
    ScoreRequest,
    ServeConfig,
)
from repro.service import RecommendationService
from repro.shard import ShardedRecommendationService

from loadgen import Window, run_window
from tier import Tier, bench_config

#: Simulated seconds between consecutive requests (the scheduler's
#: delays and the maintenance interval live on this clock).  At 10 the
#: postponed scheduler releases ~0.7 propagations per retweet on
#: ``steady``; at 1 nothing it buffers comes due within a run.
SIM_DT = 10.0
#: Untimed closed-loop slice before every timed window.
WARMUP_EVENTS = 200
#: Events (from the first warm-up event on) whose deliveries the
#: differential output check replays through an oracle service.
CHECK_EVENTS = 300
#: Latency limit an open-loop answer must meet, from its due instant.
#: A drain's limit is the run length: the backlog must clear in-window.
SLO_S = 0.25
MAX_BATCH = 32


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Open loop: steady arrivals per second.  None: closed-loop drain.
    rate: float | None = None
    #: Open loop: arrivals per second inside a burst window.
    burst_rate: float | None = None
    burst_every: float = 5.0
    burst_length: float = 1.5
    #: Closed loop: events drained per second of ``--seconds``.
    drain_eps: float = 0.0
    score_fraction: float = 0.0
    post_fraction: float = 0.0
    #: Admission calibrated from a timed drain of the warm-up slice
    #: (which is then three slices long, for a steadier rate).
    calibrated: bool = False
    warmup_events: int = WARMUP_EVENTS
    #: Replay follow / retweet history at boot (delta maintenance needs
    #: the state a from-scratch build would have seen).
    history: bool = False
    shards: int = 0
    #: Simulated seconds between in-run maintenances (None: never due);
    #: 720 events puts one maintenance 6 s into a 10 s window.
    rebuild_interval: float | None = None
    #: ``ServiceConfig`` overrides on top of :func:`tier.bench_config`.
    service: dict = field(default_factory=dict)
    #: Oracle ``ServiceConfig`` overrides of the differential check
    #: (None: structural checks only).
    oracle: dict | None = None

    @property
    def open_loop(self) -> bool:
        return self.rate is not None

    def slo_s(self, seconds: float) -> float:
        return SLO_S if self.open_loop else seconds


SHARD_SERVICE = {
    "use_scheduler": False,
    "backend": "reference",
    "prop_backend": "reference",
    "rebuild_strategy": "delta",
}

WORKLOADS = [
    Workload(
        name="steady",
        why="open loop 120 req/s, retweets + 5% score reads + 2% posts, "
            "scheduler on: the north-star request; queue wait, linger and "
            "coalesced propagate_many decide latency",
        rate=120.0,
        score_fraction=0.05,
        post_fraction=0.02,
    ),
    Workload(
        name="saturate",
        why="closed-loop drain of retweets, scheduler off so every event "
            "propagates: propagation and candidate build/budget/deliver do "
            "all the work, serving adds nothing",
        drain_eps=240.0,
        service={"use_scheduler": False},
        oracle={"use_scheduler": False, "prop_backend": "reference"},
    ),
    Workload(
        name="burst",
        why="open loop 150 req/s with 0.6 s bursts of 600 req/s on the hottest "
            "10% of tweets, admission calibrated from a drain: the ladder and "
            "warm-cache degraded answers decide goodput, not propagation",
        rate=150.0,
        burst_rate=600.0,
        burst_length=0.6,
        calibrated=True,
        warmup_events=3 * WARMUP_EVENTS,
        service={"use_scheduler": False},
    ),
    Workload(
        name="maintain",
        why="steady's retweet schedule on a service holding full history "
            "with in-run delta maintenance: core.delta, simmatrix and CSR "
            "patching own the latency tail",
        rate=120.0,
        history=True,
        rebuild_interval=720 * SIM_DT,
        service={"rebuild_strategy": "delta"},
    ),
    Workload(
        name="shard2",
        why="saturate's stream through 2 forked shard workers: coordinator "
            "routing, lock-step rounds and pipe IPC dominate; deliveries "
            "must equal single-process",
        drain_eps=240.0,
        shards=2,
        # The coordinator accepts only the reference build backend and a
        # delta / from-scratch strategy; its oracle is the single-process
        # service under that very config.
        service=SHARD_SERVICE,
        oracle=SHARD_SERVICE,
    ),
]
BY_NAME = {w.name: w for w in WORKLOADS}


def service_config(workload: Workload, overrides: dict | None = None):
    overrides = dict(workload.service if overrides is None else overrides)
    if workload.rebuild_interval is not None:
        overrides["rebuild_interval"] = workload.rebuild_interval
    return bench_config(**overrides)


# ----------------------------------------------------------------------
# Boot
# ----------------------------------------------------------------------
@dataclass
class Booted:
    service: object
    #: Live tweet ids, hottest rank first.
    pool: list[int]
    #: Simulated timestamp the request stream starts after.
    t0: float


def boot(
    tier: Tier, config, seed: int, history: bool = False, shards: int = 0,
    tracer=None,
) -> Booted:
    """A service warm-booted from the tier's snapshot, live pool primed.

    Users are registered, the snapshot adopted, ``live_tweets`` fresh
    tweets posted, and each retweeted once so the warm cache holds a
    fixpoint per tweet — what degraded answers are served from.
    """
    if shards:
        service = ShardedRecommendationService(
            shards, config, start_method="fork"
        )
    else:
        service = RecommendationService(config)
    if tracer is not None:
        tracer.attach(service)
    try:
        n_users = tier.spec.n_users
        for user in range(n_users):
            service.add_user(user)
        if history:
            for follower, followee in zip(
                tier.follow_src.tolist(), tier.follow_dst.tolist()
            ):
                service.add_follow(follower, followee)
            for user, tweet in zip(tier.rt_users.tolist(), tier.rt_tweets.tolist()):
                service.absorb_retweet(user, tweet)
        service.load_snapshot(tier.snapshot)
        rng = np.random.default_rng([seed, 0])
        first = int(tier.rt_tweets.max()) + 1
        pool = list(range(first, first + tier.spec.live_tweets))
        authors = rng.integers(n_users, size=len(pool)).tolist()
        primers = rng.choice(tier.retweeters, size=len(pool)).tolist()
        for tweet, author in zip(pool, authors):
            service.post_tweet(tweet_id=tweet, author=author, at=0.0)
        at = 0.0
        for tweet, user in zip(pool, primers):
            at += 1e-3
            service.retweet(user, tweet, at)
            # Flushed one by one: a single flush of the whole pool is one
            # joint propagate_many over dense per-task state, which at
            # 2,000 tasks x 100k users peaked at 3.4 GB and took 50 s.
            service.flush(at)
    except BaseException:
        close(service)
        raise
    return Booted(service=service, pool=pool, t0=at)


def close(service) -> None:
    """Stop a sharded service's workers (no-op for single-process)."""
    closer = getattr(service, "close", None)
    if closer is not None:
        closer()


# ----------------------------------------------------------------------
# Stream synthesis
# ----------------------------------------------------------------------
def schedule(workload: Workload, seconds: float) -> tuple[np.ndarray, np.ndarray]:
    """Due offsets of the timed window, and which of them are burst arrivals.

    A closed loop is all zeros: everything is due at once.
    """
    if not workload.open_loop:
        n = max(1, int(workload.drain_eps * seconds))
        return np.zeros(n), np.zeros(n, dtype=bool)
    if workload.burst_rate is None:
        profile = LoadProfile.steady(workload.rate)
    else:
        profile = LoadProfile.bursty(
            workload.rate,
            workload.burst_rate,
            burst_every=workload.burst_every,
            burst_length=workload.burst_length,
        )
    ceiling = int(max(workload.rate, workload.burst_rate or 0.0) * seconds) + 1
    times = np.asarray(profile.arrival_times(ceiling))
    due = times[times < seconds]
    return due, np.array([profile.is_burst(t) for t in due])


def synth_stream(
    workload: Workload,
    booted: Booted,
    retweeters: np.ndarray,
    burst_flags: np.ndarray,
    seed: int,
) -> list:
    """One request per flag, on the simulated clock after ``booted.t0``.

    Retweets pick a live tweet by zipf(1.0) over pool rank; a burst
    arrival picks uniformly among the hottest 10% (the trending-cascade
    shape of ten Thij et al.).  A post retires a random pool slot for a
    fresh tweet, so new tweets get hot as well as cold ranks; a score
    request reads 8 zipf-picked tweets.
    """
    n = len(burst_flags)
    rng = np.random.default_rng([seed, 1])
    pool = list(booted.pool)
    weights = 1.0 / np.arange(1, len(pool) + 1)
    weights /= weights.sum()
    hot = max(1, len(pool) // 10)
    ranks = rng.choice(len(pool), size=n, p=weights)
    hot_ranks = rng.integers(hot, size=n)
    users = rng.choice(retweeters, size=n).tolist()
    kinds = rng.random(n)
    score_ranks = rng.choice(len(pool), size=(n, 8), p=weights)
    slots = rng.integers(len(pool), size=n)
    next_tweet = max(pool) + 1
    requests: list = []
    at = booted.t0
    for i in range(n):
        at += SIM_DT
        if kinds[i] < workload.post_fraction:
            pool[slots[i]] = next_tweet
            requests.append(PostRequest(tweet=next_tweet, author=users[i], at=at))
            next_tweet += 1
        elif kinds[i] < workload.post_fraction + workload.score_fraction:
            picked = dict.fromkeys(pool[r] for r in score_ranks[i])
            requests.append(ScoreRequest(tweets=tuple(picked)))
        else:
            rank = hot_ranks[i] if burst_flags[i] else ranks[i]
            requests.append(RetweetRequest(user=users[i], tweet=pool[rank], at=at))
    return requests


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def wide_open(n_requests: int) -> ServeConfig:
    """Admission inert: nothing is degraded or shed."""
    return ServeConfig(
        max_batch=MAX_BATCH,
        shed_depth=n_requests + 1,
        degrade_depth=n_requests + 1,
        slo_p99=SLO_S,
    )


@dataclass
class Prepared:
    """A booted service with its warm-up behind it, ready to be timed."""

    booted: Booted
    requests: list
    due: np.ndarray
    serve_config: ServeConfig
    warmup: Window
    #: Seconds the boot alone took (part of ``setup_s``).
    boot_s: float
    #: Admitted events/s the warm-up drain calibrated (0: not calibrated).
    calibrated_eps: float = 0.0


def prepare(
    workload: Workload, tier: Tier, seed: int, seconds: float, tracer=None
) -> Prepared:
    """Boot, synthesize the stream, run the untimed warm-up slice."""
    started = time.perf_counter()
    booted = boot(
        tier,
        service_config(workload),
        seed,
        history=workload.history,
        shards=workload.shards,
        tracer=tracer,
    )
    boot_s = time.perf_counter() - started
    try:
        due, bursts = schedule(workload, seconds)
        warm = workload.warmup_events
        flags = np.concatenate([np.zeros(warm, dtype=bool), bursts])
        stream = synth_stream(workload, booted, tier.retweeters, flags, seed)
        warm_requests, requests = stream[:warm], stream[warm:]
        drain_started = time.perf_counter()
        warmup = run_window(
            booted.service, warm_requests, np.zeros(warm), wide_open(warm)
        )
        drain_s = time.perf_counter() - drain_started
        serve_config = wide_open(len(requests))
        calibrated_eps = 0.0
        if workload.calibrated:
            # The ladder aims at half the limit: a request admitted right
            # at the degrade threshold waits ~slo_p99, and with the ladder
            # aiming at the limit itself those requests sat on the edge of
            # it (slo_met_fraction 0.73 to 1.0 across ten seeds).
            model = CapacityModel(service_seconds_per_event=drain_s / warm)
            # The shed rung is put out of reach: how many requests a run
            # sheds hangs on scheduling (5 to 30 of 2,041, never the same
            # twice), and a ledger run may fail nothing.  Past the degrade
            # depth every request gets a warm-cache answer instead.
            calibrated = ServeConfig.from_capacity(
                model, slo_p99=SLO_S / 2, max_batch=MAX_BATCH
            )
            serve_config = replace(
                calibrated,
                shed_depth=max(calibrated.shed_depth, len(requests) + 1),
            )
            calibrated_eps = model.events_per_second
        if workload.rebuild_interval is not None:
            # The snapshot's mmap'd arrays are read-only, so the first
            # maintenance after boot recompiles the engine and flushes the
            # whole warm cache; later ones patch in place.  Pay the first
            # before the window.
            booted.service.rebuild()
    except BaseException:
        close(booted.service)
        raise
    return Prepared(
        booted=booted,
        requests=requests,
        due=due,
        serve_config=serve_config,
        warmup=warmup,
        boot_s=boot_s,
        calibrated_eps=calibrated_eps,
    )


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def delivery_digest(per_event: list[list]) -> str:
    """sha256 over ``(user, tweet, score)`` of every delivery, in order."""
    digest = hashlib.sha256()
    for notifications in per_event:
        for rec in notifications:
            digest.update(repr((rec.user, rec.tweet, rec.score)).encode())
        digest.update(b"|")
    return digest.hexdigest()


def served_notifications(samples: list) -> list[list]:
    return [
        s.response.notifications if s.response is not None else []
        for s in samples
        if s.kind == "retweet"
    ]


def oracle_digest(workload: Workload, tier: Tier, seed: int, stream: list) -> str:
    """The digest a directly-called oracle service gives ``stream``."""
    oracle = boot(
        tier, service_config(workload, workload.oracle), seed,
        history=workload.history,
    )
    return delivery_digest(
        [oracle.service.retweet(r.user, r.tweet, r.at) for r in stream]
    )
