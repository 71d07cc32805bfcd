"""Open-loop load generation against the serving front-end.

The harness ROADMAP item 1 asks for: replay a synthetic stream at a
configurable events/sec (steady or bursty — the burst shape follows the
retweet-cascade dynamics of ten Thij et al., where trending windows
concentrate traffic on a small hot set of tweets), record per-request
latency through the ``serve.*`` histograms, and report exact p50/p95/p99,
achieved throughput and shed/degraded fractions.

**Open-loop** means arrivals are scheduled by the clock, not by response
completion: an overloaded server keeps receiving events at the offered
rate, which is exactly the regime where the admission ladder must hold
p99 for admitted requests instead of letting the queue grow without
bound.  The closed-loop counterpart (:func:`measure_capacity`) offers
the whole stream at once and measures drain throughput — the saturation
point the bench JSON records and the
:class:`~repro.eval.budget.CapacityModel` calibrates from.

Everything here is wall-clock by construction; the deterministic
differential suites use :func:`repro.serve.server.serve_stream` instead.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.obs import MetricsRegistry
from repro.serve.server import (
    AsyncRecommendationServer,
    RetweetRequest,
    ServeConfig,
    ServeResponse,
    serve_stream,
)
from repro.service import RecommendationService, ServiceConfig

__all__ = [
    "LoadProfile",
    "PrimedService",
    "RunReport",
    "prime_service",
    "synth_requests",
    "run_load",
    "measure_capacity",
]


@dataclass(frozen=True)
class LoadProfile:
    """Arrival-rate shape of one open-loop run.

    ``rate`` is the steady baseline (events/sec).  A bursty profile
    additionally spends ``burst_length`` seconds at ``burst_rate`` every
    ``burst_every`` seconds (burst windows open at t=0, burst_every,
    ...).  Arrival times are deterministic: the schedule integrates the
    instantaneous rate, no randomness involved.
    """

    rate: float
    burst_rate: float | None = None
    burst_every: float = 10.0
    burst_length: float = 2.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.burst_rate is not None and self.burst_rate <= self.rate:
            raise ValueError("burst_rate must exceed the baseline rate")
        if self.burst_every <= 0 or self.burst_length <= 0:
            raise ValueError("burst_every and burst_length must be positive")
        if self.burst_length >= self.burst_every:
            raise ValueError("burst_length must be shorter than burst_every")

    @classmethod
    def steady(cls, rate: float) -> "LoadProfile":
        return cls(rate=rate)

    @classmethod
    def bursty(
        cls,
        rate: float,
        burst_rate: float,
        burst_every: float = 10.0,
        burst_length: float = 2.0,
    ) -> "LoadProfile":
        return cls(
            rate=rate,
            burst_rate=burst_rate,
            burst_every=burst_every,
            burst_length=burst_length,
        )

    @property
    def name(self) -> str:
        return "steady" if self.burst_rate is None else "burst"

    def is_burst(self, t: float) -> bool:
        """Is wall-offset ``t`` inside a burst window?"""
        if self.burst_rate is None:
            return False
        return (t % self.burst_every) < self.burst_length

    def rate_at(self, t: float) -> float:
        return self.burst_rate if self.is_burst(t) else self.rate

    def arrival_times(self, n: int) -> list[float]:
        """Deterministic offsets (seconds from run start) of ``n`` events."""
        times: list[float] = []
        t = 0.0
        for _ in range(n):
            times.append(t)
            t += 1.0 / self.rate_at(t)
        return times

    def mean_rate(self, n: int) -> float:
        """Average offered rate over an ``n``-event schedule."""
        times = self.arrival_times(n)
        if n < 2 or times[-1] <= 0:
            return self.rate
        return (n - 1) / times[-1]


@dataclass
class PrimedService:
    """A service warmed up for load generation, plus its pick pools."""

    service: RecommendationService
    users: list[int]
    live_tweets: list[int]
    #: Simulated timestamp the request stream starts at.
    t0: float


def prime_service(
    config: ServiceConfig | None = None,
    n_users: int = 400,
    live_tweets: int = 120,
    seed: int = 7,
    metrics: MetricsRegistry | None = None,
    prime_warm: bool = True,
) -> PrimedService:
    """Build a service with realistic history and live tweets to stress.

    A synthetic corpus (:func:`repro.synth.generate_dataset`) supplies
    the follow graph and retweet history; history is absorbed without
    propagation (bulk warm-up), the SimGraph is built once, and
    ``live_tweets`` fresh tweets are posted.  With ``prime_warm`` each
    live tweet also receives one full retweet so the warm-state cache
    holds a fixpoint per tweet — the state degraded answers serve from.
    """
    from repro.synth import SynthConfig, generate_dataset

    dataset = generate_dataset(SynthConfig(n_users=n_users, seed=seed))
    service = RecommendationService(config=config, metrics=metrics)
    users = sorted(dataset.users)
    service.follow_graph = dataset.follow_graph.copy()
    for event in dataset.retweets():
        service.absorb_retweet(event.user, event.tweet)
    service.rebuild("from scratch")
    rng = np.random.default_rng(seed)
    next_tweet = max(dataset.tweets, default=0) + 1
    t0 = 0.0
    live: list[int] = []
    for i in range(live_tweets):
        tweet = next_tweet + i
        author = int(rng.choice(users))
        service.post_tweet(tweet_id=tweet, author=author, at=t0)
        live.append(tweet)
    if prime_warm:
        at = t0
        for tweet in live:
            at += 1e-3
            user = int(rng.choice(users))
            service.retweet(user=user, tweet=tweet, at=at)
        service.flush(at)
        t0 = at
    return PrimedService(service=service, users=users, live_tweets=live, t0=t0)


def synth_requests(
    primed: PrimedService,
    n_events: int,
    seed: int = 7,
    sim_dt: float = 1.0,
    burst_flags: list[bool] | None = None,
    hot_fraction: float = 0.1,
    popularity_skew: float = 1.0,
) -> list[RetweetRequest]:
    """A cascade-shaped retweet stream over the primed live tweets.

    Tweet picks are popularity-weighted (zipf with exponent
    ``popularity_skew`` over the live pool; 0 means uniform); events
    flagged as burst traffic (``burst_flags``, typically
    ``profile.is_burst`` over the arrival schedule) concentrate on the
    hottest ``hot_fraction`` of the pool — the trending-cascade shape.
    Simulated timestamps advance ``sim_dt`` per event, decoupled from
    the wall-clock dispatch rate.
    """
    if n_events < 1:
        raise ValueError(f"n_events must be at least 1, got {n_events}")
    if not 0 < hot_fraction <= 1:
        raise ValueError(f"hot_fraction must be in (0, 1], got {hot_fraction}")
    if popularity_skew < 0:
        raise ValueError(
            f"popularity_skew must be non-negative, got {popularity_skew}"
        )
    rng = np.random.default_rng(seed)
    pool = np.array(primed.live_tweets)
    weights = 1.0 / np.arange(1, len(pool) + 1) ** popularity_skew
    weights /= weights.sum()
    hot = pool[: max(1, int(len(pool) * hot_fraction))]
    requests: list[RetweetRequest] = []
    at = primed.t0
    for i in range(n_events):
        at += sim_dt
        burst = bool(burst_flags[i]) if burst_flags is not None else False
        if burst:
            tweet = int(rng.choice(hot))
        else:
            tweet = int(rng.choice(pool, p=weights))
        user = int(rng.choice(primed.users))
        requests.append(RetweetRequest(user=user, tweet=tweet, at=at))
    return requests


@dataclass
class RunReport:
    """Outcome of one load-generation run (exact, from raw samples).

    The same latencies also land in the ``serve.latency_seconds[...]``
    obs histograms (log-binned estimates); this report keeps the raw
    samples so the BENCH gates compare exact numpy percentiles against
    the SLO.
    """

    offered_rate: float
    duration_s: float
    responses: int
    dropped: int
    statuses: dict[str, int] = field(default_factory=dict)
    served_from: dict[str, int] = field(default_factory=dict)
    latencies: dict[str, list[float]] = field(default_factory=dict)

    @property
    def achieved_eps(self) -> float:
        """Completed responses per wall second."""
        return self.responses / self.duration_s if self.duration_s > 0 else 0.0

    def fraction(self, status: str) -> float:
        return self.statuses.get(status, 0) / self.responses if self.responses else 0.0

    def percentiles(self, status: str = "ok") -> dict[str, float]:
        """Exact p50/p95/p99 (seconds) of one status class."""
        samples = self.latencies.get(status, [])
        if not samples:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        arr = np.asarray(samples)
        return {
            "p50": float(np.percentile(arr, 50)),
            "p95": float(np.percentile(arr, 95)),
            "p99": float(np.percentile(arr, 99)),
        }

    def to_dict(self) -> dict:
        """JSON-ready summary (raw samples reduced to percentiles)."""
        return {
            "offered_rate": self.offered_rate,
            "duration_s": self.duration_s,
            "responses": self.responses,
            "dropped": self.dropped,
            "achieved_eps": self.achieved_eps,
            "statuses": dict(sorted(self.statuses.items())),
            "served_from": dict(sorted(self.served_from.items())),
            "fractions": {
                status: self.fraction(status)
                for status in sorted(self.statuses)
            },
            "latency": {
                status: self.percentiles(status)
                for status in sorted(self.latencies)
            },
        }


async def run_open_loop(
    server: AsyncRecommendationServer,
    requests: list,
    arrival_times: list[float],
    offered_rate: float,
) -> RunReport:
    """Dispatch ``requests`` at their scheduled offsets; gather outcomes.

    The server must already be started.  Submission is synchronous per
    arrival (admission happens at the scheduled instant), so an
    overloaded server sees the true offered rate.
    """
    if len(requests) != len(arrival_times):
        raise ValueError("requests and arrival_times must align")
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    futures = []
    for request, offset in zip(requests, arrival_times):
        delay = (t0 + offset) - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        futures.append(server.submit_nowait(request))
    outcomes = await asyncio.gather(*futures, return_exceptions=True)
    duration = loop.time() - t0
    report = RunReport(
        offered_rate=offered_rate,
        duration_s=duration,
        responses=0,
        dropped=0,
    )
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            report.dropped += 1
            continue
        report.responses += 1
        report.statuses[outcome.status] = (
            report.statuses.get(outcome.status, 0) + 1
        )
        report.served_from[outcome.served_from] = (
            report.served_from.get(outcome.served_from, 0) + 1
        )
        report.latencies.setdefault(outcome.status, []).append(
            outcome.latency_s
        )
    return report


def run_load(
    service,
    requests: list,
    profile: LoadProfile,
    config: ServeConfig | None = None,
    metrics: MetricsRegistry | None = None,
) -> RunReport:
    """Boot a server over ``service`` and replay ``requests`` open-loop."""
    schedule = profile.arrival_times(len(requests))

    async def run() -> RunReport:
        server = AsyncRecommendationServer(service, config, metrics)
        async with server:
            return await run_open_loop(
                server, requests, schedule, offered_rate=profile.mean_rate(len(requests))
            )

    return asyncio.run(run())


def measure_capacity(
    service,
    requests: list,
    config: ServeConfig | None = None,
    metrics: MetricsRegistry | None = None,
) -> tuple[float, list[ServeResponse]]:
    """Closed-loop saturation throughput (events/sec) of one worker.

    Offers the whole stream at once with admission disabled (the queue
    is sized to the stream) and measures wall-clock drain time — the
    saturation point: above it an open-loop queue grows without bound.
    """
    serve_config = config if config is not None else ServeConfig()
    if (
        serve_config.rate is not None
        or serve_config.shed_depth <= len(requests)
        or serve_config.admission().resolved_degrade_depth <= len(requests)
    ):
        serve_config = replace(
            serve_config,
            rate=None,
            shed_depth=len(requests) + 1,
            degrade_depth=len(requests) + 1,
        )
    started = time.perf_counter()
    responses = serve_stream(service, requests, serve_config, metrics)
    elapsed = time.perf_counter() - started
    return (len(requests) / elapsed if elapsed > 0 else 0.0, responses)
