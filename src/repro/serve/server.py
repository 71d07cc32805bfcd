"""The asyncio serving front-end over the online recommendation service.

``AsyncRecommendationServer`` turns :class:`~repro.service.engine.
RecommendationService` (or any backend with the same ingestion surface)
into something a traffic stream can hit concurrently:

* **natural batching** — requests are admitted synchronously on the
  event loop.  A started server with nothing outstanding (no request
  admitted and not yet answered) holds a lone request and runs it on
  the loop at its next turn: no thread handoff, so an idle server
  answers at the cost of the work.  Anything else goes into one FIFO
  inbox (a held request first, so arrival order holds): one worker
  thread blocks for the first request, takes whatever else is queued
  (up to ``max_batch``), runs the batch and posts all its outcomes back
  in one ``call_soon_threadsafe``.  Requests that arrive while a batch
  runs form the next one, and the loop keeps admitting and shedding
  meanwhile.  At most one batch runs at a time: the loop runs one only
  when nothing is outstanding, so the worker is idle.  Inside a batch,
  consecutive full-service retweets
  collapse into one
  :meth:`~repro.service.engine.RecommendationService.ingest_batch` call
  and consecutive score requests into one ``score_batch`` call, so the
  batched propagation kernel is amortized across in-flight requests
  instead of dispatched per request;
* **admission control** — every propagation-bearing request passes the
  :class:`~repro.serve.admission.AdmissionController` ladder *before*
  enqueueing: over-budget requests are degraded to warm-cache-only
  answers (still ordered through the queue — the service clock must stay
  monotone) or shed outright (immediate refusal, no state change).
  Posts are control plane: always admitted, never shed (a dropped post
  would poison every later retweet of that tweet);
* **observability** — per-request latency spans land in ``serve.*``
  histograms of the shared :class:`~repro.obs.MetricsRegistry`;
  degraded/shed outcomes are explicit in both the response object and
  the ``serve.admission[...]`` / ``serve.degraded_misses`` counters;
* **a frozen heap** — ``start`` moves every object alive at that moment
  out of the cyclic collector's reach (``gc.freeze``) until the last
  running server stops.  The service's graph and caches are built
  before serving and live as long as it does; on the dict-backed
  reference engine they are millions of containers, and a full
  collection that lands mid-stream walked them all (0.11–0.14 s, 7–9 %
  of a 2,400-event drain on a 2-vCPU VM) in some runs and not in
  others.  Frozen objects are still freed by reference counting; only
  a reference cycle among them waits for the thaw.

Determinism: :func:`serve_stream` drives a whole request list through
the server with every request admitted (in order) before the worker
starts, so batch composition — and therefore every service-side effect —
is a pure function of the stream and the config.  At low load (no
degradation) the responses are identical to calling the service
directly, which the differential suite pins.
"""

from __future__ import annotations

import asyncio
import gc
import queue
import threading
from dataclasses import dataclass, field
from typing import Sequence

from repro.baselines.base import Recommendation
from repro.eval.budget import CapacityModel
from repro.exceptions import ConfigError, DatasetError
from repro.obs import MetricsRegistry
from repro.serve.admission import AdmissionConfig, AdmissionController

__all__ = [
    "PostRequest",
    "RetweetRequest",
    "ScoreRequest",
    "ServeConfig",
    "ServeResponse",
    "AsyncRecommendationServer",
    "serve_stream",
]

#: Servers started and not yet stopped; the heap stays frozen while any runs.
_running = 0


@dataclass(frozen=True)
class PostRequest:
    """Register an original tweet (control plane; never shed)."""

    tweet: int
    author: int
    at: float


@dataclass(frozen=True)
class RetweetRequest:
    """Ingest a retweet and return the notifications it released."""

    user: int
    tweet: int
    at: float


@dataclass(frozen=True)
class ScoreRequest:
    """Timeline-style query: score live tweets for delivery ranking."""

    tweets: tuple[int, ...]


@dataclass(frozen=True)
class ServeConfig:
    """Front-end knobs: batching shape, admission ladder, SLO target."""

    #: Largest request batch the worker takes from the inbox at once.
    max_batch: int = 32
    #: Token-bucket refill (events/sec); None disables rate limiting.
    rate: float | None = None
    #: Token-bucket burst allowance.
    burst: float = 64.0
    #: Queue depth past which requests are refused outright.
    shed_depth: int = 1024
    #: Queue depth past which requests degrade to warm-cache answers
    #: (None: half of ``shed_depth``).
    degrade_depth: int | None = None
    #: Advisory p99 latency target in seconds, recorded alongside the
    #: measured percentiles (the bench gates against it).
    slo_p99: float = 0.25

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigError(f"max_batch must be at least 1, got {self.max_batch}")
        if self.slo_p99 <= 0:
            raise ConfigError(f"slo_p99 must be positive, got {self.slo_p99}")
        # Ladder validation is delegated to AdmissionConfig.
        self.admission()

    def admission(self) -> AdmissionConfig:
        return AdmissionConfig(
            rate=self.rate,
            burst=self.burst,
            shed_depth=self.shed_depth,
            degrade_depth=self.degrade_depth,
        )

    @classmethod
    def from_capacity(
        cls, model: CapacityModel, slo_p99: float = 0.25, **overrides
    ) -> "ServeConfig":
        """Calibrate admission from a measured capacity model."""
        degrade = model.queue_depth_for_latency(slo_p99)
        return cls(
            rate=model.events_per_second,
            degrade_depth=degrade,
            shed_depth=2 * degrade,
            slo_p99=slo_p99,
            **overrides,
        )


@dataclass
class ServeResponse:
    """Outcome of one request.

    ``status`` is the admission rung that actually answered: ``"ok"``
    (full service), ``"degraded"`` (warm-cache-only answer; explicit —
    a client can tell a cheap answer from a fresh one) or ``"shed"``
    (refused, nothing happened).  ``served_from`` narrows the source:
    ``propagation``, ``warm-cache``, ``none`` (shed, a degraded cache
    miss, or a post acknowledgement).
    """

    status: str
    served_from: str = "none"
    notifications: list[Recommendation] = field(default_factory=list)
    scores: dict[int, dict[int, float] | None] | None = None
    latency_s: float = 0.0

    def __repr__(self) -> str:
        # A summary: the default repr walks every notification, and
        # asyncio's teardown can format the repr of a driver's result.
        scored = None if self.scores is None else len(self.scores)
        return (
            f"ServeResponse(status={self.status!r}, "
            f"served_from={self.served_from!r}, "
            f"notifications={len(self.notifications)}, scores={scored})"
        )


class _Pending:
    __slots__ = ("request", "mode", "future", "enqueued_at")

    def __init__(self, request, mode, future, enqueued_at):
        self.request = request
        self.mode = mode
        self.future = future
        self.enqueued_at = enqueued_at


def _propagated(notifications: list[Recommendation]) -> tuple[str, object]:
    """The outcome of a fully served retweet."""
    return (
        "ok",
        ServeResponse(
            status="ok", served_from="propagation", notifications=notifications
        ),
    )


class AsyncRecommendationServer:
    """In-process asyncio front-end (module docstring).

    ``service`` is usually a
    :class:`~repro.service.engine.RecommendationService`; any object with
    ``post_tweet``/``retweet`` works.
    Capabilities are feature-detected: without ``ingest_batch`` full
    retweet runs fall back to per-event dispatch, and without
    ``warm_answer`` the degraded rung escalates to shed (counted in
    ``serve.degrade_unsupported``).
    """

    def __init__(
        self,
        service,
        config: ServeConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.service = service
        self.config = config if config is not None else ServeConfig()
        if metrics is not None:
            self.metrics = metrics
        else:
            owned = getattr(service, "metrics", None)
            self.metrics = owned if isinstance(owned, MetricsRegistry) else (
                MetricsRegistry()
            )
        self._admission = AdmissionController(
            self.config.admission(), metrics=self.metrics
        )
        #: Admitted requests for the worker; ``None`` is stop's marker.
        self._inbox: queue.SimpleQueue[_Pending | None] = queue.SimpleQueue()
        #: A lone request the loop runs at its next turn (or None).
        self._lone: _Pending | None = None
        #: Requests admitted and not yet settled, held one included.
        #: Read and written on the loop only.
        self._outstanding = 0
        self._worker: threading.Thread | None = None
        #: Set by the worker (on the loop) as its last act.
        self._worker_done: asyncio.Future | None = None
        self._stopping = False
        self._can_batch = hasattr(service, "ingest_batch")
        self._can_degrade = hasattr(service, "warm_answer")
        #: Tweet ids announced by admitted PostRequests whose execution
        #: may still be queued — valid targets for later retweets.
        self._announced: set[int] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Freeze the heap and boot the worker thread that owns batching."""
        global _running
        if self._worker is not None:
            raise ConfigError("server already started")
        _running += 1
        gc.freeze()
        loop = asyncio.get_running_loop()
        self._worker_done = loop.create_future()
        self._worker = threading.Thread(
            target=self._work, args=(loop, self._worker_done),
            name="repro-serve", daemon=True,
        )
        self._worker.start()

    async def stop(self) -> None:
        """Answer every queued request, join the worker, thaw the heap."""
        global _running
        if self._worker is None:
            return
        self._stopping = True
        self._release_lone()
        self._inbox.put(None)
        try:
            await self._worker_done
        finally:
            self._worker.join()
            self._worker = None
            self._stopping = False
            _running -= 1
            if not _running:
                gc.unfreeze()

    async def __aenter__(self) -> "AsyncRecommendationServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_nowait(self, request) -> asyncio.Future:
        """Admit + enqueue one request; returns its response future.

        Admission, validation and enqueueing happen synchronously (no
        await), so calling this in arrival order preserves the service's
        monotone-clock invariant regardless of how callers interleave.
        """
        loop = asyncio.get_running_loop()
        now = loop.time()
        future: asyncio.Future = loop.create_future()
        self.metrics.counter("serve.requests").inc()
        if self._stopping:
            future.set_exception(ConfigError("server is stopping"))
            return future
        try:
            mode = self._admit(request, now)
        except Exception as exc:  # invalid request: refuse pre-queue
            future.set_exception(exc)
            return future
        if mode == "shed":
            self.metrics.counter("serve.shed").inc()
            future.set_result(ServeResponse(status="shed"))
            return future
        pending = _Pending(request, mode, future, now)
        # Nothing outstanding: the worker is idle, so the loop may run it.
        if self._outstanding == 0 and self._worker is not None:
            self._lone = pending
            loop.call_soon(self._run_lone, loop)
        else:
            self._release_lone()
            self._inbox.put(pending)
        self._outstanding += 1
        self.metrics.gauge("serve.queue_depth").set(self._depth())
        return future

    async def submit(self, request) -> ServeResponse:
        """Submit one request and await its response."""
        return await self.submit_nowait(request)

    def _admit(self, request, now: float) -> str:
        if isinstance(request, PostRequest):
            # Control plane: post_tweet is O(1) and later retweets
            # depend on it, so it never enters the ladder.
            self._announced.add(request.tweet)
            return "full"
        if isinstance(request, RetweetRequest):
            known = getattr(self.service, "tweets", None)
            if (
                known is not None
                and request.tweet not in known
                and request.tweet not in self._announced
            ):
                raise DatasetError(f"unknown tweet id {request.tweet}")
        elif isinstance(request, ScoreRequest):
            known = getattr(self.service, "tweets", None)
            if known is not None:
                missing = [
                    t for t in request.tweets
                    if t not in known and t not in self._announced
                ]
                if missing:
                    raise DatasetError(f"unknown tweet ids {missing}")
        else:
            raise ConfigError(f"unknown request type {type(request).__name__}")
        decision = self._admission.admit(now, self._depth())
        if decision == "degraded" and not self._can_degrade:
            self.metrics.counter("serve.degrade_unsupported").inc()
            decision = "shed"
        return decision

    def _depth(self) -> int:
        """Admitted requests not yet in a batch (the ladder's depth)."""
        return self._inbox.qsize() + (self._lone is not None)

    def _release_lone(self) -> None:
        """Hand a held lone request to the worker, ahead of what follows."""
        if self._lone is not None:
            self._inbox.put(self._lone)
            self._lone = None

    # ------------------------------------------------------------------
    # Batching (loop or worker thread) and settling (loop)
    # ------------------------------------------------------------------
    def _run_lone(self, loop: asyncio.AbstractEventLoop) -> None:
        """Run the held request on the loop, unless it went to the worker."""
        pending = self._lone
        if pending is None:
            return
        self._lone = None
        try:
            outcomes = self._run_batch([pending])
        except Exception as exc:
            outcomes = [("error", exc)]
        self._settle(loop, "loop", [pending], outcomes)

    def _work(self, loop: asyncio.AbstractEventLoop, done: asyncio.Future) -> None:
        """Worker thread: take what is queued, run it, post it back.  The
        loop keeps admitting (and shedding) while a batch is in flight."""
        inbox = self._inbox
        running = True
        while running:
            batch = [inbox.get()]
            while len(batch) < self.config.max_batch:
                try:
                    batch.append(inbox.get_nowait())
                except queue.Empty:
                    break
            if batch[-1] is None:  # stop's marker: nothing follows it
                batch.pop()
                running = False
            if batch:
                try:
                    outcomes = self._run_batch(batch)
                except Exception as exc:
                    outcomes = [("error", exc)] * len(batch)
                loop.call_soon_threadsafe(
                    self._settle, loop, "worker", batch, outcomes
                )
        loop.call_soon_threadsafe(done.set_result, None)

    def _settle(
        self, loop, site: str, batch: list[_Pending], outcomes: list
    ) -> None:
        """Resolve one batch's futures and record it (on the loop)."""
        self._outstanding -= len(batch)
        self.metrics.counter("serve.batches").inc()
        self.metrics.counter(f"serve.batches[{site}]").inc()
        self.metrics.histogram("serve.batch_size").observe(len(batch))
        latency_hist = self.metrics.histogram(
            "serve.latency_seconds", timing=True
        )
        now = loop.time()
        for pending, (kind, payload) in zip(batch, outcomes):
            if kind == "error":
                if not pending.future.done():
                    pending.future.set_exception(payload)
            else:
                latency = now - pending.enqueued_at
                payload.latency_s = latency
                latency_hist.observe(latency)
                self.metrics.histogram(
                    f"serve.latency_seconds[{payload.status}]", timing=True
                ).observe(latency)
                if not pending.future.done():
                    pending.future.set_result(payload)
        self.metrics.gauge("serve.queue_depth").set(self._depth())

    # ------------------------------------------------------------------
    # Batch execution (loop or worker thread)
    # ------------------------------------------------------------------
    def _run_batch(self, batch: list[_Pending]) -> list[tuple[str, object]]:
        """Execute one ordered batch; per-request outcome tuples.

        Consecutive requests of the same kind and rung collapse into one
        service call; order across runs is the arrival order, so the
        service clock stays monotone and results match the sequential
        semantics exactly.
        """
        outcomes: list[tuple[str, object]] = []
        i = 0
        while i < len(batch):
            pending = batch[i]
            request = pending.request
            if isinstance(request, RetweetRequest) and pending.mode == "full":
                run = [pending]
                while (
                    i + len(run) < len(batch)
                    and isinstance(batch[i + len(run)].request, RetweetRequest)
                    and batch[i + len(run)].mode == "full"
                ):
                    run.append(batch[i + len(run)])
                outcomes.extend(self._run_retweets(run))
                i += len(run)
            elif isinstance(request, ScoreRequest) and pending.mode == "full":
                run = [pending]
                while (
                    i + len(run) < len(batch)
                    and isinstance(batch[i + len(run)].request, ScoreRequest)
                    and batch[i + len(run)].mode == "full"
                ):
                    run.append(batch[i + len(run)])
                outcomes.extend(self._run_scores(run))
                i += len(run)
            else:
                outcomes.append(self._run_single(pending))
                i += 1
        return outcomes

    def _run_retweets(self, run: list[_Pending]) -> list[tuple[str, object]]:
        if self._can_batch and len(run) > 1:
            try:
                per_event = self.service.ingest_batch(
                    [(p.request.user, p.request.tweet, p.request.at) for p in run]
                )
            except DatasetError:
                # ingest_batch rejects a bad event before touching state:
                # replay the run per event so only that request fails.
                pass
            except Exception as exc:
                return [("error", exc)] * len(run)
            else:
                return [_propagated(notifications) for notifications in per_event]
        outcomes = []
        for p in run:
            try:
                outcomes.append(_propagated(self.service.retweet(
                    p.request.user, p.request.tweet, p.request.at
                )))
            except Exception as exc:
                outcomes.append(("error", exc))
        return outcomes

    def _run_scores(self, run: list[_Pending]) -> list[tuple[str, object]]:
        score_batch = getattr(self.service, "score_batch", None)
        if score_batch is None:
            exc = ConfigError(
                f"{type(self.service).__name__} does not support score requests"
            )
            return [("error", exc)] * len(run)
        wanted: list[int] = []
        seen: set[int] = set()
        for p in run:
            for tweet in p.request.tweets:
                if tweet not in seen:
                    seen.add(tweet)
                    wanted.append(tweet)
        try:
            scored = score_batch(wanted)
        except Exception as exc:
            return [("error", exc)] * len(run)
        return [
            (
                "ok",
                ServeResponse(
                    status="ok",
                    served_from="propagation",
                    scores={t: scored[t] for t in p.request.tweets},
                ),
            )
            for p in run
        ]

    def _run_single(self, pending: _Pending) -> tuple[str, object]:
        request = pending.request
        try:
            if isinstance(request, PostRequest):
                self.service.post_tweet(
                    tweet_id=request.tweet, author=request.author, at=request.at
                )
                return ("ok", ServeResponse(status="ok"))
            if isinstance(request, RetweetRequest):  # degraded rung
                answer = self.service.warm_answer(
                    request.user, request.tweet, request.at
                )
                if answer is None:
                    self.metrics.counter("serve.degraded_misses").inc()
                    return (
                        "ok",
                        ServeResponse(status="degraded", served_from="none"),
                    )
                return (
                    "ok",
                    ServeResponse(
                        status="degraded",
                        served_from="warm-cache",
                        notifications=answer,
                    ),
                )
            # Degraded score request: warm-cache views only.
            warm_scores = getattr(self.service, "warm_scores", None)
            if warm_scores is None:
                raise ConfigError(
                    f"{type(self.service).__name__} cannot degrade score "
                    "requests"
                )
            scores = warm_scores(request.tweets)
            misses = sum(1 for v in scores.values() if v is None)
            if misses:
                self.metrics.counter("serve.degraded_misses").inc(misses)
            return (
                "ok",
                ServeResponse(
                    status="degraded",
                    served_from="warm-cache" if misses < len(scores) else "none",
                    scores=scores,
                ),
            )
        except Exception as exc:
            return ("error", exc)


def serve_stream(
    service,
    requests: Sequence[object],
    config: ServeConfig | None = None,
    metrics: MetricsRegistry | None = None,
    return_exceptions: bool = False,
) -> list[ServeResponse]:
    """Drive an ordered request stream through the server, deterministically.

    Every request is admitted (in order) before the worker starts,
    so batches always fill to ``max_batch`` and their composition — and
    every service-side effect — is a pure function of the stream and the
    config.  This is the driver the differential and byte-stability
    suites use; the open-loop load generator
    (:mod:`repro.serve.loadgen`) is its wall-clock counterpart.

    Note the queue holds the whole stream up front: size ``shed_depth``
    accordingly if shedding is not the point of the test.
    """

    async def run() -> list[ServeResponse]:
        server = AsyncRecommendationServer(service, config, metrics)
        futures = [server.submit_nowait(request) for request in requests]
        async with server:
            return await asyncio.gather(
                *futures, return_exceptions=return_exceptions
            )

    return asyncio.run(run())
