"""The bench's own load driver: due-time stamping, one loop thread.

``repro.serve.loadgen.run_open_loop`` times a request from the moment it
was *enqueued* and throws the schedule away, so a stall that delays the
generator itself — the loop thread shares the GIL with the server's
worker — vanishes from its latencies.  This driver keeps the schedule:
every request carries the instant it was **due**, latency runs from
that instant to the future's completion callback, and how late the
generator actually sent it is recorded beside it.

A closed-loop drain is the same driver with every request due at 0: the
whole stream is admitted before the dispatcher first runs, so batches
fill to ``max_batch`` and batch composition is a function of the stream
alone (what ``serve_stream`` does, with the timestamps kept).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import numpy as np

from repro.serve import AsyncRecommendationServer, PostRequest, RetweetRequest


@dataclass
class Sample:
    """One request's life: when it was due, sent and answered."""

    request: object
    kind: str
    #: Seconds from the window start at which the request was due.
    due: float
    sent: float = 0.0
    done: float = 0.0
    #: ``ok`` / ``degraded`` / ``shed``, ``error`` for a raised future;
    #: ``pending`` never survives :func:`drive`.
    status: str = "pending"
    response: object = None

    @property
    def failed(self) -> bool:
        return self.status not in ("ok", "degraded")

    @property
    def latency(self) -> float:
        return self.done - self.due


def request_kind(request) -> str:
    if isinstance(request, RetweetRequest):
        return "retweet"
    if isinstance(request, PostRequest):
        return "post"
    return "score"


@dataclass
class Window:
    """Everything one driven window produced."""

    samples: list[Sample]
    #: ``time.monotonic()`` at the window start (the tracer's clock).
    t0: float
    #: Seconds from the window start to the last completion.
    wall_s: float


async def drive(
    server: AsyncRecommendationServer, requests: list, due: np.ndarray
) -> Window:
    """Send ``requests[i]`` at offset ``due[i]``; wait for every answer.

    The server must be started.  Submission is synchronous per request,
    in due order, so admission sees the true offered rate and the
    service clock stays monotone; a generator that falls behind sends
    every overdue request at once rather than stretching the schedule.
    """
    loop = asyncio.get_running_loop()
    samples = [
        Sample(request=r, kind=request_kind(r), due=float(d))
        for r, d in zip(requests, due)
    ]
    remaining = len(samples)
    finished = asyncio.Event()
    t0 = loop.time()

    def on_done(sample: Sample, future: asyncio.Future) -> None:
        nonlocal remaining
        sample.done = loop.time() - t0
        if future.cancelled() or future.exception() is not None:
            sample.status = "error"
        else:
            sample.response = future.result()
            sample.status = sample.response.status
        remaining -= 1
        if remaining == 0:
            finished.set()

    for sample, request in zip(samples, requests):
        delay = t0 + sample.due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        sample.sent = loop.time() - t0
        future = server.submit_nowait(request)
        future.add_done_callback(
            lambda f, sample=sample: on_done(sample, f)
        )
    await finished.wait()
    return Window(samples=samples, t0=t0, wall_s=max(s.done for s in samples))


def run_window(service, requests: list, due: np.ndarray, serve_config) -> Window:
    """Boot a server over ``service`` and drive one window through it."""

    async def run() -> Window:
        async with AsyncRecommendationServer(service, serve_config) as server:
            return await drive(server, requests, due)

    return asyncio.run(run())


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))
