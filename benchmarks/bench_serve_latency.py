"""Serving latency/throughput — micro-batching and graceful degradation.

Two legs, both over the asyncio front-end (:mod:`repro.serve`) driving a
single-worker :class:`~repro.service.RecommendationService`:

* **Saturation** — a closed-loop drain of a uniform retweet stream,
  once with micro-batching on (``max_batch=32``: consecutive events
  coalesce into one ``ingest_batch`` / one ``propagate_many``) and
  once per-request (``max_batch=1``).  The service runs in scheduler
  mode — the paper's own batching insight (§5: delaying propagation
  coalesces a tweet's retweets) is what the micro-batch amortizes — and
  the bench asserts the batched saturation throughput is at least
  ``RATIO_FLOOR`` times the per-request one.

* **Overload** — an open-loop replay at twice the measured saturation
  rate, with admission calibrated from the
  :class:`~repro.eval.budget.CapacityModel` of that measurement.  The
  server must stay up (zero dropped responses), degrade the over-budget
  tail to warm-cache-only answers (some ``degraded`` responses served
  from the cache, visible both in response labels and the
  ``serve.admission[...]`` counters), and keep the exact p99 latency of
  fully-admitted (``ok``) responses inside the SLO the admission ladder
  was calibrated for.

The measured matrix — per-path seconds/throughput, the capacity model,
and the overload report (p50/p95/p99 per status, fractions, drops) — is
written to ``benchmarks/BENCH_serve_latency.json`` by a full run only;
a smoke run never touches that committed record.

Env knobs (used by the CI smoke step):

* ``SERVE_BENCH_SMOKE=1`` — shrink the corpus/streams and relax the
  throughput floor to "not slower" (the SLO assert stays, with a
  generous smoke ceiling);
* ``SERVE_BENCH_JSON=path`` — where a smoke run writes its matrix
  (nowhere when unset).
"""

from __future__ import annotations

import json
import os
import time

from repro.eval import CapacityModel
from repro.obs import MetricsRegistry
from repro.serve import (
    LoadProfile,
    ServeConfig,
    measure_capacity,
    prime_service,
    run_load,
    synth_requests,
)
from repro.service import ServiceConfig
from repro.utils.tables import render_table

SMOKE = os.environ.get("SERVE_BENCH_SMOKE") == "1"

#: Saturation-leg floor: batched vs per-request dispatch throughput.
RATIO_FLOOR = 1.0 if SMOKE else 2.0
#: Overload-leg SLO for the p99 of fully-admitted responses.  The smoke
#: ceiling is deliberately generous — shared CI runners stall the loop.
SLO_P99 = 1.0 if SMOKE else 0.25

#: Throughput trials per saturation leg; the best one counts (the ratio
#: is a property of the dispatch path, noise on shared runners only ever
#: slows a leg down).
TRIALS = 1 if SMOKE else 3

N_USERS = 150 if SMOKE else 400
LIVE_TWEETS = 40 if SMOKE else 120
SAT_EVENTS = 200 if SMOKE else 600
#: Open-loop overload run length in (approximate) seconds.
OVERLOAD_SECONDS = 0.75 if SMOKE else 1.5
MAX_BATCH = 32
SEED = 11

#: The committed record; only a full run writes it.
MATRIX_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_serve_latency.json"
)

_matrix: dict = {"smoke": SMOKE, "cpu_count": os.cpu_count()}


def _persist(key, payload) -> None:
    _matrix[key] = payload
    path = os.environ.get("SERVE_BENCH_JSON") if SMOKE else MATRIX_PATH
    if not path:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_matrix, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _service_config(use_scheduler: bool) -> ServiceConfig:
    return ServiceConfig(prop_backend="csr", use_scheduler=use_scheduler)


def _saturation_leg(max_batch: int, use_scheduler: bool = True):
    """Fresh primed service + uniform stream, drained closed-loop.

    Best of ``TRIALS`` runs: closed-loop drain time is a max-throughput
    measurement, so external stalls only ever bias it downwards.
    """
    best = 0.0
    for _ in range(TRIALS):
        primed = prime_service(
            config=_service_config(use_scheduler),
            n_users=N_USERS,
            live_tweets=LIVE_TWEETS,
            seed=SEED,
        )
        requests = synth_requests(
            primed, SAT_EVENTS, seed=SEED, popularity_skew=0.0
        )
        eps, responses = measure_capacity(
            primed.service, requests, ServeConfig(max_batch=max_batch)
        )
        assert len(responses) == SAT_EVENTS
        assert all(r.status == "ok" for r in responses)
        best = max(best, eps)
    return best


def test_serve_saturation_batched_vs_unbatched(benchmark, emit):
    def measure():
        batched = _saturation_leg(MAX_BATCH)
        unbatched = _saturation_leg(1)
        return batched, unbatched

    batched, unbatched = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratio = batched / unbatched if unbatched > 0 else float("inf")
    emit(render_table(
        ["path", "max_batch", "events", "events/s"],
        [
            ["batched", MAX_BATCH, SAT_EVENTS, f"{batched:.0f}"],
            ["per-request", 1, SAT_EVENTS, f"{unbatched:.0f}"],
            ["ratio", "", "", f"{ratio:.2f}x"],
        ],
        title="Serve saturation: micro-batched vs per-request dispatch",
    ))
    _persist("saturation", {
        "events": SAT_EVENTS,
        "n_users": N_USERS,
        "live_tweets": LIVE_TWEETS,
        "batched": {
            "max_batch": MAX_BATCH, "events_per_s": round(batched, 1),
        },
        "unbatched": {"max_batch": 1, "events_per_s": round(unbatched, 1)},
        "ratio": round(ratio, 2),
        "ratio_floor": RATIO_FLOOR,
    })
    assert ratio >= RATIO_FLOOR, (
        f"micro-batching only {ratio:.2f}x the per-request throughput "
        f"at saturation (floor is {RATIO_FLOOR}x)"
    )


def test_serve_overload_degrades_within_slo(benchmark, emit):
    # Scheduler off: each event propagates, so saturation sits at a rate
    # the asyncio dispatch loop can meaningfully double.
    primed = prime_service(
        config=_service_config(use_scheduler=False),
        n_users=N_USERS,
        live_tweets=LIVE_TWEETS,
        seed=SEED + 1,
    )
    calibration = synth_requests(
        primed, SAT_EVENTS, seed=SEED + 1, popularity_skew=0.0
    )
    saturation_eps, _ = measure_capacity(
        primed.service, calibration, ServeConfig(max_batch=MAX_BATCH)
    )
    model = CapacityModel(
        service_seconds_per_event=1.0 / saturation_eps, utilization=0.8
    )
    # Calibrate the ladder for half the asserted SLO: the capacity model
    # assumes raw-speed queue drain, and on a busy single-core runner
    # the dispatch loop steals cycles from the worker — the 2x margin
    # absorbs that.
    serve_config = ServeConfig.from_capacity(model, slo_p99=SLO_P99 / 2)

    offered = 2.0 * saturation_eps
    n_events = max(50, int(offered * OVERLOAD_SECONDS))
    # Fresh victim service (the calibration run warmed queues/caches of
    # the first); hot-skewed picks so degraded answers find warm states.
    victim = prime_service(
        config=_service_config(use_scheduler=False),
        n_users=N_USERS,
        live_tweets=LIVE_TWEETS,
        seed=SEED + 2,
    )
    requests = synth_requests(
        victim, n_events, seed=SEED + 2, popularity_skew=1.0
    )
    metrics = MetricsRegistry()

    def measure():
        return run_load(
            victim.service,
            requests,
            LoadProfile.steady(rate=offered),
            serve_config,
            metrics,
        )

    report = benchmark.pedantic(measure, rounds=1, iterations=1)
    summary = report.to_dict()
    ok_p99 = report.percentiles("ok")["p99"]
    snapshot = metrics.snapshot()
    admission = {
        rung: snapshot["counters"].get(f"serve.admission[{rung}]", 0)
        for rung in ("full", "degraded", "shed")
    }
    service_snap = victim.service.metrics_snapshot()
    warm_hits = service_snap["gauges"].get("service.warm_hits", 0)
    emit(render_table(
        ["metric", "value"],
        [
            ["offered events/s", f"{offered:.0f}"],
            ["saturation events/s", f"{saturation_eps:.0f}"],
            ["responses", summary["responses"]],
            ["dropped", summary["dropped"]],
            ["ok", summary["statuses"].get("ok", 0)],
            ["degraded", summary["statuses"].get("degraded", 0)],
            ["shed", summary["statuses"].get("shed", 0)],
            ["ok p99 (ms)", f"{ok_p99 * 1000:.1f}"],
            ["SLO p99 (ms)", f"{SLO_P99 * 1000:.0f}"],
            ["warm hits", warm_hits],
        ],
        title="Serve overload: 2x saturation, calibrated admission",
    ))
    _persist("overload", {
        "saturation_events_per_s": round(saturation_eps, 1),
        "offered_events_per_s": round(offered, 1),
        "capacity_model": {
            "service_seconds_per_event": model.service_seconds_per_event,
            "utilization": model.utilization,
            "events_per_second": model.events_per_second,
        },
        "serve_config": {
            "max_batch": serve_config.max_batch,
            "rate": serve_config.rate,
            "shed_depth": serve_config.shed_depth,
            "degrade_depth": serve_config.admission().resolved_degrade_depth,
            "slo_p99": SLO_P99,
        },
        "admission": admission,
        "report": summary,
        "ok_p99_s": ok_p99,
        "warm_hits": warm_hits,
    })
    assert summary["dropped"] == 0, "overload run dropped responses"
    assert len(requests) == summary["responses"]
    assert summary["statuses"].get("degraded", 0) > 0, (
        "2x-over-saturation load never degraded — admission is inert"
    )
    assert report.served_from.get("warm-cache", 0) > 0 and warm_hits > 0, (
        "degraded answers did not serve from the warm cache"
    )
    assert ok_p99 <= SLO_P99, (
        f"p99 of fully-admitted responses {ok_p99 * 1000:.1f}ms exceeds "
        f"the {SLO_P99 * 1000:.0f}ms SLO the ladder was calibrated for"
    )
