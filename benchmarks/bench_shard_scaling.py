"""Sharded replay scaling — event throughput at 1/2/4/8 workers.

The sharded service (``repro.shard``) exists to spread propagation work
across processes while staying bit-identical to the single-process
reference; this bench measures what that buys.  The same synthetic
stream is replayed through the single-process
:class:`~repro.service.engine.RecommendationService` and through
:class:`~repro.shard.ShardedRecommendationService` at each worker
count, with fork workers (real processes, real pipes).  Every sharded
leg's deliveries are compared against the single-process run before its
timing is trusted — a fast divergent service would be worthless.

Recorded per worker count: events/second, speedup vs single-process,
cross-shard fan-outs per routed event (the coordination traffic the
partitioner is minimizing) and the boundary SimGraph edge fraction.

Acceptance is gated on the machine: with fewer physical cores than
workers the parallel legs cannot win (they pay IPC for no concurrency),
so the floor below applies only when ``os.cpu_count()`` provides the
cores and is reported as skipped — with the core count — otherwise.

* full run: >= 2x single-process throughput at 4 workers (needs >= 4
  cores);
* smoke run (``SHARD_BENCH_SMOKE=1``, the CI step): 2 workers, small
  corpus, no throughput floor — deliveries equal to single-process is
  what the step checks.

Env knobs:

* ``SHARD_BENCH_SMOKE=1`` — small corpus, 2-worker leg only;
* ``SHARD_BENCH_JSON=path`` — dump the measured rows as JSON: numeric
  fields plus one ``context`` block (cores, versions, git sha, smoke
  flag), the schema ROADMAP item 1(a) asks of every bench.

Also runnable directly: ``python benchmarks/bench_shard_scaling.py
[--smoke]`` wraps the pytest invocation.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from conftest import bench_context
from repro.service import RecommendationService, ServiceConfig
from repro.shard import ShardedRecommendationService
from repro.shard.replay import drive_service, ingest_graph
from repro.synth import SynthConfig, generate_dataset
from repro.utils.tables import render_table

DAY = 86400.0

SMOKE = os.environ.get("SHARD_BENCH_SMOKE") == "1"

WORKER_COUNTS = [2] if SMOKE else [1, 2, 4, 8]

CONFIG = (
    SynthConfig(
        n_users=100, n_communities=5, time_span=6 * DAY, seed=42,
    )
    if SMOKE
    else SynthConfig(
        n_users=200, n_communities=8, time_span=10 * DAY, seed=42,
    )
)

#: Replay uses fork workers when available — the measured path is the
#: real IPC deployment, not the in-process protocol shim.
START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None
)


def _service_config() -> ServiceConfig:
    return ServiceConfig(rebuild_strategy="delta", rebuild_interval=2 * DAY)


def _replay_single(dataset, retweets):
    service = RecommendationService(_service_config())
    ingest_graph(service, dataset)
    start = time.perf_counter()
    delivered = drive_service(service, dataset, retweets)
    return delivered, time.perf_counter() - start


def _replay_sharded(n_workers, dataset, retweets):
    service = ShardedRecommendationService(
        n_workers, config=_service_config(), start_method=START_METHOD
    )
    try:
        ingest_graph(service, dataset)
        start = time.perf_counter()
        delivered = drive_service(service, dataset, retweets)
        elapsed = time.perf_counter() - start
        snapshot = service.metrics_snapshot()
    finally:
        service.close()
    return delivered, elapsed, snapshot


def _dump_json(name, rows):
    path = os.environ.get("SHARD_BENCH_JSON")
    if not path:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"context": bench_context(SMOKE), name: rows}, handle,
            indent=2, sort_keys=True,
        )
        handle.write("\n")


def test_shard_replay_scaling(benchmark, emit):
    dataset = generate_dataset(CONFIG)
    retweets = dataset.retweets()
    cores = os.cpu_count() or 1

    def measure():
        expected, t_single = _replay_single(dataset, retweets)
        single_rate = len(retweets) / max(t_single, 1e-9)
        rows = [{
            "service": "single", "workers": 0, "events": len(retweets),
            "elapsed_s": t_single, "events_per_s": single_rate,
            "speedup": 1.0, "fanouts_per_event": 0.0,
            "boundary_edge_fraction": 0.0,
        }]
        for n_workers in WORKER_COUNTS:
            delivered, elapsed, snapshot = _replay_sharded(
                n_workers, dataset, retweets
            )
            assert delivered == expected, (
                f"sharded replay at {n_workers} workers diverged from the "
                f"single-process service"
            )
            rate = len(retweets) / max(elapsed, 1e-9)
            counters = snapshot["counters"]
            routed = counters.get("shard.events_routed", 0)
            fanouts = counters.get("shard.cross_shard_fanouts", 0)
            rows.append({
                "service": f"{n_workers} workers", "workers": n_workers,
                "events": len(retweets), "elapsed_s": elapsed,
                "events_per_s": rate, "speedup": rate / single_rate,
                "fanouts_per_event": fanouts / max(routed, 1),
                "boundary_edge_fraction": snapshot["gauges"].get(
                    "shard.boundary_edge_fraction", 0.0
                ),
            })
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    single_rate = rows[0]["events_per_s"]
    rates = {row["workers"]: row["events_per_s"] for row in rows[1:]}
    emit(render_table(
        [
            "service", "events", "elapsed (s)", "events/s", "speedup",
            "fanouts/event", "boundary edge frac",
        ],
        [
            [
                row["service"], row["events"], f"{row['elapsed_s']:.2f}",
                f"{row['events_per_s']:.1f}", f"{row['speedup']:.2f}x",
                f"{row['fanouts_per_event']:.2f}",
                f"{row['boundary_edge_fraction']:.3f}",
            ]
            for row in rows
        ],
        title=f"Sharded replay throughput ({CONFIG.n_users} users, "
              f"{cores} cores)",
    ))
    _dump_json("shard_replay_scaling", rows)

    if not SMOKE:
        if cores >= 4:
            assert rates[4] >= 2.0 * single_rate, (
                f"4-worker replay only {rates[4] / single_rate:.2f}x "
                f"single-process (floor is 2x)"
            )
        else:
            emit(f"4-worker 2x floor skipped: {cores} core(s) < 4 workers")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--smoke" in sys.argv:
        os.environ["SHARD_BENCH_SMOKE"] = "1"
    sys.exit(pytest.main(["-q", __file__]))
