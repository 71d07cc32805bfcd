"""Per-layer metrics of one traced window.

Counts come from the service's own ``metrics_snapshot()`` (differenced
over the window, so boot and warm-up are excluded), times from the
tracer's spans, latencies from the load driver's samples.  Every name
in ``BENCHMARK.json``'s ``per_layer`` is produced for every workload;
a layer the workload does not touch reads 0.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from loadgen import Window, percentile
from tracer import (
    END, IDENT, NAME, PARENT, START, SpanSet, Tracer, span_cost_s,
)


def _hist_delta(after: dict, before: dict, name: str) -> tuple[float, float]:
    """(observations, summed value) a histogram gained over the window."""
    empty = {"count": 0, "total": 0.0}
    a = after["histograms"].get(name, empty)
    b = before["histograms"].get(name, empty)
    return a["count"] - b["count"], a["total"] - b["total"]


def _obs_span_total(snapshot: dict, name: str) -> float:
    """Seconds under every obs span called ``name``, anywhere in the tree."""
    def walk(nodes):
        return sum(
            (n.get("total_s", 0.0) if n["name"] == name else 0.0)
            + walk(n["children"])
            for n in nodes
        )
    return walk(snapshot["spans"])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct(values, q: float) -> float:
    return percentile(values, q) if len(values) else 0.0


def time_persistence(snapshot_path: Path, scratch_root: Path) -> dict:
    """Fresh save / mmap-load timings of the tier's snapshot."""
    from repro.core.persistence import load_simgraph, save_simgraph

    started = time.perf_counter()
    simgraph = load_simgraph(snapshot_path, mmap=True)
    mmap_load_ms = (time.perf_counter() - started) * 1e3
    with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
        started = time.perf_counter()
        save_simgraph(simgraph, Path(scratch) / "copy.simgraph", format=2)
        save_s = time.perf_counter() - started
    return {"mmap_load_ms": mmap_load_ms, "save_s": save_s}


def per_layer(
    workload, tier, prepared, window: Window, spans: SpanSet, tracer: Tracer,
    before: dict, after: dict, persistence: dict, host_speed: float,
) -> dict:
    """Every per-layer value, as measured (``host.speed`` says on what)."""
    samples = window.samples
    retweets = [s for s in samples if s.kind == "retweet"]
    events = max(1, len(retweets))

    def counter(name: str) -> float:
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    carried = spans.start_by_event(
        "service.ingest_batch", "service.retweet", "service.warm_answer"
    )
    queue_wait = [
        (carried[s.request.at] - window.t0 - s.sent) * 1e3
        for s in retweets
        if s.request.at in carried
    ]
    batch_n, batch_total = _hist_delta(after, before, "serve.batch_size")
    release_n, release_total = _hist_delta(after, before, "scheduler.release_width")
    touched_n, touched_total = _hist_delta(after, before, "propagation.touched")
    frontier_n, frontier_total = _hist_delta(after, before, "propagation.frontier")
    _, merge_total = _hist_delta(after, before, "shard.merge_seconds")

    prop_spans = spans.outermost("propagation.")
    prop_tasks = sum(s[IDENT] or 1 for s in prop_spans)
    # Propagations the write path ran: score reads propagate too, but
    # they are queries, not the events the scheduler coalesces.
    write_tasks = sum(
        s[IDENT] or 1 for s in prop_spans
        if s[PARENT] is not None and s[PARENT][NAME] != "service.score_batch"
    )
    rebuilds = spans.durations_ms("service.rebuild")
    candidates = counter("budget.delivered") + counter("budget.rejections")
    hits, misses = counter("warmcache.hits"), counter("warmcache.misses")
    busy_s = spans.root_total_s("service.")
    retweet_busy = spans.total_s("service.retweet") if workload.shards else 0.0

    served = [s for s in retweets if not s.failed]
    latency = [s.latency * 1e3 for s in served]
    ok = [s.latency * 1e3 for s in served if s.status == "ok"]
    degraded = [s.latency * 1e3 for s in served if s.status == "degraded"]
    scores = [s.latency * 1e3 for s in samples if s.kind == "score" and not s.failed]
    return {
        "simmatrix.edges": tier.meta["simgraph_edges"],
        "build.peak_rss_mb": tier.meta["build_peak_rss_mb"],
        "persistence.save_s": persistence["save_s"],
        "persistence.mmap_load_ms": persistence["mmap_load_ms"],
        "service.boot_s": prepared.boot_s,
        "serve.queue_wait_ms_p50": _pct(queue_wait, 50),
        "serve.queue_wait_ms_p95": _pct(queue_wait, 95),
        "serve.batch_size_mean": _ratio(batch_total, batch_n),
        "serve.batches": counter("serve.batches"),
        "loadgen.late_ms_p99": _pct([(s.sent - s.due) * 1e3 for s in samples], 99),
        "serve.retweet_p50_ms": _pct(latency, 50),
        "serve.retweet_p95_ms": _pct(latency, 95),
        "serve.retweet_p99_ms": _pct(latency, 99),
        "serve.score_p50_ms": _pct(scores, 50),
        "serve.score_p90_ms": _pct(scores, 90),
        "serve.admission.full": counter("serve.admission[full]"),
        "serve.admission.degraded": counter("serve.admission[degraded]"),
        "serve.admission.shed": counter("serve.admission[shed]"),
        "serve.calibrated_eps": prepared.calibrated_eps,
        "serve.ok_p95_ms": _pct(ok, 95),
        "serve.degraded_p50_ms": _pct(degraded, 50),
        "warmcache.hit_ratio": _ratio(hits, hits + misses),
        "service.warm_answers": counter("service.warm_answers"),
        "service.warm_answer_misses": counter("service.warm_answer_misses"),
        "scheduler.coalesce_ratio": _ratio(write_tasks, events),
        "scheduler.postponements": counter("scheduler.postponements"),
        "scheduler.release_width_mean": _ratio(release_total, release_n),
        "propagation.busy_s": sum(s[END] - s[START] for s in prop_spans),
        "propagation.calls": len(prop_spans),
        "propagation.tasks": prop_tasks,
        "propagation.iterations": counter("propagation.iterations"),
        "propagation.touched_per_task": _ratio(touched_total, touched_n),
        "propagation.frontier_mean": _ratio(frontier_total, frontier_n),
        "service.ingest.self_s_per_event": (
            spans.self_s("service.ingest_batch", "service.retweet") / events
        ),
        "deliver.busy_s_per_event": (
            _obs_span_total(after, "budget") - _obs_span_total(before, "budget")
        ) / events,
        "budget.candidates_per_event": candidates / events,
        "budget.useful_ratio": _ratio(counter("budget.delivered"), candidates),
        "maintenance.pause_ms_p50": _pct(rebuilds, 50),
        "maintenance.pause_ms_max": float(rebuilds.max()) if len(rebuilds) else 0.0,
        "maintenance.rebuilds": len(rebuilds),
        "maintenance.affected_users": counter("maintenance.affected_users"),
        "maintenance.rows_recomputed": counter("maintenance.rows_recomputed"),
        "maintenance.rows_patched": counter("maintenance.rows_patched"),
        "maintenance.cache_invalidations": counter("maintenance.cache_invalidations"),
        "shard.fanouts_per_event": counter("shard.cross_shard_fanouts") / events,
        "shard.lockstep_rounds_per_event": counter("shard.lockstep_rounds") / events,
        "shard.solo_grants": counter("shard.solo_grants"),
        "shard.boundary_edge_fraction": after["gauges"].get(
            "shard.boundary_edge_fraction", 0.0
        ),
        "shard.coordinator_self_s": max(0.0, retweet_busy - tracer.pipe_wait_s),
        "shard.worker_wait_s": tracer.pipe_wait_s,
        "shard.merge_s": merge_total,
        "host.speed": host_speed,
        "worker.busy_fraction": busy_s / window.wall_s,
        "trace.spans": len(spans.spans),
        # Recording cost only: spans x the measured cost of an empty one.
        # The measured ratio is trace.events_per_s (or trace.retweet_p50_ms)
        # over the untraced run's value of the same name.
        "trace.overhead_ratio": _ratio(
            busy_s, busy_s - len(spans.spans) * span_cost_s()
        ),
        "trace.events_per_s": (
            sum(not s.failed for s in samples) / window.wall_s
        ),
        "trace.retweet_p50_ms": _pct(latency, 50),
    }
