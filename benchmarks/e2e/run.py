"""End-to-end ledger: one workload, served at the 100k-user tier.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S \\
        --trace 0|1 [--smoke] [--json OUT]

Builds (once per checkout) a real SimGraph over a 100k-user synthetic
corpus, warm-boots a service from its snapshot, drives the named
workload through ``AsyncRecommendationServer`` with the bench's own
due-time load driver, checks the outputs, prints every metric by name
with its unit and sample count, and ends with one JSON line:
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` repeats the
run under the outside-in tracer and reports the per-layer metrics.

See README.md beside this file for what each workload is for and which
layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {SRC / 'repro'} is missing")
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import tier as tiers  # noqa: E402
import workloads  # noqa: E402
from loadgen import Window, run_window  # noqa: E402
from speedometer import Speedometer  # noqa: E402
from tracer import Tracer  # noqa: E402


def load_manifest() -> dict:
    with open(HERE.parents[1] / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def children_usage() -> tuple[float, float]:
    """(CPU seconds, peak RSS MB) summed over live children (shard workers)."""
    ticks = os.sysconf("SC_CLK_TCK")
    cpu_s = rss_mb = 0.0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            cpu_s += (int(fields[11]) + int(fields[12])) / ticks  # utime, stime
            with open(f"/proc/{child.pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        rss_mb += float(line.split()[1]) / 1024.0
        except OSError:
            pass
    return cpu_s, rss_mb


def end_to_end(
    workload, window: Window, seconds: float, setup_s: float, cpu_s: float,
    rss_mb: float, speeds: dict,
) -> tuple[dict, dict, dict]:
    """Ledger values, the raw readings behind them, and sample counts.

    What the host's speed alone decides — set-up time, CPU cost, a
    drain's rate — reads as on the reference host (see speedometer.py).
    An open loop's rate is its schedule and stays as measured; fractions
    and memory have no speed in them.
    """
    samples = window.samples
    served = [s for s in samples if not s.failed]
    slo_s = workload.slo_s(seconds)
    raw = {
        "setup_s": setup_s,
        "events_per_s": len(served) / window.wall_s,
        "goodput_per_s": sum(s.status == "ok" for s in samples) / window.wall_s,
        "cpu_ms_per_event": cpu_s * 1e3 / len(served),
        "slo_met_fraction": sum(s.latency <= slo_s for s in served) / len(samples),
        "peak_rss_mb": rss_mb,
    }
    rate_speed = 1.0 if workload.open_loop else speeds["window"]
    values = dict(
        raw,
        setup_s=raw["setup_s"] * speeds["setup"],
        events_per_s=raw["events_per_s"] / rate_speed,
        goodput_per_s=raw["goodput_per_s"] / rate_speed,
        cpu_ms_per_event=raw["cpu_ms_per_event"] * speeds["window"],
    )
    counts = dict.fromkeys(values, len(samples))
    counts.update(setup_s=1, peak_rss_mb=1)
    return values, raw, counts


def check_outputs(workload, tier, seed, warmup: Window, window: Window) -> dict:
    """Named pass/fail checks; any failure makes the run incorrect."""
    everything = warmup.samples + window.samples
    checks = {
        "every_request_answered_once": all(
            s.status != "pending" for s in everything
        ),
        "warmup_served": not any(s.failed for s in warmup.samples),
    }
    if workload.calibrated:
        checks["nothing_failed"] = not any(s.failed for s in window.samples)
    else:
        # Only the calibrated ladder may degrade a request.
        checks["all_full_service"] = all(s.status == "ok" for s in window.samples)
    delivered = [
        (rec.user, rec.tweet)
        for s in everything
        if s.status == "ok" and s.kind == "retweet"
        for rec in s.response.notifications
    ]
    checks["something_delivered"] = len(delivered) > 0
    checks["no_duplicate_delivery"] = len(delivered) == len(set(delivered))
    if workload.oracle is not None:
        prefix = everything[: workloads.CHECK_EVENTS]
        checks["digest_equals_oracle"] = workloads.delivery_digest(
            workloads.served_notifications(prefix)
        ) == workloads.oracle_digest(
            workload, tier, seed, [s.request for s in prefix]
        )
    return checks


def run(args, manifest: dict) -> tuple[dict, dict]:
    """One workload run: the result line and the full report."""
    workload = workloads.BY_NAME[args.workload]
    tier = tiers.ensure_tier(tiers.SMOKE if args.smoke else tiers.FULL)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    speedometer = Speedometer()
    speedometer.start()
    try:
        setup_started = time.monotonic()
        prepared = workloads.prepare(workload, tier, args.seed, args.seconds, tracer)
        setup_ended = time.monotonic()
        service = prepared.booted.service
        try:
            if tracer is not None and workload.shards:
                tracer.time_pipes()
            before = service.metrics_snapshot()
            cpu_before = time.process_time() + children_usage()[0]
            window = run_window(
                service, prepared.requests, prepared.due, prepared.serve_config
            )
            children_cpu, children_rss = children_usage()
            cpu_s = time.process_time() + children_cpu - cpu_before
            after = service.metrics_snapshot()
            rss_mb = tiers.peak_rss_mb() + children_rss
        finally:
            workloads.close(service)
    finally:
        speedometer.stop()
        if tracer is not None:
            tracer.uninstall()
    speeds = {
        "setup": speedometer.speed(setup_started, setup_ended),
        "window": speedometer.speed(window.t0, window.t0 + window.wall_s),
    }

    checks = check_outputs(workload, tier, args.seed, prepared.warmup, window)
    values, raw, counts = end_to_end(
        workload, window, args.seconds, setup_ended - setup_started, cpu_s,
        rss_mb, speeds,
    )
    report = {
        "workload": workload.name,
        "context": tiers.context(
            workloads.service_config(workload), args.seed, args.smoke, tier
        ),
        "seconds": args.seconds,
        "sent": len(window.samples),
        "statuses": {
            status: sum(s.status == status for s in window.samples)
            for status in ("ok", "degraded", "shed", "error")
        },
        "wall_s": window.wall_s,
        "host_speed": speeds,
        "checks": checks,
        "window_digest": workloads.delivery_digest(
            workloads.served_notifications(window.samples)
        ),
        "end_to_end": values,
        "end_to_end_raw": raw,
        "samples": counts,
    }
    section = "end_to_end"
    if tracer is not None:
        section = "per_layer"
        report["per_layer"] = layers.per_layer(
            workload, tier, prepared, window,
            tracer.window(window.t0, window.t0 + window.wall_s), tracer,
            before, after,
            layers.time_persistence(tier.snapshot, tiers.CACHE_ROOT),
            speeds["window"],
        )
        trace_path = tiers.CACHE_ROOT / f"trace-{workload.name}.json"
        tracer.dump(trace_path)
        report["trace_json"] = str(trace_path)
    result = {
        "correct": all(checks.values()),
        "attempted": len(window.samples),
        "failed": sum(s.failed for s in window.samples),
        "metrics": {
            m["name"]: {"value": report[section][m["name"]], "unit": m["unit"]}
            for m in manifest[section]
        },
    }
    for name, metric in result["metrics"].items():
        if not math.isfinite(metric["value"]):
            raise ValueError(f"metric {name} is not finite: {metric['value']}")
    return result, report


def print_report(report: dict, manifest: dict) -> None:
    units = {
        m["name"]: m["unit"]
        for m in manifest["end_to_end"] + manifest["per_layer"]
    }
    ctx = report["context"]
    built = ctx["tier"]
    print(
        f"workload {report['workload']}  seed {ctx['seed']}  "
        f"tier {built['n_users']} users / {built['simgraph_edges']} edges  "
        f"(built once per checkout: corpus {built['corpus_s']:.1f}s, "
        f"SimGraph {built['build_s']:.1f}s, peak {built['build_peak_rss_mb']:.0f} MB)"
    )
    print(
        f"python {ctx['python']}  numpy {ctx['numpy']}  scipy {ctx['scipy']}  "
        f"numba {ctx['numba']}  cpus {ctx['cpu_count']}  git {ctx['git_sha']}  "
        f"backends {ctx['build_backend']}/{ctx['prop_backend']}"
        f"->{ctx['prop_backend_resolved']}  smoke {ctx['smoke']}"
    )
    print(f"sent {report['sent']}  statuses {report['statuses']}  "
          f"wall {report['wall_s']:.3f}s  digest {report['window_digest'][:16]}")
    print("host speed (1.0 = reference host): "
          + "  ".join(f"{k} {v:.3f}" for k, v in report["host_speed"].items()))
    for name, passed in report["checks"].items():
        print(f"check {name}: {'ok' if passed else 'FAILED'}")
    note = "  (traced run: not a ledger value)" if "per_layer" in report else ""
    for name, value in report["end_to_end"].items():
        print(f"{name} = {value:.6g} {units[name]}  "
              f"[as measured {report['end_to_end_raw'][name]:.6g}, "
              f"n={report['samples'][name]}]{note}")
    for name, value in report.get("per_layer", {}).items():
        print(f"{name} = {value:.6g} {units[name]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="5k-user tier: same metric names, CI-sized")
    parser.add_argument("--json", type=Path, help="also write the full report here")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    manifest = load_manifest()
    result, report = run(args, manifest)
    print_report(report, manifest)
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
