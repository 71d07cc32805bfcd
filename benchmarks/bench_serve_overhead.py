"""What the asyncio front-end costs per request, over a no-op service (opt-in).

    python benchmarks/bench_serve_overhead.py --label change
    python benchmarks/bench_serve_overhead.py --label parent --repo /path/to/parent

The service answers every retweet with nothing (``ingest_batch`` and
``retweet`` return empty lists), so all that is left is the serving
front-end: admission, the inbox, batching, the handoffs between the
event loop and the worker thread (for requests that queue up; an idle
server runs a lone request on the loop), and resolving the futures.  Each rate
drives a fresh ``AsyncRecommendationServer`` open-loop through
``repro.serve.loadgen.run_open_loop`` (after an untimed warm-up slice on
the same server) and records, per request:

* ``cpu_us``          — process CPU (``time.process_time``, every thread);
* ``loop_cpu_us``     — CPU of the event-loop thread (``time.thread_time``);
* ``voluntary_csw``   — voluntary context switches of the process
  (``getrusage``): each sleep/wake between the two threads is one;
* ``p50_ms``          — median latency, enqueue to answer;
* ``loop_share``      — the share of the window's batches that ran on the
  event loop (``serve.batches[loop]`` over ``serve.batches``).

Each rate is measured ``REPEATS`` times and the medians are kept.  The
script imports ``src/`` of ``--repo``, so the same file measures a
checkout of the parent commit.  One run rewrites its ``--label`` row of
``benchmarks/BENCH_serve_overhead.json`` and leaves the other rows
alone; ``--smoke`` runs short windows once and writes nowhere unless
``--out`` is given, and asserts that at 120 req/s every batch ran on the
loop: requests 8 ms apart over a no-op service never queue.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORD = HERE / "BENCH_serve_overhead.json"
#: Offered rates (requests per wall second): ``steady``'s, and five times it.
RATES = (120.0, 600.0)
#: Measured seconds per window (full, smoke), warm-up requests per window.
SECONDS = {False: 8.0, True: 0.5}
WARMUP = 60
REPEATS = {False: 3, True: 1}


class NoopService:
    """Answers every retweet with no notifications."""

    def ingest_batch(self, events):
        return [[] for _ in events]

    def retweet(self, user, tweet, at):
        return []


def batch_counts(metrics) -> tuple[int, int]:
    """Batches settled so far, and how many of them ran on the loop."""
    counters = metrics.snapshot()["counters"]
    return counters.get("serve.batches", 0), counters.get("serve.batches[loop]", 0)


def window(rate: float, seconds: float) -> dict:
    """Drive one open-loop window at ``rate``; per-request costs."""
    from repro.serve import AsyncRecommendationServer, RetweetRequest
    from repro.serve.loadgen import run_open_loop

    n = int(rate * seconds)
    requests = [
        RetweetRequest(user=i, tweet=0, at=float(i)) for i in range(WARMUP + n)
    ]

    async def run() -> dict:
        async with AsyncRecommendationServer(NoopService()) as server:
            warm = requests[:WARMUP]
            await run_open_loop(server, warm, [i / rate for i in range(WARMUP)], rate)
            batches0 = batch_counts(server.metrics)
            loop0, cpu0 = time.thread_time(), time.process_time()
            csw0 = resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw
            report = await run_open_loop(
                server, requests[WARMUP:], [i / rate for i in range(n)], rate
            )
            loop1, cpu1 = time.thread_time(), time.process_time()
            csw1 = resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw
            batches, on_loop = (
                after - before
                for after, before in zip(batch_counts(server.metrics), batches0)
            )
        assert report.responses == n and not report.dropped, report.to_dict()
        return {
            "requests": n,
            "cpu_us": (cpu1 - cpu0) / n * 1e6,
            "loop_cpu_us": (loop1 - loop0) / n * 1e6,
            "voluntary_csw": (csw1 - csw0) / n,
            "p50_ms": report.percentiles("ok")["p50"] * 1e3,
            "loop_share": on_loop / batches,
        }

    return asyncio.run(run())


def measure(repo: Path, smoke: bool) -> dict:
    sys.path.insert(0, str(repo / "src"))
    rows = {}
    for rate in RATES:
        runs = [window(rate, SECONDS[smoke]) for _ in range(REPEATS[smoke])]
        rows[f"{rate:g}"] = {
            key: statistics.median(run[key] for run in runs) for key in runs[0]
        }
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path, default=HERE.parent,
                        help="checkout whose src/ is measured")
    parser.add_argument("--label", default="change",
                        help="row of the record this run rewrites")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, help="record to rewrite")
    args = parser.parse_args()
    repo = args.repo.resolve()
    rates = measure(repo, args.smoke)
    for rate, row in rates.items():
        print(f"{args.label:>7} {rate:>4}/s: cpu {row['cpu_us']:7.1f} us/req "
              f"(loop {row['loop_cpu_us']:6.1f})  "
              f"{row['voluntary_csw']:5.2f} csw/req  p50 {row['p50_ms']:6.3f} ms  "
              f"loop share {row['loop_share']:.2f}")
    if args.smoke and rates["120"]["loop_share"] != 1.0:
        raise SystemExit(
            f"at 120 req/s {rates['120']['loop_share']:.3f} of batches ran "
            "on the loop; an idle server must run every lone request there"
        )

    out = args.out if args.out is not None else (None if args.smoke else RECORD)
    if out is None:
        return 0
    sys.path.insert(0, str(HERE))
    from conftest import bench_context

    record = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    record.setdefault("rows", {})[args.label] = {
        "context": bench_context(args.smoke),
        "measured_sha": subprocess.run(
            ["git", "-C", str(repo), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        ).stdout.strip() or None,
        "rates": rates,
    }
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
