"""Where one in-window delta maintenance spends its pause (opt-in).

    python benchmarks/bench_maintain_pause.py --label change
    python benchmarks/bench_maintain_pause.py --label parent --repo /path/to/parent

The ``maintain`` ledger workload comes due for maintenance once per
window, 720 retweets after the last one.  This bench boots that very
workload (``benchmarks/e2e``'s ``tier`` / ``workloads``, imported
unchanged) and absorbs the 719 pre-maintenance events by direct
``service.retweet`` calls.

The ``handoff`` row (on a checkout whose service forks clock-triggered
maintenance) then drives the 720th event and the ones after it at the
workload's 120 events/s until the forked job is adopted, and records
what the serving thread paid — the stall at the due event (the fork)
and at the adopting event (load, install, invalidation; any wait for a
late child) — beside the child's wall time, its CPU
(``RUSAGE_CHILDREN``), its peak RSS and the due-to-adopt wall time.

The ``main`` and ``thread`` rows time one explicit ``service.rebuild()``
— the synchronous job, which is what the due event ran before the
handoff — once on the main thread, once on a fresh worker thread whose
malloc arena is cold, each in a process of its own, split into the
four stages of the job:

* ``affected_region`` — dirty sets to core / fringe / needed pairs;
* ``core_state``      — restricted incidence, masked Gram, core rows;
* ``copy_surgery``    — the rest of ``apply_delta``: old rows read from
  the compiled arrays, row swaps, fringe surgery and the splice (a dict
  graph copy instead, on a checkout that still keeps one);
* ``csr_refresh``     — bringing the compiled CSR up to date and making
  the engine over it (``RecommendationService._install``, or
  ``_make_engine`` on such a checkout).

Each stage carries ``resource.getrusage(RUSAGE_THREAD)`` minor faults
and system time beside its wall time: on a cold arena a page fault costs
tens of microseconds, so transient megabytes are themselves a stage.

The stages are timed by rebinding module globals from outside (the way
``benchmarks/e2e/tracer.py`` does), so ``--repo`` can point the same
script at a checkout of the parent commit.  One run rewrites its
``--label`` row of ``benchmarks/BENCH_maintain_pause.json`` and leaves
the other rows alone; ``--smoke`` uses the 5k tier and writes nowhere
unless ``--out`` is given.
"""

from __future__ import annotations

import argparse
import inspect
import json
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORD = HERE / "BENCH_maintain_pause.json"
#: Window events absorbed before maintenance comes due (``maintain``
#: rebuilds every 720 simulated steps; the 720th event triggers it).
PRE_EVENTS = 719
STAGES = ("affected_region", "core_state", "copy_surgery", "csr_refresh")
#: The ``maintain`` workload's arrival rate (events per wall second).
RATE = 120.0
MODES = ("main", "thread", "handoff")


def _usage() -> tuple[float, int, float]:
    ru = resource.getrusage(resource.RUSAGE_THREAD)
    return time.perf_counter(), ru.ru_minflt, ru.ru_stime


class StageClock:
    """Wall ms, minor faults and system ms of named calls, accumulated."""

    def __init__(self) -> None:
        self.totals: dict[str, list[float]] = {}

    def wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            started = _usage()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = _usage()
                total = self.totals.setdefault(name, [0.0, 0, 0.0])
                total[0] += (ended[0] - started[0]) * 1e3
                total[1] += ended[1] - started[1]
                total[2] += (ended[2] - started[2]) * 1e3

        return timed

    def row(self, name: str) -> dict:
        wall, faults, system = self.totals.get(name, (0.0, 0, 0.0))
        return {"wall_ms": wall, "minor_faults": int(faults), "system_ms": system}


def measure(repo: Path, mode: str, seed: int, smoke: bool) -> dict | None:
    """Boot ``maintain``, absorb the pre-maintenance events, time one
    maintenance (None: ``handoff`` on a checkout without one)."""
    sys.path[:0] = [str(repo / "src"), str(repo / "benchmarks" / "e2e")]
    import tier as tiers
    import workloads

    import repro.core.delta as delta_module
    import repro.service.engine as engine_module
    from repro.core.csr import CSRSimGraph

    if mode == "handoff" and not hasattr(engine_module, "ADOPTION_LAG"):
        return None
    workload = workloads.BY_NAME["maintain"]
    tier = tiers.ensure_tier(tiers.SMOKE if smoke else tiers.FULL)
    prepared = workloads.prepare(workload, tier, seed, seconds=10.0)
    service = prepared.booted.service
    for request in prepared.requests[:PRE_EVENTS]:
        service.retweet(request.user, request.tweet, request.at)
    assert service.stats.rebuilds == 2, "maintenance fired before it was due"
    if mode == "handoff":
        try:
            return handoff(service, prepared.requests[PRE_EVENTS:])
        finally:
            workloads.close(service)

    clock = StageClock()
    engine_module.affected_region = clock.wrap(
        "affected_region", engine_module.affected_region
    )
    delta_module._vectorized_core_state = clock.wrap(
        "core_state", delta_module._vectorized_core_state
    )
    engine_module.apply_delta = clock.wrap("apply_delta", engine_module.apply_delta)
    refresh = "_install" if hasattr(service, "_install") else "_make_engine"
    setattr(service, refresh, clock.wrap("csr_refresh", getattr(service, refresh)))
    reports = []
    apply_delta = service._apply_delta

    def reporting_apply_delta(*args):
        reports.append(apply_delta(*args))
        return reports[-1]

    service._apply_delta = reporting_apply_delta
    rebuild = clock.wrap("rebuild", service.rebuild)

    before = service.metrics_snapshot()["counters"]
    if mode == "thread":
        worker = threading.Thread(target=rebuild)
        worker.start()
        worker.join()
    else:
        rebuild()
    after = service.metrics_snapshot()["counters"]
    assert service.stats.rebuilds == 3

    stages = {name: clock.row(name) for name in STAGES}
    whole = clock.row("apply_delta")
    stages["copy_surgery"] = {
        key: whole[key] - stages["core_state"][key] for key in whole
    }
    _, report = reports[0]
    row = {
        "mode": mode,
        "rebuild": clock.row("rebuild"),
        "stages": stages,
        "core_users": report.core_size,
        "fringe_users": report.fringe_size,
        "rows_changed": len(report.changed_users),
        "topology_changed": bool(report.topology_changed),
        "counters": {
            name: after[name] - before.get(name, 0)
            for name in sorted(after)
            if name.startswith(("maintenance.", "propagation.csr_"))
            and after[name] != before.get(name, 0)
        },
    }
    if mode == "main":
        row["weights_only_refresh_ms"] = weights_only_refresh(
            CSRSimGraph, service.simgraph, sorted(report.changed_users)
        )
    return row


def handoff(service, requests: list) -> dict:
    """Drive the due event and the ones after it at ``RATE`` until the
    forked job is adopted; what each side of the handoff cost."""
    def read() -> tuple[dict, dict, dict]:
        snapshot = service.metrics_snapshot()
        return (
            snapshot["counters"], snapshot["gauges"], snapshot["histograms"],
        )

    def total(histograms: dict, name: str) -> float:
        return histograms.get(name, {}).get("total", 0.0)

    counters, _, histograms = read()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    children_cpu = usage.ru_utime + usage.ru_stime
    stalls = [total(histograms, "maintenance.stall_seconds")]
    started = time.perf_counter()
    adopted_at = None
    for i, request in enumerate(requests):
        delay = started + i / RATE - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        service.retweet(request.user, request.tweet, request.at)
        if i == 0:
            assert service._job is not None, "maintenance did not start"
            stalls.append(total(read()[2], "maintenance.stall_seconds"))
        elif service._job is None:
            adopted_at = time.perf_counter()
            break
    assert adopted_at is not None, "the job was not adopted in the window"
    after, gauges, after_histograms = read()
    stalls.append(total(after_histograms, "maintenance.stall_seconds"))
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "mode": "handoff",
        "stall_at_start_ms": (stalls[1] - stalls[0]) * 1e3,
        "stall_at_adoption_ms": (stalls[2] - stalls[1]) * 1e3,
        "child_wall_ms": (
            total(after_histograms, "service.rebuild_seconds[delta]")
            - total(histograms, "service.rebuild_seconds[delta]")
        ) * 1e3,
        "child_cpu_ms": (usage.ru_utime + usage.ru_stime - children_cpu) * 1e3,
        "child_peak_rss_mb": gauges.get("maintenance.child_peak_rss_mb", 0.0),
        "due_to_adopt_ms": (adopted_at - started) * 1e3,
        "events_to_adopt": i,
        "counters": {
            name: after[name] - counters.get(name, 0)
            for name in sorted(after)
            if name.startswith(("maintenance.", "propagation.csr_"))
            and after[name] != counters.get(name, 0)
        },
    }


def weights_only_refresh(csr_class, simgraph, changed: list[int]) -> dict:
    """Splicing the real run's changed rows into the compiled graph of
    the refreshed one (best of three): given the rows as a mapping, or,
    on a checkout whose splice reads them from a dict graph, given that
    graph."""
    compiled = csr_class.from_simgraph(simgraph)
    takes_rows = "rows" in inspect.signature(compiled.splice).parameters
    args = (compiled.rows(changed),) if takes_rows else (simgraph, changed)
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        assert compiled.splice(*args)
        best = min(best, (time.perf_counter() - started) * 1e3)
    return {"splice": best}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path, default=HERE.parent,
                        help="checkout whose src/ and benchmarks/e2e/ are measured")
    parser.add_argument("--label", default="change",
                        help="row of the record this run rewrites")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, help="record to rewrite")
    parser.add_argument("--mode", choices=MODES,
                        help="(internal) measure one mode, print its row")
    args = parser.parse_args()
    repo = args.repo.resolve()
    if args.mode is not None:
        print(json.dumps(measure(repo, args.mode, args.seed, args.smoke)))
        return 0

    rows = {}
    for mode in MODES:
        command = [
            sys.executable, __file__, "--repo", str(repo), "--mode", mode,
            "--seed", str(args.seed),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(command, capture_output=True, text=True, check=True)
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        if row is None:
            continue
        rows[mode] = row
        if mode == "handoff":
            print(f"{args.label:>7} {mode:>7}: stall {row['stall_at_start_ms']:6.1f} ms "
                  f"at the fork, {row['stall_at_adoption_ms']:6.1f} ms at adoption; "
                  f"child {row['child_wall_ms']:6.1f} ms wall, "
                  f"{row['child_cpu_ms']:6.1f} ms CPU, "
                  f"{row['child_peak_rss_mb']:6.1f} MB peak; "
                  f"due -> adopt {row['due_to_adopt_ms']:7.1f} ms")
            continue
        rebuild = row["rebuild"]
        print(f"{args.label:>7} {mode:>7}: rebuild {rebuild['wall_ms']:8.1f} ms  "
              f"{rebuild['minor_faults']:6d} faults  sys {rebuild['system_ms']:6.1f} ms")
        for name, stage in row["stages"].items():
            print(f"{'':>16} {name:<16} {stage['wall_ms']:8.1f} ms  "
                  f"{stage['minor_faults']:6d} faults")

    out = args.out if args.out is not None else (None if args.smoke else RECORD)
    if out is None:
        return 0
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    from conftest import bench_context

    record = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    record.setdefault("rows", {})[args.label] = {
        "seed": args.seed,
        "context": bench_context(args.smoke),
        "measured_sha": subprocess.run(
            ["git", "-C", str(repo), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        ).stdout.strip() or None,
        **rows,
    }
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
