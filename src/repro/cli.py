"""Command-line interface.

Eight subcommands cover the library's workflow::

    simgraph generate --users 1000 --seed 42 --out data/
    simgraph import --edges follow.txt --retweets rts.csv --out data/
    simgraph analyze data/                    # Table 1, Figs 2-4 summary
    simgraph build-simgraph data/ --tau 0.001 # Table 4 summary
    simgraph evaluate data/ --methods simgraph,cf --k 10,30
    simgraph maintain data/ --rebuild-strategy delta  # Fig 16 update cost
    simgraph serve data/ --split 0.9          # micro-batched replay
    simgraph loadgen --rate 500 --calibrate   # open-loop load + admission

(Installed as ``simgraph`` via the project entry point; also runnable as
``python -m repro.cli``.)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from repro.core import (
    PROP_BACKENDS,
    RetweetProfiles,
    SimGraphBuilder,
    SimGraphRecommender,
)
from repro.core.update import STRATEGIES
from repro.baselines import (
    BayesRecommender,
    CollaborativeFilteringRecommender,
    GraphJetRecommender,
    Recommender,
)
from repro.data import (
    assemble_dataset,
    compute_dataset_stats,
    load_dataset,
    load_edge_list,
    load_retweet_csv,
    save_dataset,
    temporal_split,
)
from repro.eval import evaluate_sweep, run_replay, select_target_users
from repro.obs import MetricsRegistry, render_report
from repro.synth import SynthConfig, generate_dataset
from repro.utils.tables import render_table

__all__ = ["main", "build_parser"]

METHODS = {
    "simgraph": SimGraphRecommender,
    "cf": CollaborativeFilteringRecommender,
    "bayes": BayesRecommender,
    "graphjet": GraphJetRecommender,
}


def _add_prop_backend(command: argparse.ArgumentParser) -> None:
    """The one ``--prop-backend`` flag of evaluate / serve / loadgen."""
    command.add_argument(
        "--prop-backend",
        choices=PROP_BACKENDS,
        default="csr",
        help="propagation backend of the SimGraph engine: "
        "'csr' (default; compiled numpy arrays) or 'reference' (the "
        "Alg. 1 oracle, a pure-Python frontier loop) — identical "
        "results on both",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="simgraph",
        description="SimGraph: homophily-based post recommendation (EDBT 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("--users", type=int, default=1000)
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--communities", type=int, default=12)
    gen.add_argument("--out", required=True, help="output directory")

    imp = sub.add_parser(
        "import", help="import an edge list + retweet CSV as a dataset"
    )
    imp.add_argument("--edges", required=True, help="follow edge-list file")
    imp.add_argument("--retweets", required=True, help="retweet CSV file")
    imp.add_argument("--out", required=True, help="output directory")

    ana = sub.add_parser("analyze", help="characterize a dataset (Table 1)")
    ana.add_argument("dataset", help="dataset directory")
    ana.add_argument("--path-sample", type=int, default=150)

    build = sub.add_parser("build-simgraph", help="build and summarize a SimGraph")
    build.add_argument("dataset", help="dataset directory")
    build.add_argument("--tau", type=float, default=0.001)
    build.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="collect build metrics, print an ASCII report and write the "
        "JSON snapshot to PATH",
    )
    build.add_argument(
        "--save-snapshot", default=None, metavar="PATH",
        help="persist the built SimGraph to PATH (atomic write)",
    )

    ev = sub.add_parser("evaluate", help="replay-evaluate recommenders")
    ev.add_argument("dataset", help="dataset directory")
    ev.add_argument(
        "--methods",
        default="simgraph,cf,bayes,graphjet",
        help="comma-separated subset of: " + ",".join(METHODS),
    )
    ev.add_argument("--k", default="10,20,30,50,100,200",
                    help="comma-separated top-k values")
    ev.add_argument("--per-stratum", type=int, default=200)
    ev.add_argument("--seed", type=int, default=0)
    _add_prop_backend(ev)
    ev.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="collect replay/propagation/budget metrics, print an ASCII "
        "report and write the JSON snapshot to PATH",
    )

    mnt = sub.add_parser(
        "maintain",
        help="absorb a stream delta into a prebuilt SimGraph (Figure 16)",
    )
    mnt.add_argument("dataset", help="dataset directory")
    mnt.add_argument(
        "--rebuild-strategy",
        choices=sorted(STRATEGIES),
        default="delta",
        help="update strategy applied to the delta window; 'delta' is "
        "the scoped engine (from-scratch-identical edges at a fraction "
        "of the cost)",
    )
    mnt.add_argument("--tau", type=float, default=0.001)
    mnt.add_argument(
        "--window", default="0.90,0.95", metavar="LO,HI",
        help="delta window as fractions of the full stream; the base "
        "SimGraph is built on the 90%% train slice",
    )
    mnt.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="collect maintenance metrics, print an ASCII report and "
        "write the JSON snapshot to PATH",
    )

    srv = sub.add_parser(
        "serve",
        help="replay a dataset's stream through the micro-batching "
        "asyncio front-end",
    )
    srv.add_argument("dataset", help="dataset directory")
    srv.add_argument(
        "--split", type=float, default=0.9, metavar="F",
        help="fraction of the retweet stream absorbed as history before "
        "the SimGraph build; the rest replays through the server",
    )
    srv.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="replay at most N live events (default: the whole tail)",
    )
    srv.add_argument("--max-batch", type=int, default=32,
                     help="micro-batch size cap")
    srv.add_argument(
        "--admit-rate", type=float, default=None, metavar="EPS",
        help="token-bucket refill rate in events/sec (default: admission "
        "disabled — every request takes the full path)",
    )
    _add_prop_backend(srv)
    srv.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="print the obs report and write the JSON snapshot to PATH",
    )

    lg = sub.add_parser(
        "loadgen",
        help="open-loop load generation against a synthetic-primed server",
    )
    lg.add_argument("--users", type=int, default=400)
    lg.add_argument("--live-tweets", type=int, default=120)
    lg.add_argument("--events", type=int, default=1000)
    lg.add_argument("--seed", type=int, default=7)
    lg.add_argument(
        "--rate", type=float, default=500.0, metavar="EPS",
        help="offered arrival rate in events/sec",
    )
    lg.add_argument(
        "--profile", choices=["steady", "burst"], default="steady",
        help="arrival shape; 'burst' spends --burst-length seconds at "
        "--burst-rate every --burst-every seconds",
    )
    lg.add_argument("--burst-rate", type=float, default=None, metavar="EPS",
                    help="in-burst arrival rate (default: 4x --rate)")
    lg.add_argument("--burst-every", type=float, default=10.0, metavar="S")
    lg.add_argument("--burst-length", type=float, default=2.0, metavar="S")
    lg.add_argument("--max-batch", type=int, default=32)
    lg.add_argument(
        "--calibrate", action="store_true",
        help="measure the worker's closed-loop saturation first and "
        "calibrate token-bucket admission + degradation thresholds from "
        "the capacity model for --slo (default: admission disabled)",
    )
    lg.add_argument(
        "--slo", type=float, default=0.25, metavar="S",
        help="p99 latency target used by --calibrate",
    )
    _add_prop_backend(lg)
    lg.add_argument(
        "--no-scheduler", action="store_true",
        help="propagate per retweet instead of per delayed tweet batch",
    )
    lg.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the run report (statuses, exact percentiles, "
        "throughput) as JSON to PATH",
    )
    lg.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="print the obs report and write the JSON snapshot to PATH",
    )
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    config = SynthConfig(
        n_users=args.users, seed=args.seed, n_communities=args.communities
    )
    dataset = generate_dataset(config)
    path = save_dataset(dataset, args.out)
    print(f"wrote {dataset!r} to {path}")
    return 0


def _cmd_import(args: argparse.Namespace) -> int:
    dataset = assemble_dataset(
        load_edge_list(args.edges), load_retweet_csv(args.retweets)
    )
    path = save_dataset(dataset, args.out)
    print(f"imported {dataset!r} to {path}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    stats = compute_dataset_stats(dataset, path_sample_size=args.path_sample)
    print(render_table(["feature", "value"], stats.table1_rows(), title="Table 1"))
    print()
    print(render_table(
        ["retweets", "tweets"], stats.retweets_per_tweet_binned,
        title="Retweets per tweet (Figure 2)",
    ))
    survival = ", ".join(
        f"{frac:.0%} dead before {cp:.0f}h"
        for cp, frac in stats.lifetime_survival.items()
    )
    print(f"\nLifetime: {survival}")
    return 0


def _write_metrics(registry: MetricsRegistry, path: str) -> None:
    """Print the ASCII metrics report and dump the snapshot to ``path``."""
    print()
    print(render_report(registry))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(registry.snapshot(), handle, sort_keys=True, indent=2)
        handle.write("\n")
    print(f"\nwrote metrics snapshot to {path}")


def _cmd_build_simgraph(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    profiles = RetweetProfiles(dataset.retweets())
    registry = MetricsRegistry() if args.metrics_json else None
    builder = SimGraphBuilder(tau=args.tau, metrics=registry)
    simgraph = builder.build(dataset.follow_graph, profiles)
    print(render_table(
        ["feature", "value"], simgraph.table4_rows(),
        title=f"SimGraph (tau={args.tau})",
    ))
    if args.save_snapshot:
        from repro.core.persistence import save_simgraph

        save_simgraph(simgraph, args.save_snapshot)
        print(f"saved snapshot to {args.save_snapshot}")
    if registry is not None:
        _write_metrics(registry, args.metrics_json)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    names = [m.strip() for m in args.methods.split(",") if m.strip()]
    unknown = [m for m in names if m not in METHODS]
    if unknown:
        print(f"unknown methods: {', '.join(unknown)}", file=sys.stderr)
        return 2
    k_values = [int(k) for k in args.k.split(",")]
    split = temporal_split(dataset)
    targets = select_target_users(
        split.train, per_stratum=args.per_stratum, seed=args.seed
    )
    registry = MetricsRegistry() if args.metrics_json else None
    recommenders: list[Recommender] = [
        METHODS[name](prop_backend=args.prop_backend, metrics=registry)
        if name == "simgraph"
        else METHODS[name]()
        for name in names
    ]
    rows = []
    for recommender in recommenders:
        result = run_replay(
            recommender, dataset, split.train, split.test, targets.all_users,
            metrics=registry,
        )
        metrics = evaluate_sweep(
            result, k_values, dataset.popularity, metrics=registry
        )
        for m in metrics:
            rows.append([
                recommender.name, m.k, m.hits, round(m.precision, 5),
                round(m.recall, 4), round(m.f1, 5),
                round(m.recs_per_user_day, 2),
            ])
    print(render_table(
        ["method", "k", "hits", "precision", "recall", "F1", "recs/day/user"],
        rows, title="Replay evaluation",
    ))
    if registry is not None:
        _write_metrics(registry, args.metrics_json)
    return 0


def _cmd_maintain(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    split = temporal_split(dataset)
    try:
        lo, hi = (float(part) for part in args.window.split(","))
    except ValueError:
        print(f"bad --window {args.window!r}; expected LO,HI", file=sys.stderr)
        return 2
    extra = split.slice_test(lo, hi)
    registry = MetricsRegistry() if args.metrics_json else None
    builder = SimGraphBuilder(tau=args.tau, metrics=registry)
    profiles = RetweetProfiles(split.train)
    t0 = time.perf_counter()
    old = builder.build(dataset.follow_graph, profiles)
    build_cost = time.perf_counter() - t0
    profiles.mark_clean()
    profiles.extend(extra)
    dirty_users = len(profiles.dirty_users)
    t0 = time.perf_counter()
    refreshed = STRATEGIES[args.rebuild_strategy](
        old, dataset.follow_graph, profiles, builder
    )
    update_cost = time.perf_counter() - t0
    rows = [
        ["events absorbed", len(extra)],
        ["dirty users", dirty_users],
        ["nodes (before -> after)", f"{old.node_count} -> {refreshed.node_count}"],
        ["edges (before -> after)", f"{old.edge_count} -> {refreshed.edge_count}"],
        ["full build cost (s)", round(build_cost, 3)],
        ["update cost (s)", round(update_cost, 3)],
        ["speedup vs full build", f"{build_cost / max(update_cost, 1e-9):.1f}x"],
    ]
    print(render_table(
        ["feature", "value"], rows,
        title=f"Maintenance ({args.rebuild_strategy}, tau={args.tau})",
    ))
    if registry is not None:
        _write_metrics(registry, args.metrics_json)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import (
        PostRequest,
        RetweetRequest,
        ServeConfig,
        serve_stream,
    )
    from repro.service import RecommendationService, ServiceConfig

    if not 0 <= args.split < 1:
        print(f"--split must be in [0, 1), got {args.split}", file=sys.stderr)
        return 2

    dataset = load_dataset(args.dataset)
    events = dataset.retweets()
    split_idx = int(len(events) * args.split)
    cutoff = events[split_idx].time if split_idx < len(events) else float("inf")
    history, tail = events[:split_idx], events[split_idx:]
    if args.limit is not None:
        tail = tail[: args.limit]

    registry = MetricsRegistry()
    service = RecommendationService(
        config=ServiceConfig(prop_backend=args.prop_backend),
        metrics=registry,
    )
    service.follow_graph = dataset.follow_graph.copy()
    # Posts before the cutoff land directly (time-ordered, so the
    # service clock stays monotone); later ones replay through the
    # server as control-plane requests interleaved with retweets.
    pending_posts = []
    for tweet in sorted(
        dataset.tweets.values(), key=lambda t: (t.created_at, t.id)
    ):
        if tweet.created_at < cutoff:
            service.post_tweet(
                tweet_id=tweet.id, author=tweet.author, at=tweet.created_at
            )
        else:
            pending_posts.append(tweet)
    for event in history:
        service.absorb_retweet(event.user, event.tweet)
    service.rebuild("from scratch")

    requests = sorted(
        [
            PostRequest(tweet=t.id, author=t.author, at=t.created_at)
            for t in pending_posts
        ]
        + [
            RetweetRequest(user=e.user, tweet=e.tweet, at=e.time)
            for e in tail
        ],
        key=lambda r: (r.at, isinstance(r, RetweetRequest)),
    )
    config = ServeConfig(
        max_batch=args.max_batch,
        rate=args.admit_rate,
        shed_depth=max(1024, len(requests) + 1),
        degrade_depth=(
            None if args.admit_rate is not None else len(requests) + 1
        ),
    )
    started = time.perf_counter()
    responses = serve_stream(service, requests, config, registry)
    elapsed = time.perf_counter() - started

    statuses: dict[str, int] = {}
    notifications = 0
    for response in responses:
        statuses[response.status] = statuses.get(response.status, 0) + 1
        notifications += len(response.notifications)
    snapshot = registry.snapshot()
    latency = registry.histogram("serve.latency_seconds", timing=True)
    rows = [
        ["history events", len(history)],
        ["live requests", len(requests)],
        ["max batch", args.max_batch],
        ["batches", snapshot["counters"].get("serve.batches", 0)],
        ["notifications", notifications],
        ["wall seconds", round(elapsed, 3)],
        ["events/s", round(len(requests) / elapsed, 1) if elapsed else 0],
        ["p50/p95/p99 (ms, est)",
         " / ".join(
             f"{latency.percentile(q) * 1000:.2f}"
             for q in (0.5, 0.95, 0.99)
         )],
    ]
    for status in sorted(statuses):
        rows.append([f"status: {status}", statuses[status]])
    print(render_table(
        ["feature", "value"], rows,
        title="Serve replay (micro-batched asyncio front-end)",
    ))
    if args.metrics_json:
        _write_metrics(registry, args.metrics_json)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.eval import CapacityModel
    from repro.serve import (
        LoadProfile,
        ServeConfig,
        measure_capacity,
        prime_service,
        run_load,
        synth_requests,
    )
    from repro.service import ServiceConfig

    service_config = ServiceConfig(
        prop_backend=args.prop_backend,
        use_scheduler=not args.no_scheduler,
    )
    if args.profile == "burst":
        profile = LoadProfile.bursty(
            rate=args.rate,
            burst_rate=(
                args.burst_rate if args.burst_rate is not None
                else 4.0 * args.rate
            ),
            burst_every=args.burst_every,
            burst_length=args.burst_length,
        )
    else:
        profile = LoadProfile.steady(rate=args.rate)

    serve_config = ServeConfig(max_batch=args.max_batch)
    calibration = None
    if args.calibrate:
        primed = prime_service(
            config=service_config,
            n_users=args.users,
            live_tweets=args.live_tweets,
            seed=args.seed,
        )
        requests = synth_requests(
            primed, max(200, args.events // 4), seed=args.seed,
            popularity_skew=0.0,
        )
        saturation_eps, _ = measure_capacity(
            primed.service, requests, serve_config
        )
        model = CapacityModel(service_seconds_per_event=1.0 / saturation_eps)
        serve_config = ServeConfig.from_capacity(
            model, slo_p99=args.slo, max_batch=args.max_batch
        )
        calibration = {
            "saturation_events_per_s": round(saturation_eps, 1),
            "admit_rate": round(model.events_per_second, 1),
            "degrade_depth": serve_config.admission().resolved_degrade_depth,
            "shed_depth": serve_config.shed_depth,
        }

    registry = MetricsRegistry()
    primed = prime_service(
        config=service_config,
        n_users=args.users,
        live_tweets=args.live_tweets,
        seed=args.seed,
        metrics=registry,
    )
    schedule = profile.arrival_times(args.events)
    requests = synth_requests(
        primed,
        args.events,
        seed=args.seed,
        burst_flags=[profile.is_burst(t) for t in schedule],
    )
    report = run_load(
        primed.service, requests, profile, serve_config, registry
    )
    summary = report.to_dict()
    rows = [
        ["profile", profile.name],
        ["offered events/s", round(report.offered_rate, 1)],
        ["achieved events/s", round(report.achieved_eps, 1)],
        ["responses / dropped", f"{report.responses} / {report.dropped}"],
    ]
    for status in sorted(summary["statuses"]):
        pct = summary["fractions"][status] * 100
        rows.append([f"status: {status}",
                     f"{summary['statuses'][status]} ({pct:.1f}%)"])
    for status, p in sorted(summary["latency"].items()):
        rows.append([
            f"{status} p50/p95/p99 (ms)",
            " / ".join(f"{p[q] * 1000:.2f}" for q in ("p50", "p95", "p99")),
        ])
    if calibration:
        rows.append(["calibrated admit rate", calibration["admit_rate"]])
        rows.append(["degrade/shed depth",
                     f"{calibration['degrade_depth']} / "
                     f"{calibration['shed_depth']}"])
    print(render_table(
        ["feature", "value"], rows,
        title=f"Load generation ({args.events} events)",
    ))
    if args.out:
        payload = {"profile": profile.name, "report": summary}
        if calibration:
            payload["calibration"] = calibration
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote run report to {args.out}")
    if args.metrics_json:
        _write_metrics(registry, args.metrics_json)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "import": _cmd_import,
        "analyze": _cmd_analyze,
        "build-simgraph": _cmd_build_simgraph,
        "evaluate": _cmd_evaluate,
        "maintain": _cmd_maintain,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
