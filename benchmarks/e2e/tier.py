"""The corpus tier every workload serves from, and the bench's context.

One tier = one synthetic corpus streamed by ``ChunkedGenerator``, the
*real* SimGraph built from it (``SimGraphBuilder`` over the retweet
profiles — not the follow-topology stand-in ``bench_scale_build.py``
persists) saved as a format-v2 snapshot, plus the follow / retweet
columns the ``maintain`` workload replays as history.

The driver runs one workload per process and many processes per
checkout, so the artefacts are built once per checkout into
``.bench_build/e2e/`` and memory-mapped by every later run.  The build
runs in a subprocess of its own: its ~1.8 GB peak would otherwise be
charged to the ``peak_rss_mb`` of whichever workload ran first.

The corpus seed is fixed: ``--seed`` drives what the *service* receives
(live tweets, their authors, the request stream), while the corpus is
the deployment the requests land on — and 45 s of build per seed does
not fit the driver's time cap.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[2]
CACHE_ROOT = REPO_ROOT / ".bench_build" / "e2e"

#: Seed of the corpus itself (see module docstring).
CORPUS_SEED = 42
#: Similarity threshold of the tier's SimGraph (the paper's τ).
TAU = 0.001


@dataclass(frozen=True)
class TierSpec:
    """Size of one tier; ``name`` keys the on-disk cache."""

    name: str
    n_users: int
    #: Live tweets posted and primed at service boot (the request pool).
    live_tweets: int


FULL = TierSpec("full", n_users=100_000, live_tweets=2_000)
#: Same pipeline, CI-sized: every metric name, none of the numbers.
SMOKE = TierSpec("smoke", n_users=5_000, live_tweets=200)


@dataclass
class Tier:
    """A built tier, loaded for one run."""

    spec: TierSpec
    snapshot: Path
    #: Build-time facts recorded once per checkout (``meta.json``).
    meta: dict
    follow_src: np.ndarray
    follow_dst: np.ndarray
    rt_users: np.ndarray
    rt_tweets: np.ndarray
    #: Users the workloads draw retweeters from (see ``build_tier``).
    retweeters: np.ndarray


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_tier(spec: TierSpec, out_dir: Path) -> dict:
    """Synthesize the corpus, build its SimGraph, persist both."""
    from repro.core.persistence import load_simgraph, save_simgraph
    from repro.core.profiles import RetweetProfiles
    from repro.core.simgraph import SimGraphBuilder
    from repro.synth import ChunkedGenerator, SynthConfig

    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    dataset = ChunkedGenerator(
        SynthConfig(
            n_users=spec.n_users,
            max_tweets_per_user=8,
            discovery_mean=2.0,
            seed=CORPUS_SEED,
        )
    ).to_columnar()
    corpus_s = time.perf_counter() - started

    rt_users, rt_tweets, _ = dataset.retweet_arrays()
    started = time.perf_counter()
    profiles = RetweetProfiles.from_arrays(rt_users, rt_tweets)
    simgraph = SimGraphBuilder(tau=TAU, backend="vectorized").build(
        dataset.follow_graph, profiles
    )
    build_s = time.perf_counter() - started

    started = time.perf_counter()
    save_simgraph(simgraph, out_dir / "graph.simgraph", format=2)
    save_s = time.perf_counter() - started

    # SimGraph reach (how many users name u as an influencer) is heavy
    # tailed: 1% of the graph's users hold 32% of it, and one of them
    # landing early on the hottest live tweet moved candidates/event 2x
    # from seed to seed.  Retweeters are drawn from everyone else, so
    # that seeds change the inputs without changing their difficulty.
    user_ids = dataset.user_ids
    graph_users, _, influencers, _ = load_simgraph(
        out_dir / "graph.simgraph", mmap=True
    ).arrays()
    reach = np.zeros(spec.n_users, dtype=np.int64)
    reach[graph_users] = np.bincount(influencers, minlength=len(graph_users))
    cutoff = np.percentile(reach[graph_users], 99)
    np.savez(
        out_dir / "columns.npz",
        follow_src=np.repeat(user_ids, np.diff(dataset.follow_indptr)),
        follow_dst=user_ids[dataset.follow_targets],
        rt_users=rt_users,
        rt_tweets=rt_tweets,
        retweeters=user_ids[reach <= cutoff],
    )
    meta = {
        "n_users": spec.n_users,
        "tweets": dataset.tweet_count,
        "retweets": dataset.retweet_count,
        "follow_edges": int(len(dataset.follow_targets)),
        "simgraph_nodes": simgraph.node_count,
        "simgraph_edges": simgraph.edge_count,
        "corpus_s": corpus_s,
        "build_s": build_s,
        "save_s": save_s,
        "build_peak_rss_mb": peak_rss_mb(),
    }
    with open(out_dir / "meta.json", "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return meta


def ensure_tier(spec: TierSpec) -> Tier:
    """Load the tier from the checkout's cache, building it on a miss."""
    tier_dir = CACHE_ROOT / f"tier-{spec.name}-{spec.n_users}"
    if not (tier_dir / "meta.json").exists():
        CACHE_ROOT.mkdir(parents=True, exist_ok=True)
        staging = CACHE_ROOT / f"{tier_dir.name}.{os.getpid()}.tmp"
        subprocess.run(
            [sys.executable, __file__, "--tier", spec.name, "--out", str(staging)],
            check=True,
            stdout=sys.stderr,
        )
        try:
            os.rename(staging, tier_dir)
        except OSError:
            # A concurrent run published the same tier first; use theirs.
            shutil.rmtree(staging, ignore_errors=True)
    with open(tier_dir / "meta.json", encoding="utf-8") as handle:
        meta = json.load(handle)
    with np.load(tier_dir / "columns.npz") as columns:
        return Tier(
            spec=spec,
            snapshot=tier_dir / "graph.simgraph",
            meta=meta,
            follow_src=columns["follow_src"],
            follow_dst=columns["follow_dst"],
            rt_users=columns["rt_users"],
            rt_tweets=columns["rt_tweets"],
            retweeters=columns["retweeters"],
        )


def bench_config(**overrides):
    """The one ``ServiceConfig`` every workload derives from.

    Asks for the fastest interpreted stack (``prop_backend="auto"``,
    ``backend="vectorized"``) but only through knobs and choices the
    checked-out ``ServiceConfig`` still has: ROADMAP item 2 deletes
    backends while these files are frozen, and a removed knob must fall
    back to the default instead of breaking the ledger.
    """
    from repro.exceptions import ConfigError
    from repro.service import ServiceConfig

    known = {f.name for f in dataclasses.fields(ServiceConfig)}
    wanted = {"prop_backend": "auto", "backend": "vectorized", **overrides}
    kwargs = {}
    for key, value in wanted.items():
        if key not in known:
            continue
        try:
            ServiceConfig(**{key: value})
        except ConfigError:
            continue
        kwargs[key] = value
    return ServiceConfig(**kwargs)


def context(config, seed: int, smoke: bool, tier: Tier) -> dict:
    """Hardware / software context recorded beside every result."""
    import scipy

    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    try:
        sha = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # the driver's checkout is not a git repository
    resolved = getattr(config, "prop_backend", None)
    try:
        from repro.core.propagation_kernel import resolve_prop_backend

        resolved = resolve_prop_backend(resolved)
    except (ImportError, TypeError, ValueError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": numba_version,
        "git_sha": sha,
        "build_backend": getattr(config, "backend", None),
        "prop_backend": getattr(config, "prop_backend", None),
        "prop_backend_resolved": resolved,
        "seed": seed,
        "corpus_seed": CORPUS_SEED,
        "smoke": smoke,
        "tier": dict(tier.meta),
    }


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tier", choices=[FULL.name, SMOKE.name], required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(REPO_ROOT / "src"))
    spec = FULL if args.tier == FULL.name else SMOKE
    meta = build_tier(spec, args.out)
    print(json.dumps(meta, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(_main())
