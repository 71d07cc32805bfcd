"""Paper-scale corpus build + snapshot persistence (ROADMAP item 1).

The paper's crawl is 2.2M users; the columnar stack exists so a corpus
of that order fits on one machine.  This bench exercises the whole
scale path per tier:

1. **chunked synthesis** — :class:`~repro.synth.stream.ChunkedGenerator`
   streams the retweet log in time-ordered windows; the full corpus is
   assembled into a :class:`~repro.data.TwitterDataset`, whose columns
   and follow CSR are the arrays the rest of the path reads;
2. **graph snapshot** — a :class:`~repro.core.simgraph.SimGraph` over
   the corpus's follow CSR (weights ``1/log(1 + in_degree)``, a
   structural stand-in with the corpus's exact topology: similarity
   *semantics* are covered by the tier-1 differential suites, while
   this bench measures persistence at sizes where a pairwise similarity
   build is off the table) is saved as a binary v2 snapshot;
3. **mmap load** — ``load_simgraph(..., mmap=True)`` must come back in
   under 100 ms regardless of tier, be array-identical to the eager
   load, and drive one batched ``propagate_many`` on the CSR backend to
   the same fixpoints.

Peak RSS (``ru_maxrss``) is recorded per tier — it is cumulative over
the process, so tiers run smallest-first and the figure to watch is the
largest tier's.

Env knobs (used by the CI scale-smoke step):

* ``SCALE_BENCH_SMOKE=1`` — one small tier, CI-sized;
* ``SCALE_BENCH_FULL=1`` — add the 1M-user tier (several minutes);
* ``SCALE_BENCH_JSON=path`` — dump the measured rows (numbers) and the
  ``conftest.bench_context`` block as JSON for archival;
* ``SCALE_BENCH_RSS_MB=n`` — assert peak RSS stays under ``n`` MB.
"""

from __future__ import annotations

import json
import os
import resource
import time

import numpy as np

from conftest import bench_context
from repro.core.persistence import load_simgraph, save_simgraph
from repro.core.propagation_csr import make_propagation_engine
from repro.core.simgraph import SimGraph
from repro.synth import ChunkedGenerator, SynthConfig
from repro.synth.config import DAY
from repro.utils.tables import render_table

SMOKE = os.environ.get("SCALE_BENCH_SMOKE") == "1"
FULL = os.environ.get("SCALE_BENCH_FULL") == "1"

#: Per-user activity is capped harder as tiers grow so the cascade loop
#: stays minutes, not hours; the arrays are what is being measured.
TIERS = (
    [(20_000, 10, 2.0)]
    if SMOKE
    else ([(100_000, 8, 2.0), (1_000_000, 4, 1.0)] if FULL
          else [(100_000, 8, 2.0)])
)

MMAP_LOAD_CEILING_S = 0.100


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _standin_simgraph(dataset, tau: float = 0.001) -> SimGraph:
    """Follow-topology graph with ``1/log(1 + in_degree)`` weights."""
    n = dataset.user_count
    targets = dataset.follow_targets
    in_degree = np.bincount(targets, minlength=n).astype(np.float64)
    weights = 1.0 / np.log1p(in_degree[targets] + 1.0)
    return SimGraph(
        users=dataset.user_ids,
        indptr=dataset.follow_indptr,
        indices=targets,
        weights=weights,
        tau=tau,
    )


def _dump_json(name, rows):
    path = os.environ.get("SCALE_BENCH_JSON")
    if not path:
        return
    payload = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    payload["context"] = bench_context(SMOKE)
    payload[name] = rows
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _run_tier(n_users, max_tweets, discovery, tmp_path):
    config = SynthConfig(
        n_users=n_users,
        max_tweets_per_user=max_tweets,
        discovery_mean=discovery,
        seed=42,
    )
    started = time.perf_counter()
    generator = ChunkedGenerator(config, window=DAY)
    dataset = generator.to_columnar()
    corpus_s = time.perf_counter() - started

    simgraph = _standin_simgraph(dataset)
    path = tmp_path / f"scale_{n_users}.simgraph"
    started = time.perf_counter()
    save_simgraph(simgraph, path, format=2)
    save_s = time.perf_counter() - started

    started = time.perf_counter()
    mapped = load_simgraph(path, mmap=True)
    mmap_s = time.perf_counter() - started
    assert mmap_s < MMAP_LOAD_CEILING_S, (
        f"mmap load took {mmap_s * 1000:.1f}ms at {n_users} users "
        f"(ceiling {MMAP_LOAD_CEILING_S * 1000:.0f}ms)"
    )

    started = time.perf_counter()
    eager = load_simgraph(path, mmap=False)
    eager_s = time.perf_counter() - started

    # Differential: the two loads must be array-identical and propagate
    # identically through the CSR engine.
    for a, b in zip(mapped.arrays(), eager.arrays()):
        assert np.array_equal(a, b)
    seeds = [
        dataset.retweeters_array(int(t)).tolist()
        for t in dataset.tweets_with_min_retweets(2)
    ][:16]
    if seeds:
        results_m = make_propagation_engine(
            mapped, prop_backend="csr"
        ).propagate_many(seeds)
        results_e = make_propagation_engine(
            eager, prop_backend="csr"
        ).propagate_many(seeds)
        for rm, re_ in zip(results_m, results_e):
            assert rm.probabilities == re_.probabilities

    return {
        "users": n_users,
        "tweets": dataset.tweet_count,
        "retweets": dataset.retweet_count,
        "edges": simgraph.edge_count,
        "corpus_s": corpus_s,
        "save_ms": save_s * 1000,
        "mmap_load_ms": mmap_s * 1000,
        "eager_load_ms": eager_s * 1000,
        "file_mb": os.path.getsize(path) / 1e6,
        "peak_rss_mb": _peak_rss_mb(),
    }


def test_scale_build_and_snapshot(benchmark, emit, tmp_path):
    def measure():
        return [
            _run_tier(n, m, d, tmp_path)
            for n, m, d in sorted(TIERS)
        ]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    header = [
        "users", "tweets", "retweets", "edges", "corpus (s)", "save (ms)",
        "mmap load (ms)", "eager load (ms)", "file (MB)", "peak RSS (MB)",
    ]
    emit(render_table(
        header,
        [
            [r["users"], r["tweets"], r["retweets"], r["edges"],
             f"{r['corpus_s']:.1f}", f"{r['save_ms']:.0f}",
             f"{r['mmap_load_ms']:.1f}", f"{r['eager_load_ms']:.0f}",
             f"{r['file_mb']:.1f}", f"{r['peak_rss_mb']:.0f}"]
            for r in rows
        ],
        title="Scale: chunked synthesis -> v2 snapshot -> mmap load",
    ))
    _dump_json("scale_build", rows)
    ceiling = os.environ.get("SCALE_BENCH_RSS_MB")
    if ceiling:
        peak = _peak_rss_mb()
        assert peak <= float(ceiling), (
            f"peak RSS {peak:.0f}MB exceeds ceiling {ceiling}MB"
        )
