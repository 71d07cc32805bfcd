"""Backend speedup — vectorized sparse builds vs the reference scan.

The vectorized backend (``repro.core.simmatrix``) materializes the
user x tweet incidence as a CSR matrix and computes every Def. 3.1
similarity of a SimGraph build through one complex-valued sparse
product per source chunk, masked by the 2-hop reachability matrix.
The reference backend walks the inverted index user by user.

Both must produce *identical* edge sets (the differential suite pins
this down to 1e-12); this bench records the wall-clock gap on three
synthetic corpora and asserts the vectorized build is at least 3x
faster on the largest, paper-sparsity-matched configuration.

Every run is a full run and rewrites
``benchmarks/BENCH_backend_speedup.json`` — numeric rows plus one
``context`` block (cores, versions, git sha) — which is the row README
"Build backends" quotes.  The bench stays while the sharded coordinator
builds with the loop (ROADMAP item 8b).
"""

from __future__ import annotations

import json
import os
import time

from conftest import BENCH_CONFIG, bench_context
from repro.core import RetweetProfiles, SimGraphBuilder
from repro.synth import SynthConfig, generate_dataset
from repro.utils.tables import render_table

#: Small / medium / large corpora.  All use the influencer cap that
#: matches the paper's SimGraph sparsity (Table 4: mean out-degree 5.9);
#: without the cap the shared DiGraph-insertion cost of ~700k edges
#: dominates both backends and hides the scoring gap.
SPEEDUP_CONFIGS = [
    ("small", SynthConfig(
        n_users=800, tweets_alpha=1.2, min_tweets_per_user=2,
        max_tweets_per_user=250, seed=42,
    )),
    ("medium", BENCH_CONFIG),
    ("large", SynthConfig(
        n_users=4000, tweets_alpha=1.2, min_tweets_per_user=2,
        max_tweets_per_user=250, seed=42,
    )),
]

MAX_INFLUENCERS = 6
TAU = 0.001

#: The committed record (see module docstring).
MATRIX_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_backend_speedup.json"
)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_vectorized_build_speedup(benchmark, emit):
    def measure():
        rows = []
        for label, config in SPEEDUP_CONFIGS:
            dataset = generate_dataset(config)
            profiles = RetweetProfiles(dataset.retweets())
            reference, t_ref = _timed(
                lambda: SimGraphBuilder(
                    tau=TAU, max_influencers=MAX_INFLUENCERS
                ).build(dataset.follow_graph, profiles)
            )
            vectorized, t_vec = _timed(
                lambda: SimGraphBuilder(
                    tau=TAU, max_influencers=MAX_INFLUENCERS,
                    backend="vectorized",
                ).build(dataset.follow_graph, profiles)
            )
            ref_edges = {(u, v) for u, v, _ in reference.graph.edges()}
            vec_edges = {(u, v) for u, v, _ in vectorized.graph.edges()}
            assert vec_edges == ref_edges, f"backend divergence on {label}"
            rows.append({
                "corpus": label,
                "users": config.n_users,
                "edges": reference.edge_count,
                "reference_ms": t_ref * 1000,
                "vectorized_ms": t_vec * 1000,
                "speedup": t_ref / t_vec,
            })
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(render_table(
        ["corpus", "users", "edges", "reference (ms)", "vectorized (ms)",
         "speedup"],
        [
            [
                row["corpus"], row["users"], row["edges"],
                f"{row['reference_ms']:.0f}", f"{row['vectorized_ms']:.0f}",
                f"{row['speedup']:.1f}x",
            ]
            for row in rows
        ],
        title=f"SimGraph build: reference vs vectorized (tau={TAU}, "
              f"cap={MAX_INFLUENCERS})",
    ))
    with open(MATRIX_PATH, "w", encoding="utf-8") as handle:
        json.dump(
            {"context": bench_context(smoke=False), "build_speedup": rows},
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")
    large_speedup = rows[-1]["speedup"]
    assert large_speedup >= 3.0, (
        f"vectorized build only {large_speedup:.1f}x faster on the "
        "largest corpus (acceptance floor is 3x)"
    )
