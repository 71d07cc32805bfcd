"""Propagation speedup — the compiled CSR engine vs the reference loop.

The CSR backend (``repro.core.propagation_csr``) runs Algorithm 1's
frontier fixpoint over flat numpy arrays: each iteration is a handful of
gathers and in-order segment sums instead of a Python loop over one
user's row at a time.  (``propagate_many`` is a loop over the same kernel, so a
batch leg would measure nothing the single leg does not.)

Both engines must produce *identical* results (the differential suite
pins them bit-for-bit); this bench records the wall-clock gap on three
synthetic corpora across two paths —

* ``reference``   — one ``PropagationEngine.propagate`` per tweet;
* ``csr``         — one ``CSRPropagationEngine.propagate`` per tweet —

and asserts the CSR path is at least 3x faster on the largest corpus.
A second bench measures the warm-state cache: every tweet is re-scored
as its last retweeters arrive one at a time, once cold every time and
once resuming from the cached fixpoint — and then what one more retweet
costs a tweet whose fixpoint already holds ~300 and ~3,000 users, by
where the retweeter sits: outside the SimGraph (the fixpoint is
re-emitted), inside it (a frontier of one), or with no warm state (cold).

Every time is the median of ``PASSES`` timed passes after one untimed
warm-up pass (one timed pass in a smoke run).  A full run rewrites
``benchmarks/BENCH_prop_speedup.json`` — numeric rows per bench plus one
``context`` block (cores, versions, git sha, smoke flag) and a
``timing`` block (warm-up and timed passes, statistic).  A smoke run
never touches that committed record.

Env knobs (used by the CI smoke step):

* ``PROP_BENCH_SMOKE=1`` — run the smallest corpus only and relax the
  speedup floor to "not slower" (1.0x);
* ``PROP_BENCH_JSON=path`` — where a smoke run writes its rows (nowhere
  when unset).
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time

from conftest import BENCH_CONFIG, bench_context
from repro.core import (
    CSRPropagationEngine,
    DynamicThreshold,
    PropagationEngine,
    RetweetProfiles,
    SimGraphBuilder,
)
from repro.core.warmcache import WarmStateCache
from repro.synth import SynthConfig, generate_dataset
from repro.utils.tables import render_table

#: (label, corpus, tweets scored).  The influencer cap is looser than
#: the paper-sparsity structural benches (6): propagation throughput is
#: what is measured, so frontiers should carry realistic fan-in.
PROP_CONFIGS = [
    ("small", SynthConfig(
        n_users=800, tweets_alpha=1.2, min_tweets_per_user=2,
        max_tweets_per_user=250, seed=42,
    ), 40),
    ("medium", BENCH_CONFIG, 24),
    ("large", SynthConfig(
        n_users=4000, tweets_alpha=1.2, min_tweets_per_user=2,
        max_tweets_per_user=250, seed=42,
    ), 12),
]

MAX_INFLUENCERS = 25
TAU = 0.001

SMOKE = os.environ.get("PROP_BENCH_SMOKE") == "1"
#: Acceptance floor for the CSR path on the largest corpus;
#: the smoke run only guards against a regression below parity.
SPEEDUP_FLOOR = 1.0 if SMOKE else 3.0
CONFIGS = PROP_CONFIGS[:1] if SMOKE else PROP_CONFIGS

#: The committed record; only a full run writes it.
MATRIX_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_prop_speedup.json"
)


#: Timed passes per row, after one untimed warm-up pass; a row is the
#: median pass.  One pass with no warm-up moved the record by ±30 %
#: between runs of unchanged code.
PASSES = 1 if SMOKE else 5


def _timed(fn):
    """``(result, seconds)``: ``fn``'s result and the median wall time
    of ``PASSES`` calls after one untimed call."""
    result = fn()
    elapsed = []
    for _ in range(PASSES):
        start = time.perf_counter()
        result = fn()
        elapsed.append(time.perf_counter() - start)
    return result, statistics.median(elapsed)


@functools.lru_cache(maxsize=None)
def _workload(config, n_tweets):
    """SimGraph + the seed sets of the corpus's most popular tweets."""
    dataset = generate_dataset(config)
    profiles = RetweetProfiles(dataset.retweets())
    simgraph = SimGraphBuilder(tau=TAU, max_influencers=MAX_INFLUENCERS).build(
        dataset.follow_graph, profiles
    )
    tweets = sorted(
        profiles.tweets(), key=profiles.popularity, reverse=True
    )[:n_tweets]
    return simgraph, [profiles.retweeters(t) for t in tweets]


def _record(name, rows) -> None:
    """Merge one bench's numeric rows (and the context) into the record."""
    path = os.environ.get("PROP_BENCH_JSON") if SMOKE else MATRIX_PATH
    if not path:
        return
    payload = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    payload["context"] = bench_context(SMOKE)
    payload["timing"] = {"warmup_passes": 1, "passes": PASSES, "statistic": "median"}
    payload[name] = rows
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def test_csr_propagation_speedup(benchmark, emit):
    def measure():
        rows = []
        for label, config, n_tweets in CONFIGS:
            simgraph, seed_sets = _workload(config, n_tweets)
            reference = PropagationEngine(simgraph)
            singles, t_ref = _timed(
                lambda: [reference.propagate(s) for s in seed_sets]
            )
            csr = CSRPropagationEngine(simgraph)
            compiled, t_csr = _timed(
                lambda: [csr.propagate(s) for s in seed_sets]
            )
            for a, b in zip(singles, compiled):
                assert a.probabilities == b.probabilities, (
                    f"CSR divergence on {label}"
                )
            rows.append({
                "corpus": label,
                "nodes": simgraph.node_count,
                "edges": simgraph.edge_count,
                "tweets": len(seed_sets),
                "reference_s": t_ref,
                "csr_s": t_csr,
                "csr_speedup": t_ref / t_csr,
            })
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(render_table(
        [
            "corpus", "nodes", "edges", "tweets", "reference (ms)",
            "csr (ms)", "speedup",
        ],
        [
            [
                row["corpus"], row["nodes"], row["edges"], row["tweets"],
                f"{row['reference_s'] * 1000:.0f}",
                f"{row['csr_s'] * 1000:.0f}",
                f"{row['csr_speedup']:.1f}x",
            ]
            for row in rows
        ],
        title=f"Propagation: reference vs CSR (cap={MAX_INFLUENCERS})",
    ))
    _record("csr_propagation_speedup", rows)
    largest_speedup = rows[-1]["csr_speedup"]
    assert largest_speedup >= SPEEDUP_FLOOR, (
        f"CSR propagation only {largest_speedup:.1f}x faster on the "
        f"largest corpus (floor is {SPEEDUP_FLOOR}x)"
    )


#: Growth steps per tweet in the warm-cache bench: each tweet is
#: re-scored as its last WAVES retweeters arrive one at a time — the
#: streaming shape the recommender actually runs (Algorithm 1's
#: per-retweet trigger).
WAVES = 4


#: Fixpoint sizes (members) of the per-retweet cases, and how many
#: distinct retweeters each case is averaged over.
STATE_SIZES = (300, 3000)
CASE_REPEATS = 30
OFF_GRAPH = 10**9


def _one_more_retweet(label, simgraph):
    """Per-task microseconds of one more retweet on a warm tweet.

    The engine runs the service's γ(t) policy; the tweet's seeds are the
    shortest prefix of the user list whose fixpoint reaches the target
    size (the whole list on a corpus too small for it).
    """
    engine = CSRPropagationEngine(simgraph, threshold=DynamicThreshold())
    users = sorted(simgraph.users.tolist())
    rows = []
    for target in STATE_SIZES:
        count, most = 1, len(users) - CASE_REPEATS
        while True:
            seeds = set(users[:count])
            engine.propagate(seeds)
            state = engine.take_state()
            if len(state) >= target or count == most:
                break
            count = min(count + max(1, count // 8), most)
        inside = [u for u in users if u not in seeds][-CASE_REPEATS:]
        cases = {
            "cold_us": [(seeds | {u}, None) for u in inside],
            "warm_in_graph_us": [(seeds | {u}, state) for u in inside],
            "warm_off_graph_us": [
                (seeds | {OFF_GRAPH + k}, state) for k in range(CASE_REPEATS)
            ],
        }
        row = {
            "corpus": label,
            "members": len(state),
            "seeds": len(seeds),
            "repeats": CASE_REPEATS,
        }
        for name, tasks in cases.items():
            _, elapsed = _timed(
                lambda: [engine.propagate(s, initial=i) for s, i in tasks]
            )
            row[name] = elapsed / len(tasks) * 1e6
        rows.append(row)
    return rows


def test_warm_cache_incremental_speedup(benchmark, emit):
    """Re-scoring a growing tweet: cold restarts vs cached warm state."""
    label, config, n_tweets = CONFIGS[-1] if SMOKE else CONFIGS[1]

    def measure():
        simgraph, seed_sets = _workload(config, n_tweets)
        steps = [
            [sorted(s)[: max(len(s) - WAVES + 1 + k, 1)] for k in range(WAVES)]
            for s in seed_sets
        ]
        cold_engine = CSRPropagationEngine(simgraph)

        def run_cold():
            results = []
            for waves in steps:
                for seeds in waves:
                    results.append(cold_engine.propagate(seeds))
            return results

        warm_engine = CSRPropagationEngine(simgraph)

        def run_warm():
            cache = WarmStateCache(capacity=len(steps))
            results = []
            for tweet, waves in enumerate(steps):
                for seeds in waves:
                    results.append(
                        warm_engine.propagate(seeds, initial=cache.get(tweet))
                    )
                    cache.put(tweet, warm_engine.take_state())
            return results

        cold, t_cold = _timed(run_cold)
        warm, t_warm = _timed(run_warm)
        for a, b in zip(cold, warm):
            for user, p in a.probabilities.items():
                # Warm resumption re-converges within the fixpoint
                # tolerance of the cold run, not bit-identically.
                assert abs(b.probabilities.get(user, 0.0) - p) < 1e-6
        return t_cold, t_warm

    t_cold, t_warm = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(render_table(
        ["path", "corpus", "propagations", "time (ms)"],
        [
            ["csr cold restarts", label, n_tweets * WAVES,
             f"{t_cold * 1000:.0f}"],
            ["csr + warm cache", label, n_tweets * WAVES,
             f"{t_warm * 1000:.0f}"],
        ],
        title="Incremental re-propagation: cold vs warm-state cache",
    ))
    _record("warm_cache_incremental", [{
        "corpus": label,
        "propagations": n_tweets * WAVES,
        "cold_s": t_cold,
        "warm_s": t_warm,
    }])
    # The cache must pay for itself (generous slack for CI runners; the
    # streaming shape above measures ~2.5x locally).
    assert t_warm <= t_cold

    case_label, case_config, case_tweets = CONFIGS[-1]
    cases = _one_more_retweet(
        case_label, _workload(case_config, case_tweets)[0]
    )
    emit(render_table(
        ["corpus", "members", "seeds", "cold (us)", "in-graph (us)",
         "off-graph (us)"],
        [
            [
                row["corpus"], row["members"], row["seeds"],
                f"{row['cold_us']:.0f}", f"{row['warm_in_graph_us']:.0f}",
                f"{row['warm_off_graph_us']:.0f}",
            ]
            for row in cases
        ],
        title="One more retweet on a warm tweet, per task",
    ))
    _record("warm_cache_one_more_retweet", cases)
    for row in cases:
        # A retweeter outside the graph changes nothing: it must cost
        # less than one who starts a frontier, who costs less than cold.
        assert row["warm_off_graph_us"] <= row["warm_in_graph_us"]
        assert row["warm_in_graph_us"] <= row["cold_us"]
