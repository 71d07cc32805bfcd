"""End-to-end determinism golden test (the obs acceptance gate).

Two full pipeline runs from one seed — generate -> build -> replay ->
budget -> score — must be *byte-identical*: the deterministic metrics
snapshot (``snapshot(deterministic=True)`` serialized with sorted keys)
and the hit lists both compare equal as strings.  This is what makes the
observability layer trustworthy: if any engine became order-dependent
(set iteration leaking into counters, a racy frontier, a wall-clock
value sneaking past the ``timing=True`` convention), this test is the
tripwire.

The SimGraph comes from the builder (``vectorized``) or from the
Def. 4.1 oracle loop (``reference``, ``tests/test_simgraph_oracle.py``,
handed to the recommender the way Figure 16 hands it an updated graph),
and both propagation backends run on each; since the differential
suites pin each pair to identical outputs, the *hit lists* of every
variant must also agree with each other (their work metrics
legitimately differ), and hash to a digest recorded at an earlier
commit, so a change that moves recommendation quality cannot hide
behind self-consistency.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core import RetweetProfiles, SimGraphRecommender
from repro.data import temporal_split
from repro.eval import evaluate_sweep, run_replay, select_target_users
from repro.obs import MetricsRegistry, validate_snapshot
from repro.service import RecommendationService, ServiceConfig
from repro.synth import SynthConfig, generate_dataset
from tests.test_graph_oracle import follow_pairs
from tests.test_simgraph_oracle import oracle_build

CONFIG = SynthConfig(n_users=150, n_communities=4, seed=19)
K_VALUES = [10, 30]

#: (who builds the SimGraph, propagation backend) pipeline variants
#: under the determinism gate.  Every variant must be self-deterministic, and all
#: variants must agree on the hit lists.
VARIANTS = [
    ("reference", "reference"),
    ("vectorized", "reference"),
    ("reference", "csr"),
    ("vectorized", "csr"),
]

VARIANT_IDS = [f"{build}-{prop}" for build, prop in VARIANTS]

#: sha256 of every variant's hits JSON as recorded at commit 5577740, the
#: last commit whose recommender ran its own copy of the scoring loop:
#: the adapter over the service must reproduce it byte for byte, and so
#: must every later commit (the per-user build loop left the library for
#: the test oracle without moving it).
HITS_SHA256 = "09bcbdfe61cd03e8f1566f8b02ecc3dbc09636edb4935e61159ddce24a215a87"


def run_pipeline(build: str, prop_backend: str) -> tuple[str, str]:
    """One full seeded run; returns (snapshot_json, hits_json)."""
    dataset = generate_dataset(CONFIG)
    split = temporal_split(dataset)
    targets = select_target_users(split.train, per_stratum=50, seed=0)
    registry = MetricsRegistry()
    simgraph = (
        oracle_build(dataset.follow_graph, RetweetProfiles(split.train)).compile()
        if build == "reference"
        else None
    )
    recommender = SimGraphRecommender(
        simgraph=simgraph, prop_backend=prop_backend, metrics=registry
    )
    result = run_replay(
        recommender, dataset, split.train, split.test, targets.all_users,
        metrics=registry,
    )
    metrics = evaluate_sweep(
        result, K_VALUES, dataset.popularity, metrics=registry
    )
    snapshot = registry.snapshot(deterministic=True)
    validate_snapshot(snapshot)
    hits = [
        {"k": m.k, "hits": sorted(m.hit_pairs), "delivered": m.delivered}
        for m in metrics
    ]
    return (
        json.dumps(snapshot, sort_keys=True),
        json.dumps(hits, sort_keys=True),
    )


@pytest.fixture(scope="module")
def runs():
    """Two runs per variant, all from the same seed."""
    return {
        variant: (run_pipeline(*variant), run_pipeline(*variant))
        for variant in VARIANTS
    }


@pytest.mark.parametrize("variant", VARIANTS, ids=VARIANT_IDS)
def test_deterministic_snapshot_is_byte_identical(runs, variant):
    (snap_a, _), (snap_b, _) = runs[variant]
    assert snap_a == snap_b


@pytest.mark.parametrize("variant", VARIANTS, ids=VARIANT_IDS)
def test_hit_lists_are_byte_identical(runs, variant):
    (_, hits_a), (_, hits_b) = runs[variant]
    assert hits_a == hits_b


@pytest.mark.parametrize("variant", VARIANTS, ids=VARIANT_IDS)
def test_snapshot_covers_the_required_stages(runs, variant):
    """Per-stage spans for propagation, solve and budget must be present."""
    snapshot = json.loads(runs[variant][0][0])

    def span_names(nodes, acc):
        for node in nodes:
            acc.add(node["name"])
            span_names(node["children"], acc)
        return acc

    names = span_names(snapshot["spans"], set())
    assert {"propagation", "solve", "budget", "replay.finalize"} <= names
    assert snapshot["counters"]["replay.events"] > 0
    assert snapshot["counters"]["propagation.runs"] > 0


@pytest.mark.parametrize("variant", VARIANTS[1:], ids=VARIANT_IDS[1:])
def test_variants_agree_on_hits(runs, variant):
    """Identical edges + identical propagation (differential suites)
    imply byte-identical hit lists across every backend combination."""
    assert runs[VARIANTS[0]][0][1] == runs[variant][0][1]


@pytest.mark.parametrize("variant", VARIANTS, ids=VARIANT_IDS)
def test_hit_lists_match_the_recorded_digest(runs, variant):
    """Pinned across commits, not only within one."""
    hits = runs[variant][0][1]
    assert hashlib.sha256(hits.encode()).hexdigest() == HITS_SHA256


def test_prop_backends_agree_on_propagation_counters(runs):
    """The deterministic propagation.* counters are backend-invariant."""
    names = ("propagation.runs", "propagation.iterations", "propagation.updates")
    reference = json.loads(runs[("reference", "reference")][0][0])["counters"]
    csr = json.loads(runs[("reference", "csr")][0][0])["counters"]
    for name in names:
        assert reference[name] == csr[name]


def test_pipeline_produces_hits(runs):
    """Guard against the golden test passing vacuously on empty output."""
    hits = json.loads(runs[VARIANTS[0]][0][1])
    assert any(entry["delivered"] > 0 for entry in hits)


# ----------------------------------------------------------------------
# Service pipeline under delta maintenance
# ----------------------------------------------------------------------

def run_service_pipeline(prop_backend: str) -> tuple[str, str]:
    """Replay a seeded stream through the online service with
    ``rebuild_strategy="delta"``; returns (snapshot_json, hits_json)."""
    dataset = generate_dataset(CONFIG)
    split = temporal_split(dataset)
    service = RecommendationService(ServiceConfig(
        rebuild_strategy="delta",
        prop_backend=prop_backend,
        rebuild_interval=6 * 3600.0,
        use_scheduler=False,
        min_score=1e-6,
    ))
    for u, v in follow_pairs(dataset.follow_graph):
        service.add_follow(u, v)
    for event in split.train:
        service.absorb_retweet(event.user, event.tweet)
    base = split.test[0].time if split.test else 0.0
    for tweet in sorted(
        dataset.tweets.values(), key=lambda t: (t.created_at, t.id)
    ):
        service.post_tweet(
            tweet_id=tweet.id, author=tweet.author,
            at=min(tweet.created_at, base),
        )
    hits = []
    for event in split.test[:120]:
        for rec in service.retweet(
            user=event.user, tweet=event.tweet, at=event.time
        ):
            hits.append([rec.user, rec.tweet])
    snapshot = service.metrics_snapshot(deterministic=True)
    validate_snapshot(snapshot)
    return (
        json.dumps(snapshot, sort_keys=True),
        json.dumps(sorted(hits), sort_keys=True),
    )


@pytest.fixture(scope="module")
def service_runs():
    """Two delta-maintained service runs per propagation backend."""
    return {
        prop: (run_service_pipeline(prop), run_service_pipeline(prop))
        for prop in ("reference", "csr")
    }


@pytest.mark.parametrize("prop", ["reference", "csr"])
def test_delta_service_is_deterministic(service_runs, prop):
    (snap_a, hits_a), (snap_b, hits_b) = service_runs[prop]
    assert snap_a == snap_b
    assert hits_a == hits_b


def test_delta_service_prop_backends_agree(service_runs):
    assert service_runs["reference"][0][1] == service_runs["csr"][0][1]


def test_delta_service_exercised_the_delta_path(service_runs):
    """Guard against the golden passing without any delta rebuild."""
    snapshot = json.loads(service_runs["reference"][0][0])
    counters = snapshot["counters"]
    assert counters.get("service.rebuild[delta]", 0) > 0
    assert counters.get("maintenance.rows_recomputed", 0) > 0
