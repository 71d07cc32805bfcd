"""The default stack is the measured stack.

A caller who names no ``prop_backend`` gets the compiled array engine
the end-to-end ledger runs (``benchmarks/e2e``), at every door; and the
frozen ledger's ``bench_config`` — which asks for knobs by name and
falls back to the default when one is refused — lands on that same
engine.  A default flipped back to the dict loop costs ~8x on
``saturate`` with every other check green; these fail instead.  The
sharded deployment name the ledger's ``shard2`` row constructs is the
same one-process service, on exactly the config it is handed.

The frozen files still ask for a SimGraph build ``backend``; there is
one build, so the knob is refused and nothing can choose another — and
``shard2``, which asked for the old per-user build, never builds at all
within its stream.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import multiprocessing
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    CSRPropagationEngine,
    PropagationEngine,
    SimGraphRecommender,
    make_propagation_engine,
)
from repro.core.propagation_csr import PROP_BACKENDS
from repro.core.simgraph import SimGraph, SimGraphBuilder
from repro.exceptions import ConfigError
from repro.service import RecommendationService, ServiceConfig
from repro.shard import ShardedRecommendationService
from tests.test_graph_oracle import DiGraph
from tests.test_memory_guard import holds_no_dict_adjacency
from tests.test_simgraph_oracle import simgraph_of

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
TIER_PY = E2E / "tier.py"


@pytest.fixture
def frozen_tier(monkeypatch):
    """The ledger's tier module, imported by path, not edited."""
    spec = importlib.util.spec_from_file_location("_e2e_tier", TIER_PY)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their module through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def frozen_workloads(monkeypatch):
    """The ledger's workloads module, imported from its frozen file with
    the sibling modules it imports by bare name (``tier``, ``loadgen``);
    they leave ``sys.modules`` again afterwards."""
    monkeypatch.syspath_prepend(str(E2E))
    before = set(sys.modules)
    yield importlib.import_module("workloads")
    for name in set(sys.modules) - before:
        origin = getattr(sys.modules[name], "__file__", None) or ""
        if Path(origin).parent == E2E:
            del sys.modules[name]


def test_two_backends_compiled_first():
    assert PROP_BACKENDS == ("csr", "reference")


def test_service_defaults_to_the_compiled_engine():
    assert ServiceConfig().prop_backend == "csr"
    assert type(RecommendationService()._engine) is CSRPropagationEngine


def test_recommender_defaults_to_the_compiled_engine():
    assert SimGraphRecommender().prop_backend == "csr"


def test_factory_defaults_to_the_compiled_engine():
    graph = DiGraph()
    graph.add_edge(0, 1, weight=0.5)
    simgraph = simgraph_of(graph, tau=0.1)
    assert type(make_propagation_engine(simgraph)) is CSRPropagationEngine
    # The readable Alg. 1 loop stays selectable by name.
    oracle = make_propagation_engine(simgraph, prop_backend="reference")
    assert type(oracle) is PropagationEngine


def test_frozen_bench_config_lands_on_the_ledger_stack(frozen_tier):
    bench_config = frozen_tier.bench_config
    config = bench_config()
    assert config.prop_backend == "csr"
    # The build backend it asks for by name is refused: there is one
    # build, and every config lands on it.
    assert "backend" not in {f.name for f in dataclasses.fields(ServiceConfig)}
    for backend in ("vectorized", "reference"):
        assert bench_config(backend=backend) == config
    with pytest.raises(ValueError):
        SimGraphBuilder(backend="reference")
    # What shard2 and the saturate oracle ask for is honoured.
    oracle = bench_config(prop_backend="reference", backend="reference")
    assert oracle.prop_backend == "reference"
    # maintain's strategy is honoured; a strategy the service no longer
    # runs falls back to the default, which is that same delta.
    assert bench_config(rebuild_strategy="delta").rebuild_strategy == "delta"
    assert bench_config(rebuild_strategy="crossfold").rebuild_strategy == "delta"


def test_sharded_name_is_one_process_on_its_own_config(frozen_tier):
    """The ledger's ``shard2`` deployment runs the config it asks for —
    the dict-loop oracle included — in this process: a swapped-in array
    engine would make that row measure something else."""
    service = ShardedRecommendationService(
        2,
        frozen_tier.bench_config(
            prop_backend="reference",
            backend="reference",
            rebuild_strategy="delta",
            use_scheduler=False,
        ),
        start_method="fork",
    )
    assert isinstance(service, RecommendationService)
    assert type(service._engine) is PropagationEngine
    assert multiprocessing.active_children() == []


def test_sharded_name_rejects_zero_shards():
    with pytest.raises(ConfigError):
        ShardedRecommendationService(0)


def test_shard2_never_builds_within_its_stream(frozen_workloads, tmp_path):
    """``shard2`` adopts the tier's v2 snapshot and its whole stream —
    warm-up plus a 10 s drain, ``--seconds`` of the ledger's runs —
    spans less simulated time than ``rebuild_interval``: no SimGraph is
    built or maintained in it, so no build knob can move that row.  Its
    reference engine walks the compiled transpose, so the served graph
    never builds a dict adjacency either.  Driven here on a 300-user
    tier built by the frozen tier builder."""
    workloads = frozen_workloads
    tier_module = sys.modules["tier"]
    spec = tier_module.TierSpec("test", n_users=300, live_tweets=30)
    meta = tier_module.build_tier(spec, tmp_path)
    with np.load(tmp_path / "columns.npz") as columns:
        tier = tier_module.Tier(
            spec=spec, snapshot=tmp_path / "graph.simgraph", meta=meta,
            **{name: columns[name] for name in columns.files},
        )
    shard2 = workloads.BY_NAME["shard2"]
    config = workloads.service_config(shard2)
    booted = workloads.boot(tier, config, seed=1, shards=shard2.shards)
    service = booted.service
    _, bursts = workloads.schedule(shard2, 10.0)
    flags = np.concatenate([np.zeros(shard2.warmup_events, dtype=bool), bursts])
    requests = workloads.synth_stream(shard2, booted, tier.retweeters, flags, 1)
    assert requests[-1].at < service.stats.last_rebuild_at + config.rebuild_interval
    for request in requests:
        service.retweet(request.user, request.tweet, request.at)

    snapshot = service.metrics_snapshot()

    def span_names(nodes):
        for node in nodes:
            yield node["name"]
            yield from span_names(node["children"])

    assert "simgraph.build" not in set(span_names(snapshot["spans"]))
    assert not [c for c in snapshot["counters"] if c.startswith("service.rebuild[")]
    assert snapshot["counters"]["service.snapshot_loads"] == 1
    assert service.stats.rebuilds == 1
    assert service.stats.events_ingested == len(requests) + spec.live_tweets
    assert holds_no_dict_adjacency(service.simgraph)
