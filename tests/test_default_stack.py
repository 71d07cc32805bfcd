"""The default stack is the measured stack.

A caller who names no ``prop_backend`` gets the compiled array engine
the end-to-end ledger runs (``benchmarks/e2e``), at every door; and the
frozen ledger's ``bench_config`` — which asks for knobs by name and
falls back to the default when one is refused — lands on that same
engine.  A default flipped back to the dict loop costs ~8x on
``saturate`` with every other check green; these fail instead.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core import (
    CSRPropagationEngine,
    PropagationEngine,
    SimGraphRecommender,
    make_propagation_engine,
)
from repro.core.propagation_csr import PROP_BACKENDS
from repro.core.simgraph import SimGraph
from repro.graph.digraph import DiGraph
from repro.service import RecommendationService, ServiceConfig

TIER_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "tier.py"


@pytest.fixture
def frozen_tier(monkeypatch):
    """The ledger's tier module, imported by path, not edited."""
    spec = importlib.util.spec_from_file_location("_e2e_tier", TIER_PY)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses resolve their module through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


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
    simgraph = SimGraph(graph, tau=0.1)
    assert type(make_propagation_engine(simgraph)) is CSRPropagationEngine
    # The readable Alg. 1 loop stays selectable by name.
    oracle = make_propagation_engine(simgraph, prop_backend="reference")
    assert type(oracle) is PropagationEngine


def test_frozen_bench_config_lands_on_the_ledger_stack(frozen_tier):
    bench_config = frozen_tier.bench_config
    config = bench_config()
    assert config.prop_backend == "csr"
    assert config.backend == "vectorized"
    # What shard2 and the saturate oracle ask for is honoured.
    oracle = bench_config(prop_backend="reference", backend="reference")
    assert oracle.prop_backend == "reference"
    assert oracle.backend == "reference"
