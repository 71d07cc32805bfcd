"""Unit tests of the kernel seam: mode resolution, graceful fallback,
backend enumeration, observability and the top-k API surface.

The differential guarantees live in ``test_propagation_differential``
and ``test_kernel_pruning``; this file covers the plumbing around the
kernel — how ``prop_backend="numba"``/``"auto"`` resolve with and
without an importable numba, what the obs registry records, and the
error messages users see.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core import (
    CSRPropagationEngine,
    NumbaPropagationEngine,
    SimGraphRecommender,
    make_propagation_engine,
)
from repro.core import propagation_kernel as pk
from repro.core.simgraph import SimGraph
from repro.graph.digraph import DiGraph
from repro.obs import MetricsRegistry


def small_graph():
    """Seed 0 feeds mid users 1-4, which feed leaf sinks 10-19.

    The leaves appear in no row (out-degree 0 in the influence
    direction) and carry tiny upper bounds, so a top-k run over this
    graph prunes them once the mid users establish the cutoff.
    """
    graph = DiGraph()
    graph.add_nodes(range(5))
    graph.add_nodes(range(10, 20))
    for mid in range(1, 5):
        graph.add_edge(mid, 0, weight=0.5 + mid / 10.0)
    for leaf in range(10, 20):
        graph.add_edge(leaf, 1 + leaf % 4, weight=0.02)
    return SimGraph(graph, tau=0.0)


class TestKernelMode:
    def test_forced_python(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROP_KERNEL", "python")
        assert pk.kernel_mode() == "python"

    def test_forced_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROP_KERNEL", "off")
        assert pk.kernel_mode() == "off"

    def test_without_numba(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROP_KERNEL", raising=False)
        monkeypatch.setattr(pk, "NUMBA_AVAILABLE", False)
        assert pk.kernel_mode() == "off"

    def test_with_numba(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROP_KERNEL", raising=False)
        monkeypatch.setattr(pk, "NUMBA_AVAILABLE", True)
        monkeypatch.setattr(pk, "_JIT_BROKEN", False)
        assert pk.kernel_mode() == "jit"

    def test_broken_jit_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROP_KERNEL", raising=False)
        monkeypatch.setattr(pk, "NUMBA_AVAILABLE", True)
        monkeypatch.setattr(pk, "_JIT_BROKEN", True)
        assert pk.kernel_mode() == "off"

    def test_get_impls_jit_requires_numba(self, monkeypatch):
        monkeypatch.setattr(pk, "NUMBA_AVAILABLE", False)
        with pytest.raises(RuntimeError, match="not importable"):
            pk.get_impls(jit=True)
        impls, jitted = pk.get_impls(jit=False)
        assert not jitted
        assert set(impls) == {"fixpoint", "fixpoint_many"}


class TestResolution:
    def test_auto_prefers_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROP_KERNEL", "python")
        assert pk.resolve_prop_backend("auto") == "numba"

    def test_auto_degrades_silently(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROP_KERNEL", "off")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pk.resolve_prop_backend("auto") == "csr"

    def test_explicit_numba_falls_back_with_warning_and_counter(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PROP_KERNEL", "off")
        registry = MetricsRegistry()
        with pytest.warns(RuntimeWarning, match="falling back"):
            resolved = pk.resolve_prop_backend("numba", metrics=registry)
        assert resolved == "csr"
        snapshot = registry.snapshot()["counters"]
        assert snapshot["prop.kernel.fallback"] == 1

    def test_concrete_backends_pass_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROP_KERNEL", "off")
        assert pk.resolve_prop_backend("reference") == "reference"
        assert pk.resolve_prop_backend("csr") == "csr"

    def test_factory_fallback_returns_csr_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROP_KERNEL", "off")
        with pytest.warns(RuntimeWarning):
            engine = make_propagation_engine(
                small_graph(), prop_backend="numba"
            )
        assert type(engine) is CSRPropagationEngine

    def test_factory_builds_kernel_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROP_KERNEL", "python")
        for requested in ("numba", "auto"):
            engine = make_propagation_engine(
                small_graph(), prop_backend=requested
            )
            assert isinstance(engine, NumbaPropagationEngine)
            assert not engine.jitted


class TestErrors:
    def test_unknown_backend_enumerates_availability(self):
        with pytest.raises(ValueError) as excinfo:
            make_propagation_engine(small_graph(), prop_backend="bogus")
        message = str(excinfo.value)
        assert "'bogus'" in message
        for name in ("reference", "csr", "numba", "auto"):
            assert name in message

    def test_unknown_backend_reflects_runtime_state(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROP_KERNEL", "python")
        described = pk.describe_backends()
        assert "pure-python kernels" in described
        monkeypatch.setenv("REPRO_PROP_KERNEL", "off")
        assert "unavailable" in pk.describe_backends()

    def test_recommender_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="available:"):
            SimGraphRecommender(prop_backend="bogus")

    def test_topk_rejects_bad_k(self):
        engine = NumbaPropagationEngine(small_graph())
        with pytest.raises(ValueError, match="k must be"):
            engine.propagate_topk([0], k=0)


class TestObservability:
    def test_kernel_run_metrics(self):
        registry = MetricsRegistry()
        engine = NumbaPropagationEngine(small_graph(), metrics=registry)
        engine.propagate([0])
        engine.propagate_many([{0}, {0, 1}])
        snapshot = registry.snapshot()
        assert snapshot["counters"]["prop.kernel.runs"] == 3
        assert snapshot["counters"]["propagation.runs"] == 3
        assert "prop.kernel.rounds" in snapshot["histograms"]

    def test_pruned_counter(self):
        registry = MetricsRegistry()
        engine = NumbaPropagationEngine(small_graph(), metrics=registry)
        ranked, _ = engine.propagate_topk([0], k=2)
        pruned = engine.take_pruned()
        assert pruned, "the two-wave graph must trigger pruning"
        assert set(pruned) <= set(range(10, 20))
        assert [user for user, _ in ranked] == [4, 3]
        snapshot = registry.snapshot()["counters"]
        assert snapshot["prop.kernel.pruned"] == len(pruned)

    def test_compile_gauge_stripped_under_deterministic_snapshot(self):
        """The compile-time gauge follows the timing convention: present
        in raw snapshots, stripped from deterministic ones."""
        registry = MetricsRegistry()
        registry.gauge("prop.kernel.compile_seconds", timing=True).set(0.5)
        assert (
            "prop.kernel.compile_seconds" in registry.snapshot()["gauges"]
        )
        deterministic = registry.snapshot(deterministic=True)["gauges"]
        assert "prop.kernel.compile_seconds" not in deterministic

    def test_deterministic_snapshot_keeps_kernel_counters(self):
        registry = MetricsRegistry()
        engine = NumbaPropagationEngine(small_graph(), metrics=registry)
        engine.propagate_topk([0], k=2)
        deterministic = registry.snapshot(deterministic=True)["counters"]
        assert deterministic["prop.kernel.runs"] == 1
        assert deterministic["prop.kernel.pruned"] >= 1


class TestTopK:
    def test_exact_on_two_wave_graph(self):
        simgraph = small_graph()
        engine = NumbaPropagationEngine(simgraph)
        ranked, result = engine.propagate_topk([0], k=3)
        from repro.core import PropagationEngine

        reference = PropagationEngine(simgraph).propagate([0])
        expected = sorted(
            (
                (user, score)
                for user, score in reference.probabilities.items()
                if user != 0
            ),
            key=lambda item: (-item[1], item[0]),
        )[:3]
        assert ranked == expected

    def test_min_score_floor_prunes_harder(self):
        simgraph = small_graph()
        floored = NumbaPropagationEngine(simgraph)
        floored.propagate_topk([0], k=30, min_score=0.5)
        unfloored = NumbaPropagationEngine(simgraph)
        unfloored.propagate_topk([0], k=30)
        # k exceeds the candidate count, so only the floor can prune.
        assert unfloored.take_pruned() == []
        assert len(floored.take_pruned()) == 10
