"""Metric primitives and the registry that owns them.

Design constraints (see the module docstring of :mod:`repro.obs`):

* **dependency-free** — stdlib only, so instrumentation can live in every
  hot path without import-cost or packaging consequences;
* **cheap when off** — :data:`NULL` is a shared :class:`NullRegistry`
  whose counters/gauges/histograms/spans are reusable no-op singletons;
  instrumented code never branches on "metrics enabled?", it just calls;
* **deterministic snapshots** — every metric that measures wall-clock
  time is flagged ``timing=True``; ``snapshot(deterministic=True)``
  reduces those to their (reproducible) observation counts, so two runs
  from one seed produce byte-identical deterministic snapshots.

Histograms are log-binned through the same bucket function as the
paper-figure helpers (:func:`repro.utils.histogram.log_bucket_index`), so
a frontier-size histogram in a metrics report and a Figure-3 style
distribution in a bench agree bucket for bucket.
"""

from __future__ import annotations

import time
from typing import Iterator

from repro.utils.histogram import log_bucket_index, log_bucket_label, percentile

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "SpanNode",
    "MetricsRegistry",
    "NullRegistry",
    "NULL",
    "SNAPSHOT_SCHEMA",
]

#: Schema tag stamped into every snapshot (bump on breaking layout change).
SNAPSHOT_SCHEMA = "repro.obs/1"


class Counter:
    """A monotonically increasing integer metric.

    ``timing=True`` marks a count the host decides rather than the input
    (how often a wait was late, how often a fork failed): like a
    wall-clock reading, it is stripped from deterministic snapshots.
    """

    __slots__ = ("name", "value", "timing")

    def __init__(self, name: str, timing: bool = False):
        self.name = name
        self.value = 0
        self.timing = timing

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value (queue depth, last residual, events/sec)."""

    __slots__ = ("name", "value", "timing")

    def __init__(self, name: str, timing: bool = False):
        self.name = name
        self.value = 0.0
        self.timing = timing

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Log-binned distribution of non-negative observations.

    Buckets are ``[base^i, base^{i+1})`` with a dedicated zero bucket —
    the same binning as :func:`repro.utils.histogram.log_binned_counts`.
    Only bucket counts and summary stats are retained, so memory stays
    O(buckets) regardless of observation volume.
    """

    __slots__ = ("name", "base", "timing", "count", "total", "min", "max",
                 "_buckets")

    def __init__(self, name: str, base: float = 2.0, timing: bool = False):
        if base <= 1.0:
            raise ValueError(f"base must exceed 1, got {base}")
        self.name = name
        self.base = base
        self.timing = timing
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._buckets: dict[int | None, int] = {}

    def observe(self, value: float) -> None:
        """Record one observation (must be non-negative)."""
        bucket = log_bucket_index(value, self.base)
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Average observation (0.0 before the first one)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Log-binned ``q``-quantile estimate of the observations.

        Delegates to :func:`repro.utils.histogram.percentile`: the value
        is within a factor of ``base`` of the exact sample percentile
        (see its documented error bound), from bucket counts alone.
        """
        return percentile(self._buckets, q, base=self.base)

    def rows(self) -> list[tuple[str, int]]:
        """(bucket label, count) rows in ascending bucket order."""
        ordered = sorted(
            self._buckets.items(), key=lambda kv: (kv[0] is not None, kv[0] or 0)
        )
        return [(log_bucket_label(b, self.base), c) for b, c in ordered]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.4g})"


class SpanNode:
    """One node of the aggregated trace call-tree.

    Spans with the same name under the same parent aggregate into a
    single node: ``calls`` counts entries, ``total_s`` accumulates
    wall-clock seconds (inclusive of children).
    """

    __slots__ = ("name", "calls", "total_s", "children")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.total_s = 0.0
        self.children: dict[str, "SpanNode"] = {}

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = SpanNode(name)
            self.children[name] = node
        return node

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "SpanNode"]]:
        """Depth-first (depth, node) traversal in name order."""
        yield depth, self
        for name in sorted(self.children):
            yield from self.children[name].walk(depth + 1)

    def to_dict(self, deterministic: bool = False) -> dict:
        node: dict = {"name": self.name, "calls": self.calls}
        if not deterministic:
            node["total_s"] = self.total_s
        node["children"] = [
            self.children[name].to_dict(deterministic)
            for name in sorted(self.children)
        ]
        return node


class _Span:
    """Context manager that times one entry of a :class:`SpanNode`."""

    __slots__ = ("_registry", "_node", "_start")

    def __init__(self, registry: "MetricsRegistry", node: SpanNode):
        self._registry = registry
        self._node = node

    def __enter__(self) -> "_Span":
        self._node.calls += 1
        self._registry._stack.append(self._node)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._node.total_s += time.perf_counter() - self._start
        self._registry._stack.pop()


class MetricsRegistry:
    """Owns every counter/gauge/histogram and the trace call-tree.

    All accessors are get-or-create, so instrumentation sites never need
    to pre-register anything.  The registry is designed for the
    single-threaded engines of this codebase; each worker process of a
    chunked build keeps (and discards) its own registry.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._root = SpanNode("")
        self._stack: list[SpanNode] = [self._root]

    # ------------------------------------------------------------------
    # Metric accessors
    # ------------------------------------------------------------------
    def counter(self, name: str, timing: bool = False) -> Counter:
        """Get or create the counter ``name``."""
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name, timing=timing)
        return metric

    def gauge(self, name: str, timing: bool = False) -> Gauge:
        """Get or create the gauge ``name``."""
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name, timing=timing)
        return metric

    def histogram(
        self, name: str, base: float = 2.0, timing: bool = False
    ) -> Histogram:
        """Get or create the log-binned histogram ``name``."""
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(
                name, base=base, timing=timing
            )
        return metric

    def span(self, name: str) -> _Span:
        """Enter a nestable timed span; aggregates into the call-tree.

        Nesting follows the runtime call structure: a span opened while
        another is active becomes (or merges into) a child of it.
        """
        return _Span(self, self._stack[-1].child(name))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def span_root(self) -> SpanNode:
        """The (nameless) root of the aggregated call-tree."""
        return self._root

    def snapshot(self, deterministic: bool = False) -> dict:
        """JSON-serializable dump of every metric.

        ``deterministic=True`` strips everything wall-clock dependent:
        span times, timing counters, timing-gauge values, and
        timing-histogram value stats (their observation *counts* are
        kept — those are reproducible).
        Two runs of a seeded pipeline must produce byte-identical
        deterministic snapshots; the e2e golden test enforces this.
        """
        histograms: dict[str, dict] = {}
        for name in sorted(self._histograms):
            h = self._histograms[name]
            if deterministic and h.timing:
                histograms[name] = {"count": h.count, "timing": True}
                continue
            histograms[name] = {
                "count": h.count,
                "total": h.total,
                "min": h.min if h.count else 0.0,
                "max": h.max if h.count else 0.0,
                "mean": h.mean,
                "timing": h.timing,
                "buckets": {label: c for label, c in h.rows()},
            }
        gauges = {
            name: self._gauges[name].value
            for name in sorted(self._gauges)
            if not (deterministic and self._gauges[name].timing)
        }
        return {
            "schema": SNAPSHOT_SCHEMA,
            "deterministic": deterministic,
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
                if not (deterministic and self._counters[name].timing)
            },
            "gauges": gauges,
            "histograms": histograms,
            "spans": [
                self._root.children[name].to_dict(deterministic)
                for name in sorted(self._root.children)
            ],
        }

    def report(self) -> str:
        """Human-readable ASCII report (see :mod:`repro.obs.report`)."""
        from repro.obs.report import render_report

        return render_report(self)

    def reset(self) -> None:
        """Drop every metric and the whole call-tree."""
        self.__init__()


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """No-op registry: every accessor returns a shared inert singleton.

    The default for every instrumented engine — calling convention is
    identical to :class:`MetricsRegistry`, but nothing is recorded and
    the per-call cost is one attribute lookup plus an empty method call
    (the overhead bench pins this at ~0%).
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")
        self._null_span = _NullSpan()

    def counter(self, name: str, timing: bool = False) -> Counter:
        return self._null_counter

    def gauge(self, name: str, timing: bool = False) -> Gauge:
        return self._null_gauge

    def histogram(
        self, name: str, base: float = 2.0, timing: bool = False
    ) -> Histogram:
        return self._null_histogram

    def span(self, name: str) -> _NullSpan:  # type: ignore[override]
        return self._null_span


#: Shared no-op registry: the default ``metrics=`` of every engine.
NULL = NullRegistry()
