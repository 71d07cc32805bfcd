"""Outside-in tracing: spans around the public entry points of each layer.

Nothing in ``src/`` knows about this file.  :meth:`Tracer.install`
rebinds the public functions the layers call each other through
(``make_propagation_engine`` and ``apply_delta`` as the service module
sees them, ``PostponedScheduler.offer``, ``AdmissionController.admit``,
``load_simgraph`` / ``save_simgraph``); :meth:`Tracer.attach` wraps one
service object's request methods.  Spans stay in memory as
``[name, start, end, parent, ident]`` and are written out when the run
ends; a layer's self time is its span minus its direct children.

End-to-end numbers never come from a traced run.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

import numpy as np

NAME, START, END, PARENT, IDENT, THREAD = range(6)



def _batch_ids(args, kwargs):
    """Simulated timestamps of the events one ``ingest_batch`` carries."""
    events = args[0] if args else kwargs["events"]
    return tuple(at for _, _, at in events)


def _event_id(args, kwargs):
    """Simulated timestamp of a ``(user, tweet, at)``-style call."""
    return (kwargs["at"] if "at" in kwargs else args[2],)


def _task_count(args, kwargs):
    seed_sets = args[0] if args else kwargs.get("seed_sets", ())
    return len(seed_sets)


#: Request methods wrapped on a service object (those it has), with how
#: each call names the requests it carries.
SERVICE_METHODS = {
    "post_tweet": _event_id,
    "retweet": _event_id,
    "warm_answer": _event_id,
    "ingest_batch": _batch_ids,
    "score_batch": None,
    "flush": None,
    "rebuild": None,
    "load_snapshot": None,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._undo: list = []
        #: Seconds the current thread spent blocked on worker pipes.
        self.pipe_wait_s = 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn, ident=None):
        spans = self.spans
        local = self._local
        clock = time.monotonic

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [
                name, clock(), 0.0, stack[-1] if stack else None,
                ident(args, kwargs) if ident is not None else None,
                threading.get_ident(),
            ]
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, name: str, ident=None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, ident))
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        """Rebind the module- and class-level entry points."""
        import repro.core.persistence as persistence
        import repro.service.engine as engine_module
        from repro.core.scheduler import PostponedScheduler
        from repro.serve import AdmissionController

        make_engine = engine_module.make_propagation_engine

        def traced_factory(*args, **kwargs):
            engine = make_engine(*args, **kwargs)
            for method in ("propagate", "propagate_many"):
                if hasattr(engine, method):
                    setattr(engine, method, self.wrap(
                        f"propagation.{method}", getattr(engine, method),
                        _task_count if method == "propagate_many" else None,
                    ))
            return engine

        engine_module.make_propagation_engine = traced_factory
        self._undo.append((engine_module, "make_propagation_engine", make_engine))
        self._patch(engine_module, "apply_delta", "delta.apply_delta")
        self._patch(PostponedScheduler, "offer", "scheduler.offer")
        self._patch(AdmissionController, "admit", "admission.admit")
        self._patch(persistence, "load_simgraph", "persistence.load_simgraph")
        self._patch(persistence, "save_simgraph", "persistence.save_simgraph")

    def attach(self, service) -> None:
        """Wrap the request methods of one service (or coordinator)."""
        for method, ident in SERVICE_METHODS.items():
            if hasattr(service, method):
                setattr(service, method, self.wrap(
                    f"service.{method}", getattr(service, method), ident
                ))

    def time_pipes(self) -> None:
        """Accumulate time blocked on worker pipes (call after the fork,
        so only the coordinator process pays for it)."""
        from multiprocessing.connection import Connection

        for attr in ("poll", "recv"):
            original = getattr(Connection, attr)

            def timed(conn, *args, _original=original, **kwargs):
                started = time.monotonic()
                try:
                    return _original(conn, *args, **kwargs)
                finally:
                    self.pipe_wait_s += time.monotonic() - started

            setattr(Connection, attr, timed)
            self._undo.append((Connection, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def window(self, start: float, end: float) -> "SpanSet":
        return SpanSet([s for s in self.spans if start <= s[START] and s[END] <= end])

    def dump(self, path) -> None:
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [
                    {
                        "id": i,
                        "name": span[NAME],
                        "start": span[START],
                        "end": span[END],
                        "parent": ids.get(id(span[PARENT])),
                        "ident": span[IDENT],
                        "thread": span[THREAD],
                    }
                    for i, span in enumerate(self.spans)
                ],
                handle,
            )


def span_cost_s(rounds: int = 20_000) -> float:
    """Measured cost of recording one (empty) span."""
    probe = Tracer().wrap("probe", lambda: None)
    started = time.perf_counter()
    for _ in range(rounds):
        probe()
    return (time.perf_counter() - started) / rounds


class SpanSet:
    """The spans of one window, with durations and self times."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        child_time: dict[int, float] = defaultdict(float)
        for span in spans:
            if span[PARENT] is not None:
                child_time[id(span[PARENT])] += span[END] - span[START]
        self._child_time = child_time

    def named(self, *names: str) -> list[list]:
        return [s for s in self.spans if s[NAME] in names]

    def total_s(self, *names: str) -> float:
        return sum(s[END] - s[START] for s in self.named(*names))

    def self_s(self, *names: str) -> float:
        return sum(
            s[END] - s[START] - self._child_time.get(id(s), 0.0)
            for s in self.named(*names)
        )

    def durations_ms(self, *names: str) -> np.ndarray:
        return np.array(
            [(s[END] - s[START]) * 1e3 for s in self.named(*names)]
        )

    def root_total_s(self, prefix: str) -> float:
        """Busy time of a layer's callers: its spans that have no parent."""
        return sum(
            s[END] - s[START]
            for s in self.spans
            if s[PARENT] is None and s[NAME].startswith(prefix)
        )

    def outermost(self, prefix: str) -> list[list]:
        """Spans named ``prefix*`` that are not nested in another such span."""
        return [
            s for s in self.spans
            if s[NAME].startswith(prefix)
            and not (s[PARENT] is not None and s[PARENT][NAME].startswith(prefix))
        ]

    def start_by_event(self, *names: str) -> dict:
        """Request id (simulated timestamp) -> start of its carrying span."""
        starts: dict = {}
        for span in self.named(*names):
            for ident in span[IDENT] or ():
                starts[ident] = span[START]
        return starts
