"""An online recommendation service over the SimGraph stack.

The paper describes components (similarity graph, propagation, postponed
computation, periodic maintenance) — this module wires them into the
deployable object a platform would actually run:

* **ingestion** — users, follows, tweets and retweets arrive as events in
  simulated time; retweets trigger (possibly postponed) propagation;
* **delivery** — recommendations pass an *online* daily per-user budget:
  at most ``daily_budget`` notifications per user per day, first-come at
  emission time (a live service cannot retro-rank a day it has already
  delivered);
* **maintenance** — on a simulated-time interval the SimGraph is
  refreshed by ``delta`` (default: only the region that changed is
  rescored, edge-identical to a rebuild) or rebuilt ``from scratch``
  (the exact oracle).  The paper's other §6.3 strategies are compared
  offline (:mod:`repro.core.update`, Figure 16).  Maintenance the clock
  triggers runs in a forked child while the service keeps serving the
  previous graph, which it adopts :data:`ADOPTION_LAG` of an interval
  later — a bounded form of the paper's "old SimGraph" strategy.

Example
-------
>>> from repro.service import RecommendationService, ServiceConfig
>>> service = RecommendationService(ServiceConfig(daily_budget=10))
>>> service.add_user(1); service.add_user(2); service.add_user(3)
>>> service.add_follow(2, 1); service.add_follow(3, 1)
>>> service.post_tweet(tweet_id=7, author=1, at=0.0)
>>> notifications = service.retweet(user=2, tweet=7, at=60.0)

One process holds the whole deployment — clock, scheduler, 72h rule,
daily budget, periodic maintenance, SimGraph, builder and propagation
engine — in :class:`RecommendationService`.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import time
import weakref
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.baselines.base import Recommendation
from repro.core import persistence
from repro.core.csr import sorted_unique
from repro.core.profiles import RetweetProfiles
from repro.core.propagation_csr import (
    PROP_BACKENDS,
    make_propagation_engine,
    nonseed_candidates,
)
from repro.core.scheduler import DelayPolicy, PostponedScheduler, PropagationTask
from repro.core.simgraph import DEFAULT_TAU, SimGraph, SimGraphBuilder
from repro.core.thresholds import DynamicThreshold, ThresholdPolicy
from repro.core.delta import DeltaPlan, DeltaReport, affected_region, apply_delta
from repro.core.warmcache import DEFAULT_CAPACITY, WarmStateCache
from repro.data.models import Retweet, Tweet
from repro.exceptions import ConfigError, DatasetError
from repro.graph.followgraph import FollowGraph
from repro.obs import MetricsRegistry

__all__ = [
    "Candidates",
    "ServiceConfig",
    "ServiceStats",
    "RecommendationService",
]

DAY = 86400.0
HOUR = 3600.0

#: What maintenance can run: ``delta`` rescores the region that changed,
#: ``from scratch`` rebuilds the whole graph — the oracle the
#: differential replays select, as ``prop_backend="reference"`` is for
#: propagation.
REBUILD_STRATEGIES = ("delta", "from scratch")

#: Simulated time from a clock-triggered maintenance coming due to the
#: service adopting its graph, as a fraction of ``rebuild_interval``.  A
#: lag under one interval keeps at most one job in flight; the served
#: graph is then at most 1.25 intervals stale.
ADOPTION_LAG = 0.25


@dataclass(frozen=True)
class ServiceConfig:
    """Deployment knobs of the online service."""

    #: Similarity threshold of SimGraph construction.
    tau: float = DEFAULT_TAU
    #: Maximum notifications per user per day.
    daily_budget: int = 30
    #: Minimum propagation probability worth notifying about.
    min_score: float = 1e-4
    #: Tweets older than this are never propagated (paper's 72h rule).
    max_tweet_age: float = 72 * HOUR
    #: Simulated seconds between SimGraph maintenance runs.
    rebuild_interval: float = 7 * DAY
    #: Maintenance strategy, one of :data:`REBUILD_STRATEGIES`.
    rebuild_strategy: str = "delta"
    #: Postpone propagation per tweet (None = propagate per retweet).
    use_scheduler: bool = True
    #: Propagation backend: "csr" (compiled numpy arrays) or
    #: "reference" (the pure-Python frontier loop, the readable Alg. 1
    #: oracle).  Identical results on both.
    prop_backend: str = "csr"
    #: LRU bound of the per-tweet warm-state cache (entries also expire
    #: with the ``max_tweet_age`` horizon).
    warm_cache_size: int = DEFAULT_CAPACITY

    def __post_init__(self) -> None:
        if self.daily_budget < 1:
            raise ConfigError("daily_budget must be at least 1")
        if self.rebuild_interval <= 0:
            raise ConfigError("rebuild_interval must be positive")
        _check_strategy(self.rebuild_strategy)
        if self.tau < 0:
            raise ConfigError("tau must be non-negative")
        if not 0 < self.min_score < 1:
            raise ConfigError("min_score must be in (0, 1)")
        if self.prop_backend not in PROP_BACKENDS:
            raise ConfigError(
                f"unknown propagation backend {self.prop_backend!r}; "
                f"available: {', '.join(PROP_BACKENDS)}"
            )
        if self.warm_cache_size < 1:
            raise ConfigError("warm_cache_size must be at least 1")


def _check_strategy(name: str) -> None:
    if name not in REBUILD_STRATEGIES:
        raise ConfigError(
            f"unknown rebuild strategy {name!r}; "
            f"available: {', '.join(REBUILD_STRATEGIES)}"
        )


class Candidates(NamedTuple):
    """What one propagation task would notify, before the budget.

    ``users`` / ``scores`` are aligned arrays (non-seeds at or above
    ``min_score``); ``tweet`` and ``time`` are the task's.  Candidates
    stay in this form until :meth:`RecommendationService._deliver`
    accepts one — only then does a :class:`Recommendation` exist.
    """

    tweet: int
    time: float
    users: np.ndarray
    scores: np.ndarray


#: A released task and its seed set, fixed when it was released.
Seeded = tuple[PropagationTask, frozenset[int]]

_NO_USERS = np.empty(0, dtype=np.int64)
_NO_SCORES = np.empty(0, dtype=np.float64)


class _KnownUsers:
    """Who must not be notified of one tweet: its retweeters and
    everyone already notified of it.

    Adding is a list append; the ascending array the budget probes is
    brought up to date when it is next read, by merging what was added
    since (a user added twice is held twice, which a probe cannot see).
    """

    __slots__ = ("_sorted", "_added")

    def __init__(self, users: np.ndarray = _NO_USERS) -> None:
        self._sorted = users
        self._added: list[int] = []

    def add(self, user: int) -> None:
        self._added.append(user)

    def sorted(self) -> np.ndarray:
        """Every user added so far, ascending."""
        if self._added:
            merged = np.concatenate((self._sorted, self._added))
            # Stable = timsort: one merge of the sorted run and the tail.
            merged.sort(kind="stable")
            self._sorted = merged
            self._added = []
        return self._sorted

    def unseen(self, users: np.ndarray) -> np.ndarray:
        """Positions in ``users`` of those not added yet."""
        known = self.sorted()
        if not len(known):
            return np.arange(len(users))
        at = known.searchsorted(users)
        np.minimum(at, len(known) - 1, out=at)
        return (known[at] != users).nonzero()[0]

    def __contains__(self, user: int) -> bool:
        return len(self.unseen(np.array([user]))) == 0


class _Outcome(NamedTuple):
    """What one maintenance job produced."""

    #: The strategy that ran (a delta on a graph without edges, or the
    #: first maintenance, builds from scratch).
    used: str
    #: The refreshed graph (None while a child's is still on disk).
    built: SimGraph | None
    #: The delta's report (None after a from-scratch build).
    report: DeltaReport | None
    #: Counter increments the job recorded (``maintenance.*``,
    #: ``simgraph.*``).
    counters: dict[str, int]
    #: Wall seconds the job took (in a child, writing its graph too).
    seconds: float
    #: Peak resident MB of the child that ran it (0: it ran in-process).
    peak_rss_mb: float = 0.0


def _fork_child(target, args):
    """Start ``target(*args)`` in a forked daemon child process."""
    process = multiprocessing.get_context("fork").Process(
        target=target, args=args, name="repro-maintenance", daemon=True
    )
    # Python 3.12+ warns (DeprecationWarning) that forking a process
    # with other threads may deadlock the child; this child takes no
    # lock another thread can hold (DESIGN.md).
    process.start()
    return process


def _run_in_child(service: "RecommendationService", job: "_Handoff", path: str,
                  conn) -> None:
    """The child's side of a handoff: run the job on the state inherited
    at the due event, write its graph to ``path`` with the v2 section
    writer and send the rest over ``conn``.  Returning ends the child
    with ``os._exit`` (the fork start method's exit)."""
    started = time.perf_counter()
    outcome = service._lagged_job(job)
    persistence.save_simgraph(outcome.built, path, format=2)
    conn.send(outcome._replace(
        built=None,
        seconds=time.perf_counter() - started,
        peak_rss_mb=_peak_rss_mb(),
    ))
    conn.close()


def _peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``) in MB; 0 without
    ``/proc``."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class _Handoff:
    """One clock-triggered maintenance job, from its due event to its
    adoption.

    The job reads the profiles as of ``due``, their log index at the due
    event: retweets absorbed meanwhile go straight into the profiles, past
    that index, and a follow-graph write adopts the job first, so the
    follow graph and the SimGraph stay as they were.  So the job reads
    the same state whether a forked child runs it at the due event or the
    service runs it in-process at adoption.
    """

    def __init__(self, strategy: str, adopt_at: float, due: int):
        self.strategy = strategy
        #: Simulated time from which the next event adopts the job.
        self.adopt_at = adopt_at
        #: The profiles' log index at the due event.
        self.due = due
        self.process = None
        self._conn = None
        self._workdir: str | None = None
        self._owner = os.getpid()
        self._finalizer = None

    @property
    def _path(self) -> str:
        return os.path.join(self._workdir, "graph.simgraph")

    def start(self, service: "RecommendationService") -> None:
        """Fork the child that runs the job.  If the fork fails there is
        no child, and the job runs in-process at adoption."""
        self._workdir = tempfile.mkdtemp(prefix="repro-maintenance-")
        reader, writer = multiprocessing.Pipe(duplex=False)
        try:
            self.process = _fork_child(
                _run_in_child, (service, self, self._path, writer)
            )
        except (OSError, ValueError, AssertionError):
            # Out of processes or memory; no fork start method on this
            # platform; or a daemonic process, which may not have children.
            reader.close()
            self.release()
            return
        finally:
            writer.close()
        self._conn = reader
        # A service dropped with a job in flight stops its child.
        self._finalizer = weakref.finalize(service, self.release)

    def collect(self, metrics: MetricsRegistry) -> _Outcome | None:
        """The child's outcome, its graph memory-mapped; waits for a
        child still running (counted in ``maintenance.late``).  None
        without a child, or when it died before sending one."""
        if self._conn is None:
            return None
        if not self._conn.poll():
            metrics.counter("maintenance.late", timing=True).inc()
        try:
            outcome = self._conn.recv()
        except EOFError:
            return None
        finally:
            self._conn.close()
            self._conn = None
        return outcome._replace(
            built=persistence.load_simgraph(self._path, mmap=True)
        )

    def release(self) -> None:
        """Stop (unless it delivered) and reap the child, and remove the
        job's files.  Idempotent; does nothing in any process but the
        one that started the job."""
        if os.getpid() != self._owner:
            return
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self.process is not None:
            if self._conn is not None:
                self._conn.close()
                self._conn = None
                self.process.kill()
            self.process.join()
            self.process = None
        if self._workdir is not None:
            shutil.rmtree(self._workdir, ignore_errors=True)
            self._workdir = None


@dataclass
class ServiceStats:
    """Running counters of one service instance.

    ``warm_hits`` / ``warm_misses`` / ``queue_depth`` mirror the current
    warm-cache and scheduler state (refreshed on every ingest and by
    :meth:`RecommendationService.metrics_snapshot`): the serving layer's
    load harness reads them to assert that degraded answers really came
    from cache and that backpressure tracks the scheduler backlog.
    """

    events_ingested: int = 0
    propagations_run: int = 0
    notifications_delivered: int = 0
    notifications_suppressed: int = 0
    rebuilds: int = 0
    last_rebuild_at: float = field(default=0.0)
    warm_hits: int = 0
    warm_misses: int = 0
    queue_depth: int = 0


class RecommendationService:
    """The online serving loop over a local SimGraph, builder and engine.

    Owns the simulated clock, event ingestion, the postponed scheduler,
    the 72h rule, warm-cache bookkeeping, the online daily budget,
    periodic maintenance (CSR splicing included) and health reporting;
    on top of per-event ingestion it offers batched ingestion
    (:meth:`ingest_batch`), warm-cache reads (:meth:`warm_answer`,
    :meth:`warm_scores`) and pure batch scoring (:meth:`score_batch`).

    The service always carries a live :class:`~repro.obs.MetricsRegistry`
    (pass your own to share one across components): every subsystem it
    owns reports into it, and :meth:`metrics_snapshot` exposes the
    aggregate.
    """

    #: Exploration radius rows are built with (``ServiceConfig`` does not
    #: expose it; this is :class:`SimGraphBuilder`'s default).
    _hops = 2

    def __init__(
        self,
        config: ServiceConfig | None = None,
        threshold: ThresholdPolicy | None = None,
        delay_policy: DelayPolicy | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.config = config if config is not None else ServiceConfig()
        self.threshold = threshold if threshold is not None else DynamicThreshold()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.follow_graph = FollowGraph()
        self.profiles = RetweetProfiles()
        self.tweets: dict[int, Tweet] = {}
        self._scheduler = (
            PostponedScheduler(delay_policy or DelayPolicy(), metrics=self.metrics)
            if self.config.use_scheduler
            else None
        )
        self._warm = WarmStateCache(
            capacity=self.config.warm_cache_size,
            max_age=self.config.max_tweet_age,
            metrics=self.metrics,
        )
        self._delivered: dict[tuple[int, int], int] = {}
        #: tweet -> users that already share it or were notified of it.
        self._known: dict[int, _KnownUsers] = {}
        self._clock = 0.0
        self.stats = ServiceStats()
        self._builder = SimGraphBuilder(
            tau=self.config.tau, hops=self._hops, metrics=self.metrics
        )
        #: The clock-triggered maintenance in flight, if any.
        self._job: _Handoff | None = None
        self._install(SimGraph.from_edges((), (), (), tau=self.config.tau))

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def add_user(self, user: int) -> None:
        """Register an account (adopting a maintenance job in flight
        first: the follow graph stays as the job read it)."""
        if self._job is not None:
            self._adopt_maintenance()
        self.follow_graph.add_node(user)

    def add_follow(self, follower: int, followee: int) -> None:
        """Register a follow edge (auto-registers unknown accounts; a
        repeated follow changes nothing).  Adopts a maintenance job in
        flight first, as :meth:`add_user` does."""
        if self._job is not None:
            self._adopt_maintenance()
        self.follow_graph.add_edge(follower, followee)

    def post_tweet(self, tweet_id: int, author: int, at: float) -> None:
        """Register an original post."""
        if tweet_id in self.tweets:
            raise DatasetError(f"duplicate tweet id {tweet_id}")
        self._advance(at)
        self.tweets[tweet_id] = Tweet(id=tweet_id, author=author, created_at=at)
        self._known_of(tweet_id)

    def retweet(self, user: int, tweet: int, at: float) -> list[Recommendation]:
        """Ingest a sharing action; return the notifications it released.

        Triggers due propagation batches (scheduler mode) or an immediate
        propagation, applies the online budget, and updates profiles —
        so similarity data is always current for the next maintenance.
        """
        started = time.perf_counter()
        delivered = self._deliver(self._ingest(user, tweet, at))
        self.metrics.histogram("service.retweet_seconds", timing=True).observe(
            time.perf_counter() - started
        )
        self._refresh_health()
        return delivered

    def absorb_retweet(self, user: int, tweet: int) -> None:
        """Absorb a retweet into profiles without clock or propagation.

        The bulk warm-up path: history replayed this way is visible to
        the next :meth:`rebuild` and to future propagations of ``tweet``,
        but triggers no scoring, delivery or scheduler work, and needs no
        tweet registration.
        """
        self.profiles.add(user, tweet)
        known = self._known.get(tweet)
        if known is not None:
            known.add(user)

    def flush(self, now: float | None = None) -> list[Recommendation]:
        """Drain the scheduler (end of stream / shutdown)."""
        if self._scheduler is None:
            return []
        delivered = self._deliver(self._drain(now))
        self._refresh_health()
        return delivered

    def _ingest(self, user: int, tweet: int, at: float) -> list[Candidates]:
        """One retweet up to the candidates it released, undelivered.

        :meth:`retweet` passes them through the budget; the offline
        :class:`~repro.core.recommender.SimGraphRecommender` takes them
        as they are.
        """
        if tweet not in self.tweets:
            raise DatasetError(f"unknown tweet id {tweet}")
        self._tick(at)
        event = Retweet(user=user, tweet=tweet, time=at)
        return self._score_tasks(self._release(event))

    def _drain(self, now: float | None) -> list[Candidates]:
        """The scheduler's whole backlog, scored by one batched
        invocation, undelivered (scheduler mode only)."""
        if now is not None:
            self._advance(now)
        tasks = self._scheduler.flush(now=self._clock)
        return self._score_tasks(self._seeded(tasks))

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def rebuild(self, strategy: str | None = None) -> SimGraph:
        """Refresh the SimGraph now with ``strategy`` (one of
        :data:`REBUILD_STRATEGIES`; default from config) and return the
        refreshed graph.

        The ``"delta"`` strategy rescores only the affected region
        (:func:`repro.core.delta.affected_region`): users whose profiles
        changed since the last rebuild, co-retweeters of weight-changed
        tweets, followers whose candidate sets grew, and their
        exploration fringe.  Its report then scopes the warm-cache
        invalidation to tweets whose seeds intersect the affected users,
        and the refreshed graph it returns is a splice of the old one
        (:meth:`~repro.core.simgraph.SimGraph.splice`).

        An explicit call runs here and now, on the calling thread; a job
        the clock started is adopted first.  Clock-triggered maintenance
        after the first is lagged instead (:meth:`_start_maintenance`).
        """
        name = strategy if strategy is not None else self.config.rebuild_strategy
        _check_strategy(name)
        if self._job is not None:
            self._adopt_maintenance()
        started = time.perf_counter()
        with self.metrics.span("service.rebuild"):
            used, built, report = self._maintain(name, self.metrics, self.profiles)
        built = self._refresh(
            _Outcome(used, built, report, {}, time.perf_counter() - started)
        )
        self.stats.last_rebuild_at = self._clock
        return built

    def close(self) -> None:
        """Stop a maintenance job in flight: its child is killed and its
        files removed.  Nothing is lost — the dirt the job would have
        consumed waits for the next maintenance — and the service stays
        usable."""
        if self._job is not None:
            self._discard_maintenance()

    def _maintain(
        self, strategy: str, metrics: MetricsRegistry, profiles: RetweetProfiles
    ) -> tuple[str, SimGraph, DeltaReport | None]:
        """The maintenance job: ``(strategy used, refreshed graph, delta
        report or None)`` from ``profiles`` and the current follow graph
        and SimGraph.

        Writes none of them (the follow graph may compact its buffer), so
        it gives the same graph in a forked child as in-process.
        """
        if (
            self.stats.rebuilds == 0
            or strategy == "from scratch"
            or self.edge_count == 0
        ):
            # First build, explicit rebuild, or bootstrap from an empty
            # graph must come from the follow graph: a delta needs a
            # previous SimGraph with edges to refresh.
            builder = SimGraphBuilder(
                tau=self.config.tau, hops=self._hops, metrics=metrics
            )
            return "from scratch", builder.build(self.follow_graph, profiles), None
        graph = self.follow_graph
        fresh = graph.new_sources()
        # A new edge also extends the 2-hop reach of everyone already
        # following its source.
        _, followers = graph.reach(fresh, 1, reverse=True)
        plan = affected_region(
            profiles,
            graph,
            extra_sources=graph.ids[np.union1d(fresh, followers)].tolist(),
            hops=self._hops,
        )
        built, report = self._apply_delta(plan, metrics, profiles)
        return "delta", built, report

    def _lagged_job(self, job: _Handoff) -> _Outcome:
        """:meth:`_maintain` for a lagged job, in a forked child or
        in-process, on the profiles as of its due event (in the child,
        the profiles themselves): its counters go to a registry of its
        own, and reach the service's when the job is adopted."""
        started = time.perf_counter()
        metrics = MetricsRegistry()
        used, built, report = self._maintain(
            job.strategy, metrics, self.profiles.as_of(job.due)
        )
        return _Outcome(
            used, built, report, metrics.snapshot()["counters"],
            time.perf_counter() - started,
        )

    def _start_maintenance(self) -> None:
        """The due event of clock-triggered maintenance: fork the job.

        The child inherits the state at this event and runs
        :meth:`_maintain`, while this process keeps serving the current
        graph; the first event at or after ``ADOPTION_LAG *
        rebuild_interval`` from now adopts the result
        (:meth:`_adopt_maintenance`).  The next maintenance is scheduled
        from now, so the cadence is the interval's.
        """
        started = time.perf_counter()
        job = _Handoff(
            self.config.rebuild_strategy,
            self._clock + ADOPTION_LAG * self.config.rebuild_interval,
            self.profiles.log_end,
        )
        job.start(self)
        self._job = job
        self.stats.last_rebuild_at = self._clock
        self.metrics.gauge("maintenance.in_flight").set(1)
        self.metrics.histogram(
            "maintenance.stall_seconds", timing=True
        ).observe(time.perf_counter() - started)

    def _adopt_maintenance(self) -> None:
        """Make the job in flight's graph current.

        Takes the child's outcome — waiting if it is still running — or,
        when there is none (the fork or the child failed), runs the job
        in-process on the state it would have read.  Then, as a rebuild
        does: its counters land, the dirt up to its due event is consumed
        (the retweets since stay dirt for the next run), warm state is
        invalidated by its report, and the engine is rebuilt over the
        graph.
        """
        started = time.perf_counter()
        job = self._job
        outcome = job.collect(self.metrics)
        if outcome is None:
            self.metrics.counter("maintenance.child_failures", timing=True).inc()
            outcome = self._lagged_job(job)
        self._job = None
        for name, value in outcome.counters.items():
            self.metrics.counter(name).inc(value)
        if outcome.peak_rss_mb:
            self.metrics.gauge(
                "maintenance.child_peak_rss_mb", timing=True
            ).set(outcome.peak_rss_mb)
        self._refresh(outcome, upto=job.due)
        # Reaped after the graph is in place: the child's exit overlaps
        # the adoption above.
        job.release()
        self.metrics.gauge("maintenance.in_flight").set(0)
        self.metrics.histogram(
            "maintenance.stall_seconds", timing=True
        ).observe(time.perf_counter() - started)

    def _discard_maintenance(self) -> None:
        """Drop the job in flight unadopted; its dirt stays for the next
        run."""
        job, self._job = self._job, None
        job.release()
        self.metrics.gauge("maintenance.in_flight").set(0)

    def _refresh(self, outcome: _Outcome, upto: int | None = None) -> SimGraph:
        """Install a finished job's graph, built from the profiles up to
        log index ``upto`` (default: all of them); returns the graph
        held."""
        used = outcome.used
        self.metrics.counter(f"service.rebuild[{used}]").inc()
        self.metrics.histogram(
            f"service.rebuild_seconds[{used}]", timing=True
        ).observe(outcome.seconds)
        # Dirt consumed: either strategy has now seen the accumulated
        # profile changes and follow additions.
        self.profiles.mark_clean(upto)
        self.follow_graph.mark_clean()
        self._invalidate_warm(outcome.report)
        self._install(outcome.built, report=outcome.report)
        self.stats.rebuilds += 1
        return outcome.built

    def load_snapshot(self, path, mmap: bool = True) -> SimGraph:
        """Adopt a persisted SimGraph snapshot as the current graph.

        The paper-scale warm-start path: instead of replaying history
        and rebuilding, a service instance boots from a binary v2
        snapshot (:func:`repro.core.persistence.load_simgraph`) —
        memory-mapped by default, so adoption is milliseconds even at
        millions of edges.  The load counts as a rebuild: all warm state
        is dropped, current profile dirt is considered consumed (the
        snapshot is presumed built from equivalent state) and the next
        maintenance run is scheduled one ``rebuild_interval`` out rather
        than immediately, which would discard the loaded graph.

        On the ``csr`` propagation backend a memory-mapped graph
        compiles zero-copy; its arrays are read-only, and delta
        maintenance splices new ones from them instead of writing
        through.  Returns the loaded graph.
        """
        adopted = self._adopt(persistence.load_simgraph(path, mmap=mmap))
        self.metrics.counter("service.snapshot_loads").inc()
        return adopted

    def _adopt(self, simgraph: SimGraph) -> SimGraph:
        """Make ``simgraph`` the current graph without building it.

        Counts as a rebuild (see :meth:`load_snapshot`) and discards a
        maintenance job in flight; the offline recommender adopts an
        injected SimGraph the same way.  Returns ``simgraph``.
        """
        if self._job is not None:
            self._discard_maintenance()
        self._install(simgraph)
        self._invalidate_warm(None)
        self.profiles.mark_clean()
        self.follow_graph.mark_clean()
        self.stats.rebuilds += 1
        self.stats.last_rebuild_at = self._clock
        return simgraph

    def _invalidate_warm(self, report: DeltaReport | None) -> None:
        """Drop warm propagation state made stale by a rebuild.

        Without a delta report (a from-scratch build or an adopted
        graph) or after a topology change, every cached fixpoint may
        reference rows that no longer exist — full flush.  A weights-only delta keeps all
        topology, so only tweets whose seed sets intersect the affected
        users are evicted; a cached fixpoint can also *transitively*
        touch re-weighed rows, but warm state is only ever a starting
        point for further propagation, so the bounded staleness trades
        a deterministic, strictly-scoped flush for recomputation work.
        The seeds of every cached tweet are tested against the report's
        sorted ``affected_users`` in one vectorized membership test.
        """
        if report is None or report.topology_changed:
            self._warm.clear()
            return
        if report.noop:
            return
        tweets = self._warm.tweets()
        seeds = [self.profiles.retweeters_array(tweet) for tweet in tweets]
        owner = np.repeat(np.arange(len(tweets)), [len(ids) for ids in seeds])
        hit = np.isin(
            np.concatenate([_NO_USERS, *seeds]), report.affected_users
        )
        stale = [tweets[i] for i in sorted_unique(owner[hit]).tolist()]
        dropped = self._warm.invalidate_tweets(stale)
        self.metrics.counter("maintenance.cache_invalidations").inc(dropped)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics_snapshot(self, deterministic: bool = False) -> dict:
        """JSON-ready snapshot of every metric the service accumulated.

        With ``deterministic=True`` wall-clock measurements are stripped
        so two runs over the same event stream compare byte-identical.
        """
        self._refresh_health()
        return self.metrics.snapshot(deterministic=deterministic)

    def knows(self, user: int, tweet: int) -> bool:
        """Is ``user`` past notifying of ``tweet`` — already sharing it
        or already notified of it?"""
        known = self._known.get(tweet)
        if known is None:
            return user in self.profiles.retweeters(tweet)
        return user in known

    def known_pairs(self) -> set[tuple[int, int]]:
        """Every ``(user, tweet)`` :meth:`knows` answers True for."""
        pairs = {
            (user, tweet)
            for tweet, known in self._known.items()
            for user in known.sorted().tolist()
        }
        for tweet in self.profiles.tweets():
            pairs.update(
                (user, tweet) for user in self.profiles.retweeters(tweet)
            )
        return pairs

    def _refresh_health(self) -> None:
        """Mirror warm-cache and backlog state into stats and gauges.

        Every ingestion path and :meth:`metrics_snapshot` call this, so
        ``service.warm_hits`` / ``service.warm_misses`` /
        ``service.queue_depth`` are always current when the serving
        layer's load harness reads a snapshot mid-stream.
        """
        self.stats.warm_hits = self._warm.hits
        self.stats.warm_misses = self._warm.misses
        self.stats.queue_depth = (
            self._scheduler.pending_count if self._scheduler is not None else 0
        )
        self.metrics.gauge("service.warm_hits").set(self.stats.warm_hits)
        self.metrics.gauge("service.warm_misses").set(self.stats.warm_misses)
        self.metrics.gauge("service.queue_depth").set(self.stats.queue_depth)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _maintenance_due(self, at: float) -> bool:
        """Would advancing the clock to ``at`` adopt or start maintenance?

        Exposed as a predicate (not just inlined in :meth:`_advance`)
        because batched ingestion must flush deferred propagation
        *before* an adoption or a rebuild invalidates the warm cache and
        recompiles the engine mid-batch.
        """
        return (
            self._job is not None and at >= self._job.adopt_at
        ) or self._rebuild_due(at)

    def _rebuild_due(self, at: float) -> bool:
        due = self.stats.last_rebuild_at + self.config.rebuild_interval
        if self.stats.rebuilds == 0 or at >= due:
            return self.profiles.user_count > 0 or self.stats.rebuilds == 0
        return False

    def _advance(self, at: float) -> None:
        """Move the clock to ``at``: adopt a job whose lag is over, then
        run the first build or start lagged maintenance if one is due."""
        if at < self._clock:
            raise DatasetError(
                f"time must be monotone: {at} < current clock {self._clock}"
            )
        self._clock = at
        if self._job is not None and at >= self._job.adopt_at:
            self._adopt_maintenance()
        if self._rebuild_due(at):
            if self.stats.rebuilds == 0:
                self.rebuild()
            else:
                self._start_maintenance()

    def _tick(self, at: float) -> None:
        """Advance the clock to a retweet at ``at`` and count it."""
        self._advance(at)
        self.stats.events_ingested += 1
        self.metrics.counter("service.events").inc()

    def _release(self, event: Retweet) -> list[Seeded]:
        """Offer ``event``, fix the seeds of what it released, absorb it.

        The one place the per-event order lives.  A released task is
        seeded with its tweet's retweeters *before* the releasing event
        plus its batch's users, whether it is scored at once
        (:meth:`retweet`) or deferred (:meth:`ingest_batch`); the event
        itself is absorbed before anything it released is delivered.
        """
        if self._scheduler is not None:
            tasks = self._scheduler.offer(event)
        else:
            tasks = [
                PropagationTask(
                    tweet=event.tweet, users=(event.user,), due_time=event.time
                )
            ]
        released = self._seeded(tasks)
        self.absorb_retweet(event.user, event.tweet)
        return released

    def _seeded(self, tasks: list[PropagationTask]) -> list[Seeded]:
        """Pair each task with its seed set as of now: the tweet's
        retweeters plus the task's users."""
        return [
            (task, self.profiles.retweeters(task.tweet).union(task.users))
            for task in tasks
        ]

    def _known_of(self, tweet: int) -> _KnownUsers:
        """The tweet's known users, seeded from its retweeters when it is
        first posted or delivered; :meth:`absorb_retweet` keeps it current."""
        known = self._known.get(tweet)
        if known is None:
            known = self._known[tweet] = _KnownUsers(
                self.profiles.retweeters_array(tweet).copy()
            )
        return known

    def _score_tasks(self, released: list[Seeded]) -> list[Candidates]:
        """Per-task candidates, one joint invocation.

        Returns a list aligned with ``released`` (age-skipped tasks
        yield no candidates) so batched ingestion can attribute each
        task's candidates back to the event that released it.  Every
        runnable task's warm state is read before any new one is stored;
        candidates exclude seeds and scores below ``min_score``
        (:func:`~repro.core.propagation_csr.nonseed_candidates`).
        """
        per_task = [
            Candidates(task.tweet, task.due_time, _NO_USERS, _NO_SCORES)
            for task, _ in released
        ]
        slots: list[int] = []
        runnable: list[tuple[PropagationTask, float | None, frozenset[int]]] = []
        for i, (task, seeds) in enumerate(released):
            tweet = self.tweets.get(task.tweet)
            created_at = tweet.created_at if tweet is not None else None
            if created_at is not None:
                if task.due_time - created_at > self.config.max_tweet_age:
                    self._warm.pop(task.tweet)
                    continue
            slots.append(i)
            runnable.append((task, created_at, seeds))
        if not runnable:
            return per_task
        self._engine.propagate_many(
            [seeds for _, _, seeds in runnable],
            popularities=[len(seeds) for _, _, seeds in runnable],
            initials=[
                self._warm.get(task.tweet, now=task.due_time)
                for task, _, _ in runnable
            ],
        )
        for i, (task, created_at, seeds), state in zip(
            slots, runnable, self._engine.take_states()
        ):
            self._warm.put(
                task.tweet, state, created_at=created_at, now=task.due_time
            )
            per_task[i] = Candidates(
                task.tweet, task.due_time,
                *nonseed_candidates(state, seeds, self.config.min_score),
            )
        self.stats.propagations_run += len(runnable)
        return per_task

    def _deliver(self, released: list[Candidates]) -> list[Recommendation]:
        """Pass one event's candidates through the online budget.

        A candidate already notified of — or already sharing — its tweet
        is dropped first (which candidates those are does not depend on
        order, so nothing has been sorted yet); the rest are taken best
        score first (ties by user, then tweet) and one whose user has
        used up the day's budget is suppressed.  Only what gets through
        becomes a :class:`Recommendation`.
        """
        delivered: list[Recommendation] = []
        with self.metrics.span("budget"):
            total = 0
            fresh: list[tuple[Candidates, np.ndarray, _KnownUsers]] = []
            for candidates in released:
                total += len(candidates.users)
                known = self._known_of(candidates.tweet)
                unseen = known.unseen(candidates.users)
                if len(unseen):
                    fresh.append((candidates, unseen, known))
            if fresh:
                users = np.concatenate([c.users[unseen] for c, unseen, _ in fresh])
                scores = np.concatenate([c.scores[unseen] for c, unseen, _ in fresh])
                task_of = np.repeat(
                    np.arange(len(fresh)), [len(unseen) for _, unseen, _ in fresh]
                )
                tweets = np.array([c.tweet for c, _, _ in fresh])[task_of]
                order = np.lexsort((tweets, users, -scores))
                budget = self.config.daily_budget
                taken: set[tuple[int, int]] = set()
                for user, score, task in zip(
                    users[order].tolist(),
                    scores[order].tolist(),
                    task_of[order].tolist(),
                ):
                    (tweet, when, _, _), _, known = fresh[task]
                    if (user, tweet) in taken:
                        # Same pair twice in one release: delivered once.
                        continue
                    slot = (user, int(when // DAY))
                    used = self._delivered.get(slot, 0)
                    if used >= budget:
                        self.stats.notifications_suppressed += 1
                        continue
                    self._delivered[slot] = used + 1
                    taken.add((user, tweet))
                    known.add(user)
                    delivered.append(
                        Recommendation(
                            user=user, tweet=tweet, score=score, time=when
                        )
                    )
            self.stats.notifications_delivered += len(delivered)
        self.metrics.counter("budget.delivered").inc(len(delivered))
        self.metrics.counter("budget.rejections").inc(total - len(delivered))
        return delivered

    # ------------------------------------------------------------------
    # Batched and degraded ingestion
    # ------------------------------------------------------------------
    def ingest_batch(
        self, events: Sequence[tuple[int, int, float]]
    ) -> list[list[Recommendation]]:
        """Ingest an ordered run of retweets with coalesced propagation.

        ``events`` are ``(user, tweet, at)`` triples in non-decreasing
        time order.  The result is exactly what ``[self.retweet(u, t, a)
        for u, t, a in events]`` would return — same notifications, same
        budget accounting, same profile/scheduler/warm-cache state — but
        the propagation tasks released across the run are *deferred* and
        scored by as few joint :meth:`propagate_many` invocations as
        correctness allows.  This is the micro-batching entry point of
        the serving layer (:mod:`repro.serve`): at saturation the batch
        amortizes the engine dispatch that per-request ingestion pays
        per event.

        A deferred task keeps the seeds it was released with (see
        :meth:`_release`).  Deferral never crosses a correctness
        boundary; the pending batch is flushed before

        * an event whose tweet already has a deferred task (its absorb
          would reach the task's delivery dedup early, and its own task
          must warm-start from the deferred one's fixpoint);
        * the tasks an event releases, if any of them is for a tweet
          already deferred (it must warm-start from that fixpoint).  An
          event can release another tweet's batch whose previous batch an
          earlier event of this run released; the flush comes before any
          of the event's tasks is deferred, so its release is still
          delivered by one ``_deliver`` call, as sequentially;
        * an event whose timestamp makes maintenance due or adopts a
          job in flight (either may install a new graph, recompiling the
          engine and invalidating warm state, so deferred work must be
          scored against the graph it was released under).

        The only tolerated divergence from sequential ingestion is
        warm-cache **LRU victim order** when the cache thrashes at
        capacity within a single batch (reads happen before the batch's
        writes instead of interleaved); entries never outlive their 72h
        horizon either way.

        Unknown tweet ids and timestamps that run backwards (within the
        batch or against the service clock) raise :class:`DatasetError`
        before any state changes — the per-event path validates the same
        way, just one event at a time, so a caller can replay a rejected
        batch through :meth:`retweet` to isolate the offending event.
        """
        unknown = sorted({t for _, t, _ in events if t not in self.tweets})
        if unknown:
            raise DatasetError(f"unknown tweet ids {unknown}")
        clock = self._clock
        for _, _, at in events:
            if at < clock:
                raise DatasetError(
                    f"time must be monotone: {at} < current clock {clock}"
                )
            clock = at
        delivered: list[list[Recommendation]] = [[] for _ in events]
        pending: list[tuple[int, Seeded]] = []
        pending_tweets: set[int] = set()

        def flush_pending() -> None:
            if not pending:
                return
            per_task = self._score_tasks([seeded for _, seeded in pending])
            by_owner: dict[int, list[Candidates]] = {}
            for (owner, _), candidates in zip(pending, per_task):
                by_owner.setdefault(owner, []).append(candidates)
            # Sequential ingestion delivers each event's released batch
            # in one _deliver call; replay that grouping in event order.
            for owner in sorted(by_owner):
                delivered[owner].extend(self._deliver(by_owner[owner]))
            pending.clear()
            pending_tweets.clear()

        for i, (user, tweet, at) in enumerate(events):
            if pending and self._maintenance_due(at):
                flush_pending()
            if tweet in pending_tweets:
                flush_pending()
            started = time.perf_counter()
            self._tick(at)
            event = Retweet(user=user, tweet=tweet, time=at)
            released = self._release(event)
            if any(task.tweet in pending_tweets for task, _ in released):
                flush_pending()
            for seeded in released:
                pending.append((i, seeded))
                pending_tweets.add(seeded[0].tweet)
            self.metrics.histogram(
                "service.retweet_seconds", timing=True
            ).observe(time.perf_counter() - started)
        flush_pending()
        self._refresh_health()
        return delivered

    def warm_answer(
        self, user: int, tweet: int, at: float
    ) -> list[Recommendation] | None:
        """Degraded-mode ingestion: absorb the event, answer from cache.

        The serving layer's overload escape hatch (the middle rung of its
        full → warm-cache-only → shed ladder).  The retweet still lands
        in the profiles/retweeter state — future maintenance and any
        later full propagation of ``tweet`` see it — but no propagation
        runs.  The answer is a read-only view of the warm cache's last
        fixpoint for ``tweet`` (non-seed users at or above
        ``min_score``), or ``None`` when no warm state exists.  Nothing
        is *delivered*: daily budgets and the known-pair dedup are
        untouched, so a degraded answer never corrupts the bookkeeping a
        later full propagation relies on.
        """
        if tweet not in self.tweets:
            raise DatasetError(f"unknown tweet id {tweet}")
        self._tick(at)
        self.metrics.counter("service.warm_answers").inc()
        self.absorb_retweet(user, tweet)
        state = self._warm.get(tweet, now=at)
        self._refresh_health()
        if state is None:
            self.metrics.counter("service.warm_answer_misses").inc()
            return None
        users, scores = self._candidates(state, tweet)
        return [
            Recommendation(user=u, tweet=tweet, score=p, time=at)
            for u, p in zip(users.tolist(), scores.tolist())
        ]

    def warm_scores(
        self, tweet_ids: Iterable[int]
    ) -> dict[int, dict[int, float] | None]:
        """Read-only warm-cache scores per tweet (``None`` on a miss).

        The degraded counterpart of :meth:`score_batch`: no clock
        movement, no propagation — just the cached fixpoint filtered to
        non-seeds at or above ``min_score``.  Unknown tweets raise, like
        every scoring entry point.
        """
        out: dict[int, dict[int, float] | None] = {}
        for tweet in tweet_ids:
            if tweet not in self.tweets:
                raise DatasetError(f"unknown tweet id {tweet}")
            state = self._warm.get(tweet)
            if state is None:
                out[tweet] = None
                continue
            users, scores = self._candidates(state, tweet)
            out[tweet] = dict(zip(users.tolist(), scores.tolist()))
        return out

    def _candidates(self, state, tweet: int) -> tuple[np.ndarray, np.ndarray]:
        """Recommendees of ``tweet`` in a fixpoint ``state``, by user."""
        return nonseed_candidates(
            state, self.profiles.retweeters(tweet), self.config.min_score
        )

    # ------------------------------------------------------------------
    # SimGraph and engine
    # ------------------------------------------------------------------
    def _apply_delta(
        self, plan: DeltaPlan, metrics: MetricsRegistry, profiles: RetweetProfiles
    ) -> tuple[SimGraph, DeltaReport]:
        """Rescore ``plan``'s region of ``profiles``; return ``(built,
        report)``."""
        return apply_delta(
            self._simgraph,
            self.follow_graph,
            profiles,
            self._builder,
            plan=plan,
            metrics=metrics,
        )

    def _install(
        self, simgraph: SimGraph, report: DeltaReport | None = None
    ) -> None:
        """Make ``simgraph`` current and build the engine over it.

        On the ``csr`` backend a delta (``report``) hands back the graph
        it spliced; anything else counts as a compile.
        """
        if self.config.prop_backend == "csr":
            if report is None:
                self.metrics.counter("propagation.csr_compiled").inc()
            elif not report.noop:
                self.metrics.counter("propagation.csr_spliced").inc()
            if report is not None and simgraph is not self._simgraph:
                # Warm state outlives a delta only when the delta kept
                # the topology (_invalidate_warm), and so every node's
                # position: move the survivors onto the new graph.
                self._warm.restate(lambda state: state.on(simgraph))
        self._simgraph = simgraph
        self._engine = make_propagation_engine(
            simgraph,
            prop_backend=self.config.prop_backend,
            threshold=self.threshold,
            metrics=self.metrics,
        )

    @property
    def simgraph(self) -> SimGraph:
        """The current similarity graph."""
        return self._simgraph

    @property
    def edge_count(self) -> int:
        """Edges of the current SimGraph."""
        return self._simgraph.edge_count

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score_batch(self, tweet_ids: list[int]) -> dict[int, dict[int, float]]:
        """Score several live tweets in one batched invocation.

        The batch goes through the engine's :meth:`propagate_many` —
        the same cold-start frontier fixpoint the live ingestion path
        emits — so every ``prop_backend`` returns equal results, each
        identical to scoring the tweet through a single
        ``engine.propagate`` call; the test suite pins both equalities.

        Returns ``{tweet: {user: probability}}`` with seeds removed and
        the configured ``min_score`` floor applied — the offline/backlog
        counterpart of the incremental per-event propagation.  Warm
        state is neither read nor written: batch scoring is a pure
        query.
        """
        unknown = [t for t in tweet_ids if t not in self.tweets]
        if unknown:
            raise DatasetError(f"unknown tweet ids {unknown}")
        seed_sets = [self.profiles.retweeters(t) for t in tweet_ids]
        self._engine.propagate_many(
            seed_sets,
            popularities=[len(seeds) for seeds in seed_sets],
        )
        out: dict[int, dict[int, float]] = {}
        for tweet, state in zip(tweet_ids, self._engine.take_states()):
            users, scores = self._candidates(state, tweet)
            out[tweet] = dict(zip(users.tolist(), scores.tolist()))
        return out
