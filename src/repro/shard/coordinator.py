"""Sharded recommendation service: coordinator, dispatch and global merge.

:class:`ShardedRecommendationService` is a
:class:`~repro.service.engine.ServiceCore` like the single-process
:class:`~repro.service.engine.RecommendationService` — the serving loop
is the same code — that replaces the scorer and the build steps with
requests to worker shards, and produces **bit-identical output**: the
differential suite (``tests/test_shard_differential.py``) pins delivered
notifications, service stats and the assembled SimGraph across shard
counts.

Division of labour
------------------
The core keeps everything cheap and sequential in the coordinator
process: the follow graph, retweet profiles, tweet registry, the
postponed scheduler, the online budget, and the *decisions* of the
warm-state cache (here a token LRU fed the same get/put/evict call
sequence as the single-process cache, so eviction — which changes
warm-vs-cold starts and therefore output — stays centralized).  Workers
own the expensive state: SimGraph rows of their users, inverted indexes,
propagation values and warm slices.

Per retweet event the coordinator routes the propagation task to the
shards whose rows reference a newly pinned seed (usually one, thanks to
community-aware partitioning), grants a single active shard a *free run*,
paces multi-shard tasks through synchronous rounds with boundary-crossing
emissions, and merges the per-shard score maps — disjoint by ownership —
into the globally ordered release list the budget consumes.

Score-merge caching: a shard not involved in a task cannot have changed
any of its values, so its previous score map is reused from a
coordinator-side cache instead of a round trip.  Together with free-run
grants this makes the common (shard-local) event cost one request to one
worker.

Maintenance keeps the delta engine's economics: the coordinator computes
the affected-region plan from its replicas, workers rebuild the core rows
they own and exchange cross-shard fringe patches through the coordinator
(the ``needed`` pairs of :func:`repro.core.delta.affected_region`),
exactly reproducing the single-process surgery order.
"""

from __future__ import annotations

import time as _time
from typing import Any, Iterable

from repro.core.delta import DeltaPlan, DeltaReport
from repro.core.propagation_csr import nonseed_candidates
from repro.core.scheduler import DelayPolicy, PropagationTask
from repro.core.simgraph import SimGraph
from repro.core.thresholds import ThresholdPolicy
from repro.data.models import Retweet
from repro.exceptions import ConfigError, ShardError
from repro.graph.digraph import DiGraph
from repro.obs import MetricsRegistry
from repro.service.engine import Candidates, ServiceConfig, ServiceCore
from repro.shard.partition import (
    DEFAULT_BALANCE_TOLERANCE,
    ShardPlan,
    partition_users,
)
from repro.shard.worker import ShardWorkerState, shard_worker_main

__all__ = ["ShardedRecommendationService"]

#: Influencer cap the workers build rows with; fixed to the service
#: builder's default (ServiceConfig does not expose it either).
_MAX_INFLUENCERS = None
_TOLERANCE = 1e-10
_MAX_ITERATIONS = 200


class _InProcessWorker:
    """Worker handle executing the protocol synchronously in-process.

    The differential matrix runs dozens of sharded services; in-process
    workers keep the exact protocol (same dispatch code path) without
    process overhead.  ``send``/``collect`` mimic the async pipe pair.
    """

    def __init__(self, shard_id: int, init: dict):
        self.shard_id = shard_id
        self.state = ShardWorkerState(
            shard_id=shard_id,
            plan=init["plan"],
            tau=init["tau"],
            min_score=init["min_score"],
            tolerance=init["tolerance"],
            max_iterations=init["max_iterations"],
            hops=init["hops"],
            max_influencers=init["max_influencers"],
        )
        self.state.apply_events(init.get("events", []))
        self._result: Any = None
        self._pending = False

    def send(self, op: str, payload: Any) -> None:
        if self._pending:
            raise ShardError(
                f"shard {self.shard_id}: request already in flight"
            )
        try:
            self._result = ("ok", self.state.dispatch(op, payload))
        except Exception as exc:
            self._result = ("error", f"{type(exc).__name__}: {exc}")
        self._pending = True

    def collect(self, timeout: float) -> Any:
        if not self._pending:
            raise ShardError(f"shard {self.shard_id}: no request in flight")
        self._pending = False
        status, payload = self._result
        if status == "error":
            raise ShardError(f"shard {self.shard_id} failed:\n{payload}")
        return payload

    def close(self) -> None:
        self._pending = False


class _ProcessWorker:
    """Worker handle over a dedicated OS process and duplex pipe."""

    def __init__(self, shard_id: int, init: dict, ctx):
        self.shard_id = shard_id
        self._conn, child = ctx.Pipe(duplex=True)
        self._proc = ctx.Process(
            target=shard_worker_main,
            args=(child, init),
            daemon=True,
            name=f"repro-shard-{shard_id}",
        )
        self._proc.start()
        child.close()

    def send(self, op: str, payload: Any) -> None:
        try:
            self._conn.send((op, payload))
        except (BrokenPipeError, OSError) as exc:
            raise ShardError(
                f"shard {self.shard_id} worker is gone "
                f"(exit code {self._proc.exitcode}): cannot send {op!r}"
            ) from exc

    def collect(self, timeout: float) -> Any:
        deadline = _time.monotonic() + timeout
        while True:
            try:
                if self._conn.poll(0.02):
                    status, payload = self._conn.recv()
                    break
            except (EOFError, OSError):
                raise ShardError(
                    f"shard {self.shard_id} worker died mid-request "
                    f"(exit code {self._proc.exitcode})"
                ) from None
            if not self._proc.is_alive():
                raise ShardError(
                    f"shard {self.shard_id} worker died mid-request "
                    f"(exit code {self._proc.exitcode})"
                )
            if _time.monotonic() > deadline:
                raise ShardError(
                    f"shard {self.shard_id} worker timed out after "
                    f"{timeout:.0f}s"
                )
        if status == "error":
            raise ShardError(f"shard {self.shard_id} failed:\n{payload}")
        return payload

    def close(self) -> None:
        try:
            if self._proc.is_alive():
                self._conn.send(("stop", None))
        except (BrokenPipeError, OSError):
            pass
        self._proc.join(timeout=2.0)
        if self._proc.is_alive():  # pragma: no cover - stuck worker
            self._proc.terminate()
            self._proc.join(timeout=2.0)
        self._conn.close()


class ShardedRecommendationService(ServiceCore):
    """The service core with scoring and building sharded over workers.

    Parameters beyond the single-process service:

    n_shards:
        Worker count.  The user partition is computed once, at the first
        rebuild, from the follow graph known at that point; later users
        fall back to ``user % n_shards``.
    partition_seed / balance_tolerance:
        Passed to :func:`repro.shard.partition.partition_users`.
    start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"`` select the
        multiprocessing context; ``"inprocess"`` runs workers as plain
        objects inside the coordinator process (same protocol, no IPC) —
        the mode the differential matrix uses; ``None`` picks ``fork``
        when available.
    request_timeout:
        Seconds before a pending worker reply raises :class:`ShardError`.

    Restrictions (each rejected with :class:`ConfigError`): the rebuild
    strategy must be ``"delta"`` or ``"from scratch"`` (*crossfold*
    explores the previous SimGraph, which no longer exists in one piece);
    the build backend must be ``"reference"`` (the vectorized builder is
    only weight-identical to 1e-12, which would break the bit-exactness
    contract).  ``config.prop_backend`` is not read: the coordinator
    never builds a propagation engine, and workers always run the
    distributed frontier rounds of :mod:`repro.shard.worker`.
    """

    _strategies = ("delta", "from scratch")

    def __init__(
        self,
        n_shards: int,
        config: ServiceConfig | None = None,
        threshold: ThresholdPolicy | None = None,
        delay_policy: DelayPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        partition_seed: int = 0,
        balance_tolerance: float = DEFAULT_BALANCE_TOLERANCE,
        start_method: str | None = None,
        request_timeout: float = 120.0,
    ):
        if n_shards < 1:
            raise ConfigError(f"n_shards must be at least 1, got {n_shards}")
        super().__init__(
            config
            if config is not None
            else ServiceConfig(rebuild_strategy="delta"),
            threshold, delay_policy, metrics,
        )
        if self.config.backend != "reference":
            raise ConfigError(
                "sharded service requires backend='reference': the "
                "vectorized builder is only weight-identical to 1e-12, "
                "which breaks the shard-vs-single bit-exactness contract"
            )
        self._n_shards = n_shards
        self._partition_seed = partition_seed
        self._balance_tolerance = balance_tolerance
        self._start_method = start_method
        self._request_timeout = request_timeout

        # ``self._warm`` holds tokens, not fixpoints: its payload is the
        # set of users whose stored value is exactly 1.0 (the warm
        # "already seeded" test), while the value slices live on the
        # workers and only follow this cache's eviction decisions.
        self._token_view: set[int] = set()
        #: tweet -> shard -> last finalized score map (non-seed, owned,
        #: >= min_score).  Reused for shards a task never engaged.
        self._score_cache: dict[int, dict[int, dict[int, float]]] = {}

        #: Append-only replica event log; workers consume it via a
        #: single shared cursor (all replica syncs are broadcasts).
        self._event_log: list[tuple] = []
        self._event_cursor = 0
        self._plan: ShardPlan | None = None
        self._workers: list[Any] | None = None
        self._pending_evict: list[set[int]] = [set() for _ in range(n_shards)]
        #: user -> shards whose rows reference it (aggregated after each
        #: rebuild); drives task routing and emission fan-out.
        self._refs: dict[int, tuple[int, ...]] = {}
        self._edge_count = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self._n_shards

    @property
    def plan(self) -> ShardPlan | None:
        """The partition plan (None until the first rebuild)."""
        return self._plan

    @property
    def edge_count(self) -> int:
        """Total SimGraph edges across all shards."""
        return self._edge_count

    def _worker_init(self, shard_id: int) -> dict:
        return {
            "shard_id": shard_id,
            "plan": self._plan,
            "tau": self.config.tau,
            "min_score": self.config.min_score,
            "tolerance": _TOLERANCE,
            "max_iterations": _MAX_ITERATIONS,
            "hops": self._hops,
            "max_influencers": _MAX_INFLUENCERS,
            "events": list(self._event_log),
        }

    def _ensure_workers(self) -> None:
        if self._workers is not None:
            return
        self._check_open()
        self._plan = partition_users(
            self.follow_graph,
            self._n_shards,
            seed=self._partition_seed,
            balance_tolerance=self._balance_tolerance,
        )
        self.metrics.gauge("shard.workers").set(self._n_shards)
        self.metrics.gauge("shard.boundary_follow_fraction").set(
            self._plan.boundary_fraction(self.follow_graph)
        )
        self._event_cursor = len(self._event_log)
        workers: list[Any] = []
        if self._start_method == "inprocess":
            for shard_id in range(self._n_shards):
                workers.append(
                    _InProcessWorker(shard_id, self._worker_init(shard_id))
                )
        else:
            import multiprocessing as mp

            method = self._start_method
            if method is None:
                method = (
                    "fork" if "fork" in mp.get_all_start_methods() else "spawn"
                )
            ctx = mp.get_context(method)
            for shard_id in range(self._n_shards):
                workers.append(
                    _ProcessWorker(shard_id, self._worker_init(shard_id), ctx)
                )
        self._workers = workers

    def _check_open(self) -> None:
        if self._closed:
            raise ShardError("service is closed")

    def _sync_evictions(self) -> None:
        """Queue token-cache evictions for delivery to every worker."""
        current = set(self._warm.tweets())
        evicted = self._token_view - current
        if evicted:
            for pending in self._pending_evict:
                pending.update(evicted)
            for tweet in evicted:
                self._score_cache.pop(tweet, None)
        self._token_view = current

    def _send(self, shard: int, op: str, payload: dict) -> None:
        """Ship a request, prepending any pending slice evictions."""
        self._check_open()
        self._sync_evictions()
        pending = self._pending_evict[shard]
        if pending:
            payload = dict(payload)
            payload["evict"] = sorted(pending)
            pending.clear()
        self._workers[shard].send(op, payload)

    def _request_all(
        self, targets: Iterable[int], op: str, payloads: dict[int, dict]
    ) -> dict[int, Any]:
        """Fan a request out to ``targets`` and gather every reply."""
        targets = list(targets)
        for shard in targets:
            self._send(shard, op, payloads[shard])
        return {
            shard: self._workers[shard].collect(self._request_timeout)
            for shard in targets
        }

    def _broadcast(self, op: str, payload: dict) -> dict[int, Any]:
        return self._request_all(
            range(self._n_shards), op,
            {shard: payload for shard in range(self._n_shards)},
        )

    # ------------------------------------------------------------------
    # Replica event log (what the core's ingestion adds for the workers)
    # ------------------------------------------------------------------
    def add_user(self, user: int) -> None:
        super().add_user(user)
        self._event_log.append(("user", user))

    def add_follow(self, follower: int, followee: int) -> None:
        if not self.follow_graph.has_edge(follower, followee):
            self._event_log.append(("follow", follower, followee))
        super().add_follow(follower, followee)

    def _absorb(self, event: Retweet) -> None:
        super()._absorb(event)
        self._event_log.append(("rt", event.user, event.tweet))

    def _drain_events(self) -> list[tuple]:
        chunk = self._event_log[self._event_cursor :]
        self._event_cursor = len(self._event_log)
        return chunk

    # ------------------------------------------------------------------
    # Maintenance (the build steps of ServiceCore.rebuild)
    # ------------------------------------------------------------------
    def _build_from_scratch(self) -> dict[int, Any]:
        self._ensure_workers()
        return self._broadcast("rebuild_full", {"events": self._drain_events()})

    def _apply_delta(
        self, plan: DeltaPlan
    ) -> tuple[dict[int, Any] | None, DeltaReport]:
        if plan.is_empty:
            self._broadcast(
                "events", {"events": self._drain_events(), "mark_clean": True}
            )
            return None, DeltaReport.empty()
        return self._delta_phases(plan)

    def _delta_phases(self, plan) -> tuple[dict[int, Any], DeltaReport]:
        """Run the two-phase distributed delta and aggregate its report."""
        core = set(plan.core)
        needed = {w: sorted(users) for w, users in plan.needed.items()}
        fringe = plan.fringe
        if _MAX_INFLUENCERS is not None and fringe:  # pragma: no cover
            core |= fringe
            needed = {}
            fringe = frozenset()
        core_sorted = sorted(core)
        self.metrics.counter("maintenance.dirty_users").inc(
            len(plan.dirty_users)
        )
        self.metrics.counter("maintenance.dirty_tweets").inc(
            len(plan.dirty_tweets)
        )
        self.metrics.counter("maintenance.affected_users").inc(
            len(core) + len(fringe)
        )
        events = self._drain_events()
        phase1 = self._broadcast(
            "rebuild_delta",
            {"events": events, "core": core_sorted, "needed": needed},
        )
        topology_changed = any(
            r["topology_changed"] for r in phase1.values()
        )
        pairs = sum(r["pairs_rescored"] for r in phase1.values())
        rows_changed = sum(r["rows_changed"] for r in phase1.values())

        # Route each (core w, fringe u) score to u's owner, along with the
        # candidate lists the owner needs to reconstruct the reference
        # attention sets.  Patch application follows the global ascending
        # core order, so new fringe edges append at reference positions.
        owner = self._plan.owner
        patches: dict[int, dict[int, dict[int, float]]] = {
            s: {} for s in range(self._n_shards)
        }
        candidates: dict[int, dict[int, list[int]]] = {
            s: {} for s in range(self._n_shards)
        }
        for w, users in needed.items():
            for u in users:
                candidates[owner(u)].setdefault(w, []).append(u)
        for reply in phase1.values():
            for w, scores in reply["patches"].items():
                for u, score in scores.items():
                    patches[owner(u)].setdefault(w, {})[u] = score
        cross_pairs = sum(
            len(scores)
            for shard, by_w in patches.items()
            for w, scores in by_w.items()
            if owner(w) != shard
        )
        self.metrics.counter("shard.fringe_patch_pairs").inc(
            sum(len(s) for by_w in patches.values() for s in by_w.values())
        )
        self.metrics.counter("shard.cross_shard_patch_pairs").inc(cross_pairs)

        payloads = {}
        fringe_targets = []
        plain_targets = []
        for shard in range(self._n_shards):
            relevant = sorted(set(patches[shard]) | set(candidates[shard]))
            if relevant:
                fringe_targets.append(shard)
                payloads[shard] = {
                    "core_order": relevant,
                    "candidates": candidates[shard],
                    "patches": patches[shard],
                }
            else:
                plain_targets.append(shard)
        replies = self._request_all(fringe_targets, "apply_fringe", payloads)
        replies.update(
            self._request_all(
                plain_targets, "finish_rebuild",
                {s: {} for s in plain_targets},
            )
        )
        topology_changed = topology_changed or any(
            r["topology_changed"] for r in replies.values() if "topology_changed" in r
        )
        self.metrics.counter("maintenance.rows_recomputed").inc(len(core))
        self.metrics.counter("maintenance.rows_patched").inc(len(fringe))
        self.metrics.counter("maintenance.pairs_rescored").inc(pairs)
        pairs_needed = sum(map(len, needed.values()))
        self.metrics.counter("maintenance.pairs_needed").inc(pairs_needed)
        report = DeltaReport(
            noop=False,
            core_size=len(core),
            fringe_size=len(fringe),
            rows_recomputed=len(core),
            rows_patched=len(fringe),
            pairs_rescored=pairs,
            changed_users=frozenset(),
            affected_users=frozenset(core) | fringe,
            topology_changed=topology_changed,
            pairs_needed=pairs_needed,
        )
        if rows_changed:
            self.metrics.counter("shard.delta_rows_changed").inc(rows_changed)
        return replies, report

    def _invalidate_warm(self, report: DeltaReport | None) -> None:
        super()._invalidate_warm(report)
        if report is None or report.topology_changed:
            self._score_cache.clear()
            self._token_view = set()

    def _adopt(
        self, replies: dict[int, Any] | None, report: DeltaReport | None
    ) -> None:
        if replies is not None:
            self._adopt_topology(
                replies,
                clear_warm=report is None or report.topology_changed,
            )

    def _adopt_topology(
        self, replies: dict[int, Any], clear_warm: bool
    ) -> None:
        """Aggregate reindex reports; ship refs and cache decisions."""
        refs: dict[int, list[int]] = {}
        edges = 0
        boundary = 0
        for shard in sorted(replies):
            reply = replies[shard]
            edges += reply["edges"]
            boundary += reply["boundary_edges"]
            for v in reply["referenced"]:
                refs.setdefault(v, []).append(shard)
        self._refs = {v: tuple(shards) for v, shards in refs.items()}
        self._edge_count = edges
        self.metrics.gauge("shard.boundary_edge_fraction").set(
            boundary / edges if edges else 0.0
        )
        owner = self._plan.owner
        per_worker: dict[int, dict[int, tuple[int, ...]]] = {
            s: {} for s in range(self._n_shards)
        }
        for v, shards in self._refs.items():
            own = owner(v)
            others = tuple(s for s in shards if s != own)
            if others:
                per_worker[own][v] = others
        if clear_warm:
            for pending in self._pending_evict:
                pending.clear()
        self._request_all(
            range(self._n_shards),
            "refs",
            {
                s: {"refs": per_worker[s], "clear_warm": clear_warm}
                for s in range(self._n_shards)
            },
        )

    def _adopt_snapshot(self, path, mmap: bool) -> None:
        """Every worker memory-maps the same v2 snapshot (shared pages)
        and keeps its owned rows."""
        self._ensure_workers()
        events = self._drain_events()
        if events:
            self._broadcast("events", {"events": events, "mark_clean": False})
        replies = self._broadcast(
            "load_snapshot", {"path": str(path), "mmap": mmap}
        )
        self._adopt_topology(replies, clear_warm=True)

    def export_simgraph(self) -> SimGraph:
        """Assemble the distributed rows into one in-memory SimGraph.

        Inspection/testing aid — the differential suite compares this
        against the single-process service's graph edge-for-edge.
        """
        self._ensure_workers()
        replies = self._broadcast("dump_rows", {})
        graph = DiGraph()
        for shard in sorted(replies):
            rows = replies[shard]
            for u in sorted(rows):
                if rows[u]:
                    graph.set_row(u, rows[u])
        return SimGraph(graph, tau=self.config.tau)

    # ------------------------------------------------------------------
    # Propagation dispatch
    # ------------------------------------------------------------------
    def _score_runnable(
        self, runnable: list[tuple[PropagationTask, float | None, set[int]]]
    ) -> list[Candidates]:
        """Route tasks to shards, pace lock-step rounds, merge the scores."""
        self.metrics.counter("shard.events_routed").inc(len(runnable))

        # One warm get per runnable task, before any put, so the token
        # cache sees the LRU sequence of the single-process cache.
        prepared = []
        for task, created_at, seeds in runnable:
            token = self._warm.get(task.tweet, now=task.due_time)
            warm = token is not None
            seeds_sorted = sorted(seeds)
            if warm:
                ones = token["ones"]
                new_seeds = [s for s in seeds_sorted if s not in ones]
            else:
                new_seeds = seeds_sorted
            active = sorted(
                {
                    shard
                    for s in new_seeds
                    for shard in self._refs.get(s, ())
                }
            )
            spec = {
                "tweet": task.tweet,
                "seeds": seeds_sorted,
                "new_seeds": new_seeds,
                "beta": self.threshold.threshold_for(len(seeds)),
                "warm": warm,
                "cold": not warm,
                "mode": "seed",
                "solo": len(active) == 1,
            }
            prepared.append((task, created_at, seeds, token, spec, active))

        states: dict[int, dict] = {}
        dispatch_specs: dict[int, list[dict]] = {}
        for task, created_at, seeds, token, spec, active in prepared:
            states[task.tweet] = {
                "spec": spec,
                "engaged": set(active),
                "active": set(),
                "incoming": {},
                "rounds": 0,
            }
            if spec["solo"]:
                self.metrics.counter("shard.solo_grants").inc()
            for shard in active:
                dispatch_specs.setdefault(shard, []).append(spec)
        replies = self._request_all(
            sorted(dispatch_specs),
            "tasks",
            {
                shard: {"specs": specs}
                for shard, specs in dispatch_specs.items()
            },
        )
        fanouts = self.metrics.counter("shard.cross_shard_fanouts")

        def apply_result(tweet: int, shard: int, result: dict) -> None:
            st = states[tweet]
            if result["active"]:
                st["active"].add(shard)
            else:
                st["active"].discard(shard)
            st["rounds"] = max(st["rounds"], result["rounds"])
            for target, emitted in result["emissions"].items():
                st["incoming"].setdefault(target, {}).update(emitted)
                fanouts.inc(len(emitted))

        for shard, by_tweet in replies.items():
            for tweet, result in by_tweet.items():
                apply_result(tweet, shard, result)

        # Lock-step continuation: every round, step each worker that has
        # incoming mirror updates or a live local frontier, all in
        # parallel, until the global frontier dies (or the cap hits).
        lockstep_rounds = self.metrics.counter("shard.lockstep_rounds")
        while True:
            work: dict[int, dict] = {}
            for tweet, st in states.items():
                if st["rounds"] >= _MAX_ITERATIONS:
                    st["incoming"].clear()
                    st["active"].clear()
                    continue
                targets = set(st["incoming"]) | st["active"]
                if not targets:
                    continue
                for shard in targets:
                    entry = work.setdefault(shard, {"steps": {}, "init": []})
                    if shard not in st["engaged"]:
                        st["engaged"].add(shard)
                        entry["init"].append(st["spec"])
                    entry["steps"][tweet] = st["incoming"].get(shard, {})
                st["incoming"] = {}
            if not work:
                break
            lockstep_rounds.inc()
            step_replies = self._request_all(sorted(work), "step", work)
            for shard, by_tweet in step_replies.items():
                for tweet, result in by_tweet.items():
                    apply_result(tweet, shard, result)

        # Finalize: engaged workers store warm slices and return their
        # owned score maps; untouched shards contribute their cached maps.
        merge_started = _time.perf_counter()
        finalize_targets: dict[int, list[int]] = {}
        for tweet, st in states.items():
            for shard in sorted(st["engaged"]):
                finalize_targets.setdefault(shard, []).append(tweet)
        final_replies = self._request_all(
            sorted(finalize_targets),
            "finalize",
            {
                shard: {"tweets": tweets}
                for shard, tweets in finalize_targets.items()
            },
        )

        scored: list[Candidates] = []
        for task, created_at, seeds, token, spec, active in prepared:
            st = states[task.tweet]
            engaged = st["engaged"]
            if spec["cold"]:
                cache: dict[int, dict[int, float]] = {}
                self._score_cache[task.tweet] = cache
            else:
                cache = self._score_cache.setdefault(task.tweet, {})
            ones: set[int] = set(seeds)
            if token is not None:
                owner = self._plan.owner
                ones.update(
                    u for u in token["ones"] if owner(u) not in engaged
                )
            for shard in sorted(engaged):
                result = final_replies[shard][task.tweet]
                cache[shard] = result["scores"]
                ones.update(result["ones"])
            merged: dict[int, float] = {}
            for shard in sorted(cache):
                merged.update(cache[shard])
            self._warm.put(
                task.tweet,
                {"ones": frozenset(ones)},
                created_at=created_at,
                now=task.due_time,
            )
            scored.append(
                Candidates(
                    task.tweet, task.due_time,
                    *nonseed_candidates(merged, seeds, self.config.min_score),
                )
            )
        self.metrics.histogram("shard.merge_seconds", timing=True).observe(
            _time.perf_counter() - merge_started
        )
        return scored

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down every worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._workers is not None:
            for worker in self._workers:
                try:
                    worker.close()
                except Exception:  # pragma: no cover - best effort
                    pass
            self._workers = None

    def __enter__(self) -> "ShardedRecommendationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
