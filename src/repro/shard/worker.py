"""Per-shard worker: a slice of the recommendation service.

Each worker owns the SimGraph rows of the users its shard was assigned
(:class:`~repro.shard.partition.ShardPlan`), plus full replicas of the
follow graph and retweet profiles (cheap relative to similarity rows and
propagation state, and required for the maintenance walks).  The
coordinator drives workers through a small request/reply protocol —
every request is a ``(op, payload)`` tuple, every reply ``("ok", result)``
or ``("error", traceback)``.

Bit-identical distributed propagation
-------------------------------------
The reference engine (:class:`~repro.core.propagation.PropagationEngine`)
is a *round-synchronous Jacobi* iteration: every dirty user's new value is
computed from the previous round's values, and the per-user sum iterates
the row in insertion order.  That makes a bulk-synchronous-parallel (BSP)
split exact, not approximate:

* each worker recomputes only the dirty users it owns, with the same
  row dicts in the same order — identical float operations;
* values of remote influencers are *mirrored*: whenever an owned user's
  value changes and another shard's rows reference it, the new value is
  emitted to that shard at the round barrier, so every mirror equals the
  reference dict entry at the start of the next round;
* seeds are pinned to 1.0 on every worker (seed sets are globally known),
  so seed values never need emitting.

Most tasks never cross a shard boundary (homophily keeps the frontier
community-local): the coordinator grants the single active worker a
*free run* — it iterates locally until its frontier dies or it produces
the first cross-shard emission, at which point the computation degrades
gracefully to coordinator-paced lock-step rounds.

The worker state object is plain Python and fully usable in-process
(the differential suite runs the whole protocol without processes);
:func:`shard_worker_main` wraps it in a pipe-served loop for
multiprocessing deployment.
"""

from __future__ import annotations

import traceback
from typing import Any

from repro.core.delta import _reference_core_state
from repro.core.profiles import RetweetProfiles
from repro.core.simgraph import SimGraphBuilder
from repro.graph.digraph import DiGraph
from repro.shard.partition import ShardPlan

__all__ = ["ShardWorkerState", "shard_worker_main"]


class _TaskState:
    """In-flight propagation state of one task on one worker."""

    __slots__ = ("values", "frontier", "muted", "seeds", "beta", "rounds")

    def __init__(self, values: dict[int, float], seeds: frozenset[int], beta: float):
        self.values = values
        self.frontier: set[int] = set()
        self.muted: set[int] = set()
        self.seeds = seeds
        self.beta = beta
        self.rounds = 0


class ShardWorkerState:
    """The full state machine of one shard worker.

    Parameters mirror the slice of :class:`~repro.service.engine.ServiceConfig`
    the propagation and maintenance paths consume; the coordinator ships
    them once at spawn time.
    """

    def __init__(
        self,
        shard_id: int,
        plan: ShardPlan,
        tau: float,
        min_score: float,
        tolerance: float = 1e-10,
        max_iterations: int = 200,
        hops: int = 2,
        max_influencers: int | None = None,
    ):
        self.shard_id = shard_id
        self.plan = plan
        self.min_score = min_score
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.builder = SimGraphBuilder(
            tau=tau, hops=hops, max_influencers=max_influencers
        )
        self.follow_graph = DiGraph()
        self.profiles = RetweetProfiles()
        #: Owned SimGraph rows: user -> {influencer: sim} (insertion order
        #: identical to the reference graph's row order).
        self.rows: dict[int, dict[int, float]] = {}
        #: Inverted rows: influencer -> set of owned users referencing it.
        self.in_index: dict[int, set[int]] = {}
        #: Owned users referenced by *other* shards -> target shard tuple;
        #: shipped by the coordinator after each refs aggregation.
        self.remote_refs: dict[int, tuple[int, ...]] = {}
        #: Warm value slices per tweet (owned values + received mirrors).
        self.slices: dict[int, dict[int, float]] = {}
        #: In-flight propagation tasks, keyed by tweet id.
        self.tasks: dict[int, _TaskState] = {}

    # ------------------------------------------------------------------
    # Replica ingestion
    # ------------------------------------------------------------------
    def apply_events(self, events: list[tuple]) -> None:
        """Replay the coordinator's event log slice, in order.

        Replaying the exact same ``add_user``/``add_follow``/``add``
        sequence reproduces the reference process's dict *and set*
        internal ordering (int hashing is deterministic), which the
        maintenance walks rely on for bit-identical float accumulation.
        """
        graph = self.follow_graph
        profiles = self.profiles
        for event in events:
            kind = event[0]
            if kind == "rt":
                profiles.add(event[1], event[2])
            elif kind == "follow":
                if not graph.has_edge(event[1], event[2]):
                    graph.add_edge(event[1], event[2])
            elif kind == "user":
                graph.add_node(event[1])

    def _owned(self, user: int) -> bool:
        return self.plan.owner(user) == self.shard_id

    def _owned_users(self) -> list[int]:
        return sorted(
            u for u in self.follow_graph.nodes() if self._owned(u)
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _reindex(self) -> dict:
        """Rebuild the inverted index; report edges and referenced users."""
        in_index: dict[int, set[int]] = {}
        edges = 0
        for u, row in self.rows.items():
            edges += len(row)
            for v in row:
                in_index.setdefault(v, set()).add(u)
        self.in_index = in_index
        boundary = sum(
            1
            for u, row in self.rows.items()
            for v in row
            if not self._owned(v)
        )
        return {
            "edges": edges,
            "boundary_edges": boundary,
            "referenced": sorted(in_index),
        }

    def rebuild_full(self, events: list[tuple]) -> dict:
        """From-scratch rebuild of the owned rows."""
        self.apply_events(events)
        rows: dict[int, dict[int, float]] = {}
        graph = self.follow_graph
        profiles = self.profiles
        builder = self.builder
        for u in self._owned_users():
            kept = builder.edges_for_user(u, graph, profiles)
            if kept:
                rows[u] = kept
        self.rows = rows
        self.profiles.mark_clean()
        return self._reindex()

    def rebuild_delta(
        self, events: list[tuple], core: list[int], needed: dict[int, list[int]]
    ) -> dict:
        """Phase 1 of a delta rebuild: swap owned core rows, emit patches.

        ``core`` is the globally sorted core; this worker recomputes the
        rows it owns through the *same* restricted walks as the reference
        (:func:`repro.core.delta._reference_core_state`), so the rows are
        bit-for-bit what a single process would store.  The symmetric
        scores for (fringe, core) pairs are returned as patches keyed by
        core user for the coordinator to route to the fringe owners.
        """
        self.apply_events(events)
        owned_core = [w for w in core if self._owned(w)]
        needed_sets = {
            w: set(needed[w]) for w in owned_core if w in needed
        }
        rows, sym, pairs = _reference_core_state(
            owned_core, self.follow_graph, self.profiles, self.builder,
            needed_sets,
        )
        topology_changed = False
        changed = 0
        for w in owned_core:
            row = rows.get(w, {})
            old_row = self.rows.get(w, {})
            if row == old_row:
                continue
            changed += 1
            if row.keys() != old_row.keys():
                topology_changed = True
            if row:
                self.rows[w] = row
            else:
                self.rows.pop(w, None)
        # Ship only the non-zero scores each fringe user needs; the
        # receiving owner reconstructs the reference attention set from
        # these plus its own old rows.
        patches: dict[int, dict[int, float]] = {}
        for w in owned_core:
            wanted = needed_sets.get(w)
            if not wanted:
                continue
            scores = sym.get(w, {})
            hit = {u: scores[u] for u in scores.keys() & wanted}
            patches[w] = hit
        return {
            "patches": patches,
            "pairs_rescored": pairs,
            "rows_changed": changed,
            "topology_changed": topology_changed,
        }

    def apply_fringe(
        self,
        core_order: list[int],
        candidates: dict[int, list[int]],
        patches: dict[int, dict[int, float]],
    ) -> dict:
        """Phase 2 of a delta rebuild: patch owned fringe rows in place.

        ``core_order`` is the globally sorted core restricted to users
        with patches for this shard; iterating it ascending reproduces
        the reference surgery's append order, so new edges land at the
        same row positions as in the single-process graph.
        """
        tau = self.builder.tau
        topology_changed = False
        changed = 0
        for w in core_order:
            scores = patches.get(w, {})
            wanted = candidates.get(w, [])
            attention = set(scores)
            for u in wanted:
                row = self.rows.get(u)
                if row is not None and w in row:
                    attention.add(u)
            for u in attention:
                score = scores.get(u, 0.0)
                row = self.rows.get(u)
                old_weight = row.get(w) if row is not None else None
                if score >= tau:
                    if old_weight is None:
                        if row is None:
                            row = {}
                            self.rows[u] = row
                        row[w] = score
                        changed += 1
                        topology_changed = True
                    elif old_weight != score:
                        row[w] = score
                        changed += 1
                elif old_weight is not None:
                    del row[w]
                    changed += 1
                    topology_changed = True
                    if not row:
                        del self.rows[u]
        report = self._reindex()
        report["rows_changed"] = changed
        report["topology_changed"] = topology_changed
        return report

    def finish_rebuild(self) -> dict:
        """Re-index after a delta phase 1 with no fringe traffic."""
        return self._reindex()

    def load_snapshot(self, path: str, mmap: bool) -> dict:
        """Adopt the owned slice of a persisted SimGraph snapshot.

        Every worker maps the same v2 snapshot file — the mmap pages are
        shared between processes, so adoption stays cheap — and keeps
        only the rows it owns.
        """
        from repro.core.persistence import load_simgraph

        simgraph = load_simgraph(path, mmap=mmap)
        rows: dict[int, dict[int, float]] = {}
        for u in simgraph.users():
            if not self._owned(u):
                continue
            row = simgraph.row(u)
            if row:
                rows[u] = row
        self.rows = rows
        self.profiles.mark_clean()
        return self._reindex()

    def set_refs(self, refs: dict[int, tuple[int, ...]]) -> None:
        """Install which other shards reference each owned user."""
        self.remote_refs = refs

    def dump_rows(self) -> dict[int, dict[int, float]]:
        """The owned rows (assembly of a global SimGraph for inspection)."""
        return self.rows

    # ------------------------------------------------------------------
    # Warm-state hygiene (decided centrally by the coordinator)
    # ------------------------------------------------------------------
    def evict(self, tweets: list[int]) -> None:
        for tweet in tweets:
            self.slices.pop(tweet, None)

    def clear_warm(self) -> None:
        self.slices.clear()

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def init_task(self, spec: dict) -> None:
        """Materialize in-flight state for a task (idempotent per batch).

        ``spec`` carries ``tweet``, sorted ``seeds``, ``beta``, ``warm``
        and ``cold`` flags.  Mirrors the reference engine's warm-start
        filter exactly: previous values survive only for non-seeds with
        p > 0, and every current seed is pinned to 1.0.
        """
        tweet = spec["tweet"]
        if tweet in self.tasks:
            return
        seeds = frozenset(spec["seeds"])
        if spec.get("cold"):
            self.slices.pop(tweet, None)
        values: dict[int, float] = {}
        if spec["warm"]:
            stored = self.slices.get(tweet)
            if stored:
                values = {
                    u: p
                    for u, p in stored.items()
                    if u not in seeds and p > 0.0
                }
        for seed in spec["seeds"]:
            values[seed] = 1.0
        self.tasks[tweet] = _TaskState(values, seeds, spec["beta"])

    def _run_round(
        self, state: _TaskState, external: dict[int, tuple[float, bool]]
    ) -> tuple[dict[int, dict[int, tuple[float, bool]]], bool]:
        """One Jacobi round; returns (emissions by shard, had frontier).

        ``external`` maps remote users to their newly emitted
        ``(value, in_frontier)``; values are applied to the mirror table
        *before* the round (the reference updated them in the previous
        round's ``probabilities.update``), frontier members then join the
        local frontier for dirty-set expansion.
        """
        values = state.values
        frontier = set(state.frontier)
        for user, (p, in_frontier) in external.items():
            if user not in state.seeds:
                values[user] = p
            if in_frontier:
                frontier.add(user)
        if not frontier:
            state.frontier = set()
            return {}, False
        state.rounds += 1
        in_index = self.in_index
        seeds = state.seeds
        dirty: set[int] = set()
        for changed in frontier:
            hit = in_index.get(changed)
            if hit:
                dirty.update(u for u in hit if u not in seeds)
        get = values.get
        scored = []
        for user in dirty:
            row = self.rows[user]
            total = 0.0
            for v, sim in row.items():
                total += get(v, 0.0) * sim
            scored.append((user, total / len(row)))
        new_values: dict[int, float] = {}
        next_frontier: set[int] = set()
        tolerance = self.tolerance
        beta = state.beta
        muted = state.muted
        for user, new_p in scored:
            old_p = get(user, 0.0)
            delta = abs(new_p - old_p)
            if delta <= tolerance:
                continue
            new_values[user] = new_p
            if delta >= beta:
                if user not in muted:
                    next_frontier.add(user)
            elif beta > 0.0:
                muted.add(user)
        values.update(new_values)
        state.frontier = next_frontier
        emissions: dict[int, dict[int, tuple[float, bool]]] = {}
        remote_refs = self.remote_refs
        for user, p in new_values.items():
            targets = remote_refs.get(user)
            if not targets:
                continue
            flag = user in next_frontier
            for shard in targets:
                emissions.setdefault(shard, {})[user] = (p, flag)
        return emissions, True

    def run_task(self, spec: dict) -> dict:
        """Start a task: init, then free-run (solo) or one round (lock-step).

        Returns ``{"emissions", "active", "rounds"}``; a solo worker
        iterates until its frontier dies, the iteration cap hits, or the
        first cross-shard emission appears (the coordinator then paces
        the remaining rounds so all involved shards stay synchronous).
        """
        self.init_task(spec)
        state = self.tasks[spec["tweet"]]
        external: dict[int, tuple[float, bool]] = {}
        if spec["mode"] == "seed":
            external = {
                s: (1.0, True)
                for s in spec["new_seeds"]
                if s in self.in_index
            }
        emissions: dict[int, dict[int, tuple[float, bool]]] = {}
        if spec["solo"]:
            while state.rounds < self.max_iterations:
                emissions, ran = self._run_round(state, external)
                external = {}
                if not ran or emissions or not state.frontier:
                    break
        else:
            if state.rounds < self.max_iterations:
                emissions, _ = self._run_round(state, external)
        return {
            "emissions": emissions,
            "active": bool(state.frontier),
            "rounds": state.rounds,
        }

    def step_task(
        self, tweet: int, incoming: dict[int, tuple[float, bool]]
    ) -> dict:
        """One coordinator-paced round with mirror updates ``incoming``."""
        state = self.tasks[tweet]
        emissions, _ = self._run_round(state, incoming)
        return {
            "emissions": emissions,
            "active": bool(state.frontier),
            "rounds": state.rounds,
        }

    def finalize_task(self, tweet: int) -> dict:
        """Store the warm slice; return owned scores and exact-1.0 users."""
        state = self.tasks.pop(tweet)
        self.slices[tweet] = state.values
        owned = self._owned
        scores = {
            u: p
            for u, p in state.values.items()
            if p >= self.min_score and u not in state.seeds and owned(u)
        }
        ones = [u for u, p in state.values.items() if p == 1.0 and owned(u)]
        return {"scores": scores, "ones": ones}

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, op: str, payload: Any) -> Any:
        """Serve one protocol request (shared by pipe and in-process modes)."""
        if op == "tasks":
            self.evict(payload.get("evict", ()))
            if payload.get("clear_warm"):
                self.clear_warm()
            return {
                spec["tweet"]: self.run_task(spec)
                for spec in payload["specs"]
            }
        if op == "step":
            self.evict(payload.get("evict", ()))
            for spec in payload.get("init", ()):
                self.init_task(spec)
            return {
                tweet: self.step_task(tweet, incoming)
                for tweet, incoming in payload["steps"].items()
            }
        if op == "finalize":
            self.evict(payload.get("evict", ()))
            return {
                tweet: self.finalize_task(tweet)
                for tweet in payload["tweets"]
            }
        if op == "events":
            self.apply_events(payload["events"])
            if payload.get("mark_clean"):
                self.profiles.mark_clean()
            return True
        if op == "rebuild_full":
            return self.rebuild_full(payload["events"])
        if op == "rebuild_delta":
            return self.rebuild_delta(
                payload["events"], payload["core"], payload["needed"]
            )
        if op == "apply_fringe":
            return self.apply_fringe(
                payload["core_order"], payload["candidates"],
                payload["patches"],
            )
        if op == "finish_rebuild":
            return self.finish_rebuild()
        if op == "load_snapshot":
            return self.load_snapshot(payload["path"], payload["mmap"])
        if op == "refs":
            self.set_refs(payload["refs"])
            self.evict(payload.get("evict", ()))
            if payload.get("clear_warm"):
                self.clear_warm()
            return True
        if op == "dump_rows":
            return self.dump_rows()
        if op == "ping":
            return {"shard": self.shard_id, "rows": len(self.rows)}
        raise ValueError(f"unknown shard op {op!r}")


def shard_worker_main(conn, init: dict) -> None:
    """Process entry point: serve :class:`ShardWorkerState` over a pipe.

    ``init`` carries the constructor arguments plus the event log replayed
    so far.  Every request gets exactly one reply; failures reply with the
    formatted traceback instead of killing the pipe, so the coordinator
    can surface a precise :class:`~repro.exceptions.ShardError`.
    """
    state = ShardWorkerState(
        shard_id=init["shard_id"],
        plan=init["plan"],
        tau=init["tau"],
        min_score=init["min_score"],
        tolerance=init["tolerance"],
        max_iterations=init["max_iterations"],
        hops=init["hops"],
        max_influencers=init["max_influencers"],
    )
    state.apply_events(init.get("events", []))
    while True:
        try:
            message = conn.recv()
        except EOFError:  # pragma: no cover - coordinator vanished
            break
        op, payload = message
        if op == "stop":
            break
        try:
            conn.send(("ok", state.dispatch(op, payload)))
        except Exception:
            conn.send(("error", traceback.format_exc()))
