"""Jitted propagation kernel: Algorithm 1 compiled to machine code.

:class:`NumbaPropagationEngine` is the third rung of the
``prop_backend`` ladder.  The ``csr`` engine already replaced the
reference engine's dict walks with numpy segment sums, but every
fixpoint round still pays interpreter overhead for the gathers,
masks and scatters.  This module lowers the *entire* frontier fixpoint
into one kernel over the flat arrays of a
:class:`~repro.core.csr.CSRSimGraph` — frontier expansion, in-order
segment sums, tolerance/β tests and the mute bookkeeping fused into a
single pass per round — and compiles it with numba's ``njit`` when
numba is importable.  A ``propagate_many`` batch runs the same
single-task kernel ``prange``-parallel across tasks, so the batched
path is bit-identical to the sequence of single calls (no shared
accumulator, hence no reduction-order drift; the 1e-12 caveat the
differential harness allows is never needed in practice).

Exactness contract
------------------
Per dirty user the kernel accumulates ``sum += w_i * p_i`` strictly
left-to-right over the CSR row — the same float sequence as the
reference engine's Python ``sum`` and the csr engine's in-order
``bincount`` — then divides by ``|F_u|``.  Rounds are Jacobi (all sums
computed before any value is written).  The differential suite pins all
three engines to bit-identical single-task results.

Top-k pruning (opt-in, :meth:`NumbaPropagationEngine.propagate_topk`)
---------------------------------------------------------------------
A user ``u``'s score can never exceed ``ub(u) = (Σ_{v∈F_u} sim(u,v)) /
|F_u|`` — Def. 4.2 with every ``p(v)`` replaced by its maximum 1.0; the
same mean-row-weight quantity the β/γ(t) threshold analysis bounds
update magnitudes with.  Because floating-point add/mul/divide are
monotone and all weights are ≤ 1, the bound holds for the *computed*
values bit-for-bit, and because values start at (or resume from a
previous fixpoint below) the fixpoint and only ever rise, the running
k-th largest member score in any round is a lower bound of the final
top-k cutoff.  The kernel may therefore skip recomputing a dirty user
``u`` when (a) ``u`` influences nobody (``out_degree == 0`` — nobody
ever reads ``p(u)``, so skipping cannot perturb any other score) and
(b) ``max(ub(u), p(u))`` is strictly below the running cutoff (so
``u`` provably cannot enter the final top-k).  Retained scores stay
exact, hence the returned top-k is the exact top-k.  Pruning is *off*
for plain :meth:`propagate` calls and for warm starts from arbitrary
mappings (where the monotone-resume argument does not apply); the
Hypothesis suite in ``tests/test_kernel_pruning.py`` checks the
no-false-prunes property against the reference engine.

Fallback
--------
numba is an optional dependency.  When it is absent the same kernel
functions run as pure Python (they are written in the njit-able
subset), which keeps every code path testable; ``prop_backend="numba"``
then resolves to the ``csr`` engine with a one-line warning and a
``prop.kernel.fallback`` counter bump, and ``"auto"`` silently picks
the fastest available rung.  Set ``REPRO_PROP_KERNEL=python`` to force
the pure-Python kernels (differential testing without numba) or
``REPRO_NO_NUMBA=1`` to pretend numba is not installed.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.csr import CSRSimGraph
from repro.core.propagation import PropagationResult
from repro.core.propagation_csr import CSRPropagationEngine, CSRWarmState
from repro.core.simgraph import SimGraph
from repro.core.thresholds import ThresholdPolicy
from repro.obs import NULL, MetricsRegistry

__all__ = [
    "NUMBA_AVAILABLE",
    "NumbaPropagationEngine",
    "describe_backends",
    "ensure_compiled",
    "get_impls",
    "kernel_mode",
    "resolve_prop_backend",
]

try:  # pragma: no cover - exercised via the CI numba leg
    if os.environ.get("REPRO_NO_NUMBA"):
        raise ImportError("numba disabled via REPRO_NO_NUMBA")
    from numba import njit, prange

    NUMBA_AVAILABLE = True
except Exception:  # pragma: no cover - default in numba-less environments
    NUMBA_AVAILABLE = False

#: Set when a lazy jit compile fails at runtime (broken numba install);
#: the engine then degrades to the pure-Python kernels.
_JIT_BROKEN = False

_EMPTY_F64 = np.empty(0, dtype=np.float64)


# ----------------------------------------------------------------------
# Kernels — written in the njit-able subset so the exact same source
# runs compiled (numba present) or interpreted (fallback / tests).
# ----------------------------------------------------------------------
def _fixpoint(
    inf_indptr,
    inf_indices,
    inf_weights,
    out_indptr,
    out_indices,
    p,
    member,
    seed_mask,
    muted,
    frontier_init,
    beta,
    tolerance,
    max_iterations,
    prune_k,
    prune_floor,
    ubound,
    pruned_mark,
    round_sizes,
):
    """One task's damped frontier fixpoint over CSR arrays.

    Mutates ``p``/``member``/``muted``/``pruned_mark`` in place, records
    the per-round frontier size in ``round_sizes`` and returns
    ``(iterations, updates, pruned, converged)``.
    """
    n = p.shape[0]
    cur = np.empty(n, np.int64)
    nxt = np.empty(n, np.int64)
    dirty = np.empty(n, np.int64)
    dirty_mark = np.zeros(n, np.bool_)
    new_vals = np.empty(n, np.float64)
    heap_size = prune_k if prune_k > 0 else 1
    heap = np.empty(heap_size, np.float64)
    n_cur = 0
    for i in range(n):
        if frontier_init[i]:
            cur[n_cur] = i
            n_cur += 1
    use_prune = prune_k > 0 and ubound.shape[0] == n
    iterations = 0
    updates = 0
    pruned = 0
    converged = 1
    while n_cur > 0:
        if iterations >= max_iterations:
            converged = 0
            break
        iterations += 1
        round_sizes[iterations - 1] = n_cur
        # Frontier expansion: users influenced by anyone whose value
        # just moved (minus seeds, which stay pinned at 1.0).
        n_dirty = 0
        for i in range(n_cur):
            f = cur[i]
            for e in range(out_indptr[f], out_indptr[f + 1]):
                v = out_indices[e]
                if not seed_mask[v] and not dirty_mark[v]:
                    dirty_mark[v] = True
                    dirty[n_dirty] = v
                    n_dirty += 1
        if n_dirty == 0:
            break
        # Running top-k cutoff: k-th largest member non-seed value via a
        # size-k min-heap (values only rise, so this lower-bounds the
        # final cutoff).
        cutoff = -1.0
        if use_prune:
            count = 0
            for i in range(n):
                if member[i] and not seed_mask[i]:
                    v2 = p[i]
                    if count < prune_k:
                        heap[count] = v2
                        count += 1
                        if count == prune_k:
                            for s in range(prune_k // 2 - 1, -1, -1):
                                root = s
                                while True:
                                    child = 2 * root + 1
                                    if child >= prune_k:
                                        break
                                    if (
                                        child + 1 < prune_k
                                        and heap[child + 1] < heap[child]
                                    ):
                                        child += 1
                                    if heap[child] < heap[root]:
                                        tmp = heap[root]
                                        heap[root] = heap[child]
                                        heap[child] = tmp
                                        root = child
                                    else:
                                        break
                    elif v2 > heap[0]:
                        heap[0] = v2
                        root = 0
                        while True:
                            child = 2 * root + 1
                            if child >= prune_k:
                                break
                            if (
                                child + 1 < prune_k
                                and heap[child + 1] < heap[child]
                            ):
                                child += 1
                            if heap[child] < heap[root]:
                                tmp = heap[root]
                                heap[root] = heap[child]
                                heap[child] = tmp
                                root = child
                            else:
                                break
            if count >= prune_k:
                cutoff = heap[0]
            if cutoff < prune_floor:
                cutoff = prune_floor
        # Scoring pass (Jacobi: every sum reads the previous round's
        # values).  Each row accumulates strictly left-to-right — the
        # reference engine's float sequence, bit for bit.
        for j in range(n_dirty):
            d = dirty[j]
            dirty_mark[d] = False
            if cutoff > 0.0 and out_indptr[d + 1] == out_indptr[d]:
                ub = ubound[d]
                if p[d] > ub:
                    ub = p[d]
                if ub < cutoff:
                    # Sink user that provably cannot reach the top-k:
                    # nobody reads p(d), so skipping its update leaves
                    # every retained score exact.
                    new_vals[j] = -1.0
                    pruned_mark[d] = True
                    pruned += 1
                    continue
            lo = inf_indptr[d]
            hi = inf_indptr[d + 1]
            total = 0.0
            for e in range(lo, hi):
                total += inf_weights[e] * p[inf_indices[e]]
            new_vals[j] = total / (hi - lo)
        # Scatter pass: tolerance stop test, β/γ(t) damping, mute rule.
        n_nxt = 0
        for j in range(n_dirty):
            d = dirty[j]
            new_p = new_vals[j]
            if new_p < 0.0:
                continue
            delta = new_p - p[d]
            if delta < 0.0:
                delta = -delta
            if delta <= tolerance:
                continue
            p[d] = new_p
            member[d] = True
            updates += 1
            if delta >= beta:
                if not muted[d]:
                    nxt[n_nxt] = d
                    n_nxt += 1
            elif beta > 0.0:
                muted[d] = True
        tmp_buf = cur
        cur = nxt
        nxt = tmp_buf
        n_cur = n_nxt
    return iterations, updates, pruned, converged


def _fixpoint_many_py(
    inf_indptr,
    inf_indices,
    inf_weights,
    out_indptr,
    out_indices,
    p2,
    member2,
    seed_mask2,
    muted2,
    frontier2,
    betas,
    tolerance,
    max_iterations,
    prune_ks,
    prune_floors,
    ubound,
    pruned2,
    rounds2,
    stats2,
):
    """Batch fixpoint: each task runs the single-task kernel (Python)."""
    for t in range(p2.shape[0]):
        it, up, pr, cv = _fixpoint(
            inf_indptr,
            inf_indices,
            inf_weights,
            out_indptr,
            out_indices,
            p2[t],
            member2[t],
            seed_mask2[t],
            muted2[t],
            frontier2[t],
            betas[t],
            tolerance,
            max_iterations,
            prune_ks[t],
            prune_floors[t],
            ubound,
            pruned2[t],
            rounds2[t],
        )
        stats2[t, 0] = it
        stats2[t, 1] = up
        stats2[t, 2] = pr
        stats2[t, 3] = cv


_PY_IMPLS = {
    "fixpoint": _fixpoint,
    "fixpoint_many": _fixpoint_many_py,
}

if NUMBA_AVAILABLE:  # pragma: no cover - exercised via the CI numba leg
    _fixpoint_jit = njit(nogil=True)(_fixpoint)

    @njit(parallel=True, nogil=True)
    def _fixpoint_many_jit(
        inf_indptr,
        inf_indices,
        inf_weights,
        out_indptr,
        out_indices,
        p2,
        member2,
        seed_mask2,
        muted2,
        frontier2,
        betas,
        tolerance,
        max_iterations,
        prune_ks,
        prune_floors,
        ubound,
        pruned2,
        rounds2,
        stats2,
    ):
        # prange across tasks: rows are disjoint, every task runs the
        # sequential single-task kernel, so the batch is bit-identical
        # to the equivalent sequence of single calls.
        for t in prange(p2.shape[0]):
            it, up, pr, cv = _fixpoint_jit(
                inf_indptr,
                inf_indices,
                inf_weights,
                out_indptr,
                out_indices,
                p2[t],
                member2[t],
                seed_mask2[t],
                muted2[t],
                frontier2[t],
                betas[t],
                tolerance,
                max_iterations,
                prune_ks[t],
                prune_floors[t],
                ubound,
                pruned2[t],
                rounds2[t],
            )
            stats2[t, 0] = it
            stats2[t, 1] = up
            stats2[t, 2] = pr
            stats2[t, 3] = cv

    _JIT_IMPLS = {
        "fixpoint": _fixpoint_jit,
        "fixpoint_many": _fixpoint_many_jit,
    }
else:
    _JIT_IMPLS = _PY_IMPLS


# ----------------------------------------------------------------------
# Availability / resolution
# ----------------------------------------------------------------------
def kernel_mode() -> str:
    """How the kernel can run right now: ``jit``, ``python`` or ``off``.

    ``REPRO_PROP_KERNEL=python`` forces the interpreted kernels even
    when numba is importable (differential testing); with numba absent
    the same value *enables* the kernel backend in interpreted form.
    ``REPRO_PROP_KERNEL=off`` disables the backend outright.
    """
    forced = os.environ.get("REPRO_PROP_KERNEL", "").strip().lower()
    if forced in ("python", "py"):
        return "python"
    if forced == "off":
        return "off"
    if NUMBA_AVAILABLE and not _JIT_BROKEN:
        return "jit"
    return "off"


def get_impls(jit: bool | None = None) -> tuple[dict, bool]:
    """Kernel implementations to use: ``(impls, is_jit)``.

    ``jit=None`` follows :func:`kernel_mode`; ``jit=True`` demands the
    compiled kernels (raises when numba is not importable); ``jit=False``
    selects the pure-Python kernels explicitly.
    """
    if jit is None:
        jit = kernel_mode() == "jit"
    if jit:
        if not NUMBA_AVAILABLE:
            raise RuntimeError(
                "numba is not importable; jitted kernels are unavailable "
                "(pass jit=False or install numba)"
            )
        return _JIT_IMPLS, True
    return _PY_IMPLS, False


def describe_backends() -> str:
    """Human-readable list of backends *actually* available right now."""
    mode = kernel_mode()
    if mode == "jit":
        numba_note = "numba (jit-compiled)"
    elif mode == "python":
        numba_note = "numba (pure-python kernels; numba not importable)"
    else:
        numba_note = (
            "numba (unavailable: numba not importable; resolves to csr)"
        )
    return ", ".join(
        ("reference", "csr", numba_note, "auto (picks fastest available)")
    )


def resolve_prop_backend(
    prop_backend: str, metrics: MetricsRegistry = NULL,
    context: str = "propagation",
) -> str:
    """Map ``auto``/``numba`` onto a concretely runnable backend name.

    ``auto`` silently picks ``numba`` when the kernel can run (jitted or
    forced-python) and ``csr`` otherwise; an explicit ``numba`` request
    that cannot be honoured falls back to ``csr`` with a warning and a
    ``prop.kernel.fallback`` counter bump.  Other names pass through.
    """
    if prop_backend == "auto":
        return "numba" if kernel_mode() != "off" else "csr"
    if prop_backend == "numba" and kernel_mode() == "off":
        metrics.counter("prop.kernel.fallback").inc()
        warnings.warn(
            f"prop_backend='numba' requested for {context} but numba is not "
            "importable; falling back to the numpy csr engine "
            "(set REPRO_PROP_KERNEL=python to run the interpreted kernels)",
            RuntimeWarning,
            stacklevel=2,
        )
        return "csr"
    return prop_backend


# ----------------------------------------------------------------------
# JIT warm-up
# ----------------------------------------------------------------------
_COMPILE_SECONDS: float | None = None


def _warm_kernels(impls: dict) -> None:
    """Run every kernel once on a 2-node toy graph (triggers compile)."""
    indptr = np.array([0, 1, 2], dtype=np.int64)
    indices = np.array([1, 0], dtype=np.int64)
    weights = np.array([0.5, 0.5], dtype=np.float64)
    p = np.array([1.0, 0.0], dtype=np.float64)
    member = np.zeros(2, dtype=bool)
    seed_mask = np.array([True, False])
    muted = np.zeros(2, dtype=bool)
    frontier = np.array([True, False])
    pruned = np.zeros(2, dtype=bool)
    rounds = np.zeros(4, dtype=np.int64)
    ubound = np.array([0.5, 0.5], dtype=np.float64)
    impls["fixpoint"](
        indptr, indices, weights, indptr, indices,
        p, member, seed_mask, muted, frontier,
        0.0, 1e-10, 4, 1, 0.0, ubound, pruned, rounds,
    )
    p2 = np.array([[1.0, 0.0]], dtype=np.float64)
    impls["fixpoint_many"](
        indptr, indices, weights, indptr, indices,
        p2, member[None, :].copy(), seed_mask[None, :].copy(),
        np.zeros((1, 2), dtype=bool), np.array([[True, False]]),
        np.zeros(1, dtype=np.float64), 1e-10, 4,
        np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.float64),
        _EMPTY_F64, np.zeros((1, 2), dtype=bool),
        np.zeros((1, 4), dtype=np.int64), np.zeros((1, 4), dtype=np.int64),
    )


def ensure_compiled(metrics: MetricsRegistry = NULL) -> float:
    """Compile the jitted kernels now (idempotent) and report the cost.

    Returns the one-time compile wall time in seconds (0.0 when numba is
    absent or the kernels were already compiled by this process) and
    records it in the ``prop.kernel.compile_seconds`` timing gauge —
    stripped from deterministic snapshots like every wall-clock metric.
    A compile *failure* (broken numba install) flips the module to the
    pure-Python kernels instead of raising.
    """
    global _COMPILE_SECONDS, _JIT_BROKEN
    if not NUMBA_AVAILABLE or _JIT_BROKEN:
        return 0.0
    if _COMPILE_SECONDS is None:  # pragma: no cover - CI numba leg
        start = time.perf_counter()
        try:
            _warm_kernels(_JIT_IMPLS)
        except Exception as exc:
            _JIT_BROKEN = True
            warnings.warn(
                f"numba kernel compilation failed ({exc}); using the "
                "pure-python kernels",
                RuntimeWarning,
                stacklevel=2,
            )
            metrics.counter("prop.kernel.fallback").inc()
            return 0.0
        _COMPILE_SECONDS = time.perf_counter() - start
    metrics.gauge("prop.kernel.compile_seconds", timing=True).set(
        _COMPILE_SECONDS
    )
    return _COMPILE_SECONDS


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class NumbaPropagationEngine(CSRPropagationEngine):
    """Kernel-compiled drop-in for the csr/reference engines.

    Inherits the CSR compilation, warm-state encode/decode
    (:class:`~repro.core.propagation_csr.CSRWarmState`) and result
    construction from :class:`CSRPropagationEngine`; only the fixpoint
    itself runs in the kernel.  ``jit=None`` (default) compiles with
    numba when importable and falls back to the interpreted kernels
    otherwise — construction never fails for lack of numba.
    """

    def __init__(
        self,
        simgraph: SimGraph,
        threshold: ThresholdPolicy | None = None,
        tolerance: float = 1e-10,
        max_iterations: int = 200,
        metrics: MetricsRegistry | None = None,
        csr: CSRSimGraph | None = None,
        jit: bool | None = None,
    ):
        super().__init__(
            simgraph,
            threshold=threshold,
            tolerance=tolerance,
            max_iterations=max_iterations,
            metrics=metrics,
            csr=csr,
        )
        self._impls, self._jit = get_impls(jit)
        if self._jit:  # pragma: no cover - CI numba leg
            ensure_compiled(self.metrics)
            if _JIT_BROKEN:
                self._impls, self._jit = get_impls(False)
        self._ubound: np.ndarray | None = None
        self._ub_valid = False
        self._last_pruned: list[int] = []

    @property
    def jitted(self) -> bool:
        """Whether this engine runs the numba-compiled kernels."""
        return self._jit

    # ------------------------------------------------------------------
    # Pruning support
    # ------------------------------------------------------------------
    def upper_bounds(self) -> np.ndarray:
        """Static per-user score bound ``ub(u) = Σ sim(u,·) / |F_u|``.

        Computed with the same in-order row accumulation as the kernel,
        so ``p(u) <= ub(u)`` holds for the computed floats bit-for-bit
        (monotone float ops, every ``p <= 1``); rows without influencers
        get 0.  Cached per engine; valid as a bound only while every
        weight is ≤ 1 (checked — pruning disables itself otherwise).
        """
        if self._ubound is None:
            csr = self.csr
            n = csr.node_count
            rows = np.repeat(
                np.arange(n, dtype=np.int64), csr.inf_counts
            )
            totals = np.bincount(
                rows, weights=csr.inf_weights, minlength=n
            )
            ub = np.zeros(n, dtype=np.float64)
            nz = csr.inf_counts > 0
            ub[nz] = totals[nz] / csr.inf_counts[nz]
            self._ubound = ub
            self._ub_valid = bool(
                csr.inf_weights.size == 0
                or float(csr.inf_weights.max()) <= 1.0
            )
        return self._ubound

    def take_pruned(self) -> list[int]:
        """User ids pruned by the most recent :meth:`propagate_topk`."""
        return self._last_pruned

    def propagate_topk(
        self,
        seeds: Iterable[int],
        k: int,
        popularity: int | None = None,
        initial: Mapping[int, float] | CSRWarmState | None = None,
        min_score: float = 0.0,
    ) -> tuple[list[tuple[int, float]], PropagationResult]:
        """Exact top-k non-seed scores, pruning hopeless candidates.

        Returns ``(ranked, result)`` where ``ranked`` is the exact top-k
        ``(user, score)`` list (score-descending, user-ascending ties)
        among non-seeds with ``score >= min_score``.  Sink users whose
        upper bound provably cannot reach the running cutoff are never
        recomputed; their entries in ``result`` (and the stored warm
        state) may be stale-low, which is still a valid warm start —
        resumed values only rise toward the fixpoint.  Pruning is
        disabled for warm starts from arbitrary mappings (monotone
        resume is only guaranteed from engine-produced states).
        """
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        seed_list = [s for s in seeds if s is not None]
        with self.metrics.span("propagation"):
            result = self._propagate(
                seed_list, popularity, initial,
                prune_k=k, prune_floor=min_score,
            )
        seed_set = set(seed_list)
        ranked = sorted(
            (
                (user, score)
                for user, score in result.probabilities.items()
                if user not in seed_set and score >= min_score
            ),
            key=lambda item: (-item[1], item[0]),
        )
        return ranked[:k], result

    def _prune_allowed(self, initial) -> bool:
        # Cold starts and engine-produced warm states resume below the
        # fixpoint (monotone), so the running cutoff is a sound lower
        # bound; an arbitrary mapping carries no such guarantee.
        return (
            initial is None
            or isinstance(initial, CSRWarmState)
            or not initial
        )

    # ------------------------------------------------------------------
    # Kernel-backed fixpoints
    # ------------------------------------------------------------------
    def _propagate(
        self, seeds, popularity, initial, prune_k=0, prune_floor=0.0
    ):
        metrics = self.metrics
        csr = self.csr
        (
            seed_set, seed_idx, off_seeds, beta, p, member, seed_mask,
            off_graph, frontier,
        ) = self._load_task(seeds, popularity, initial)
        n = csr.node_count
        muted = np.zeros(n, dtype=bool)
        pruned_mark = np.zeros(n, dtype=bool)
        frontier_init = np.zeros(n, dtype=bool)
        frontier_init[frontier] = True
        round_sizes = np.zeros(self.max_iterations, dtype=np.int64)
        use_prune = prune_k > 0 and self._prune_allowed(initial)
        if use_prune:
            ubound = self.upper_bounds()
            use_prune = self._ub_valid
        ubound = self.upper_bounds() if use_prune else _EMPTY_F64
        with metrics.span("solve"):
            iterations, updates, pruned, conv = self._impls["fixpoint"](
                csr.inf_indptr, csr.inf_indices, csr.inf_weights,
                csr.out_indptr, csr.out_indices,
                p, member, seed_mask, muted, frontier_init,
                float(beta), float(self.tolerance),
                int(self.max_iterations),
                int(prune_k) if use_prune else 0, float(prune_floor),
                ubound, pruned_mark, round_sizes,
            )
        iterations = int(iterations)
        updates = int(updates)
        pruned = int(pruned)
        converged = bool(conv)
        probabilities, state = self._finish_task(
            seed_idx, off_seeds, p, member, off_graph
        )
        self._last_state = state
        self._last_pruned = (
            csr.users[np.flatnonzero(pruned_mark)].tolist() if pruned else []
        )
        frontier_hist = metrics.histogram("propagation.frontier")
        for size in round_sizes[:iterations]:
            frontier_hist.observe(int(size))
        metrics.counter("propagation.runs").inc()
        metrics.counter("propagation.iterations").inc(iterations)
        metrics.counter("propagation.updates").inc(updates)
        metrics.counter("propagation.threshold_skips").inc(
            int(np.count_nonzero(muted))
        )
        if not converged:
            metrics.counter("propagation.non_converged").inc()
        metrics.histogram("propagation.seeds").observe(len(seed_set))
        metrics.histogram("propagation.touched").observe(len(probabilities))
        metrics.counter("prop.kernel.runs").inc()
        metrics.histogram("prop.kernel.rounds").observe(iterations)
        if pruned:
            metrics.counter("prop.kernel.pruned").inc(pruned)
        return PropagationResult(
            probabilities=probabilities,
            iterations=iterations,
            updates=updates,
            converged=converged,
        )

    def _propagate_many(self, seed_sets, popularities, initials):
        metrics = self.metrics
        csr = self.csr
        n = csr.node_count
        tasks = len(seed_sets)
        seed_set_l, seed_idx_l, off_seeds_l, off_graph_l = [], [], [], []
        betas = np.zeros(tasks, dtype=np.float64)
        p2 = np.zeros((tasks, n), dtype=np.float64)
        member2 = np.zeros((tasks, n), dtype=bool)
        seed_mask2 = np.zeros((tasks, n), dtype=bool)
        frontier2 = np.zeros((tasks, n), dtype=bool)
        for c in range(tasks):
            (
                seed_set, seed_idx, off_seeds, beta, p_c, member_c,
                seed_mask_c, off_graph, frontier_c,
            ) = self._load_task(seed_sets[c], popularities[c], initials[c])
            seed_set_l.append(seed_set)
            seed_idx_l.append(seed_idx)
            off_seeds_l.append(off_seeds)
            off_graph_l.append(off_graph)
            betas[c] = beta
            p2[c] = p_c
            member2[c] = member_c
            seed_mask2[c] = seed_mask_c
            frontier2[c, frontier_c] = True
        muted2 = np.zeros((tasks, n), dtype=bool)
        pruned2 = np.zeros((tasks, n), dtype=bool)
        rounds2 = np.zeros((tasks, self.max_iterations), dtype=np.int64)
        stats2 = np.zeros((tasks, 4), dtype=np.int64)
        with metrics.span("solve"):
            self._impls["fixpoint_many"](
                csr.inf_indptr, csr.inf_indices, csr.inf_weights,
                csr.out_indptr, csr.out_indices,
                p2, member2, seed_mask2, muted2, frontier2,
                betas, float(self.tolerance), int(self.max_iterations),
                np.zeros(tasks, dtype=np.int64),
                np.zeros(tasks, dtype=np.float64),
                _EMPTY_F64, pruned2, rounds2, stats2,
            )
        results = []
        states = []
        frontier_hist = metrics.histogram("propagation.frontier")
        seeds_hist = metrics.histogram("propagation.seeds")
        touched_hist = metrics.histogram("propagation.touched")
        rounds_hist = metrics.histogram("prop.kernel.rounds")
        for c in range(tasks):
            iterations = int(stats2[c, 0])
            probabilities, state = self._finish_task(
                seed_idx_l[c], off_seeds_l[c], p2[c], member2[c],
                off_graph_l[c],
            )
            results.append(
                PropagationResult(
                    probabilities=probabilities,
                    iterations=iterations,
                    updates=int(stats2[c, 1]),
                    converged=bool(stats2[c, 3]),
                )
            )
            states.append(state)
            for size in rounds2[c, :iterations]:
                frontier_hist.observe(int(size))
            seeds_hist.observe(len(seed_set_l[c]))
            touched_hist.observe(len(probabilities))
            rounds_hist.observe(iterations)
        metrics.counter("propagation.runs").inc(tasks)
        metrics.counter("propagation.iterations").inc(int(stats2[:, 0].sum()))
        metrics.counter("propagation.updates").inc(int(stats2[:, 1].sum()))
        metrics.counter("propagation.threshold_skips").inc(
            int(np.count_nonzero(muted2))
        )
        failed = tasks - int(np.count_nonzero(stats2[:, 3]))
        if failed:
            metrics.counter("propagation.non_converged").inc(failed)
        metrics.counter("prop.kernel.runs").inc(tasks)
        self._last_states = states
        return results
