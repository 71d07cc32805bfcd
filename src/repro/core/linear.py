"""Linear-system view of the propagation model (paper §5.2-5.3).

The fixpoint of Definition 4.2 solves ``A p = b`` where

* ``a_ii = 1``,
* ``a_ij = -sim(u_i, u_j) / |F_{u_i}|`` when ``u_i -> u_j`` is a SimGraph
  edge,
* ``b_i = 1`` when ``u_i`` already retweeted the message, else 0.

Seed rows are replaced by identity rows (``p_i = 1`` exactly), matching
Algorithm 1's "probability 1, never recomputed" semantics.

Because every ``sim < 1`` and each row is normalized by ``|F_u|``, the
off-diagonal mass of a row is strictly below 1: ``A`` is strictly
diagonally dominant, so Jacobi, Gauss-Seidel and SOR all converge (§5.3).
This module provides the matrix assembly, the three stationary solvers,
and the dominance / spectral-radius diagnostics the paper discusses
(they measure ``||A|| = 0.91`` on their data).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from repro.core.simgraph import SimGraph
from repro.exceptions import ConvergenceError
from repro.obs import NULL, MetricsRegistry

__all__ = ["LinearSystem", "SolveStats"]


@dataclass(frozen=True)
class SolveStats:
    """Probabilities plus solver diagnostics."""

    probabilities: dict[int, float]
    iterations: int
    residual: float
    method: str


class LinearSystem:
    """The ``A p = b`` system of one SimGraph.

    The matrix skeleton (index maps and the off-diagonal similarity
    entries) is assembled once per SimGraph and reused across tweets —
    only the seed vector ``b`` changes per message.

    ``metrics`` (default: the no-op :data:`repro.obs.NULL`) collects one
    ``linear.*`` span per solver entry point, sweep counters for the
    stationary methods and a last-residual gauge.
    """

    def __init__(self, simgraph: SimGraph, metrics: MetricsRegistry | None = None):
        self.simgraph = simgraph
        self.metrics = metrics if metrics is not None else NULL
        self._users = sorted(simgraph.users.tolist())
        self._index = {user: i for i, user in enumerate(self._users)}
        n = len(self._users)
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for u in self._users:
            i = self._index[u]
            influencers = simgraph.influencers(u)
            if not influencers:
                continue
            inv_count = 1.0 / len(influencers)
            for v, sim in influencers:
                rows.append(i)
                cols.append(self._index[v])
                vals.append(sim * inv_count)
        # S holds the positive off-diagonal mass; A = I - S (seed rows
        # are patched at solve time).
        self._S = sparse.csr_matrix(
            (vals, (rows, cols)), shape=(n, n), dtype=np.float64
        )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of unknowns (users in the SimGraph)."""
        return len(self._users)

    @property
    def users(self) -> list[int]:
        """Users in index order."""
        return list(self._users)

    def matrix(self, seeds: Iterable[int] = ()) -> sparse.csr_matrix:
        """The full ``A`` for a given seed set (identity rows for seeds)."""
        seed_idx = self._seed_indexes(seeds)
        S = self._S.tolil(copy=True)
        for i in seed_idx:
            S.rows[i] = []
            S.data[i] = []
        A = sparse.identity(self.size, format="csr") - S.tocsr()
        return A.tocsr()

    def _seed_indexes(self, seeds: Iterable[int]) -> list[int]:
        return [self._index[s] for s in seeds if s in self._index]

    def _rhs(self, seed_idx: list[int]) -> np.ndarray:
        b = np.zeros(self.size, dtype=np.float64)
        b[seed_idx] = 1.0
        return b

    # ------------------------------------------------------------------
    # Diagnostics (§5.3)
    # ------------------------------------------------------------------
    def is_diagonally_dominant(self) -> bool:
        """Strict diagonal dominance of ``A`` — the convergence condition."""
        off_diagonal = np.abs(self._S).sum(axis=1).A1  # type: ignore[union-attr]
        return bool((off_diagonal < 1.0).all())

    def iteration_norm(self) -> float:
        """Infinity norm of the Jacobi iteration matrix.

        This is the quantity the paper bounds experimentally (0.91 on
        their dataset): the worst-case per-iteration error contraction.
        """
        if self.size == 0:
            return 0.0
        off_diagonal = np.abs(self._S).sum(axis=1).A1  # type: ignore[union-attr]
        return float(off_diagonal.max())

    def spectral_radius_estimate(self, iterations: int = 50, seed: int = 0) -> float:
        """Power-iteration estimate of the iteration matrix's spectral radius."""
        if self.size == 0:
            return 0.0
        rng = np.random.default_rng(seed)
        x = rng.random(self.size)
        norm = np.linalg.norm(x)
        if norm == 0:
            return 0.0
        x /= norm
        radius = 0.0
        for _ in range(iterations):
            y = self._S @ x
            norm = float(np.linalg.norm(y))
            if norm == 0:
                return 0.0
            radius = norm
            x = y / norm
        return radius

    # ------------------------------------------------------------------
    # Solvers
    # ------------------------------------------------------------------
    def solve_direct(self, seeds: Iterable[int]) -> SolveStats:
        """Sparse LU reference solution (exact up to machine precision)."""
        with self.metrics.span("linear.direct"):
            seed_idx = self._seed_indexes(seeds)
            A = self.matrix(seeds)
            b = self._rhs(seed_idx)
            p = spsolve(A.tocsc(), b)
            p = np.atleast_1d(p)
            residual = float(np.abs(A @ p - b).max()) if self.size else 0.0
        return self._stats(p, iterations=1, residual=residual, method="direct")

    def solve_jacobi(
        self,
        seeds: Iterable[int],
        tolerance: float = 1e-10,
        max_iterations: int = 500,
    ) -> SolveStats:
        """Jacobi iteration: ``p' = S p + b`` (diag(A) = 1)."""
        seed_idx = self._seed_indexes(seeds)
        S = self._zeroed_seed_rows(seed_idx)
        b = self._rhs(seed_idx)
        p = b.copy()
        with self.metrics.span("linear.jacobi"):
            for iteration in range(1, max_iterations + 1):
                p_next = S @ p + b
                delta = float(np.abs(p_next - p).max()) if self.size else 0.0
                p = p_next
                if delta <= tolerance:
                    return self._stats(p, iteration, delta, "jacobi")
        raise ConvergenceError(
            f"Jacobi did not converge in {max_iterations} iterations"
        )

    def solve_gauss_seidel(
        self,
        seeds: Iterable[int],
        tolerance: float = 1e-10,
        max_iterations: int = 500,
    ) -> SolveStats:
        """Gauss-Seidel: like Jacobi but consumes fresh values in-row."""
        return self._sor_sweep(seeds, omega=1.0, tolerance=tolerance,
                               max_iterations=max_iterations, method="gauss-seidel")

    def solve_sor(
        self,
        seeds: Iterable[int],
        omega: float | None = None,
        tolerance: float = 1e-10,
        max_iterations: int = 500,
    ) -> SolveStats:
        """Successive over-relaxation with factor ``omega`` in (0, 2).

        ``A`` here is strictly diagonally dominant but *not* symmetric, so
        over-relaxation is only guaranteed to converge for
        ``omega < 2 / (1 + rho)`` with ``rho`` the Jacobi iteration norm
        (the H-matrix/SOR bound); beyond it the sweep can genuinely
        diverge on adversarial graphs.  ``omega=None`` (default) uses 1.2
        capped to just inside the guaranteed region for this system.
        Passing an explicit ``omega`` overrides the cap (and may raise
        :class:`ConvergenceError`).
        """
        if omega is None:
            rho = self.iteration_norm()
            omega = min(1.2, 1.999 / (1.0 + rho)) if rho > 0 else 1.2
        if not 0.0 < omega < 2.0:
            raise ValueError(f"omega must be in (0, 2), got {omega}")
        return self._sor_sweep(seeds, omega=omega, tolerance=tolerance,
                               max_iterations=max_iterations, method="sor")

    def _sor_sweep(
        self,
        seeds: Iterable[int],
        omega: float,
        tolerance: float,
        max_iterations: int,
        method: str,
    ) -> SolveStats:
        seed_idx = self._seed_indexes(seeds)
        S = self._zeroed_seed_rows(seed_idx)
        b = self._rhs(seed_idx)
        p = b.copy()
        indptr, indices, data = S.indptr, S.indices, S.data
        with self.metrics.span(f"linear.{method}"):
            for iteration in range(1, max_iterations + 1):
                delta = 0.0
                for i in range(self.size):
                    row = slice(indptr[i], indptr[i + 1])
                    gs_value = b[i] + float(data[row] @ p[indices[row]])
                    new_value = (1.0 - omega) * p[i] + omega * gs_value
                    delta = max(delta, abs(new_value - p[i]))
                    p[i] = new_value
                if delta <= tolerance:
                    return self._stats(p, iteration, delta, method)
        raise ConvergenceError(
            f"{method} did not converge in {max_iterations} iterations"
        )

    def _zeroed_seed_rows(self, seed_idx: list[int]) -> sparse.csr_matrix:
        if not seed_idx:
            return self._S
        S = self._S.tolil(copy=True)
        for i in seed_idx:
            S.rows[i] = []
            S.data[i] = []
        return S.tocsr()

    def _stats(
        self, p: np.ndarray, iterations: int, residual: float, method: str
    ) -> SolveStats:
        if method != "direct":
            self.metrics.counter("linear.sweeps").inc(iterations)
        self.metrics.gauge("linear.residual").set(residual)
        probabilities = {
            user: float(p[i]) for user, i in self._index.items() if p[i] > 0.0
        }
        return SolveStats(
            probabilities=probabilities,
            iterations=iterations,
            residual=residual,
            method=method,
        )
