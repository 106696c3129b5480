"""Frobenius-nearest doubly stochastic matrix.

The feasible set is the intersection of the affine set {Y: Y1 = 1, Y'1 = 1}
with the non-negative orthant.  Projection onto the affine part alone has a
closed form (the equality system has rank 2n-1; the redundant constraint is
resolved by gauging the column multipliers to sum to zero).  The full
projection is computed either by Dykstra's alternating projections between
the two sets, or by an operator-splitting solver on the explicit quadratic
program min 0.5 x'x - q'x, A x = 1, x >= 0 with x the row-major flattening.
Two genuinely different routes make cross-validation meaningful.  The
Dykstra route also projects a (B, n, n) stack in one call, each matrix to the
same bits as alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .core import (
    Dsm,
    StochasticityReport,
    _frobenius_norms,
    _off_polytope,
    as_dsm,
    as_square,
    check_stochasticity,
    frobenius_distance,
)

DYKSTRA = "dykstra"
SPLITTING_QP = "splitting-qp"
_VALIDATION = 1e-8  # as_dsm tolerance every projection must pass


@dataclass(frozen=True)
class ProjectionSettings:
    method: str = DYKSTRA
    tolerance: float = 1e-11  # successive-iterate Frobenius gap at which to stop
    max_iterations: int = 100_000

    def __post_init__(self):
        if self.method not in (DYKSTRA, SPLITTING_QP):
            raise ValueError(f"unknown projection method {self.method!r}")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


class ProjectionError(RuntimeError):
    """Projection failed to converge; carries the last iterate and its report."""

    def __init__(self, message: str, last_iterate: np.ndarray, report: StochasticityReport):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.report = report


def affine_project(m) -> np.ndarray:
    """Nearest matrix with all row and column sums equal to one.

    Solves the equality-constrained least squares problem in closed form:
    Y = M + mu 1' + 1 nu' with multipliers fixed by the marginal equations
    and the gauge sum(nu) = 0.  Entries may be negative.  Takes a matrix or a
    (B, n, n) stack.
    """
    m = as_square(m, stack=True)
    n = m.shape[-1]
    r = m.sum(axis=-1, keepdims=True)  # row sums as a column
    c = m.sum(axis=-2, keepdims=True)  # column sums as a row
    s = r.sum(axis=-2, keepdims=True)
    mu = (1.0 - r) / n
    nu = (1.0 - c) / n - (n - s) / n**2
    return m + mu + nu


def _dykstra(m: np.ndarray, tol: float, max_iterations: int):
    """Dykstra's alternating projections (affine set, non-negative orthant) on a (B, n, n) stack.

    Each matrix leaves the iteration once its own successive-iterate gap is
    below tol (after the first step), so it ends on the iterate it would
    reach alone.  Returns the final iterates and a (B,) converged flag.
    """
    out = np.empty_like(m)
    converged = np.zeros(len(m), dtype=bool)
    live = np.arange(len(m))  # indices of the matrices still iterating
    x = m
    p = np.zeros_like(m)  # correction for the affine step
    q = np.zeros_like(m)  # correction for the orthant step
    for it in range(max_iterations):
        if not live.size:
            break
        xp = x + p
        y = affine_project(xp)
        p = xp - y
        yq = y + q
        x_new = np.maximum(yq, 0.0)
        q = yq - x_new
        done = _frobenius_norms(x_new - x) < tol
        x = x_new
        if it > 0 and done.any():
            out[live[done]] = x[done]
            converged[live[done]] = True
            keep = ~done
            live, x, p, q = live[keep], x[keep], p[keep], q[keep]
    out[live] = x
    return out, converged


def _constraint_matrix(n: int) -> np.ndarray:
    """Equality matrix for row-major x: n row-sum rows then n-1 column-sum rows.

    One column constraint is dropped; with the row constraints it is implied,
    which keeps the system full rank (2n-1).
    """
    a = np.zeros((2 * n - 1, n * n))
    for i in range(n):
        a[i, i * n:(i + 1) * n] = 1.0
    for j in range(n - 1):
        a[n + j, j::n] = 1.0
    return a


def _splitting_qp(m: np.ndarray, tol: float, max_iterations: int):
    """ADMM on the explicit QP: split the affine-feasible and non-negative parts."""
    n = m.shape[0]
    a = _constraint_matrix(n)
    b = np.ones(2 * n - 1)
    q = m.ravel()
    gram = cho_factor(a @ a.T)
    rho = 1.0
    z = np.clip(q, 0.0, None)
    u = np.zeros_like(q)
    for it in range(max_iterations):
        w = (q + rho * (z - u)) / (1.0 + rho)
        x = w - a.T @ cho_solve(gram, a @ w - b)
        z_new = np.maximum(x + u, 0.0)
        u += x - z_new
        gap = max(float(np.abs(x - z_new).max()), float(np.abs(z_new - z).max()))
        z = z_new
        if gap < tol and it > 0:
            return z.reshape(n, n), True
    return z.reshape(n, n), False


def project(m, settings: ProjectionSettings | None = None):
    """Frobenius-nearest doubly stochastic matrix, validated at 1e-8.

    Returns a :class:`Dsm` for one matrix.  On the Dykstra route a (B, n, n)
    stack is projected in one call and comes back as the (B, n, n) array of
    projections, each validated as a single matrix would be; the
    splitting-qp route takes one matrix at a time.

    Raises :class:`ProjectionError` with the last iterate attached when the
    iteration budget runs out before the successive-iterate gap drops below
    ``settings.tolerance``, or when the iteration stops at a matrix that
    fails the 1e-8 validation; for a stack, the error is the first failing
    matrix's in index order.
    """
    m = as_square(m, stack=True)
    settings = settings or ProjectionSettings()
    if settings.method == SPLITTING_QP:
        if m.ndim == 3:
            raise ValueError(f"the {SPLITTING_QP} route projects one matrix at a time")
        return _validated(*_splitting_qp(m, settings.tolerance, settings.max_iterations),
                          settings)
    out, converged = _dykstra(m.reshape(-1, *m.shape[-2:]), settings.tolerance,
                              settings.max_iterations)
    if m.ndim == 2:
        return _validated(out[0], converged[0], settings)
    failed = ~converged | _off_polytope(out, _VALIDATION)
    if failed.any():
        first = np.argmax(failed)
        _validated(out[first], converged[first], settings)  # raises for this matrix
    return out


def _validated(out: np.ndarray, converged: bool, settings: ProjectionSettings) -> Dsm:
    """One projection's result as a Dsm, or its ProjectionError."""
    if not converged:
        raise ProjectionError(
            f"no convergence within {settings.max_iterations} iterations "
            f"({settings.method}, tolerance {settings.tolerance})",
            out,
            check_stochasticity(out),
        )
    try:
        return as_dsm(out, tolerance=_VALIDATION)
    except ValueError as exc:
        raise ProjectionError(
            f"{settings.method} stopped off the Birkhoff polytope: {exc}",
            out,
            check_stochasticity(out),
        ) from exc


def birkhoff_distance(m, settings: ProjectionSettings | None = None) -> float:
    """Frobenius distance from m to its doubly stochastic projection."""
    return frobenius_distance(as_square(m), project(m, settings).matrix)
