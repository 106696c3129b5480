"""Frobenius-nearest doubly stochastic matrix.

The feasible set is the intersection of the affine set {Y: Y1 = 1, Y'1 = 1}
with the non-negative orthant.  Projection onto the affine part alone has a
closed form (the equality system has rank 2n-1; the redundant constraint is
resolved by gauging the column multipliers to sum to zero).  The full
projection is computed either by Dykstra's alternating projections between
the two sets, or by an operator-splitting solver on the explicit quadratic
program min 0.5 x'x - q'x, A x = 1, x >= 0 with x the row-major flattening.
Two genuinely different routes make cross-validation meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .core import Dsm, StochasticityReport, as_dsm, as_square, check_stochasticity, frobenius_distance

DYKSTRA = "dykstra"
SPLITTING_QP = "splitting-qp"


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
    and the gauge sum(nu) = 0.  Entries may be negative.
    """
    m = as_square(m)
    n = m.shape[0]
    r = m.sum(axis=1)
    c = m.sum(axis=0)
    s = r.sum()
    mu = (1.0 - r) / n
    nu = (1.0 - c) / n - (n - s) / n**2
    return m + mu[:, None] + nu[None, :]


def _dykstra(m: np.ndarray, tol: float, max_iterations: int):
    """Dykstra's alternating projections (affine set, non-negative orthant)."""
    x = m
    p = np.zeros_like(m)  # correction for the affine step
    q = np.zeros_like(m)  # correction for the orthant step
    for it in range(max_iterations):
        y = affine_project(x + p)
        p = x + p - y
        x_new = np.maximum(y + q, 0.0)
        q = y + q - x_new
        if float(np.linalg.norm(x_new - x)) < tol and it > 0:
            return x_new, True
        x = x_new
    return x, False


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


def project(m, settings: ProjectionSettings | None = None) -> Dsm:
    """Frobenius-nearest doubly stochastic matrix, validated at 1e-8.

    Raises :class:`ProjectionError` with the last iterate attached when the
    iteration budget runs out before the successive-iterate gap drops below
    ``settings.tolerance``, or when the iteration stops at a matrix that
    fails the 1e-8 validation.
    """
    m = as_square(m)
    settings = settings or ProjectionSettings()
    solver = _dykstra if settings.method == DYKSTRA else _splitting_qp
    out, converged = solver(m, settings.tolerance, settings.max_iterations)
    if not converged:
        raise ProjectionError(
            f"no convergence within {settings.max_iterations} iterations "
            f"({settings.method}, tolerance {settings.tolerance})",
            out,
            check_stochasticity(out),
        )
    try:
        return as_dsm(out, tolerance=1e-8)
    except ValueError as exc:
        raise ProjectionError(
            f"{settings.method} stopped off the Birkhoff polytope: {exc}",
            out,
            check_stochasticity(out),
        ) from exc


def birkhoff_distance(m, settings: ProjectionSettings | None = None) -> float:
    """Frobenius distance from m to its doubly stochastic projection."""
    return frobenius_distance(as_square(m), project(m, settings).matrix)
