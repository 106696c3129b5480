"""Frobenius-nearest doubly stochastic matrix.

The feasible set is the intersection of the affine set {Y: Y1 = 1, Y'1 = 1}
with the non-negative orthant.  Projection onto the affine part alone has a
closed form (the equality system has rank 2n-1; the redundant constraint is
resolved by gauging the column multipliers to sum to zero).  The full
projection is computed by Dykstra's alternating projections between the two
sets.  It steps a (B, n, n) stack in one loop that retires each matrix as it
converges, so a stack is projected in one call, each matrix to the same bits
as alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Dsm,
    StochasticityReport,
    _deviations,
    _dsm_error,
    _frobenius_norms,
    _off_polytope,
    _report,
    as_square,
    frobenius_distance,
)

_VALIDATION = 1e-8  # as_dsm tolerance every projection must pass


@dataclass(frozen=True)
class ProjectionSettings:
    tolerance: float = 1e-11  # successive-iterate Frobenius gap at which to stop
    max_iterations: int = 100_000

    def __post_init__(self):
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


class ProjectionError(RuntimeError):
    """Projection failed to converge; carries the last iterate, its report and its step count."""

    def __init__(self, message: str, last_iterate: np.ndarray, report: StochasticityReport,
                 iterations: int):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.report = report
        self.iterations = iterations


def affine_project(m) -> np.ndarray:
    """Nearest matrix with all row and column sums equal to one.

    Solves the equality-constrained least squares problem in closed form:
    Y = M + mu 1' + 1 nu' with multipliers fixed by the marginal equations
    and the gauge sum(nu) = 0.  Entries may be negative.  Takes a matrix or a
    (B, n, n) stack.
    """
    return _affine(as_square(m, stack=True))


def _affine(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`affine_project` of a validated array, written into ``out`` when given."""
    n = m.shape[-1]
    r = m.sum(axis=-1, keepdims=True)  # row sums as a column
    c = m.sum(axis=-2, keepdims=True)  # column sums as a row
    s = r.sum(axis=-2, keepdims=True)
    mu = (1.0 - r) / n
    nu = (1.0 - c) / n - (n - s) / n**2
    out = np.add(m, mu, out=out)
    return np.add(out, nu, out=out)


def _iterate(step, x: np.ndarray, state: tuple, tol: float, max_iterations: int):
    """Run ``step`` on a stack, retiring each matrix once its own gap is below tol.

    ``step(x, *state)`` returns the next iterate, its state and a (B,) gap; a
    matrix retires at its first gap below tol after the first step, so it ends
    on the iterate it would reach alone.  A step may overwrite its state and
    the x it was given, so nothing here is kept across steps except through
    copies: a retiring matrix is copied into the output, and the fancy-indexed
    x and state of the matrices still live are copies too.  Returns the final
    iterates, a (B,) converged flag and the (B,) steps each matrix took.
    """
    out = np.empty_like(x)
    converged = np.zeros(len(x), dtype=bool)
    iterations = np.full(len(x), max_iterations)  # the count of a matrix that never retires
    live = np.arange(len(x))  # indices of the matrices still iterating
    for it in range(max_iterations):
        if not live.size:
            break
        x, state, gap = step(x, *state)
        done = gap < tol
        if it > 0 and done.any():
            out[live[done]] = x[done]
            converged[live[done]] = True
            iterations[live[done]] = it + 1
            keep = ~done
            live, x, state = live[keep], x[keep], tuple(s[keep] for s in state)
    out[live] = x
    return out, converged, iterations


def _dykstra(x, p, q, w):
    """One Dykstra step, written over the four buffers it is given.

    p and q are the corrections for the affine and the orthant projection and
    w is scratch.  No n x n array is allocated: every entry goes through the
    same ufuncs on the same operands as with fresh temporaries, so reusing the
    buffers changes no bit.  The old x ends holding the step's difference and
    is the next step's scratch.
    """
    xp = np.add(x, p, out=w)
    y = _affine(xp, out=p)
    yq = np.add(y, q, out=q)
    p = np.subtract(xp, y, out=p)
    x_new = np.maximum(yq, 0.0, out=w)
    q = np.subtract(yq, x_new, out=q)
    return x_new, (p, q, x), _frobenius_norms(np.subtract(x_new, x, out=x))


def project(m, settings: ProjectionSettings | None = None):
    """Frobenius-nearest doubly stochastic matrix, validated at 1e-8.

    Returns a :class:`Dsm` for one matrix.  A (B, n, n) stack is projected in
    one call and comes back as the (B, n, n) array of projections, each to
    the same bits as alone and validated as a single matrix would be: one
    matrix is a batch of one, on one failure path.

    Raises :class:`ProjectionError` with the last iterate attached when the
    iteration budget runs out before the successive-iterate gap drops below
    ``settings.tolerance``, or when the iteration stops at a matrix that
    fails the 1e-8 validation; for a stack, the error is the first failing
    matrix's in index order.  The error's report is measured without
    validating the iterate, which may hold NaN after an overflow; its
    ``iterations`` are the steps that matrix took.
    """
    m = as_square(m, stack=True)
    settings = settings or ProjectionSettings()
    stack = m.reshape(-1, *m.shape[-2:])
    # the step writes over the iterate it is given, and stack may be the caller's own array
    out, converged, iterations = _iterate(
        _dykstra, stack.copy(), (np.zeros_like(stack), np.zeros_like(stack), np.empty_like(stack)),
        settings.tolerance, settings.max_iterations)
    out = out.reshape(stack.shape)
    deviations = _deviations(out)
    if (failed := ~converged | _off_polytope(deviations, _VALIDATION)).any():
        first = np.argmax(failed)
        report = _report(deviations, first)
        if converged[first]:
            message = ("dykstra stopped off the Birkhoff polytope: "
                       f"{_dsm_error(out[first], report, _VALIDATION)}")
        else:
            message = (f"no convergence within {settings.max_iterations} iterations "
                       f"(dykstra, tolerance {settings.tolerance})")
        raise ProjectionError(message, out[first], report, int(iterations[first]))
    return Dsm(out[0], _VALIDATION, _report(deviations, 0)) if m.ndim == 2 else out


def birkhoff_distance(m, settings: ProjectionSettings | None = None):
    """Frobenius distance from m to its doubly stochastic projection.

    A float for one matrix; a (B, n, n) stack gives the (B,) array of each
    matrix's distance, to the same bits as alone.
    """
    m = as_square(m, stack=True)
    return frobenius_distance(m, project(m, settings))
