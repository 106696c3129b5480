"""Sinkhorn normalization of positive square matrices.

Alternately rescaling columns and rows of a strictly positive matrix drives it
toward the doubly stochastic polytope.  Pass t (counting from zero) normalizes
columns when t is even and rows when t is odd; the count k must be odd, which
fixes which marginal is exact: the final pass lands on even t, so columns sum
to one at machine precision while row sums only converge as k grows.  Two
implementations of the same iteration are provided: the direct one, and a
log-domain one phrased in terms of dual scaling potentials that stays finite
for kernels spanning hundreds of orders of magnitude.

Every kernel here takes one square matrix or a (B, n, n) stack of them and
returns an array of the same shape; each matrix of a stack comes out bit for
bit as it would alone.  The backward pass, :func:`sinkhorn_naive_vjp`, takes
one matrix.
"""

from __future__ import annotations

import numpy as np

from .core import as_square

# exp((m - max)/tau) underflows to zero roughly 745*tau below the max; clamp
# to the smallest positive normal so the output stays strictly positive.
_TINY = np.finfo(np.float64).tiny


def exp_scale(m, tau: float = 1.0) -> np.ndarray:
    """Entrywise exp(m/tau), shifted by the matrix's max so nothing overflows.

    The shift only multiplies the result by a constant, which the diagonal
    rescalings of the Sinkhorn iteration absorb.  Output entries are strictly
    positive and at most 1.  Each matrix of a stack is shifted by its own max.
    """
    m = as_square(m, stack=True)
    _check_tau(tau)
    with np.errstate(over="ignore"):  # a tiny tau sends entries to -inf, whose exp is 0
        out = np.exp((m - m.max(axis=(-2, -1), keepdims=True)) / tau)
    return np.maximum(out, _TINY)


def _check_tau(tau: float) -> None:
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")


def _check_sinkhorn_args(m, k: int) -> np.ndarray:
    m = as_square(m, stack=True)
    if not np.all(m > 0.0):
        raise ValueError("sinkhorn input must be strictly positive")
    _check_iterations(k)
    return m


def _check_iterations(k: int) -> None:
    if k < 1 or k % 2 == 0:
        raise ValueError(f"iteration count must be odd and >= 1, got {k}")


def sinkhorn_naive(m, k: int) -> np.ndarray:
    """k alternating normalization passes: columns at even t, rows at odd t.

    k must be odd; pass indices run 0..k-1, so the final pass normalizes
    columns and the output is column-stochastic to machine precision.  Row
    sums converge to one as k grows.
    """
    m = _check_sinkhorn_args(m, k)
    out = m.copy()
    for t in range(k):
        out /= out.sum(axis=-2 if t % 2 == 0 else -1, keepdims=True)
    return out


def sinkhorn_naive_vjp(m, k: int, upstream) -> np.ndarray:
    """Gradient of sum(upstream * sinkhorn_naive(m, k)) with respect to m.

    Replays the forward normalizations, then walks them backward: for a
    column pass with sums s and normalized result p, the pullback of g is
    (g - sum(g * p, rows)) / s per column, and symmetrically for row passes.
    """
    m = as_square(m)
    upstream = as_square(upstream, "upstream")
    if upstream.shape != m.shape:
        raise ValueError("upstream must match m in shape")
    _check_sinkhorn_args(m, k)
    steps, out = [], m
    for t in range(k):  # axis t % 2: columns at even t, rows at odd t
        sums = out.sum(axis=t % 2, keepdims=True)
        out = out / sums
        steps.append((t % 2, sums, out))
    g = upstream
    for axis, sums, normalized in reversed(steps):
        g = (g - (g * normalized).sum(axis=axis, keepdims=True)) / sums
    return g


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along ``axis``, with scipy 1.17's arithmetic for real input.

    Every entry equal to the max is left out of the shifted sum s and counted
    instead (m ties), and the result is log1p(s / m) + log(m) + max: the same
    bits as ``scipy.special.logsumexp``, which a plain max shift misses by an
    ulp when a slice holds ties.
    """
    a_max = a.max(axis=axis, keepdims=True)
    ties = a == a_max
    m = ties.sum(axis=axis, keepdims=True, dtype=np.float64)
    s = np.where(ties, 0.0, np.exp(a - a_max)).sum(axis=axis, keepdims=True)
    return (np.log1p(s / m) + np.log(m) + a_max).squeeze(axis)


def sinkhorn_ot(m, k: int) -> np.ndarray:
    """Log-domain Sinkhorn with dual potentials against unit marginals.

    Runs the same column-first alternation as :func:`sinkhorn_naive`, but as
    updates of dual potentials u, v on log(m), so extreme dynamic range in m
    never overflows or underflows intermediate sums.  Agrees with the naive
    flavor to float round-off for the same k, including the exactly
    column-stochastic final pass.
    """
    m = _check_sinkhorn_args(m, k)
    log_m = np.log(m)
    u = np.zeros(m.shape[:-1])  # row potentials, one per row of each matrix
    v = np.zeros(m.shape[:-1])  # column potentials
    for t in range(k):
        if t % 2 == 0:
            # column pass: make every column of exp(u + log_m + v) sum to 1
            v = -_logsumexp(log_m + u[..., :, None], axis=-2)
        else:
            u = -_logsumexp(log_m + v[..., None, :], axis=-1)
    return np.exp(u[..., :, None] + log_m + v[..., None, :])
