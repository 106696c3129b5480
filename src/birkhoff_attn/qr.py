"""Doubly stochastic matrices from orthogonal factors.

Squaring the entries of an orthogonal matrix gives row and column sums of
exactly one (each row and column is a unit vector), so Q from a QR
factorization yields a doubly stochastic matrix for free.  Q is computed by
classical Gram-Schmidt with reorthogonalization (CGS2); the diagonal of R
is a column norm and therefore already non-negative, which fixes the sign
convention.  Rank-deficient input is handled by perturbing the matrix with
small seeded Gaussian noise and restarting.  Each matrix is first scaled by
a power of two to a largest |entry| in [1, 2), which leaves Q unchanged and
is exact unless an entry turns subnormal, so the pivot floor and the noise
act at the input's own scale and no pivot overflows.  Both functions take
one matrix or a (B, n, n) stack, and each matrix of a stack comes out bit
for bit as it would alone.
"""

from __future__ import annotations

import numpy as np

from .core import Dsm, as_dsm, as_square

_PIVOT_FLOOR = 1e-10   # residual column norm below this counts as rank deficiency
_NOISE_STD = 1e-7      # std of the entrywise restart perturbation
_MAX_RESTARTS = 5


def _gram_schmidt(ms: np.ndarray):
    """Classical Gram-Schmidt on a (B, n, n) stack: Q and a (B,) flag of collapsed pivots.

    A matrix is flagged when any of its pivots fell below the floor (a later
    NaN pivot compares False); its Q is garbage.  Every 8th column the sweep
    stops if all matrices are flagged, as a low-rank score matrix is; a test
    at every column cost about 5% of a full-rank 256 x 256 sweep.  Each
    column subtracts its projection on all earlier columns at once, and does
    so twice (CGS2), which keeps Q'Q near machine precision when a residual
    barely clears the floor.  Columns stay (n, 1) slices and the pivot is
    sqrt(v'v), so each matrix gets its bits alone.
    """
    q = np.zeros_like(ms)
    pivots = np.empty(ms.shape[:2])  # pivots[b, j]: the pivot of column j of matrix b
    columns = np.ascontiguousarray(ms.transpose(2, 0, 1))[..., None]  # column j: (B, n, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, v in enumerate(columns):
            done = q[:, :, :j]
            done_t = done.transpose(0, 2, 1)
            for _ in range(2):
                v -= done @ (done_t @ v)
            pivot = np.sqrt(v.transpose(0, 2, 1) @ v)
            pivots[:, j] = pivot[:, 0, 0]
            if j % 8 == 7 and (pivots[:, :j + 1] < _PIVOT_FLOOR).any(axis=1).all():
                break
            np.divide(v, pivot, out=q[:, :, j:j + 1])
        return q, (pivots[:, :j + 1] < _PIVOT_FLOOR).any(axis=1)


def _check_noise_seed(noise_seed: int | None) -> None:
    if noise_seed is not None and noise_seed < 0:
        raise ValueError(f"noise_seed must be >= 0, got {noise_seed}")


def qr_orthonormalize(m, noise_seed: int | None = None) -> np.ndarray:
    """Orthogonal Q of a QR factorization with positive diagonal of R.

    When a pivot falls below the rank-deficiency floor, entrywise Gaussian
    noise (std 1e-7) drawn from ``noise_seed`` is added to the scaled
    matrix and the sweep restarts, at most five times.  A seed is required as
    soon as that path is taken, so deficiency-free inputs stay exactly
    reproducible without one; a negative seed is rejected up front.  In a
    stack, every deficient matrix restarts from its own
    ``default_rng(noise_seed)``, as it would alone.
    """
    m = as_square(m, stack=True)
    _check_noise_seed(noise_seed)
    ms = m.reshape(-1, *m.shape[-2:])
    _, exponent = np.frexp(np.abs(ms).max(axis=(1, 2)))  # an all-zero matrix stays zero
    ms = np.ldexp(ms, (1 - exponent)[:, None, None])
    q, deficient = _gram_schmidt(ms)
    if deficient.any():
        if noise_seed is None:
            raise ValueError("input is rank deficient; a noise_seed is required")
        rng = np.random.default_rng(noise_seed)
        todo = np.flatnonzero(deficient)
        for _ in range(_MAX_RESTARTS):
            noise = rng.normal(0.0, _NOISE_STD, size=m.shape[-2:])
            retry, deficient = _gram_schmidt(ms[todo] + noise)
            q[todo[~deficient]] = retry[~deficient]
            todo = todo[deficient]
            if not todo.size:
                break
        else:
            raise ValueError(f"rank deficiency persisted through {_MAX_RESTARTS} noise restarts")
    return q.reshape(m.shape)


def qr_dsm(m, noise_seed: int | None = None) -> Dsm | np.ndarray:
    """Entrywise square of the Gram-Schmidt Q: a doubly stochastic matrix.

    A :class:`Dsm` for one matrix; for a stack, the validated array, or the
    first failing matrix's error.
    """
    return as_dsm(qr_orthonormalize(m, noise_seed) ** 2)
