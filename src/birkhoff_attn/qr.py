"""Doubly stochastic matrices from orthogonal factors.

Squaring the entries of an orthogonal matrix gives row and column sums of
exactly one (each row and column is a unit vector), so Q from a QR
factorization yields a doubly stochastic matrix for free.  Q is computed by
modified Gram-Schmidt; the diagonal of R is a column norm and therefore
already non-negative, which fixes the sign convention.  Rank-deficient input
is handled by perturbing the matrix with small seeded Gaussian noise and
restarting.  Each matrix is first scaled by a power of two to a largest
|entry| in [1, 2), which leaves Q unchanged and is exact unless an entry
turns subnormal, so the pivot floor and the noise act at the input's own
scale and no pivot overflows.  Both functions take one matrix or a
(B, n, n) stack, and each matrix of a stack comes out bit for bit as it
would alone.
"""

from __future__ import annotations

import numpy as np

from .core import Dsm, as_dsm, as_square

_PIVOT_FLOOR = 1e-10   # residual column norm below this counts as rank deficiency
_NOISE_STD = 1e-7      # std of the entrywise restart perturbation
_MAX_RESTARTS = 5
_VALIDATION = 1e-9     # as_dsm tolerance of qr_dsm's output


def _mgs(ms: np.ndarray):
    """Modified Gram-Schmidt on a (B, n, n) stack: Q and a (B,) flag of collapsed pivots.

    A flagged matrix's Q is garbage; the sweep stops once all are flagged.
    Each column is orthogonalized twice, which keeps Q'Q near machine
    precision when a residual barely clears the floor.  Columns stay (n, 1)
    slices and the pivot is sqrt(v'v), so each matrix gets its bits alone.
    """
    q = np.zeros_like(ms)
    deficient = np.zeros(len(ms), dtype=bool)
    columns = np.ascontiguousarray(ms.transpose(2, 0, 1))[..., None]  # column j: (B, n, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, v in enumerate(columns):
            done = q[:, :, :j]
            done_t = done.transpose(0, 2, 1)
            for _ in range(2):
                v -= done @ (done_t @ v)
            pivot = np.sqrt(v.transpose(0, 2, 1) @ v)
            collapsed = (pivot < _PIVOT_FLOOR).ravel()  # NaN pivots of flagged matrices: False
            if collapsed.any():
                deficient |= collapsed
                if deficient.all():
                    break
            np.divide(v, pivot, out=q[:, :, j:j + 1])
    return q, deficient


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
    q, deficient = _mgs(ms)
    if deficient.any():
        if noise_seed is None:
            raise ValueError("input is rank deficient; a noise_seed is required")
        rng = np.random.default_rng(noise_seed)
        todo = np.flatnonzero(deficient)
        for _ in range(_MAX_RESTARTS):
            retry, deficient = _mgs(ms[todo] + rng.normal(0.0, _NOISE_STD, size=m.shape[-2:]))
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
    return as_dsm(qr_orthonormalize(m, noise_seed) ** 2, _VALIDATION)
