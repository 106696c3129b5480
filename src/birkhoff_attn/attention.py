"""Attention forward passes with pluggable row-normalizers.

The score matrix is qm @ km.T; a normalizer turns it into row-wise mixing
weights for the value matrix.  Any operator spec from
:mod:`~birkhoff_attn.operators` (a :class:`~birkhoff_attn.operators.Normalizer`,
as returned by ``make_operator``) can serve; its ``attend`` method applies
the temperature: the softmax family uses it as the softmax temperature, the
Sinkhorn family, which needs positive entries, receives exp_scale(scores,
tau), and the doubly stochastic normalizers see scores / tau.

Backward passes are provided for the differentiable normalizers as explicit
vector-Jacobian products (no autograd): row softmax, and the unrolled
alternating-normalization iteration.  :func:`vjp_check` compares them with
central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_square
from .operators import Normalizer, SinkhornNaive, Softmax, softmax_rows
from .sinkhorn import _check_sinkhorn_args


@dataclass(frozen=True)
class AttentionConfig:
    normalizer: Normalizer = Softmax()
    temperature: float | None = None  # None: sqrt of the key width

    def __post_init__(self):
        if self.temperature is not None:
            self.normalizer.check_temperature(self.temperature)


def attention_forward(qm, km, vm, config: AttentionConfig | None = None) -> dict:
    """Normalized attention: weights from qm @ km.T, output = weights @ vm.

    Returns {"attn": weights, "output": weights @ vm}.  The default
    temperature is sqrt(d_k).
    """
    config = config or AttentionConfig()
    qm, km, vm = _check_shapes(qm, km, vm)
    tau = config.temperature if config.temperature is not None else float(np.sqrt(km.shape[1]))
    attn = config.normalizer.attend(qm @ km.T, tau)
    return {"attn": attn, "output": attn @ vm}


def _check_shapes(qm, km, vm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """qm, km, vm as float64 arrays, or ValueError unless qm and km match and vm has their rows."""
    qm, km, vm = (np.asarray(a, dtype=np.float64) for a in (qm, km, vm))
    if qm.ndim != 2 or km.ndim != 2 or vm.ndim != 2:
        raise ValueError("qm, km, vm must be 2-D")
    if qm.shape != km.shape or vm.shape[0] != qm.shape[0]:
        raise ValueError(
            f"incompatible shapes qm{qm.shape} km{km.shape} vm{vm.shape}"
        )
    return qm, km, vm


# ---------------------------------------------------------------------------
# vector-Jacobian products

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
    steps = []
    out = m.copy()
    for t in range(k):
        axis = 0 if t % 2 == 0 else 1
        sums = out.sum(axis=axis, keepdims=True)
        out = out / sums
        steps.append((axis, sums, out))
    g = upstream.astype(np.float64)
    for axis, sums, normalized in reversed(steps):
        inner = (g * normalized).sum(axis=axis, keepdims=True)
        g = (g - inner) / sums
    return g


def softmax_vjp(m, tau: float, upstream) -> np.ndarray:
    """Gradient of sum(upstream * softmax_rows(m, tau)) with respect to m."""
    upstream = as_square(upstream, "upstream")
    y = softmax_rows(m, tau)
    if upstream.shape != y.shape:
        raise ValueError("upstream must match m in shape")
    inner = (upstream * y).sum(axis=1, keepdims=True)
    return y * (upstream - inner) / tau


VJP_NORMALIZERS = ("sinkhorn-naive", "softmax")


def _vjp_pair(normalizer: str, *, k: int, tau: float):
    """The forward spec and VJP :func:`vjp_check` compares; ValueError for a bad name or setting."""
    if normalizer == "sinkhorn-naive":
        return SinkhornNaive(k), lambda m, g: sinkhorn_naive_vjp(m, k, g)
    if normalizer == "softmax":
        return Softmax(tau), lambda m, g: softmax_vjp(m, tau, g)
    raise ValueError(f"no VJP for {normalizer!r} (choose from {', '.join(VJP_NORMALIZERS)})")


def vjp_check(normalizer: str, *, k: int, tau: float, n: int, trials: int, seed) -> float:
    """Worst relative error of a VJP against central finite differences.

    ``normalizer`` is one of :data:`VJP_NORMALIZERS`: ``sinkhorn-naive``
    with ``k`` passes or ``softmax`` at temperature ``tau``.  Each trial
    draws an n x n input from uniform(0.1, 10) and an upstream gradient
    from the standard normal, from ``np.random.default_rng(seed)`` (an int
    or a Generator), and compares the analytic VJP with the finite
    difference of sum(upstream * f(m)) at step 1e-5; the error of a trial is
    the largest absolute deviation over the largest finite difference.
    """
    fwd, vjp = _vjp_pair(normalizer, k=k, tau=tau)
    rng = np.random.default_rng(seed)
    h = 1e-5
    worst = 0.0
    columns = np.arange(n)
    for _ in range(trials):
        m = rng.uniform(0.1, 10.0, (n, n))
        upstream = rng.standard_normal((n, n))
        analytic = vjp(m, upstream)
        fd = np.empty_like(m)
        for i in range(n):
            # bump j steps entry (i, j): one forward call per sign covers row i, n^3 floats
            bumps = np.zeros((n, n, n))
            bumps[columns, i, columns] = h
            fd[i] = ((upstream * fwd(m + bumps)).reshape(n, -1).sum(axis=-1)
                     - (upstream * fwd(m - bumps)).reshape(n, -1).sum(axis=-1)) / (2 * h)
        scale = max(float(np.abs(fd).max()), 1e-12)
        worst = max(worst, float(np.abs(analytic - fd).max()) / scale)
    return worst
