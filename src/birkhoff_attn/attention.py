"""Attention forward passes with pluggable row-normalizers.

The score matrix is qm @ km.T; a normalizer turns it into row-wise mixing
weights for the value matrix.  Any operator spec from
:mod:`~birkhoff_attn.operators` (a :class:`~birkhoff_attn.operators.Normalizer`,
as returned by ``make_operator``) can serve; its ``attend`` method applies
the temperature: the softmax family uses it as the softmax temperature, the
Sinkhorn family, which needs positive entries, receives exp_scale(scores,
tau), and the doubly stochastic normalizers see scores / tau.

The differentiable specs, ``Softmax`` and ``SinkhornNaive``, carry their
backward pass as an explicit vector-Jacobian product (no autograd), the
``vjp`` method; :func:`vjp_check` compares it with central finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# softmax_rows is unused here, but perfbench's attention.softmax_rows span wraps this name
from .operators import SPECS, Normalizer, Softmax, softmax_rows  # noqa: F401


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
# vector-Jacobian products: the specs' own ``vjp`` methods, checked here

VJP_NORMALIZERS = tuple(name for name, spec in SPECS.items() if hasattr(spec, "vjp"))


def vjp_check(op: Normalizer, *, n: int, trials: int, seed) -> float:
    """Worst relative error of a spec's VJP against central finite differences.

    ``op`` is a spec with a ``vjp`` method, one of :data:`VJP_NORMALIZERS`
    (``SinkhornNaive`` with its passes, ``Softmax`` at its temperature).
    Each trial draws an n x n input from uniform(0.1, 10) and an upstream
    gradient from the standard normal, from ``np.random.default_rng(seed)``
    (an int or a Generator), and compares ``op.vjp`` with the finite
    difference of sum(upstream * op(m)) at step 1e-5; the error of a trial is
    the largest absolute deviation over the largest finite difference.
    """
    if not hasattr(op, "vjp"):
        raise ValueError(f"no VJP for {op.name!r} (choose from {', '.join(VJP_NORMALIZERS)})")
    rng = np.random.default_rng(seed)
    h = 1e-5
    worst = 0.0
    columns = np.arange(n)
    for _ in range(trials):
        m = rng.uniform(0.1, 10.0, (n, n))
        upstream = rng.standard_normal((n, n))
        fd = np.empty_like(m)
        for i in range(n):
            # bump j steps entry (i, j): one forward call per sign covers row i, n^3 floats
            bumps = np.zeros((n, n, n))
            bumps[columns, i, columns] = h
            fd[i] = ((upstream * op(m + bumps)).reshape(n, -1).sum(axis=-1)
                     - (upstream * op(m - bumps)).reshape(n, -1).sum(axis=-1)) / (2 * h)
        scale = max(float(np.abs(fd).max()), 1e-12)
        worst = max(worst, float(np.abs(op.vjp(m, upstream) - fd).max()) / scale)
    return worst
