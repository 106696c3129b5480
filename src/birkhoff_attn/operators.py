"""The matrix-to-matrix normalizers, one frozen spec per operator.

Each operator is a frozen, picklable dataclass derived from the exported
base :class:`Normalizer`.  Its fields are the operator's settings, with
their defaults, checked when the spec is built with the kernel's own
check; calling a spec applies the operator to one square matrix or
to each matrix of a (B, n, n) stack, returning the input's shape, and
``attend(scores, tau)`` applies it to attention scores at temperature tau.
:class:`Softmax` and :class:`SinkhornNaive` also have ``vjp(m, upstream)``,
the gradient of sum(upstream * spec(m)) in one matrix m at their settings.
A stack is one kernel call for every operator, each matrix to the same
bits as alone.
``needs_positive`` marks operators whose domain is strictly positive
matrices (the Sinkhorn family); sweep drivers feed those through
:func:`~birkhoff_attn.sinkhorn.exp_scale` first, and in attention they
receive exp_scale(scores, tau).  Because specs pickle, sweeps ship them to
worker processes as they are.

:func:`make_operator` returns the callable, picklable spec for a name and
its settings; sweeps, invariance probes, attention and the command line
all use it.  :class:`BirkhoffNormalizer` takes the
:class:`~birkhoff_attn.birkhoff.ProjectionSettings` fields as its own, and
:class:`QontotNormalizer` the :class:`~birkhoff_attn.qontot.CircuitConfig`
fields with theta or its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar

import numpy as np

from .birkhoff import ProjectionSettings, project
from .core import Dsm, as_square
from .qontot import SIMPLE, CircuitConfig, param_count, simulate_dsm
from .qr import _check_noise_seed, qr_dsm
from .sinkhorn import (_check_iterations, _check_tau, exp_scale, sinkhorn_naive,
                       sinkhorn_naive_vjp, sinkhorn_ot)

_DENOM_FLOOR = 1e-6


def softmax_rows(m, tau: float = 1.0) -> np.ndarray:
    """Row-wise softmax of m/tau with per-row max subtraction; m may be a (B, n, n) stack."""
    m = as_square(m, stack=True)
    _check_tau(tau)
    return _softmax(m, tau)


def _softmax(m: np.ndarray, tau) -> np.ndarray:
    with np.errstate(over="ignore"):  # a tiny tau sends z to -inf, whose exp is the limit 0
        z = (m - m.max(axis=-1, keepdims=True)) / tau
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_vjp(m, tau: float, upstream) -> np.ndarray:
    """Gradient of sum(upstream * softmax_rows(m, tau)) with respect to m."""
    upstream = as_square(upstream, "upstream")
    y = softmax_rows(m, tau)
    if upstream.shape != y.shape:
        raise ValueError("upstream must match m in shape")
    inner = (upstream * y).sum(axis=1, keepdims=True)
    return y * (upstream - inner) / tau


def norm_softmax(m, tau: float = 1.0, power: int = 1) -> np.ndarray:
    """Row softmax at a data-driven temperature.

    The temperature is the population std (power 1) or variance (power 2) of
    all entries of m, capped above by tau, which must be positive, and
    floored at 1e-6 so a constant input cannot divide by zero.  Each matrix
    of a (B, n, n) stack gets its own temperature.
    """
    m = as_square(m, stack=True)
    _check_power(power)
    _check_tau(tau)
    # Python's float power is libm pow, which can round x**2 one ulp away
    # from numpy's square, so each temperature is taken in Python floats
    temps = [max(min(float(std) ** power, tau), _DENOM_FLOOR)
             for std in m.reshape(-1, m.shape[-1] ** 2).std(axis=-1)]
    return _softmax(m, np.reshape(temps, m.shape[:-2] + (1, 1)))


def _check_power(power: int) -> None:
    if power not in (1, 2):
        raise ValueError(f"power must be 1 (std) or 2 (variance), got {power}")


def _array(result) -> np.ndarray:
    """The matrix of a single input's Dsm, or a stack's array as it is."""
    return result.matrix if isinstance(result, Dsm) else result


class Normalizer:
    """Base of the operator specs.

    A subclass is a frozen dataclass whose fields are the operator's
    settings; it sets the class attributes ``name`` and ``needs_positive``
    and defines ``__call__`` on a matrix or a (B, n, n) stack.  By default
    ``attend`` normalizes the temperature-scaled scores ``scores / tau``, and
    ``check_temperature`` rejects the temperatures ``attend`` cannot take.  A
    differentiable operator also defines ``vjp(m, upstream)``.
    """

    name: ClassVar[str]
    needs_positive: ClassVar[bool] = False

    def __call__(self, m) -> np.ndarray:
        raise NotImplementedError

    def attend(self, scores: np.ndarray, tau: float) -> np.ndarray:
        """Attention weights from the score matrix at temperature tau."""
        with np.errstate(over="ignore"):  # the operator rejects scores sent to inf
            scaled = scores / tau
        return self(scaled)

    def check_temperature(self, tau: float) -> None:
        """Raise ValueError unless ``attend`` takes temperature tau: by default any nonzero number."""
        if not (tau < 0.0 or tau > 0.0):
            raise ValueError(f"temperature must be a nonzero number, got {tau}")


@dataclass(frozen=True)
class Softmax(Normalizer):
    """Row softmax; in attention, tau is its temperature."""

    name = "softmax"
    tau: float = 1.0

    def __post_init__(self):
        _check_tau(self.tau)

    def __call__(self, m) -> np.ndarray:
        return softmax_rows(m, self.tau)

    def attend(self, scores, tau):
        return softmax_rows(scores, tau)

    def vjp(self, m, upstream) -> np.ndarray:
        return softmax_vjp(m, self.tau, upstream)

    def check_temperature(self, tau):
        _check_tau(tau)


@dataclass(frozen=True)
class NormSoftmax(Normalizer):
    """Row softmax at the std (power 1) or variance (power 2) of the input, capped at tau."""

    name = "norm-softmax"
    power: int = 1
    tau: float = 1.0

    def __post_init__(self):
        _check_power(self.power)
        _check_tau(self.tau)

    def __call__(self, m) -> np.ndarray:
        return norm_softmax(m, self.tau, self.power)

    def attend(self, scores, tau):
        return norm_softmax(scores, tau, self.power)

    def check_temperature(self, tau):
        _check_tau(tau)


class _Sinkhorn(Normalizer):
    """The Sinkhorn family: positive inputs only, so attention exponentiates the scores."""

    needs_positive = True

    def __post_init__(self):
        _check_iterations(self.iterations)

    def attend(self, scores, tau):
        return self(exp_scale(scores, tau))

    def check_temperature(self, tau):
        _check_tau(tau)


@dataclass(frozen=True)
class SinkhornNaive(_Sinkhorn):
    name = "sinkhorn-naive"
    iterations: int = 21

    def __call__(self, m) -> np.ndarray:
        return sinkhorn_naive(m, self.iterations)

    def vjp(self, m, upstream) -> np.ndarray:
        return sinkhorn_naive_vjp(m, self.iterations, upstream)


@dataclass(frozen=True)
class SinkhornOT(_Sinkhorn):
    name = "sinkhorn-ot"
    iterations: int = 21

    def __call__(self, m) -> np.ndarray:
        return sinkhorn_ot(m, self.iterations)


@dataclass(frozen=True)
class BirkhoffNormalizer(ProjectionSettings, Normalizer):
    """Frobenius-nearest doubly stochastic matrix; the fields are the projection settings."""

    name = "birkhoff-project"

    def __call__(self, m) -> np.ndarray:
        return _array(project(m, self))


@dataclass(frozen=True)
class QrNormalizer(Normalizer):
    name = "qr"
    noise_seed: int | None = None

    def __post_init__(self):
        _check_noise_seed(self.noise_seed)

    def __call__(self, m) -> np.ndarray:
        return _array(qr_dsm(m, self.noise_seed))


def qontot_theta(config: CircuitConfig, theta_seed: int) -> np.ndarray:
    """The uniform(-1, 1) parameter draw used whenever theta comes from a seed."""
    return np.random.default_rng(theta_seed).uniform(-1.0, 1.0, param_count(config))


@dataclass(frozen=True)
class QontotNormalizer(Normalizer):
    """Simulated circuit: the CircuitConfig fields, and theta, one angle per circuit parameter.

    ``config`` is built from the circuit fields.  A missing theta is drawn by
    :func:`qontot_theta` from ``theta_seed``; an explicit theta wins.
    """

    name = "qontot"
    dsm_dim: int
    aux_qubits: int = 0
    layers: int = 1
    ansatz: str = SIMPLE
    theta: np.ndarray | None = None
    theta_seed: int | None = None
    config: CircuitConfig = field(init=False, repr=False)

    def __post_init__(self):
        config = CircuitConfig(int(self.dsm_dim), self.aux_qubits, self.layers, self.ansatz)
        if self.theta is not None:
            theta = np.asarray(self.theta, dtype=np.float64)
        elif self.theta_seed is not None:
            theta = qontot_theta(config, int(self.theta_seed))
        else:
            raise ValueError("qontot needs theta or a theta_seed")
        need = param_count(config)
        if theta.shape != (need,):
            raise ValueError(f"theta has {theta.size} values, config needs {need}"
                             if theta.ndim == 1 else
                             f"theta must be a flat vector, got shape {theta.shape}")
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "theta", theta)

    def __call__(self, m) -> np.ndarray:
        return _array(simulate_dsm(self.config, self.theta, m))


SPECS = {
    cls.name: cls
    for cls in (SinkhornNaive, SinkhornOT, BirkhoffNormalizer, QrNormalizer,
                QontotNormalizer, Softmax, NormSoftmax)
}
OPERATOR_NAMES = tuple(SPECS)


def make_operator(name: str, **kw) -> Normalizer:
    """The spec of operator ``name``; settings are its fields, and those not given keep defaults."""
    if name not in SPECS:
        raise ValueError(f"unknown operator {name!r}")
    if extras := kw.keys() - {f.name for f in fields(SPECS[name]) if f.init}:
        raise ValueError(f"unexpected settings for operator {name!r}: {sorted(extras)}")
    return SPECS[name](**kw)
