"""Doubly stochastic matrices from simulated parameterized quantum circuits.

A unitary W on q qubits gives a doubly stochastic matrix |W|^2 (entrywise
squared magnitudes) of size 2^q.  Here W is a layered ansatz whose rotation
angles are the input-matrix entries cyclically multiplied into a trainable
parameter vector, the data register occupies the least-significant index
bits, and any auxiliary qubits are traced out by summing |W|^2 over aux
blocks and dividing by the aux dimension -- which preserves double
stochasticity.  The simulation streams one basis-state column of W at a
time, so memory stays at one statevector (O(2^q)); W is never materialized.

Two ansatz families:

- ``simple``: brickwork of two-qubit blocks on pairs (0,1),(2,3),... in even
  layers and (1,2),(3,4),... in odd layers, 4 angles per block, identity at
  angle zero.
- ``trotter``: per layer a second-order split step
  exp(-i/2 sum_j b_j X_j) exp(-i sum_j a_j Z_j Z_{j+1}) exp(-i/2 sum_j b_j X_j)
  with q X coefficients and q-1 ZZ coefficients.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .core import Dsm, as_dsm, as_square

_MAX_QUBITS = 24
_COLUMN_CHUNK = 64  # fixed, so the summation order and the output bits never change
_MIN_SAMPLE_SECONDS = 0.02  # bench_circuit repeats a call until one sample lasts this long

SIMPLE = "simple"
TROTTER = "trotter"

_I2 = np.eye(2, dtype=np.complex128)


@dataclass(frozen=True)
class CircuitConfig:
    """Shape of the simulated circuit.

    ``dsm_dim`` is the output matrix size T (a power of two); log2(T) data
    qubits plus ``aux_qubits`` auxiliary ones make up the register.
    ``aux_qubits`` may be zero, which is handy for testing.
    """

    dsm_dim: int
    aux_qubits: int = 0
    layers: int = 1
    ansatz: str = SIMPLE

    def __post_init__(self):
        t = self.dsm_dim
        if t < 2 or t & (t - 1) != 0:
            raise ValueError(f"dsm_dim must be a power of two >= 2, got {t}")
        if self.aux_qubits < 0:
            raise ValueError("aux_qubits must be >= 0")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.ansatz not in (SIMPLE, TROTTER):
            raise ValueError(f"unknown ansatz {self.ansatz!r}")
        if self.total_qubits > _MAX_QUBITS:
            raise ValueError(
                f"{self.total_qubits} qubits exceed the {_MAX_QUBITS}-qubit statevector limit"
            )

    @property
    def data_qubits(self) -> int:
        return self.dsm_dim.bit_length() - 1

    @property
    def total_qubits(self) -> int:
        return self.data_qubits + self.aux_qubits

    @property
    def aux_dim(self) -> int:
        return 1 << self.aux_qubits


def _simple_pairs(q: int, layer: int) -> list[tuple[int, int]]:
    off = layer % 2
    return [(i, i + 1) for i in range(off, q - 1, 2)]


def param_count(config: CircuitConfig) -> int:
    """Total number of trainable angles for the configured ansatz.

    ``simple`` uses 4 per block, floor((q - layer%2)/2) blocks per layer.  On
    the degenerate single-qubit register (dsm_dim 2 with no aux) each even
    layer applies the block's one-qubit reduction and still consumes 4
    angles.  ``trotter`` uses 2q-1 coefficients per layer.
    """
    q = config.total_qubits
    if config.ansatz == TROTTER:
        return config.layers * (2 * q - 1)
    if q == 1:
        return 4 * ((config.layers + 1) // 2)
    return sum(4 * ((q - layer % 2) // 2) for layer in range(config.layers))


def inject(theta, m) -> np.ndarray:
    """Angles theta_k * vec(m)[k mod n^2], with vec the row-major flattening.

    The matrix entries cycle when there are more parameters than entries;
    surplus entries are ignored when there are fewer.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 1:
        raise ValueError("theta must be a flat vector")
    vec = as_square(m).ravel()
    return theta * vec[np.arange(theta.size) % vec.size]


def _ry(t: float) -> np.ndarray:
    c, s = np.cos(t / 2.0), np.sin(t / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _crz(t: float) -> np.ndarray:
    return np.diag([1.0, 1.0, np.exp(-0.5j * t), np.exp(0.5j * t)])


def _xrot(c: float) -> np.ndarray:
    # exp(-i c X)
    return np.array(
        [[np.cos(c), -1j * np.sin(c)], [-1j * np.sin(c), np.cos(c)]], dtype=np.complex128
    )


def build_block(alpha) -> np.ndarray:
    """4x4 two-qubit unit block [RY(a1) x RY(a2)] CRZ(a3) [RY(a4) x I].

    The first tensor factor is the block's first qubit (high bit of the 4x4
    index); the entangler is controlled on it.  The block is the identity at
    alpha = 0.
    """
    a1, a2, a3, a4 = np.asarray(alpha, dtype=np.float64)
    return np.kron(_ry(a1), _ry(a2)) @ _crz(a3) @ np.kron(_ry(a4), _I2)


# ---------------------------------------------------------------------------
# statevector application with qubit k <-> bit k of the basis index

@lru_cache(maxsize=None)
def _pair_indices(q: int, qa: int, qb: int) -> np.ndarray:
    """(4, 2^(q-2)) index table; row 2*bit(qa) + bit(qb) of a 4x4 block."""
    idx = np.arange(1 << q)
    base = idx[((idx >> qa) & 1 == 0) & ((idx >> qb) & 1 == 0)]
    return np.stack([base, base + (1 << qb), base + (1 << qa), base + (1 << qa) + (1 << qb)])


@lru_cache(maxsize=None)
def _single_indices(q: int, k: int) -> np.ndarray:
    idx = np.arange(1 << q)
    base = idx[(idx >> k) & 1 == 0]
    return np.stack([base, base + (1 << k)])


@lru_cache(maxsize=None)
def _zz_signs(q: int, k: int) -> np.ndarray:
    """+1 where bits k and k+1 agree, -1 where they differ."""
    idx = np.arange(1 << q)
    return 1.0 - 2.0 * (((idx >> k) ^ (idx >> (k + 1))) & 1).astype(np.float64)


def _apply_circuit(state: np.ndarray, config: CircuitConfig, phi: np.ndarray) -> np.ndarray:
    q = config.total_qubits
    cursor = 0
    for layer in range(config.layers):
        if config.ansatz == SIMPLE:
            if q == 1:
                if layer % 2 == 0:
                    a = phi[cursor:cursor + 4]
                    cursor += 4
                    gate = _ry(a[0]) @ _ry(a[3])
                    idx = _single_indices(1, 0)
                    state[idx] = gate @ state[idx]
                continue
            for qa, qb in _simple_pairs(q, layer):
                block = build_block(phi[cursor:cursor + 4])
                cursor += 4
                idx = _pair_indices(q, qa, qb)
                state[idx] = block @ state[idx]
        else:
            a = phi[cursor:cursor + q - 1]
            b = phi[cursor + q - 1:cursor + 2 * q - 1]
            cursor += 2 * q - 1
            for _half in range(2):
                for k in range(q):
                    idx = _single_indices(q, k)
                    state[idx] = _xrot(b[k] / 2.0) @ state[idx]
                if _half == 0:
                    for k in range(q - 1):
                        state *= np.exp(-1j * a[k] * _zz_signs(q, k))
    return state


def _fold_chunk(config: CircuitConfig, phi: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Partial doubly stochastic accumulator for basis columns lo..hi-1."""
    t = config.dsm_dim
    dim = 1 << config.total_qubits
    partial = np.zeros((t, t))
    for col in range(lo, hi):
        state = np.zeros(dim, dtype=np.complex128)
        state[col] = 1.0
        _apply_circuit(state, config, phi)
        probs = np.abs(state) ** 2
        partial[:, col % t] += probs.reshape(config.aux_dim, t).sum(axis=0)
    return partial


def simulate_dsm(config: CircuitConfig, theta, m) -> Dsm:
    """Exact doubly stochastic matrix of the data-injected circuit.

    Streams basis-state columns in fixed-size chunks and adds the partial
    sums in chunk order, so the summation order never changes.  With
    theta = 0 every gate is the identity and the output is exactly the
    identity matrix.
    """
    m = as_square(m)
    if m.shape[0] != config.dsm_dim:
        raise ValueError(f"matrix size {m.shape[0]} does not match dsm_dim {config.dsm_dim}")
    theta = np.asarray(theta, dtype=np.float64)
    expected = param_count(config)
    if theta.shape != (expected,):
        raise ValueError(f"theta must have length {expected}, got {theta.shape}")
    phi = inject(theta, m)
    dim = 1 << config.total_qubits
    partials = (_fold_chunk(config, phi, lo, min(lo + _COLUMN_CHUNK, dim))
                for lo in range(0, dim, _COLUMN_CHUNK))
    return as_dsm(reduce(np.add, partials) / config.aux_dim)


def sample_shots(config: CircuitConfig, theta, m, shots: int, seed: int) -> np.ndarray:
    """Empirical column frequencies from finite sampling of the exact DSM.

    Each of the T columns receives floor(shots/T) categorical draws, so the
    result is left-stochastic (columns sum to one) and deterministic given
    the seed.  Requires shots >= T.
    """
    t = config.dsm_dim
    if shots < t:
        raise ValueError(f"need at least one shot per column: shots={shots} < T={t}")
    exact = simulate_dsm(config, theta, m).matrix
    per_col = shots // t
    rng = np.random.default_rng(seed)
    out = np.empty_like(exact)
    for j in range(t):
        pvals = exact[:, j] / exact[:, j].sum()
        out[:, j] = rng.multinomial(per_col, pvals) / per_col
    return out


def bench_circuit(configs, reps: int = 5, theta_seed: int = 0) -> list[dict]:
    """Median wall-time of simulate_dsm per configuration.

    Returns one row {layers, qubits, median_seconds} per config; parameters
    and the injected matrix are drawn from ``theta_seed`` so reruns time the
    same workload.  Each config is warmed up once, then the reps run
    round-robin across configs, so a drift in machine speed hits them alike.
    Each rep repeats the call until it has run for at least
    ``_MIN_SAMPLE_SECONDS`` and records the seconds per call, so no sample
    is a single call short enough for timer and scheduler noise to dominate.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    runs = []
    for config in configs:
        rng = np.random.default_rng(theta_seed)
        theta = rng.uniform(-1.0, 1.0, param_count(config))
        m = rng.standard_normal((config.dsm_dim, config.dsm_dim))
        simulate_dsm(config, theta, m)  # warm caches before timing
        runs.append((config, theta, m, []))
    for _ in range(reps):
        for config, theta, m, times in runs:
            calls, elapsed, start = 0, 0.0, time.perf_counter()
            while elapsed < _MIN_SAMPLE_SECONDS:
                simulate_dsm(config, theta, m)
                calls += 1
                elapsed = time.perf_counter() - start
            times.append(elapsed / calls)
    return [
        {
            "layers": config.layers,
            "qubits": config.total_qubits,
            "median_seconds": float(np.median(times)),
        }
        for config, _, _, times in runs
    ]
