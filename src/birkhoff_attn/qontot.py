"""Doubly stochastic matrices from simulated parameterized quantum circuits.

A unitary W on q qubits gives a doubly stochastic matrix |W|^2 (entrywise
squared magnitudes) of size 2^q.  Here W is a layered ansatz whose rotation
angles are the input-matrix entries cyclically multiplied into a trainable
parameter vector, the data register occupies the least-significant index
bits, and any auxiliary qubits are traced out by summing |W|^2 over aux
blocks and dividing by the aux dimension -- which preserves double
stochasticity.

The simulation runs a batch of inputs at once: a (B, 2^q, c) state holds a
block of c basis-state columns of each input's W, and every gate updates
that state with the input's own coefficients, elementwise or as matrix
products of shapes fixed by the config, so each matrix of a stack comes out
to the same bits as alone.  The block width c
and the inputs per pass follow from the config alone and keep a pass within
2^15 amplitudes (512 KiB), or one column of one input above 15 qubits, so
memory stays O(2^q) and W is only held whole when it fits that budget.  The
budget is small enough that a pass and the temporaries of its gates (about
1.25 MiB) stay in a core's L2 cache: every gate streams over the whole
state, so a state larger than the cache makes every gate a pass over main
memory.

Two ansatz families:

- ``simple``: brickwork of two-qubit blocks on pairs (0,1),(2,3),... in even
  layers and (1,2),(3,4),... in odd layers, 4 angles per block, identity at
  angle zero.
- ``trotter``: per layer a second-order split step
  exp(-i/2 sum_j b_j X_j) exp(-i sum_j a_j Z_j Z_{j+1}) exp(-i/2 sum_j b_j X_j)
  with q X coefficients and q-1 ZZ coefficients.  X rotations on one qubit
  commute and add, so the closing half-step of layer L and the opening one
  of layer L+1 are simulated as one rotation by (b_L + b_{L+1})/2; the ZZ
  factor is diagonal, one phase per basis state, applied as one elementwise
  multiply.  X rotations on different qubits commute too, so those of one
  step on a contiguous group of at most five qubits are one gate, their
  Kronecker product, applied with one matrix product per input and run of
  higher bits: many passes over the state that each do little arithmetic
  become a few that do more (statevector simulators fuse gates the same
  way; Häner & Steiger, arXiv:1704.01127).  With g = ceil(q / 5) groups a
  block of states takes (L+1)g X passes and L phase passes.  A register of
  at most two qubits keeps one elementwise 2x2 pass per qubit, (L+1)q X
  passes, as a 4x4 matrix product per input does not pay.  The gates and
  phases are built once per pass of inputs and serve all its blocks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import Dsm, as_dsm, as_square

_MAX_QUBITS = 24
_MAX_LAYERS = 1024  # a layer is a pass over the statevector and up to 2q-1 angles
_AMPLITUDE_BUDGET = 1 << 15  # amplitudes one pass holds: 512 KiB of complex128
_MIN_SAMPLE_SECONDS = 0.02  # bench_circuit repeats a call until one sample lasts this long

SIMPLE = "simple"
TROTTER = "trotter"
ANSATZES = (SIMPLE, TROTTER)


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
        if not 1 <= self.layers <= _MAX_LAYERS:
            raise ValueError(f"layers must be in [1, {_MAX_LAYERS}], got {self.layers}")
        if self.ansatz not in ANSATZES:
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
    surplus entries are ignored when there are fewer.  A (B, n, n) stack
    gives a (B, len(theta)) array, one row of angles per matrix.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 1:
        raise ValueError("theta must be a flat vector")
    m = as_square(m, stack=True)
    vec = m.reshape(m.shape[:-2] + (m.shape[-1] ** 2,))
    return theta * vec[..., np.arange(theta.size) % vec.shape[-1]]


# ---------------------------------------------------------------------------
# gates: (..., k, k) stacks, one gate per input of the batch

def _gate(a, b, c, d) -> np.ndarray:
    """(..., 2, 2) complex stack [[a, b], [c, d]] from four entry arrays of one shape."""
    out = np.empty(np.shape(a) + (2, 2), np.complex128)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def _ry(t) -> np.ndarray:
    c, s = np.cos(t / 2.0), np.sin(t / 2.0)
    return _gate(c, -s, s, c)


def _crz(t) -> np.ndarray:
    one = np.ones_like(t)
    diagonal = np.stack([one, one, np.exp(-0.5j * t), np.exp(0.5j * t)], axis=-1)
    return np.eye(4) * diagonal[..., None, :]


def _xrot(c) -> np.ndarray:
    # exp(-i c X)
    return _gate(np.cos(c), -1j * np.sin(c), -1j * np.sin(c), np.cos(c))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of each pair of (..., k, k) and (..., j, j) gates, a (..., kj, kj) stack."""
    p = a[..., :, None, :, None] * b[..., None, :, None, :]
    k = p.shape[-4] * p.shape[-3]
    return p.reshape(p.shape[:-4] + (k, k))


def build_block(alpha) -> np.ndarray:
    """4x4 two-qubit unit block [RY(a1) x RY(a2)] CRZ(a3) [RY(a4) x I].

    The first tensor factor is the block's first qubit (high bit of the 4x4
    index); the entangler is controlled on it.  The block is the identity at
    alpha = 0.  A (..., 4) array of angles gives a (..., 4, 4) stack.
    """
    a1, a2, a3, a4 = np.moveaxis(np.asarray(alpha, dtype=np.float64), -1, 0)
    return _kron(_ry(a1), _ry(a2)) @ _crz(a3) @ _kron(_ry(a4), np.eye(2))


# ---------------------------------------------------------------------------
# the kernel: a (B, 2^q, c) block of statevectors, qubit k <-> bit k of the
# basis index, input b with its own angles.  A circuit is a list of steps
# built once per pass of inputs: (low, gates) applies each input's (k, k)
# gate to the qubits from ``low`` up, (None, phases) multiplies each basis
# state by its input's phase.  Every step treats each input on its own, with
# operands whose shapes follow from the config alone, so no input's
# arithmetic depends on the others.

_REGISTER_ORDER = [0, 2, 1, 3]  # a block's 4x4 index with its second (higher) qubit as high bit
_GROUP_QUBITS = 5  # qubits one fused X gate spans at most: a 32 x 32 gate per input


def _apply(state: np.ndarray, low: int, gate: np.ndarray) -> None:
    """Each input's (k, k) gate on the qubits from ``low`` up, in place, entry by entry.

    The gate's index runs over those qubits' bits with the highest one most
    significant, as in the register.
    """
    b, dim, width = state.shape
    k = gate.shape[-1]
    amps = state.reshape(b, dim // (k << low), k, 1 << low, width)
    coef = gate[:, :, :, None, None, None]
    rows = []
    for r in range(k):
        row = coef[:, r, 0] * amps[:, :, 0]
        for c in range(1, k):
            row += coef[:, r, c] * amps[:, :, c]
        rows.append(row)
    for r, row in enumerate(rows):
        amps[:, :, r] = row


def _matmul(state: np.ndarray, low: int, gate: np.ndarray) -> np.ndarray:
    """:func:`_apply` as one matrix product per input and run of high bits, into a new array."""
    b, dim, width = state.shape
    k = gate.shape[-1]
    amps = state.reshape(b, dim // (k << low), k, (1 << low) * width)
    return np.matmul(gate[:, None], amps).reshape(state.shape)


def _run(state: np.ndarray, steps: list) -> np.ndarray:
    """The circuit's steps on each input's block of states; returns the final block.

    A gate of more than two qubits goes through :func:`_matmul`, a smaller
    one through :func:`_apply` in place.
    """
    for low, gate in steps:
        if low is None:
            state *= gate
        elif gate.shape[-1] > 4:
            state = _matmul(state, low, gate)
        else:
            _apply(state, low, gate)
    return state


def _x_groups(q: int) -> list[tuple[int, int]]:
    """(lowest qubit, qubits) of the contiguous groups whose X rotations fuse into one gate.

    ceil(q / 5) groups of sizes as even as possible, the larger ones lower:
    (5, 4) at 9 qubits.  A register of at most two qubits keeps one 2x2
    gate per qubit: a fused 4x4 gate per input is a matrix product too
    small to beat two elementwise passes.
    """
    if q <= 2:
        return [(k, 1) for k in range(q)]
    count = -(-q // _GROUP_QUBITS)
    sizes = [q // count + (i < q % count) for i in range(count)]
    return [(sum(sizes[:i]), size) for i, size in enumerate(sizes)]


def _trotter_steps(config: CircuitConfig, phi: np.ndarray) -> list:
    """The trotter circuit's steps for the (B, P) stack of angles phi.

    X rotations on one qubit commute and add, so layer L's closing X
    half-step and layer L+1's opening one merge into one rotation; the X
    rotations of one layer on a group of qubits are one gate, their
    Kronecker product with the highest qubit first.  A layer's ZZ gates are
    diagonal: one phase exp(-i sum_k a_k z_k z_{k+1}) per basis state.
    """
    q = config.total_qubits
    coef = phi.reshape(len(phi), config.layers, 2 * q - 1)
    half = np.pad(coef[..., q - 1:] / 2.0, ((0, 0), (1, 1), (0, 0)))
    x = _xrot(half[:, :-1] + half[:, 1:])  # (B, L + 1, q, 2, 2)
    gates = []
    for low, size in _x_groups(q):
        gate = x[:, :, low + size - 1]
        for k in reversed(range(low, low + size - 1)):
            gate = _kron(gate, x[:, :, k])
        gates.append((low, gate))
    bits = np.arange(1 << q) >> np.arange(q)[:, None] & 1
    signs = 1 - 2 * (bits[:-1] ^ bits[1:])
    angles = np.zeros(coef.shape[:2] + (1 << q,))
    for k in range(q - 1):
        angles += coef[..., k, None] * signs[k]
    phases = np.exp(-1j * angles)[..., None]
    out = []
    for layer in range(config.layers + 1):
        if layer:
            out.append((None, phases[:, layer - 1]))
        out += [(low, gate[:, layer]) for low, gate in gates]
    return out


def _simple_steps(config: CircuitConfig, phi: np.ndarray) -> list:
    """The simple ansatz's steps for the (B, P) stack of angles phi."""
    q = config.total_qubits
    if q == 1:  # each even layer's block reduces to RY(a1) RY(a4)
        return [(0, _ry(phi[:, c]) @ _ry(phi[:, c + 3])) for c in range(0, phi.shape[1], 4)]
    out = []
    cursor = 0
    for layer in range(config.layers):
        for qa, _ in _simple_pairs(q, layer):
            block = build_block(phi[:, cursor:cursor + 4])
            cursor += 4
            out.append((qa, block[:, _REGISTER_ORDER][:, :, _REGISTER_ORDER]))
    return out


def _block_shape(config: CircuitConfig) -> tuple[int, int]:
    """(basis columns per block, inputs per pass) of the simulation.

    Both follow from the config alone, so each input's columns are summed in
    the same blocks whatever the batch.  A pass holds inputs x columns x 2^q
    amplitudes, at most _AMPLITUDE_BUDGET; above 15 qubits it is one column
    of one input, 2^q amplitudes.
    """
    dim = 1 << config.total_qubits
    width = max(1, min(dim, _AMPLITUDE_BUDGET // dim))
    return width, max(1, _AMPLITUDE_BUDGET // (width * dim))


def _simulate(config: CircuitConfig, phi: np.ndarray) -> np.ndarray:
    """(B, T, T) doubly stochastic matrices for the (B, P) stack of angles phi."""
    t, dim = config.dsm_dim, 1 << config.total_qubits
    width, per_pass = _block_shape(config)
    fold = min(width, t)  # output columns one block's columns fold into
    out = np.empty((len(phi), t, t))
    for lo in range(0, len(phi), per_pass):
        angles = phi[lo:lo + per_pass]
        b = len(angles)
        acc = np.zeros((b, t, t))
        steps = (_trotter_steps if config.ansatz == TROTTER else _simple_steps)(config, angles)
        for col in range(0, dim, width):
            state = np.zeros((b, dim, width), dtype=np.complex128)
            state[:, col + np.arange(width), np.arange(width)] = 1.0
            state = _run(state, steps)
            probs = state.real ** 2 + state.imag ** 2
            # rows: aux block, data row; columns: aux block, data column
            probs = probs.reshape(b, config.aux_dim, t, width // fold, fold)
            acc[:, :, col % t:col % t + fold] += probs.sum(axis=(1, 3))
        out[lo:lo + b] = acc / config.aux_dim
    return out


def simulate_dsm(config: CircuitConfig, theta, m) -> Dsm | np.ndarray:
    """Exact doubly stochastic matrix of the data-injected circuit.

    A :class:`Dsm` for one matrix; a (B, n, n) stack gives the validated
    (B, T, T) array, each matrix to the same bits as alone.  With theta = 0
    every gate is the identity and the output is exactly the identity
    matrix.
    """
    m = as_square(m, stack=True)
    if m.shape[-1] != config.dsm_dim:
        raise ValueError(f"matrix size {m.shape[-1]} does not match dsm_dim {config.dsm_dim}")
    theta = np.asarray(theta, dtype=np.float64)
    expected = param_count(config)
    if theta.shape != (expected,):
        raise ValueError(f"theta must have length {expected}, got {theta.shape}")
    out = _simulate(config, inject(theta, m.reshape((-1,) + m.shape[-2:])))
    return as_dsm(out.reshape(m.shape))


def _check_shots(shots: int, t: int) -> None:
    if shots < t:
        raise ValueError(f"need at least one shot per column: shots={shots} < T={t}")
    if shots >= 1 << 63:  # each column's draw count is an int64
        raise ValueError(f"shots must be < 2^63, got {shots}")


def sample_shots(config: CircuitConfig, theta, m, shots: int, seed: int) -> np.ndarray:
    """Empirical column frequencies from finite sampling of the exact DSM.

    Each of the T columns receives floor(shots/T) categorical draws, so the
    result is left-stochastic (columns sum to one) and deterministic given
    the seed.  Requires shots >= T.
    """
    _check_shots(shots, config.dsm_dim)
    return _sample_columns(simulate_dsm(config, theta, as_square(m)).matrix, shots, seed)


def _sample_columns(exact: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """:func:`sample_shots`' draws from the exact T x T matrix, shots >= T checked already."""
    per_col = shots // len(exact)
    columns = np.ascontiguousarray(exact.T)  # contiguous rows sum as the columns alone do
    draws = np.random.default_rng(seed).multinomial(
        per_col, columns / columns.sum(axis=1, keepdims=True))
    return np.ascontiguousarray(draws.T / per_col)


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
