"""Independent reference implementations used to cross-check the package.

Nothing here shares code with src/: the circuit oracle builds full dense
unitaries from Kronecker products, Sinkhorn is redone in mpmath arbitrary
precision and in the log domain on scipy's ``logsumexp``, the polytope
projections solve KKT systems with lstsq, a projection is certified against
every permutation matrix (the polytope's vertices), QR comes from LAPACK's
Householder factorization, grid matrices are decoded one Python-int
``divmod`` at a time, distinct outputs are a ``Counter`` of per-matrix
digests, counting candidates are walked with ``itertools.product`` and
classified one by one, f(3, p) is the literal quadruple sum and MacMahon's
closed polynomial, and f(n, 3) follows the integer recurrence for
semi-magic squares of line sum 2.  Agreement between
these and the streaming / iterative / hand-rolled / vectorized
implementations is the point of the tests that import this module.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from itertools import permutations, product

import numpy as np

_I2 = np.eye(2, dtype=np.complex128)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)


# --- dense circuit unitary --------------------------------------------------

def ry(t: float) -> np.ndarray:
    c, s = np.cos(t / 2.0), np.sin(t / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def crz(t: float) -> np.ndarray:
    return np.diag([1.0, 1.0, np.exp(-0.5j * t), np.exp(0.5j * t)]).astype(np.complex128)


def xrot(c: float) -> np.ndarray:
    return np.array(
        [[np.cos(c), -1j * np.sin(c)], [-1j * np.sin(c), np.cos(c)]],
        dtype=np.complex128,
    )


def two_qubit_block(a1: float, a2: float, a3: float, a4: float) -> np.ndarray:
    return np.kron(ry(a1), ry(a2)) @ crz(a3) @ np.kron(ry(a4), _I2)


def embed_single(gate: np.ndarray, q: int, k: int) -> np.ndarray:
    """Dense q-qubit operator applying ``gate`` to qubit k (bit k of the index)."""
    out = np.eye(1, dtype=np.complex128)
    for pos in reversed(range(q)):
        out = np.kron(out, gate if pos == k else _I2)
    return out


def embed_pair(gate4: np.ndarray, q: int, low: int) -> np.ndarray:
    """Dense operator for a 4x4 gate on adjacent qubits (low, low+1).

    ``gate4`` is indexed with bit(low) as its high bit; the register index has
    bit(low+1) more significant, so the gate is SWAP-conjugated before the
    Kronecker embedding (kron factors run from the most significant bit down).
    """
    reordered = _SWAP @ gate4 @ _SWAP
    out = np.eye(1, dtype=np.complex128)
    pos = q - 1
    while pos >= 0:
        if pos == low + 1:
            out = np.kron(out, reordered)
            pos -= 2
        else:
            out = np.kron(out, _I2)
            pos -= 1
    return out


def zz_phase_dense(q: int, k: int, a: float) -> np.ndarray:
    """Dense diagonal exp(-i a Z_k Z_{k+1})."""
    idx = np.arange(1 << q)
    signs = 1.0 - 2.0 * (((idx >> k) ^ (idx >> (k + 1))) & 1)
    return np.diag(np.exp(-1j * a * signs))


def inject_angles(theta: np.ndarray, m: np.ndarray) -> np.ndarray:
    vec = np.asarray(m, dtype=np.float64).ravel()
    theta = np.asarray(theta, dtype=np.float64)
    return theta * vec[np.arange(theta.size) % vec.size]


def dense_unitary(total_qubits: int, layers: int, ansatz: str, phi: np.ndarray) -> np.ndarray:
    """Full 2^q x 2^q circuit unitary, built gate by dense gate."""
    q = total_qubits
    dim = 1 << q
    u = np.eye(dim, dtype=np.complex128)
    cursor = 0
    for layer in range(layers):
        if ansatz == "simple":
            if q == 1:
                if layer % 2 == 0:
                    a = phi[cursor:cursor + 4]
                    cursor += 4
                    u = (ry(a[0]) @ ry(a[3])) @ u
                continue
            for qa in range(layer % 2, q - 1, 2):
                block = two_qubit_block(*phi[cursor:cursor + 4])
                cursor += 4
                u = embed_pair(block, q, qa) @ u
        elif ansatz == "trotter":
            a = phi[cursor:cursor + q - 1]
            b = phi[cursor + q - 1:cursor + 2 * q - 1]
            cursor += 2 * q - 1
            half = np.eye(dim, dtype=np.complex128)
            for k in range(q):
                half = embed_single(xrot(b[k] / 2.0), q, k) @ half
            zz = np.eye(dim, dtype=np.complex128)
            for k in range(q - 1):
                zz = zz_phase_dense(q, k, a[k]) @ zz
            u = half @ zz @ half @ u
        else:
            raise ValueError(f"unknown ansatz {ansatz!r}")
    return u


def dense_dsm(dsm_dim: int, aux_qubits: int, layers: int, ansatz: str,
              theta: np.ndarray, m: np.ndarray) -> np.ndarray:
    """|U|^2 of the dense unitary, folded over the auxiliary register."""
    data_qubits = dsm_dim.bit_length() - 1
    q = data_qubits + aux_qubits
    phi = inject_angles(theta, m)
    probs = np.abs(dense_unitary(q, layers, ansatz, phi)) ** 2
    t = dsm_dim
    aux_dim = 1 << aux_qubits
    out = np.zeros((t, t))
    for arow in range(aux_dim):
        for acol in range(aux_dim):
            out += probs[arow * t:(arow + 1) * t, acol * t:(acol + 1) * t]
    return out / aux_dim


# --- grid decoding ------------------------------------------------------------

def odometer_digits(index: int, base: int, width: int) -> list[int]:
    """Base-``base`` digits of ``index``, first digit most significant, by divmod."""
    if index < 0:
        raise IndexError("negative index")
    digits = []
    for _ in range(width):
        index, digit = divmod(index, base)
        digits.append(digit)
    if index:
        raise IndexError("index past the last odometer reading")
    return digits[::-1]


def grid_matrix_oracle(n: int, d: int, domain: str, index: int) -> np.ndarray:
    """Grid matrix ``index``: cube cells, or unit-norm sphere columns, in odometer order."""
    scale = d - 1
    if domain == "cube":
        digits = odometer_digits(index, d, n * n)
        return np.array(digits, dtype=np.float64).reshape(n, n) / scale
    cols = [c for c in product(range(d), repeat=n) if sum(v * v for v in c) == scale * scale]
    picks = odometer_digits(index, len(cols), n)
    return np.array([cols[k] for k in picks], dtype=np.float64).T / scale


# --- distinct outputs -------------------------------------------------------

def digest_multiset(outputs: np.ndarray, decimals: int) -> list[int]:
    """Multiplicities of the distinct rounded outputs, descending, by a Counter of digests.

    Each output matrix is rounded, -0.0 folded into 0.0, and digested alone
    as the sweep's 128-bit blake2b of its bytes.
    """
    counts = Counter(hashlib.blake2b((np.round(out, decimals) + 0.0).tobytes(),
                                     digest_size=16).digest() for out in outputs)
    return sorted(counts.values(), reverse=True)


# --- grid-DSM counting -------------------------------------------------------

def c2_brute(n: int, p: int) -> int:
    """Interior candidates whose total falls below (n-2)(p-1), each one enumerated.

    The (n-1)^2 free cells in {0..p-1} split into head cells, walked with
    ``itertools.product``, and tail cells, whose totals are all listed by
    repeated outer sums; every (head, tail) pair is one candidate.
    """
    k = (n - 1) ** 2
    bound = (n - 2) * (p - 1)
    tail = np.zeros(1, dtype=np.int64)
    for _ in range(k - k // 2):
        tail = (tail[:, None] + np.arange(p)).ravel()
    count = 0
    for head in product(range(p), repeat=k // 2):
        count += int((tail < bound - sum(head)).sum())
    return count


def decomposition_brute(n: int, p: int) -> dict:
    """{total, c1, c2, c12, f}, each candidate walked and classified on its own.

    A candidate is the (n-1) x (n-1) interior read row by row from one
    ``itertools.product`` tuple; its row, column and total sums are formed
    with plain Python ``sum`` and tested against the cap p-1 and the bound
    (n-2)(p-1) directly.
    """
    side = n - 1
    cap = p - 1
    bound = (n - 2) * cap
    total = c1 = c2 = c12 = 0
    for cells in product(range(p), repeat=side * side):
        rows = [cells[r * side:(r + 1) * side] for r in range(side)]
        over = any(sum(row) > cap for row in rows) or any(
            sum(row[c] for row in rows) > cap for c in range(side))
        short = sum(cells) < bound
        total += 1
        c1 += over
        c2 += short
        c12 += over and short
    return {"total": total, "c1": c1, "c2": c2, "c12": c12, "f": total - c1 - c2 + c12}


def f3_quadruple_sum(p: int) -> int:
    """f(3, p) as the literal quadruple sum over the pyramidal index domain."""
    count = 0
    for i in range(1, p + 1):
        for j in range(1, p - i + 2):
            for k in range(1, p - i + 2):
                top = min(p - j + 1, p - k + 1)
                for l in range(1, top + 1):
                    if i + j + k + l - 3 >= p:
                        count += 1
    return count


def f3_ehrhart(p: int) -> int:
    """f(3, p) by MacMahon's formula, the Ehrhart polynomial of the 3 x 3 Birkhoff polytope.

    With t = p - 1 the dilation, f = (t+1)(t+2)(t^2+3t+4)/8 (Beck & Pixton,
    arXiv:math/0202267); the product is always divisible by 8.
    """
    t = p - 1
    return (t + 1) * (t + 2) * (t * t + 3 * t + 4) // 8


def f_line_sum_two(n: int) -> int:
    """f(n, 3): n x n non-negative integer matrices with every line summing to 2.

    These are the semi-magic squares of line sum 2 (OEIS A000681), counted
    by the recurrence a(n) = n^2 a(n-1) - n (n-1)^2 / 2 a(n-2) with
    a(0) = a(1) = 1; n (n-1)^2 is always even.
    """
    before, count = 1, 1
    for m in range(2, n + 1):
        before, count = count, m * m * count - m * (m - 1) ** 2 // 2 * before
    return count


# --- arbitrary precision Sinkhorn ------------------------------------------

def mp_sinkhorn(m: np.ndarray, k: int, dps: int = 60) -> np.ndarray:
    """Alternating column/row normalization carried out in mpmath."""
    from mpmath import mp, mpf

    n = m.shape[0]
    with mp.workdps(dps):
        a = [[mpf(float(x)) for x in row] for row in m]
        for t in range(k):
            if t % 2 == 0:
                sums = [sum(a[i][j] for i in range(n)) for j in range(n)]
                a = [[a[i][j] / sums[j] for j in range(n)] for i in range(n)]
            else:
                sums = [sum(row) for row in a]
                a = [[x / s for x in row] for row, s in zip(a, sums)]
        return np.array([[float(x) for x in row] for row in a])


def sinkhorn_ot_reference(m: np.ndarray, k: int) -> np.ndarray:
    """Log-domain Sinkhorn on ``scipy.special.logsumexp``: column pass at even t, row at odd.

    The potentials u (rows) and v (columns) start at zero; m is one positive
    matrix or a (B, n, n) stack, and the result is exp(u + log m + v).
    """
    from scipy.special import logsumexp

    log_m = np.log(m)
    u = np.zeros(log_m.shape[:-1])
    v = np.zeros(log_m.shape[:-1])
    for t in range(k):
        if t % 2 == 0:
            v = -logsumexp(log_m + u[..., :, None], axis=-2)
        else:
            u = -logsumexp(log_m + v[..., None, :], axis=-1)
    return np.exp(u[..., :, None] + log_m + v[..., None, :])


def mp_exp_scale(m: np.ndarray, tau: float, dps: int = 60) -> np.ndarray:
    from mpmath import mp, mpf

    with mp.workdps(dps):
        top = mpf(float(m.max()))
        t = mpf(float(tau))
        return np.array(
            [[float(mp.e ** ((mpf(float(x)) - top) / t)) for x in row] for row in m]
        )


def mp_entropy(p: np.ndarray, dps: int = 60) -> float:
    """Row-averaged Shannon entropy, natural log, in mpmath."""
    from mpmath import mp, mpf

    n = p.shape[0]
    with mp.workdps(dps):
        total = mpf(0)
        for row in p:
            for x in row:
                v = mpf(float(x))
                if v > 0:
                    total -= v * mp.log(v)
        return float(total / n)


# --- Euclidean projections via KKT systems ---------------------------------

def constraint_rows(n: int) -> np.ndarray:
    """All 2n row/column sum-one constraints on vec(x) (row-major), rank 2n-1."""
    a = np.zeros((2 * n, n * n))
    for i in range(n):
        a[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        a[n + j, j::n] = 1.0
    return a


def affine_projection_oracle(m: np.ndarray) -> np.ndarray:
    """min ||x - m||^2 subject to all row/column sums = 1, via the KKT system.

    The multiplier block is rank deficient (sum of row constraints equals the
    sum of column constraints) but the system is consistent, so the lstsq
    least-squares solution recovers the unique primal x.
    """
    n = m.shape[0]
    a = constraint_rows(n)
    k = a.shape[0]
    kkt = np.block([[np.eye(n * n), a.T], [a, np.zeros((k, k))]])
    rhs = np.concatenate([np.asarray(m, dtype=np.float64).ravel(), np.ones(k)])
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[: n * n].reshape(n, n)


def birkhoff_projection_oracle(m: np.ndarray, rounds: int = 200_000,
                               tol: float = 1e-13) -> np.ndarray:
    """Projection onto doubly stochastic matrices by plain Dykstra iterations.

    Written independently of the package: the affine step goes through the
    KKT lstsq oracle above and the cone step is a clip.  Slow but simple.
    """
    x = np.asarray(m, dtype=np.float64)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(rounds):
        y = affine_projection_oracle(x + p)
        p = x + p - y
        x_new = np.clip(y + q, 0.0, None)
        q = y + q - x_new
        if np.linalg.norm(x_new - x) < tol:
            return x_new
        x = x_new
    return x


def projection_gap(m: np.ndarray, x: np.ndarray) -> float:
    """How far a doubly stochastic x is from being the Frobenius projection of m.

    By Birkhoff-von Neumann the polytope's vertices are the permutation
    matrices, so a feasible x is the projection exactly when no permutation
    sigma has sum_i (m - x)[i, sigma(i)] > <m - x, x>.  Returns the largest
    such excess over all n! permutations: rounding-small at the projection,
    positive at any other feasible point.
    """
    r = np.asarray(m, dtype=np.float64) - np.asarray(x, dtype=np.float64)
    rows = range(len(r))
    best = max(sum(r[i, sigma[i]] for i in rows) for sigma in permutations(rows))
    return float(best - (r * x).sum())


# --- Householder QR ---------------------------------------------------------

def householder_q(m: np.ndarray) -> np.ndarray:
    """Orthonormal factor from LAPACK QR with the R diagonal made positive."""
    q, r = np.linalg.qr(np.asarray(m, dtype=np.float64))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


# --- finite differences -----------------------------------------------------

def central_fd_vjp(fn, m: np.ndarray, upstream: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of sum(upstream * fn(m)) w.r.t. m."""
    m = np.asarray(m, dtype=np.float64)
    out = np.empty_like(m)
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            bump = np.zeros_like(m)
            bump[i, j] = h
            hi = float((upstream * fn(m + bump)).sum())
            lo = float((upstream * fn(m - bump)).sum())
            out[i, j] = (hi - lo) / (2.0 * h)
    return out
