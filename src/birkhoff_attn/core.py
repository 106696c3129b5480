"""Shared plumbing for doubly stochastic matrix work.

A matrix is doubly stochastic when it is square, entrywise non-negative and
all rows and columns sum to one.  Everything downstream (normalizers,
projections, sweeps) talks in terms of plain float64 square arrays plus the
small report / wrapper types defined here.
"""

from __future__ import annotations

import ctypes
import io
import json
import os
import warnings
from dataclasses import dataclass

import numpy as np

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, glibc's malloc.h
_MMAP_THRESHOLD_MAX = 32 << 20  # glibc's ceiling for its adaptive threshold on 64-bit


def _reuse_freed_blocks() -> None:
    """Fix glibc's malloc thresholds at the ceiling its adaptive rule climbs to.

    glibc maps every block at or above its mmap threshold straight from the
    kernel and unmaps it on free.  The threshold starts at 128 KiB and rises
    only when a larger mapped block is freed, to at most 32 MiB, with the
    heap trim threshold at twice it.  A 256 x 256 float64 matrix is 512 KiB,
    so until the process happens to free a larger block, each temporary of
    an operator call at that size is mapped, faulted in page by page and
    unmapped again: a softmax attention call at n = 256 takes about twice as
    long as from reused heap memory.  Fixing both thresholds at the ceiling
    starts every process where the adaptive rule would end.  Elsewhere than
    glibc this does nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or not a glibc name
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


_reuse_freed_blocks()


def as_square(m, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Coerce to a C-ordered float64 square 2-D array, rejecting NaN/inf.

    With ``stack=True`` a (B, n, n) stack of square matrices passes too; the
    stacked kernels treat a single matrix as a batch of one.  The result is
    ``m`` itself when it already is a C-ordered float64 array, else a
    C-ordered copy, so a kernel's bits depend on the values alone and not on
    the memory layout, which sets the order numpy's sums add in.
    """
    out = np.ascontiguousarray(_square(m, name, stack))
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def _square(m, name: str, stack: bool) -> np.ndarray:
    """:func:`as_square` without the finiteness check and the copy into C order."""
    m = getattr(m, "matrix", m)  # accept Dsm wrappers anywhere a matrix is
    out = np.asarray(m, dtype=np.float64)
    if out.ndim not in ((2, 3) if stack else (2,)) or out.shape[-1] != out.shape[-2]:
        kind = "square 2-D or a (B, n, n) stack" if stack else "square 2-D"
        raise ValueError(f"{name} must be {kind}, got shape {out.shape}")
    if out.shape[-1] < 1:
        raise ValueError(f"{name} must have n >= 1")
    return out


@dataclass(frozen=True)
class StochasticityReport:
    """How far a matrix is from being doubly stochastic."""

    max_row_deviation: float
    max_col_deviation: float
    min_entry: float


def check_stochasticity(m) -> StochasticityReport:
    """Measure worst row/column sum deviation from 1 and the minimum entry."""
    return StochasticityReport(*map(float, _deviations(as_square(m))))


def _deviations(m: np.ndarray):
    """Worst row-sum and column-sum deviation from 1, and the minimum entry, per matrix.

    Reduces the last two axes, so a (B, n, n) stack gives three (B,) arrays.
    """
    row_dev = np.abs(m.sum(axis=-1) - 1.0).max(axis=-1)
    col_dev = np.abs(m.sum(axis=-2) - 1.0).max(axis=-1)
    return row_dev, col_dev, m.min(axis=(-2, -1))


def _off_polytope(deviations, tolerance: float) -> np.ndarray:
    """Flags of the matrices whose :func:`_deviations` :func:`as_dsm` rejects at ``tolerance``."""
    row_dev, col_dev, min_entry = deviations
    return ~((np.maximum(row_dev, col_dev) <= tolerance) & (min_entry >= -tolerance))


def _report(deviations, i) -> StochasticityReport:
    """Matrix ``i``'s report from the (B,) :func:`_deviations` of a stack."""
    return StochasticityReport(*(float(d[i]) for d in deviations))


def _dsm_error(m: np.ndarray, report: StochasticityReport, tolerance: float) -> str:
    """Why :func:`as_dsm` rejects ``m``, whose report flags it off the polytope."""
    if not np.isfinite(m).all():
        return "matrix contains non-finite entries"
    if report.min_entry < -tolerance:
        return f"matrix has entry {report.min_entry} below -{tolerance}; not doubly stochastic"
    return ("row/col sums deviate from 1 by "
            f"({report.max_row_deviation}, {report.max_col_deviation}); "
            f"tolerance is {tolerance}")


@dataclass(frozen=True)
class Dsm:
    """A validated doubly stochastic matrix with its feasibility report."""

    matrix: np.ndarray
    tolerance: float
    report: StochasticityReport


def as_dsm(m, tolerance: float = 1e-9) -> Dsm | np.ndarray:
    """Validate ``m`` as doubly stochastic within ``tolerance``; wrap one matrix in a Dsm.

    Raises ValueError when an entry is not finite or below ``-tolerance``,
    or a row/column sum deviates from 1 by more than ``tolerance``.  A
    (B, n, n) stack passes the same check per matrix and comes back as it
    is, or raises the first failing matrix's error, the one it would raise
    alone.  One matrix is a batch of one: the deviations are measured once
    on the stack, and flag every non-finite matrix, whose error names it.
    """
    p = _square(m, "matrix", stack=True)
    stack = p.reshape(-1, *p.shape[-2:])
    deviations = _deviations(stack)
    if (off := _off_polytope(deviations, tolerance)).any():
        first = np.argmax(off)
        raise ValueError(_dsm_error(stack[first], _report(deviations, first), tolerance))
    return Dsm(p, float(tolerance), _report(deviations, 0)) if p.ndim == 2 else p


def _odometer(lo: int, hi: int, base: int, width: int) -> np.ndarray:
    """Base-``base`` digits of lo..hi-1 as a (hi - lo, width) array, most significant first.

    The dtype is the smallest unsigned one holding ``base - 1``.  Decoding is
    int64: a range outside [0, min(base**width, 2**63)) raises IndexError.
    """
    if not 0 <= lo <= hi <= min(base**width, 2**63):
        raise IndexError(f"index range [{lo}, {hi}) outside the {base}^{width} odometer")
    rem = np.arange(lo, hi, dtype=np.int64)
    digits = np.empty((rem.size, width), dtype=np.min_scalar_type(base - 1))
    for c in reversed(range(width)):
        digits[:, c] = rem % base
        rem //= base
    return digits


def _check_trials(n: int, trials: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")


def _per_matrix(values: np.ndarray):
    """A float for a single matrix's 0-d result, else the (B,) array of a stack."""
    return float(values) if values.ndim == 0 else values


def shannon_entropy(p):
    """Mean over rows of the natural-log Shannon entropy -sum p*ln(p).

    Zero entries contribute zero; tiny negative entries (within validation
    slack) are clamped to zero first.  Accepts a Dsm or a plain row-wise
    distribution matrix, or a (B, n, n) stack, for which it returns the (B,)
    array of each matrix's value.  The row mean is at most ln(n), attained by
    the uniform matrix.
    """
    m = np.clip(as_square(p, stack=True), 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(m > 0.0, -m * np.log(np.where(m > 0.0, m, 1.0)), 0.0)
    return _per_matrix(terms.sum(axis=-1).mean(axis=-1))


def _frobenius_norms(d: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix over the last two axes of ``d``.

    Each norm is numpy's vector dot of the raveled matrix with itself (a
    stack of (1, n*n) @ (n*n, 1) products), the same dot np.linalg.norm
    takes, so a stack gives each matrix's np.linalg.norm to the bit; einsum
    and norm(axis=...) sum in other orders.
    """
    flat = d.reshape(-1, 1, d.shape[-1] * d.shape[-2])
    return np.sqrt(flat @ flat.transpose(0, 2, 1)).reshape(d.shape[:-2])


def frobenius_distance(a, b):
    """Frobenius norm of a - b; the two must share a shape.

    For two (B, n, n) stacks it returns the (B,) array of per-matrix distances.
    """
    a = as_square(a, "a", stack=True)
    b = as_square(b, "b", stack=True)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return _per_matrix(_frobenius_norms(a - b))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array; tied entries share the mean of their positions.

    A tie group of ``count`` entries ends at the 1-based sorted position
    ``end``, the running count, so it spans end - count + 1..end and its rank
    is (2 end - count + 1) / 2, a half-integer and so exact in float64.
    """
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((2 * ends - counts + 1) / 2)[inverse]


def spearman_rho(a, b) -> float:
    """Spearman rank correlation of the flattened entries of two matrices.

    Ties get average ranks.  A constant input has no rank ordering, so zero
    rank variance is an error rather than a silent NaN.
    """
    a = as_square(a, "a")
    b = as_square(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    ra = _average_ranks(a.ravel())
    rb = _average_ranks(b.ravel())
    if np.ptp(ra) == 0.0 or np.ptp(rb) == 0.0:
        raise ValueError("rank variance is zero (all entries tie); rho undefined")
    ra = ra - ra.mean()
    rb = rb - rb.mean()
    return float(ra @ rb / np.sqrt((ra @ ra) * (rb @ rb)))


# ---------------------------------------------------------------------------
# matrix serialization: CSV (one row per line) and JSON ({"n": .., "data": ..})

def _read_text(source) -> str:
    """The whole text of a path or a readable text stream: every loader's one read."""
    if hasattr(source, "read"):
        return source.read()
    with open(source) as fh:
        return fh.read()


def load_table_csv(path) -> np.ndarray:
    """A finite float64 2-D table of any shape from CSV, one row per line; empty input fails."""
    text = _read_text(path)
    if not text.strip():
        raise ValueError("empty matrix input")
    with warnings.catch_warnings():
        # input of comments alone is reported below as an error, not as numpy's warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        out = np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2, dtype=np.float64)
    if out.size == 0:
        raise ValueError("empty matrix input")
    if not np.isfinite(out).all():
        raise ValueError("matrix contains non-finite entries")
    return out


def load_matrix_csv(path) -> np.ndarray:
    return as_square(load_table_csv(path))


def save_matrix_csv(path, m) -> None:
    """Write a 2-D array of any shape as CSV, one row per line, at full precision."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"CSV output holds a 2-D array, got shape {m.shape}")
    np.savetxt(path, m, delimiter=",", fmt="%.17g")


def load_matrix_json(path) -> np.ndarray:
    obj = json.loads(_read_text(path))
    try:
        n = obj["n"]
        data = obj["data"]
    except (TypeError, KeyError) as exc:
        raise ValueError("matrix JSON needs fields 'n' and 'data'") from exc
    if type(n) is not int or n < 1:  # a JSON integer; bool is an int subclass
        raise ValueError(f"'n' must be an integer >= 1, got {n!r}")
    # JSON numbers only: numpy would also take strings, booleans and nested lists
    if not isinstance(data, list) or not all(type(x) in (int, float) for x in data):
        raise ValueError(f"'data' must be a list of n*n numbers, got {json.dumps(data)}")
    if len(data) != n * n:
        raise ValueError(f"'data' has {len(data)} entries, expected n*n = {n * n}")
    try:
        m = np.asarray(data, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond float range; 1e400 parses to inf
        raise ValueError("matrix contains non-finite entries") from exc
    return as_square(m.reshape(n, n))


def matrix_record(m) -> dict:
    """The JSON record ``{"n": n, "data": [row-major entries]}`` of a square matrix.

    Only the shape is checked, so a record can echo a matrix that failed
    other validation.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"a matrix record holds a square matrix, got shape {m.shape}")
    return {"n": int(m.shape[0]), "data": [float(x) for x in m.ravel()]}


def save_matrix_json(path, m) -> None:
    """Write a square matrix as its :func:`matrix_record`, one JSON line ending in a newline."""
    text = json.dumps(matrix_record(as_square(m))) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def load_matrix(path) -> np.ndarray:
    """Load a square matrix from a path or a readable text stream.

    The text is JSON when its first non-blank character is "{", else CSV;
    blank text is rejected as empty.
    """
    text = _read_text(path)
    json_input = text.lstrip().startswith("{")
    return (load_matrix_json if json_input else load_matrix_csv)(io.StringIO(text))
