"""Expressivity sweeps over exhaustive input grids.

How many distinct outputs does a normalizer produce over an exhaustive grid
of inputs?  Two input families: the ``cube`` grid takes every matrix whose
entries lie on {0, 1/(d-1), ..., 1} (d^(n*n) matrices), and the ``sphere``
grid takes every matrix whose columns are grid points of exact unit
Euclidean norm (checked in integer arithmetic, so no float fuzz decides
membership).  Outputs are rounded to a fixed number of decimals and counted
as byte patterns.

Enumeration is index-addressed (matrix j is decodable directly), so sweeps
can restart from any offset and can be split across worker processes; chunk
results are merged in index order, which makes reports identical for every
worker count.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import log2

import numpy as np

from .core import _odometer, frobenius_distance, shannon_entropy
from .operators import Normalizer
from .sinkhorn import exp_scale

_SWEEP_CHUNK = 512  # fixed regardless of worker count
# candidate columns sphere_columns tests, in passes of _SPHERE_PASS; the
# largest sphere grid in use, (n, d) = (6, 9), has 531,441
_SPHERE_CANDIDATES = 1 << 24
_SPHERE_PASS = 1 << 16
_MAX_DECIMALS = 308  # 10.0**309 overflows, so np.round would return NaN
_PROBE_TOLERANCE = 1e-8  # probe_invariances' largest deviation that still counts as equal

CUBE = "cube"
SPHERE = "sphere"


@dataclass(frozen=True)
class GridSpec:
    n: int
    d: int
    domain: str = CUBE
    rounding_decimals: int = 3

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.d < 2:
            raise ValueError("grid resolution d must be >= 2")
        if self.domain not in (CUBE, SPHERE):
            raise ValueError(f"unknown grid domain {self.domain!r}")
        if self.rounding_decimals < 0:
            raise ValueError("rounding_decimals must be >= 0")
        if self.rounding_decimals > _MAX_DECIMALS:
            raise ValueError(f"rounding_decimals must be <= {_MAX_DECIMALS}, "
                             f"got {self.rounding_decimals}")


@lru_cache(maxsize=32)
def sphere_columns(n: int, d: int) -> np.ndarray:
    """Grid columns with exactly unit 2-norm, lexicographic by digit tuple.

    A column (i_1/(d-1), ..., i_n/(d-1)) has unit norm iff sum of i^2 equals
    (d-1)^2, an exact integer test, run over the d^n candidates in odometer
    passes; more than ``_SPHERE_CANDIDATES`` of them raise ValueError.  The
    table is built once per (n, d) and shared by every later call, so it is
    read-only.
    """
    if n * log2(d) > log2(_SPHERE_CANDIDATES) + 1 or (total := d**n) > _SPHERE_CANDIDATES:
        raise ValueError(f"sphere grid has {d}^{n} candidate columns, above the "
                         f"{_SPHERE_CANDIDATES} budget")
    scale = d - 1
    cols = []
    for lo in range(0, total, _SPHERE_PASS):
        digits = _odometer(lo, min(lo + _SPHERE_PASS, total), d, n).astype(np.int64)
        cols.append(digits[(digits * digits).sum(axis=1) == scale * scale])
    out = np.concatenate(cols).astype(np.float64) / scale
    if not len(out):
        raise ValueError(f"no unit-norm columns on the (n={n}, d={d}) grid")
    out.setflags(write=False)
    return out


def _grid_power(spec: GridSpec) -> tuple[int, int]:
    """The grid size as base^exponent: values per cell and cells (cube), or columns and n."""
    if spec.domain == CUBE:
        return spec.d, spec.n * spec.n
    return len(sphere_columns(spec.n, spec.d)), spec.n


def grid_total(spec: GridSpec) -> int:
    base, exponent = _grid_power(spec)
    return base**exponent


def grid_matrices(spec: GridSpec, lo: int, hi: int) -> np.ndarray:
    """Decode grid matrices lo..hi-1 as a (hi-lo, n, n) stack (see :func:`grid_matrix`)."""
    n = spec.n
    if spec.domain == CUBE:
        return _odometer(lo, hi, spec.d, n * n).reshape(-1, n, n) / (spec.d - 1)
    cols = sphere_columns(n, spec.d)
    picks = _odometer(lo, hi, len(cols), n)  # picks[b, c]: the column c of matrix b
    return np.ascontiguousarray(cols[picks].transpose(0, 2, 1))


def grid_matrix(spec: GridSpec, index: int) -> np.ndarray:
    """Decode grid matrix ``index`` (odometer order, first cell/column most significant)."""
    return grid_matrices(spec, index, index + 1)[0]


def _index_range(spec: GridSpec, start: int, stop: int | None, max_total: int) -> tuple[int, int]:
    """The sweep window [start, stop) with stop clipped to the grid; guards runaway sizes."""
    base, exponent = _grid_power(spec)
    # a runaway size fails the log test before it is raised to its power
    if exponent * log2(base) > log2(max_total) + 1 or (total := base**exponent) > max_total:
        raise ValueError(f"grid has {base}^{exponent} matrices, above the {max_total} guard")
    stop = total if stop is None else min(stop, total)
    if not 0 <= start <= stop:
        raise ValueError(f"bad index range [{start}, {stop})")
    return start, stop


def enumerate_grid(spec: GridSpec, start: int = 0, stop: int | None = None,
                   max_total: int = 2**32):
    """Yield (index, matrix) over [start, stop); guards against runaway sizes."""
    start, stop = _index_range(spec, start, stop, max_total)
    for lo in range(start, stop, _SWEEP_CHUNK):
        yield from enumerate(grid_matrices(spec, lo, min(lo + _SWEEP_CHUNK, stop)), lo)


@dataclass(frozen=True)
class SweepReport:
    total_inputs: int
    unique_outputs: int
    entropy_stats: dict
    residual_stats: dict
    count_multiset: list[int]       # per-output multiplicities, descending


def _chunk_metrics(op, ms: np.ndarray, tau: float):
    """Outputs, entropies and residuals of a (B, n, n) input stack.

    Positive-domain operators get one exp_scale call on the stack first.
    The operator, a spec or a bare callable, takes the whole stack in one call.
    """
    x = exp_scale(ms, tau) if getattr(op, "needs_positive", False) else ms
    outs = op(x)
    return outs, shannon_entropy(outs), frobenius_distance(ms, outs)


def _sweep_chunk(spec: GridSpec, op, tau: float, lo: int, hi: int):
    # 128-bit digests as two uint64 columns: 16 bytes/output keeps the full
    # 43M-input grids inside a few hundred MB, where a dict of raw matrix
    # bytes would not fit in memory.
    outs, entropies, residuals = _chunk_metrics(op, grid_matrices(spec, lo, hi), tau)
    rounded = np.round(outs, spec.rounding_decimals) + 0.0  # +0.0 folds -0.0 into 0.0
    digests = b"".join(hashlib.blake2b(out.tobytes(), digest_size=16).digest() for out in rounded)
    return np.frombuffer(digests, dtype=np.uint64).reshape(-1, 2), entropies, residuals


def _stats(values: np.ndarray) -> dict:
    return {
        "min": float(values.min()),
        "median": float(np.median(values)),
        "mean": float(values.mean()),
        "max": float(values.max()),
    }


def uniqueness_sweep(spec: GridSpec, operator, *, exp_scale_tau: float = 1.0,
                     workers: int = 1, start: int = 0, stop: int | None = None,
                     max_total: int = 2**32) -> SweepReport:
    """Count distinct rounded outputs over the grid.

    ``operator`` is an operator spec (see :func:`make_operator`) or a bare
    callable that, like a spec, maps a (B, n, n) stack to one of the same
    shape; ``workers > 1`` needs it to pickle, which every spec does.
    Positive-domain operators receive exp_scale(m, exp_scale_tau).
    """
    start, stop = _index_range(spec, start, stop, max_total)
    if workers > 1:
        try:
            pickle.dumps(operator)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise ValueError(f"parallel sweeps need a picklable operator: {exc}") from exc
    # an empty window still runs one empty chunk, so there are always parts to join
    tasks = [
        (spec, operator, exp_scale_tau, lo, min(lo + _SWEEP_CHUNK, stop))
        for lo in range(start, stop, _SWEEP_CHUNK) or [start]
    ]
    if workers > 1 and len(tasks) > 1:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = pool.starmap(_sweep_chunk, tasks)
    else:
        results = [_sweep_chunk(*task) for task in tasks]
    digests, entropies, residuals = (np.concatenate(parts) for parts in zip(*results))
    _, counts = np.unique(digests, axis=0, return_counts=True)
    return SweepReport(
        total_inputs=stop - start,
        unique_outputs=int(counts.size),
        count_multiset=np.sort(counts)[::-1].tolist(),
        entropy_stats=_stats(entropies) if entropies.size else {},
        residual_stats=_stats(residuals) if residuals.size else {},
    )


def tradeoff_sweep(inputs, operator, *, exp_scale_tau: float = 1.0) -> list[dict]:
    """Per-input entropy of the output and Frobenius residual to the input.

    The inputs are square matrices of one size; they are stacked and run in
    the sweeps' fixed-size chunks, one operator call per chunk.
    """
    inputs = iter(inputs)
    rows = []
    while chunk := list(islice(inputs, _SWEEP_CHUNK)):
        _, entropies, residuals = _chunk_metrics(operator, np.array(chunk, dtype=np.float64),
                                                 exp_scale_tau)
        rows += [{"entropy": float(h), "residual": float(r)}
                 for h, r in zip(entropies, residuals)]
    return rows


def probe_invariances(operator: Normalizer, trials: int = 10, seed: int = 0, n: int = 4) -> dict:
    """Empirically test scale invariance and permutation equivariance.

    Scale: f(lam m) = f(m) for lam in {0.5, 2, 10}.  Permutation:
    f(P1 m P2) = P1 f(m) P2 for random permutations; no entry may deviate by
    more than 1e-8, reported as ``tolerance``.  ``operator`` is an
    operator spec (see :func:`make_operator`).  Each trial draws its input
    from the spec's domain (uniform [0.1, 10] when it needs positivity,
    standard normal otherwise), then its row and its column permutation.
    The trials run as one (trials, n, n) stack in five spec calls: the
    inputs, each scaling of them, and the permuted inputs.  The first failing
    trial of each kind is kept as a witness (input, transform, max deviation),
    for scale with its first failing lam; everything derives from ``seed``,
    so witnesses are reproducible.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    rng = np.random.default_rng(seed)
    ms, (rows, cols) = np.empty((trials, n, n)), np.empty((2, trials, n), int)
    for t in range(trials):
        ms[t] = (rng.uniform(0.1, 10.0, (n, n)) if operator.needs_positive
                 else rng.standard_normal((n, n)))
        rows[t], cols[t] = rng.permutation(n), rng.permutation(n)
    base = operator(ms)
    scales = (0.5, 2.0, 10.0)
    scale_devs = np.stack([np.abs(operator(lam * ms) - base).max(axis=(-2, -1))
                           for lam in scales], axis=-1)  # row-major: the loop's trial-then-lam order
    permuted = np.arange(trials)[:, None, None], rows[:, :, None], cols[:, None, :]
    perm_devs = np.abs(operator(ms[permuted]) - base[permuted]).max(axis=(-2, -1))
    scale_witness = perm_witness = None
    if (failing := np.flatnonzero(scale_devs > _PROBE_TOLERANCE)).size:
        t, k = divmod(failing[0], len(scales))
        scale_witness = {"matrix": ms[t].tolist(), "lam": scales[k],
                         "max_abs_deviation": float(scale_devs[t, k])}
    if (failing := np.flatnonzero(perm_devs > _PROBE_TOLERANCE)).size:
        t = failing[0]
        perm_witness = {"matrix": ms[t].tolist(), "row_permutation": rows[t].tolist(),
                        "col_permutation": cols[t].tolist(),
                        "max_abs_deviation": float(perm_devs[t])}
    return {
        "operator": operator.name,
        "trials": trials,
        "tolerance": _PROBE_TOLERANCE,
        "scale_invariant": scale_witness is None,
        "permutation_equivariant": perm_witness is None,
        "scale_witness": scale_witness,
        "permutation_witness": perm_witness,
    }
