"""Exact counts of grid-valued doubly stochastic matrices.

f(n, p) is the number of n x n doubly stochastic matrices whose entries all
lie on the uniform grid {0, 1/(p-1), ..., 1}.  Scaling by p-1 turns this
into integer arithmetic: the free (n-1) x (n-1) interior submatrix has
entries in {0, ..., p-1} and determines the rest, and a candidate is a DSM
exactly when every interior row and column sums to at most p-1 and the
interior total is at least (n-2)(p-1) (which makes the corner entry
non-negative).  Everything here counts with exact Python integers.

The census decomposes by inclusion-exclusion: with c1 the candidates
violating the marginal cap, c2 those violating the total lower bound and
c12 those violating both, f = p^((n-1)^2) - c1 - c2 + c12.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .core import _odometer

_FEASIBILITY_BITS = 48
_CHUNK = 1 << 20


def _check_args(n: int, p: int) -> int:
    """Validate and return the number of free cells (n-1)^2."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    k = (n - 1) ** 2
    if k * np.log2(p) > _FEASIBILITY_BITS:
        raise ValueError(
            f"enumeration over p^((n-1)^2) = {p}^{k} exceeds the 2^{_FEASIBILITY_BITS} budget"
        )
    return k


def _valid_rows(n: int, p: int) -> list[tuple[int, tuple[int, ...]]]:
    """All interior rows with sum <= p-1, in odometer order, as (total, row)."""
    side = n - 1
    rows: list[tuple[int, tuple[int, ...]]] = []
    row = [0] * side

    def grow(pos: int, total: int) -> None:
        if pos == side:
            rows.append((total, tuple(row)))
            return
        for v in range(p - total):  # row-sum cap p-1 prunes the digit range
            row[pos] = v
            grow(pos + 1, total + v)
        row[pos] = 0

    grow(0, 0)
    return rows


def count_brute(n: int, p: int) -> int:
    """f(n, p) by depth-first odometer enumeration of the interior rows.

    Rows violating the marginal cap are never generated; partial column sums
    and the best still-achievable total prune the rest of the tree.
    """
    _check_args(n, p)
    side = n - 1
    cap = p - 1
    bound = (n - 2) * cap
    rows = _valid_rows(n, p)

    def descend(depth: int, cols: tuple[int, ...], total: int) -> int:
        if depth == side:
            return 1 if total >= bound else 0
        slack = (side - depth - 1) * cap
        count = 0
        for row_total, row in rows:
            if total + row_total + slack < bound:
                continue
            new_cols = tuple(c + r for c, r in zip(cols, row))
            if max(new_cols) > cap:
                continue
            count += descend(depth + 1, new_cols, total + row_total)
        return count

    return descend(0, (0,) * side, 0)


def _digit_chunks(k: int, p: int):
    """Yield the full odometer {0..p-1}^k in chunks, first cell most significant."""
    total = p**k
    for lo in range(0, total, _CHUNK):
        yield _odometer(lo, min(lo + _CHUNK, total), p, k)


def c2_closed(n: int, p: int) -> int:
    """Closed form for c2 via inclusion-exclusion over bounded compositions.

    The number of k-cell candidates with total exactly s is
    sum_m (-1)^m C(k, m) C(s - m p + k - 1, k - 1), terms with s - m p < 0
    dropped; the s - m p = 0 term counts the all-zero candidate and must be
    kept.  c2 sums this strictly below the bound (a total equal to
    (n-2)(p-1) is feasible, not a violation).
    """
    k = _check_args(n, p)
    bound = (n - 2) * (p - 1)
    total = 0
    for s in range(bound):
        for m in range(k + 1):
            rest = s - m * p
            if rest < 0:
                break
            total += (-1) ** m * comb(k, m) * comb(rest + k - 1, k - 1)
    return total


def f3_analytic(p: int) -> int:
    """f(3, p) as an explicit quadruple sum over a pyramidal index domain."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    count = 0
    for i in range(1, p + 1):
        for j in range(1, p - i + 2):
            for k in range(1, p - i + 2):
                top = min(p - j + 1, p - k + 1)
                for l in range(1, top + 1):
                    if i + j + k + l - 3 >= p:
                        count += 1
    return count


def decomposition_check(n: int, p: int) -> dict:
    """Classify every candidate and verify the inclusion-exclusion identity.

    Returns {total, c1, c2, c12, f} counted in a single full enumeration
    pass, after asserting f = total - c1 - c2 + c12 equals the independently
    pruned count_brute.
    """
    k = _check_args(n, p)
    side = n - 1
    cap = p - 1
    bound = (n - 2) * cap
    c1 = c2 = c12 = 0
    for digits in _digit_chunks(k, p):
        grid = digits.reshape(-1, side, side)
        row_sums = grid.sum(axis=2, dtype=np.int64)
        col_sums = grid.sum(axis=1, dtype=np.int64)
        totals = row_sums.sum(axis=1)
        viol_marginal = (row_sums > cap).any(axis=1) | (col_sums > cap).any(axis=1)
        viol_total = totals < bound
        c1 += int(viol_marginal.sum())
        c2 += int(viol_total.sum())
        c12 += int((viol_marginal & viol_total).sum())
    total = p**k
    f = total - c1 - c2 + c12
    reference = count_brute(n, p)
    if f != reference:
        raise AssertionError(
            f"decomposition mismatch for (n={n}, p={p}): {f} != brute count {reference}"
        )
    return {"total": total, "c1": c1, "c2": c2, "c12": c12, "f": f}
