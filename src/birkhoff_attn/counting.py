"""Exact counts of grid-valued doubly stochastic matrices.

f(n, p) is the number of n x n doubly stochastic matrices whose entries all
lie on the uniform grid {0, 1/(p-1), ..., 1}.  Scaling by p-1 turns this
into integer arithmetic: the free (n-1) x (n-1) interior submatrix has
entries in {0, ..., p-1} and determines the rest, and a candidate is a DSM
exactly when every interior row and column sums to at most p-1 and the
interior total is at least (n-2)(p-1) (which makes the corner entry
non-negative).  Every count is exact: array passes use integer dtypes wide
enough for every sum they hold, and each pass's count is added to a Python
integer.

The census decomposes by inclusion-exclusion: with c1 the candidates
violating the marginal cap, c2 those violating the total lower bound and
c12 those violating both, f = p^((n-1)^2) - c1 - c2 + c12.

Both enumerations split a candidate into its head, the first n-2 interior
rows, and its last interior row.  The possible last rows are decoded once
into a table, and heads are classified against every last row at once by
broadcasting their remaining column room and their totals over the table's
columns, in passes of at most ``_PASS_CANDIDATES`` candidates.
decomposition_check decodes all heads, pass by pass.  count_brute walks the
first n-3 head rows in Python, one pruned prefix at a time, and broadcasts
the rest: each prefix takes every valid row as its last head row at once,
and the children it keeps are classified as above.  Neither decodes a whole
candidate.  f3_analytic is a separate closed sum for n = 3, broadcast over
one (j, k) grid per outer index.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .core import _odometer

_FEASIBILITY_BITS = 48
# candidates (heads x last rows, or f3_analytic cells) per array pass; a pass
# classifies at least one head
_PASS_CANDIDATES = 1 << 20


def _check_sizes(n: int, p: int) -> None:
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")


def _check_args(n: int, p: int) -> int:
    """Validate and return the number of free cells (n-1)^2."""
    _check_sizes(n, p)
    k = (n - 1) ** 2
    if k * np.log2(p) > _FEASIBILITY_BITS:
        raise ValueError(
            f"enumeration over p^((n-1)^2) = {p}^{k} exceeds the 2^{_FEASIBILITY_BITS} budget"
        )
    return k


def _sum_dtype(side: int, cap: int) -> np.dtype:
    """Smallest signed dtype holding every sum of up to ``side`` cells, +-side*cap."""
    return np.min_scalar_type(-side * cap - 1)


def _rows(side: int, p: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """Every row of ``side`` cells in {0..p-1} in odometer order, and each row's sum."""
    rows = _odometer(0, p**side, p, side).astype(dtype)
    return rows, rows.sum(axis=1, dtype=dtype)


def _completions(cols: np.ndarray, totals: np.ndarray, columns: np.ndarray,
                 sums: np.ndarray, cap: int, bound: int) -> int:
    """Count the (head, last row) pairs that keep every column within cap and reach the bound.

    ``cols`` and ``totals`` are the heads' column sums and totals, one row per
    head; ``columns`` and ``sums`` are the last-row table's columns and row sums.
    """
    fits = sums >= (bound - totals)[:, None]
    for column, used in zip(columns, cols.T):
        fits &= column <= (cap - used)[:, None]
    return int(np.count_nonzero(fits))


def count_brute(n: int, p: int) -> int:
    """f(n, p) by depth-first enumeration of the interior rows.

    Rows violating the marginal cap are never generated; partial column sums
    and the best still-achievable total prune the walk down to the
    penultimate head, the first n-3 rows.  Each such head takes every valid
    row at once as its last head row, keeps the children that stay within
    the cap and can still reach the bound, and classifies them against the
    table of valid last rows in passes of at most ``_PASS_CANDIDATES``
    candidates (at least one child per pass).
    """
    _check_args(n, p)
    side = n - 1
    cap = p - 1
    bound = (n - 2) * cap
    dtype = _sum_dtype(side, cap)
    rows, sums = _rows(side, p, dtype)
    valid = sums <= cap
    rows, sums = rows[valid], sums[valid]
    columns = np.ascontiguousarray(rows.T)
    step = max(1, _PASS_CANDIDATES // len(rows))

    def classify(cols: np.ndarray, totals: np.ndarray) -> int:
        return sum(_completions(cols[lo:lo + step], totals[lo:lo + step], columns, sums,
                                cap, bound)
                   for lo in range(0, len(cols), step))

    if side == 1:  # no head rows: the empty head is the only one
        return classify(np.zeros((1, 1), dtype), np.zeros(1, dtype))
    listed = list(zip(sums.tolist(), rows.tolist()))
    count = 0
    # (depth, column sums, total) of each head prefix still to extend; an
    # explicit stack, since a recursive closure is a reference cycle that
    # keeps every call's row tables alive until the cycle collector runs
    stack = [(0, (0,) * side, 0)]
    while stack:
        depth, cols, total = stack.pop()
        if depth == side - 2:
            child_cols = rows + np.array(cols, dtype)
            child_totals = sums + total
            keep = (child_cols <= cap).all(axis=1) & (child_totals >= bound - cap)
            count += classify(child_cols[keep], child_totals[keep])
            continue
        slack = (side - depth - 1) * cap
        for row_total, row in listed:
            if total + row_total + slack < bound:
                continue
            new_cols = tuple(c + r for c, r in zip(cols, row))
            if max(new_cols) > cap:
                continue
            stack.append((depth + 1, new_cols, total + row_total))
    return count


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
    """f(3, p) as an explicit sum over a pyramidal index domain.

    It is the quadruple sum over i, j, k, l >= 1 with i <= p, j, k <= p-i+1,
    l <= p + 1 - max(j, k) of [i + j + k + l - 3 >= p]; the innermost sum
    over l is taken in closed form, the count of l from max(1, p+3-i-j-k)
    up to its top.  For each i the (j, k) grid is summed by broadcast in
    passes of at most ``_PASS_CANDIDATES`` cells, each pass an exact int64
    sum added to a Python integer.
    """
    _check_sizes(3, p)
    count = 0
    for i in range(1, p + 1):
        width = p - i + 1
        cells = width * width
        for lo in range(0, cells, _PASS_CANDIDATES):
            j, k = np.divmod(np.arange(lo, min(lo + _PASS_CANDIDATES, cells), dtype=np.int64),
                             width)
            top = p - np.maximum(j, k)  # p + 1 - max(j, k) with j, k counted from 1
            low = np.maximum(1, p + 1 - i - j - k)
            count += int(np.maximum(0, top - low + 1).sum())
    return count


def decomposition_check(n: int, p: int) -> dict:
    """Classify every candidate and verify the inclusion-exclusion identity.

    Returns {total, c1, c2, c12, f} counted in a single full enumeration
    pass, after asserting f = total - c1 - c2 + c12 equals the independently
    pruned count_brute.

    The p^((n-1)(n-2)) heads (the first n-2 interior rows) are decoded in
    chunks of ``_PASS_CANDIDATES // p^(n-1)`` heads, at least one.  Each head
    is classified against all p^(n-1) last rows at once: the candidate breaks
    the marginal cap when the head or the last row has a row over the cap or
    the last row overfills a column's room ``cap - head column sum``, and it
    breaks the total bound when ``head total + last row sum < bound``.  All
    sums use the smallest signed dtype holding (n-1)(p-1).
    """
    k = _check_args(n, p)
    side = n - 1
    cap = p - 1
    bound = (n - 2) * cap
    dtype = _sum_dtype(side, cap)
    last, last_sums = _rows(side, p, dtype)
    last_columns = np.ascontiguousarray(last.T)
    last_over = last_sums > cap
    head_cells = k - side
    heads = p**head_cells
    step = max(1, _PASS_CANDIDATES // p**side)
    c1 = c2 = c12 = 0
    for lo in range(0, heads, step):
        hi = min(lo + step, heads)
        head = _odometer(lo, hi, p, head_cells).astype(dtype).reshape(hi - lo, side - 1, side)
        head_rows = head.sum(axis=2, dtype=dtype)
        room = cap - head.sum(axis=1, dtype=dtype)
        # a last row sum at most this breaks the bound; clipped into the dtype
        short = np.clip(bound - 1 - head_rows.sum(axis=1, dtype=np.int64), -1, side * cap)
        viol_marginal = last_over | (head_rows > cap).any(axis=1)[:, None]
        for column, free in zip(last_columns, room.T):
            viol_marginal |= column > free[:, None]
        viol_total = last_sums <= short.astype(dtype)[:, None]
        c1 += int(np.count_nonzero(viol_marginal))
        c2 += int(np.count_nonzero(viol_total))
        c12 += int(np.count_nonzero(viol_marginal & viol_total))
    total = p**k
    f = total - c1 - c2 + c12
    reference = count_brute(n, p)
    if f != reference:
        raise AssertionError(
            f"decomposition mismatch for (n={n}, p={p}): {f} != brute count {reference}"
        )
    return {"total": total, "c1": c1, "c2": c2, "c12": c12, "f": f}
