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
rows, and its last row, drawn from a table decoded once; a pass pairs the
table with ``_PASS_CANDIDATES // table`` prefixes or head classes, at least
one.  count_brute walks the head one level per row, pruning as it goes.
decomposition_check prunes nothing: it builds the histogram of head classes
one row at a time, a class being the head's column sums up to their order
and whether a head row is over the cap, and classifies each class once,
weighted by its multiplicity.  The histogram is a dense int64 array over
the class keys.  f3_analytic is a separate closed sum for n = 3, broadcast
over one (j, k) grid per outer index.
"""

from __future__ import annotations

from math import comb, log2

import numpy as np

from .core import _odometer

_FEASIBILITY_BITS = 48
# rows of the last-row table, p^(n-1): n = 3 needs at most 2^24 within the
# feasibility budget, and only n = 2 comes near this bound
_TABLE_BITS = 27
# candidates (head classes or prefixes x table rows, or f3_analytic cells) per
# array pass; a pass takes at least one class or prefix
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
    # as p >= 2, a k above the budget exceeds it alone; testing k first keeps a
    # huge k out of float arithmetic, and math.log2 takes an int of any size
    if k > _FEASIBILITY_BITS or k * log2(p) > _FEASIBILITY_BITS:
        raise ValueError(
            f"enumeration over p^((n-1)^2) = {p}^{k} exceeds the 2^{_FEASIBILITY_BITS} budget"
        )
    return k


def _sum_dtype(side: int, cap: int) -> np.dtype:
    """Smallest signed dtype holding every sum of up to ``side`` cells, +-side*cap."""
    return np.min_scalar_type(-side * cap - 1)


def _rows(side: int, p: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """Every row of ``side`` cells in {0..p-1} in odometer order, and each row's sum."""
    if p**side > 1 << _TABLE_BITS:
        raise ValueError(
            f"last-row table of p^(n-1) = {p}^{side} rows exceeds the 2^{_TABLE_BITS} budget"
        )
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
    """f(n, p) by a pruned walk over the interior rows, one level per row.

    Rows violating the marginal cap are never generated.  A chunk of head
    prefixes gives every prefix every valid row at once as its next row and
    keeps the children whose columns stay within the cap and whose total can
    still reach the bound.  A chunk of whole heads is classified against the
    table of valid last rows.  A chunk holds ``_PASS_CANDIDATES // table``
    prefixes, at least one.
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
    count = 0
    # (rows placed, column sums, totals) of each prefix chunk to extend; a stack,
    # since a recursive closure's reference cycle keeps its row tables alive
    stack = [(0, np.zeros((1, side), dtype), np.zeros(1, dtype))]
    while stack:
        placed, cols, totals = stack.pop()
        if placed == side - 1:
            count += _completions(cols, totals, columns, sums, cap, bound)
            continue
        cols = (cols[:, None] + rows).reshape(-1, side)
        totals = (totals[:, None] + sums).ravel()
        keep = (cols <= cap).all(axis=1) & (totals >= bound - (side - placed - 1) * cap)
        cols, totals = cols[keep], totals[keep]
        stack.extend((placed + 1, cols[lo:lo + step], totals[lo:lo + step])
                     for lo in range(0, len(cols), step))
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
    sum added to a Python integer.  The cells number about p^3 / 3, so p is
    held to the enumeration budget of n = 3.
    """
    _check_args(3, p)
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


def _key_space(side: int, cap: int) -> tuple[int, int]:
    """The base of a class key's column sums, and the key range 2 x base^side.

    A head column sums to at most (side-1) x cap.  For every (n, p) that
    ``_check_args`` admits the range is at most max(2 p^(n-1), 2^20) entries.
    """
    base = (side - 1) * cap + 1
    return base, 2 * base**side


def _merge(hist: np.ndarray, keys: np.ndarray, weights: np.ndarray) -> None:
    """Add each weight, broadcast to ``keys``, into the dense int64 ``hist`` at its key."""
    np.add.at(hist, keys, weights)


def _sort_columns(keys: np.ndarray, radix: np.ndarray, base: int) -> np.ndarray:
    """Each class key with its column sums in ascending order, its over bit kept."""
    cols = np.sort((keys[:, None] >> 1) // radix % base, axis=1)
    return 2 * (cols @ radix) | (keys & 1)


def _census(room: np.ndarray, over: np.ndarray, short: np.ndarray, columns: np.ndarray,
            sums: np.ndarray, sums_over: np.ndarray) -> np.ndarray:
    """Per head class, the last rows breaking the cap, the bound and both: (classes, 3).

    The cap breaks when a head row (``over``) or the last row (``sums_over``)
    is over it, or a column overfills its ``room``, cap - head column sum;
    the bound breaks when the last row sums to less than ``short``.  A class
    with a head row over the cap or a negative room breaks the cap on every
    last row, so only the classes open to some last row scan the columns.
    """
    below = sums < short[:, None]
    open_ = ~over & (room >= 0).all(axis=1)
    fits = np.repeat(~sums_over[None], np.count_nonzero(open_), axis=0)
    for column, free in zip(columns, room[open_].T):
        fits &= column <= free[:, None]
    within = np.zeros((len(room), 2), np.int64)  # last rows within the cap: all, and short
    within[open_] = np.stack([np.count_nonzero(v, axis=1) for v in (fits, fits & below[open_])], 1)
    short_rows = np.count_nonzero(below, axis=1)
    return np.stack([len(sums) - within[:, 0], short_rows, short_rows - within[:, 1]], 1)


def decomposition_check(n: int, p: int) -> dict:
    """Classify every candidate and verify the inclusion-exclusion identity.

    Returns {total, c1, c2, c12, f} over all p^((n-1)^2) candidates, after
    asserting f = total - c1 - c2 + c12 equals the independently pruned
    count_brute.

    A head's verdicts depend only on its class: the multiset of its column
    sums and whether a head row is over the cap.  The table of all p^(n-1)
    last rows is closed under column permutations and they keep its row
    sums, so sorting a head's column sums changes no verdict.  The class
    histogram grows one head row at a time: every row of the table joins
    every class, ``_PASS_CANDIDATES // p^(n-1)`` classes a pass, at least
    one, and every pass of a level adds its multiplicities into one dense
    int64 array over the key range 2 x ((n-2)(p-1)+1)^(n-1) (at most
    max(2 p^(n-1), 2^20) entries at every admitted size).  The level's
    classes then merge again with their column sums sorted.  Each class is
    classified against the table once, weighted by its multiplicity, in
    passes of the same size; a class already over the cap skips the column
    tests and needs only the bound test.  int64 holds every count.
    """
    k = _check_args(n, p)
    side = n - 1
    cap = p - 1
    bound = (n - 2) * cap
    dtype = _sum_dtype(side, cap)
    table, sums = _rows(side, p, dtype)
    columns = np.ascontiguousarray(table.T)
    sums_over = sums > cap
    base, size = _key_space(side, cap)
    radix = base ** np.arange(side, dtype=np.int64)
    row_keys = 2 * (table @ radix)  # a class key: 2 x column sums in ``base``, + 1 if over
    step = max(1, _PASS_CANDIDATES // len(table))
    keys, mult = np.zeros(1, np.int64), np.ones(1, np.int64)
    for _ in range(side - 1):
        grown = np.zeros(size, np.int64)
        for lo in range(0, len(keys), step):
            _merge(grown, (keys[lo:lo + step, None] + row_keys) | sums_over,
                   mult[lo:lo + step, None])
        keys = np.flatnonzero(grown)
        hist = np.zeros(size, np.int64)
        _merge(hist, _sort_columns(keys, radix, base), grown[keys])
        keys = np.flatnonzero(hist)
        mult = hist[keys]
    cols = (keys[:, None] >> 1) // radix % base
    room, over = (cap - cols).astype(dtype), (keys & 1).astype(bool)
    short = np.maximum(bound - cols.sum(axis=1), 0).astype(dtype)  # row sums are >= 0
    c1, c2, c12 = sum(mult[lo:lo + step] @ _census(room[lo:lo + step], over[lo:lo + step],
                                                   short[lo:lo + step], columns, sums, sums_over)
                      for lo in range(0, len(keys), step)).tolist()
    total = p**k
    f = total - c1 - c2 + c12
    reference = count_brute(n, p)
    if f != reference:
        raise AssertionError(
            f"decomposition mismatch for (n={n}, p={p}): {f} != brute count {reference}"
        )
    return {"total": total, "c1": c1, "c2": c2, "c12": c12, "f": f}
