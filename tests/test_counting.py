import itertools
from math import comb, factorial

import numpy as np
import pytest

from birkhoff_attn import c2_closed, count_brute, counting, decomposition_check, f3_analytic
from oracles import (c2_brute, decomposition_brute, f3_ehrhart, f3_quadruple_sum,
                     f_line_sum_two)


def census_by_completion(n: int, p: int) -> int:
    """Independent re-count: build each full matrix and check it outright.

    Enumerates the free interior, completes the last row and column from the
    marginal sums, and accepts only completions that are entrywise
    non-negative with every marginal exactly p-1 (integerized grid).  Shares
    no logic with the bound-condition counting in the package.
    """
    side = n - 1
    cap = p - 1
    count = 0
    for digits in itertools.product(range(p), repeat=side * side):
        g = np.array(digits, dtype=np.int64).reshape(side, side)
        full = np.zeros((n, n), dtype=np.int64)
        full[:side, :side] = g
        full[:side, side] = cap - g.sum(axis=1)
        full[side, :side] = cap - g.sum(axis=0)
        full[side, side] = cap - full[side, :side].sum()
        ok = (
            (full >= 0).all()
            and (full.sum(axis=0) == cap).all()
            and (full.sum(axis=1) == cap).all()
        )
        count += int(ok)
    return count


class TestCountBrute:
    def test_two_by_two_is_p(self):
        # one free cell in {0..p-1}; every value completes to a valid matrix
        for p in (2, 3, 7, 50):
            assert count_brute(2, p) == p

    def test_binary_grid_counts_permutations(self):
        for n in range(2, 7):
            assert count_brute(n, 2) == factorial(n)

    @pytest.mark.parametrize("n,p,want", [(3, 3, 21), (3, 4, 55), (4, 3, 282)])
    def test_frozen_values(self, n, p, want):
        assert count_brute(n, p) == want

    @pytest.mark.parametrize("n,p", [(3, 2), (3, 3), (3, 4), (3, 5), (4, 2), (4, 3)])
    def test_matches_completion_census(self, n, p):
        assert count_brute(n, p) == census_by_completion(n, p)

    def test_monotone_in_grid_resolution(self):
        values = [count_brute(3, p) for p in range(2, 9)]
        assert values == sorted(values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            count_brute(1, 3)
        with pytest.raises(ValueError, match="p must be"):
            count_brute(3, 1)

    def test_enumeration_budget_guard(self):
        with pytest.raises(ValueError, match="budget"):
            count_brute(8, 10)  # 10^49 candidates is far beyond 2^48

    @pytest.mark.parametrize("n, p", [(3, 10**30), (10**30, 3), (10**200, 2)])
    def test_budget_guard_takes_any_int(self, n, p):
        with pytest.raises(ValueError, match="budget"):
            count_brute(n, p)

    def test_last_row_table_budget(self):
        # n = 2 is within the candidate budget up to p = 2^48, but its table holds p rows
        with pytest.raises(ValueError, match="last-row table .* 2\\^27 budget"):
            count_brute(2, 10**12)
        with pytest.raises(ValueError, match="last-row table"):
            decomposition_check(2, (1 << 27) + 1)
        assert counting._rows(1, 1 << 10, np.int64)[0].shape == (1 << 10, 1)

    # n = 3 sums are int8 up to p = 64 and int16 from p = 65; p = 129 is the
    # first whose digits alone overflow int8
    @pytest.mark.parametrize("p", [44, 64, 65, 97, 129])
    def test_three_by_three_matches_ehrhart_polynomial(self, p):
        assert count_brute(3, p) == f3_ehrhart(p)

    # n = 2 digits leave uint8 at p = 257, and sums leave int16 before p = 40000
    @pytest.mark.parametrize("p", [256, 257, 40000])
    def test_two_by_two_is_p_at_wide_dtypes(self, p):
        assert count_brute(2, p) == p


class TestCountBrutePasses:
    """count_brute's count does not depend on how many prefixes one pass takes."""

    @staticmethod
    def spy(monkeypatch) -> tuple[list[int], list[tuple[int, int]]]:
        """Record each decoded range's size, and each pass's (heads, last rows)."""
        decoded, passes = [], []
        odometer, completions = counting._odometer, counting._completions

        def decode(lo, hi, base, width):
            decoded.append(hi - lo)
            return odometer(lo, hi, base, width)

        def classify(cols, totals, columns, sums, cap, bound):
            passes.append((len(cols), len(sums)))
            return completions(cols, totals, columns, sums, cap, bound)

        monkeypatch.setattr(counting, "_odometer", decode)
        monkeypatch.setattr(counting, "_completions", classify)
        return decoded, passes

    @pytest.mark.parametrize("n,p", [(3, 7), (4, 4), (5, 2)])
    @pytest.mark.parametrize("budget", ["one", "five-children"])
    def test_counts_identical_for_any_pass_size(self, n, p, budget, monkeypatch):
        decoded, passes = self.spy(monkeypatch)
        want = count_brute(n, p)
        heads = sum(size for size, _ in passes)
        table = comb(p - 1 + n - 1, n - 1)  # rows of n-1 cells summing to at most p-1
        candidates = 1 if budget == "one" else 5 * table
        decoded.clear()
        passes.clear()
        monkeypatch.setattr(counting, "_PASS_CANDIDATES", candidates)
        assert count_brute(n, p) == want
        assert decoded == [p ** (n - 1)]  # the one table of last rows
        assert {rows for _, rows in passes} == {table}
        assert sum(size for size, _ in passes) == heads
        # a pass classifies at most the budget, or a single head when one is more
        assert max(size for size, _ in passes) == (1 if budget == "one" else 5)
        assert all(size * table <= max(candidates, table) for size, _ in passes)

    def test_a_pass_covers_at_most_the_candidate_budget(self, monkeypatch):
        decoded, passes = self.spy(monkeypatch)
        assert count_brute(3, 97) == f3_ehrhart(97)
        assert decoded == [97**2]
        assert len(passes) > 1
        assert max(heads * rows for heads, rows in passes) <= counting._PASS_CANDIDATES

    def test_heads_of_different_prefixes_share_a_pass(self, monkeypatch):
        # one pass per kept prefix would make thousands of calls here
        _, passes = self.spy(monkeypatch)
        assert count_brute(6, 3) == 202410
        heads = sum(size for size, _ in passes)
        table = comb(2 + 5, 5)
        levels = 4  # head rows of a 6 x 6 matrix
        assert len(passes) <= -(-heads * table // counting._PASS_CANDIDATES) + levels


class TestF3Analytic:
    def test_matches_brute_small(self):
        for p in range(2, 13):
            assert f3_analytic(p) == count_brute(3, p)

    def test_frozen_sequence(self):
        assert [f3_analytic(p) for p in range(2, 9)] == [6, 21, 55, 120, 231, 406, 666]

    def test_frozen_large_value(self):
        assert f3_analytic(43) == 447931

    def test_matches_ehrhart_polynomial(self):
        assert [f3_analytic(p) for p in range(2, 201)] == [f3_ehrhart(p) for p in range(2, 201)]

    @pytest.mark.parametrize("cells", [1, 7])
    def test_counts_identical_for_any_pass_size(self, cells, monkeypatch):
        monkeypatch.setattr(counting, "_PASS_CANDIDATES", cells)
        assert [f3_analytic(p) for p in range(2, 13)] == [f3_ehrhart(p) for p in range(2, 13)]

    @pytest.mark.parametrize("p", range(2, 44))
    def test_matches_quadruple_sum(self, p):
        assert f3_analytic(p) == f3_quadruple_sum(p)

    def test_validation(self):
        with pytest.raises(ValueError, match="p must be"):
            f3_analytic(1)

    def test_enumeration_budget_guard(self):
        # its cost grows with p^3, so it keeps count_brute(3, p)'s budget: p <= 2^12
        with pytest.raises(ValueError, match="budget"):
            f3_analytic(4097)


class TestC2:
    @pytest.mark.parametrize("n,p,want", [(3, 2, 1), (3, 3, 5), (4, 2, 10), (4, 3, 211)])
    def test_frozen_values_both_routes(self, n, p, want):
        assert c2_brute(n, p) == want
        assert c2_closed(n, p) == want

    def test_closed_form_matches_enumeration(self):
        # n=4 stops at p=6 here (10M candidates); the acceptance suite
        # extends the same comparison to p=8
        for p in range(2, 9):
            assert c2_closed(3, p) == c2_brute(3, p)
        for p in range(2, 7):
            assert c2_closed(4, p) == c2_brute(4, p)

    def test_grid_wider_than_int16(self):
        # p - 1 = 39999 does not fit an int16 digit
        assert c2_brute(2, 40000) == c2_closed(2, 40000) == 0

    def test_only_all_zero_interior_violates_for_three_by_binary(self):
        # n=3, p=2: bound is 1, so the single candidate with total 0 is the
        # all-zero interior
        assert c2_brute(3, 2) == 1


class TestDecomposition:
    @pytest.mark.parametrize(
        "n,p,want",
        [
            (3, 2, {"total": 16, "c1": 9, "c2": 1, "c12": 0, "f": 6}),
            (3, 3, {"total": 81, "c1": 55, "c2": 5, "c12": 0, "f": 21}),
            (3, 4, {"total": 256, "c1": 186, "c2": 15, "c12": 0, "f": 55}),
            (4, 2, {"total": 512, "c1": 478, "c2": 10, "c12": 0, "f": 24}),
            (4, 6, {"total": 10077696, "c1": 10007230, "c2": 46640, "c12": 16350, "f": 40176}),
            (4, 8, {"total": 134217728, "c1": 133538006, "c2": 479402, "c12": 181104,
                    "f": 381424}),
            (5, 3, {"total": 43046721, "c1": 43033770, "c2": 17901, "c12": 11160, "f": 6210}),
            (5, 4, {"total": 4294967296, "c1": 4294623017, "c2": 658071, "c12": 466832,
                    "f": 153040}),
            (6, 2, {"total": 33554432, "c1": 33552886, "c2": 2626, "c12": 1800, "f": 720}),
            (6, 3, {"total": 847288609443, "c1": 847288057762, "c2": 2779881, "c12": 2430610,
                    "f": 202410}),
        ],
    )
    def test_frozen_census(self, n, p, want):
        assert decomposition_check(n, p) == want

    def test_identity_holds(self):
        for n, p in ((3, 5), (4, 3)):
            c = decomposition_check(n, p)
            assert c["f"] == c["total"] - c["c1"] - c["c2"] + c["c12"]
            assert c["c2"] == c2_brute(n, p)

    def test_grid_wider_than_int16(self):
        assert decomposition_check(2, 40000)["f"] == 40000

    def test_f_agrees_with_completion_census(self):
        assert decomposition_check(4, 3)["f"] == census_by_completion(4, 3)

    # every n >= 3 with p^((n-1)^2) <= 10^5, and n = 2 (no head rows) at digits
    # on both sides of uint8 and at p = 40000, whose sums overflow int16;
    # n = 5 has three head rows
    @pytest.mark.parametrize("n,p", [(2, p) for p in (2, 3, 7, 256, 257, 40000)]
                             + [(3, p) for p in range(2, 18)]
                             + [(4, 2), (4, 3), (5, 2)])
    def test_matches_classifying_oracle(self, n, p):
        assert decomposition_check(n, p) == decomposition_brute(n, p)


class TestLineSumTwoOracle:
    """f(n, 3) against the semi-magic-square recurrence, at every n up to 6."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_count_brute(self, n):
        assert count_brute(n, 3) == f_line_sum_two(n)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_decomposition_check(self, n):
        assert decomposition_check(n, 3)["f"] == f_line_sum_two(n)


class TestDecompositionPasses:
    """Counts do not depend on how many head classes one pass takes."""

    @staticmethod
    def spy(monkeypatch) -> tuple[list[int], list[tuple[int, int]], list[int]]:
        """Record decoded range sizes, growth passes' (classes, rows) and census passes' sizes."""
        decoded, grown, classified = [], [], []
        odometer, merge, census = counting._odometer, counting._merge, counting._census

        def decode(lo, hi, base, width):
            decoded.append(hi - lo)
            return odometer(lo, hi, base, width)

        def merge_spy(hist, keys, weights):
            if keys.ndim == 2:  # a growth pass; a 1-D merge sorts a level's columns
                grown.append(keys.shape)
            return merge(hist, keys, weights)

        def census_spy(room, *rest):
            classified.append(len(room))
            return census(room, *rest)

        monkeypatch.setattr(counting, "_odometer", decode)
        monkeypatch.setattr(counting, "_merge", merge_spy)
        monkeypatch.setattr(counting, "_census", census_spy)
        return decoded, grown, classified

    @pytest.mark.parametrize("n,p", [(4, 4), (3, 7), (5, 2)])
    @pytest.mark.parametrize("classes", [1, 5])  # per pass, at most
    def test_counts_identical_for_any_pass_size(self, n, p, classes, monkeypatch):
        decoded, grown, classified = self.spy(monkeypatch)
        want = decomposition_check(n, p)
        fed, total = sum(size for size, _ in grown), sum(classified)
        table = p ** (n - 1)
        decoded.clear()
        grown.clear()
        classified.clear()
        monkeypatch.setattr(counting, "_PASS_CANDIDATES", classes * table)
        assert decomposition_check(n, p) == want
        # decomposition_check's table of every row, then count_brute's
        assert decoded == [table, table]
        assert {rows for _, rows in grown} == {table}
        assert sum(size for size, _ in grown) == fed
        assert sum(classified) == total
        assert all(size <= classes for size, _ in grown)
        assert max(classified) == classes

    def test_one_candidate_budget_still_takes_a_class_a_pass(self, monkeypatch):
        _, grown, classified = self.spy(monkeypatch)
        want = decomposition_check(4, 4)
        monkeypatch.setattr(counting, "_PASS_CANDIDATES", 1)
        grown.clear()
        classified.clear()
        assert decomposition_check(4, 4) == want
        assert {size for size, _ in grown} == set(classified) == {1}

    def test_a_pass_covers_at_most_the_candidate_budget(self, monkeypatch):
        decoded, grown, classified = self.spy(monkeypatch)
        decomposition_check(4, 6)
        assert decoded[0] == 6**3
        assert max(size * rows for size, rows in grown) <= counting._PASS_CANDIDATES
        assert max(classified) * 6**3 <= counting._PASS_CANDIDATES
        # the 216 one-row heads are 56 classes up to column order, and the
        # 46,656 heads of two rows 332
        assert [size for size, _ in grown] == [1, 56]
        assert sum(classified) == 332

    @pytest.mark.parametrize("n,p,grown_classes,classes", [
        (4, 8, [1, 120], 789),
        (5, 3, [1, 15, 76], 229),
        (5, 4, [1, 35, 227], 773),
    ])
    def test_classes_are_counted_up_to_column_order(self, n, p, grown_classes, classes,
                                                    monkeypatch):
        _, grown, classified = self.spy(monkeypatch)
        decomposition_check(n, p)
        assert [size for size, _ in grown] == grown_classes
        assert sum(classified) == classes


class TestClassKeySpace:
    """The dense class histogram stays within a fixed size at every admitted (n, p)."""

    @staticmethod
    def admitted(n: int):
        p = 2
        while True:
            try:
                counting._check_args(n, p)
            except ValueError:
                return
            yield p
            p += 1

    def test_key_range_is_bounded_at_every_admitted_size(self):
        # n = 2 has no head row: every key is 0 or 1, whatever p
        for p in (2, 3, 40000, 1 << 48):
            counting._check_args(2, p)
            assert counting._key_space(1, p - 1) == (1, 2)
        largest = {}
        for n in range(3, 9):
            for p in self.admitted(n):
                _, size = counting._key_space(n - 1, p - 1)
                assert size <= max(2 * p ** (n - 1), 1 << 20)
                largest[n] = p, size
        # n = 8 is never admitted
        assert largest == {3: (4096, 2 * 4096**2), 4: (40, 986078), 5: (8, 468512),
                           6: (3, 118098), 7: (2, 93312)}
