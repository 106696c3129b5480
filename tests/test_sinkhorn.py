import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import logsumexp

from birkhoff_attn import exp_scale, sinkhorn_naive, sinkhorn_ot
from birkhoff_attn.sinkhorn import _logsumexp

import oracles

TINY = np.finfo(np.float64).tiny

BATCH_SIZES = (1, 2, 7, 512)
SIZES = (1, 2, 4, 16)


def input_stack(kind: str, batch: int, n: int, seed: int = 0) -> np.ndarray:
    """A (batch, n, n) stack: binary cube matrices (full of ties) or standard normal draws."""
    rng = np.random.default_rng([seed, batch, n])
    if kind == "cube":
        return rng.integers(0, 2, (batch, n, n)).astype(np.float64)
    return rng.standard_normal((batch, n, n))


def assert_each_matches_alone(kernel, stack: np.ndarray) -> None:
    """kernel(stack)[i] is kernel(stack[i]) to the bit, for every i."""
    out = kernel(stack)
    assert out.shape[0] == len(stack)
    for i, m in enumerate(stack):
        assert np.asarray(out[i]).tobytes() == np.asarray(kernel(m)).tobytes(), i


class TestExpScale:
    def test_max_entry_maps_to_one(self):
        out = exp_scale(np.array([[3.0, 1.0], [0.0, -2.0]]))
        assert out.max() == 1.0
        assert np.all(out > 0.0)
        assert np.all(out <= 1.0)

    def test_known_values(self):
        out = exp_scale(np.array([[1.0, 0.0], [0.0, 1.0]]), tau=1.0)
        assert_allclose(out, [[1.0, np.e ** -1], [np.e ** -1, 1.0]], rtol=1e-15)

    def test_underflow_clamps_to_tiny(self):
        out = exp_scale(np.array([[0.0, -1e6], [-1e6, 0.0]]))
        assert out.min() == TINY  # exp(-1e6) underflows; clamp keeps it positive

    def test_small_tau_sharpens(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0]])
        sharp = exp_scale(m, tau=0.1)
        soft = exp_scale(m, tau=10.0)
        assert sharp[0, 1] < soft[0, 1]

    def test_rejects_non_positive_tau(self):
        with pytest.raises(ValueError, match="tau"):
            exp_scale(np.eye(2), tau=0.0)


class TestSinkhornNaive:
    def test_cross_ratio_limit(self):
        # [[2,1],[1,2]] converges to [[2/3,1/3],[1/3,2/3]]: by symmetry the
        # limit is a symmetric DSM whose entries keep a pair of equal ratios;
        # the mpmath re-run of the same alternation pins the frozen values
        out = sinkhorn_naive(np.array([[2.0, 1.0], [1.0, 2.0]]), 201)
        assert_allclose(out, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0, atol=1e-15)
        assert_allclose(out, oracles.mp_sinkhorn(np.array([[2.0, 1.0], [1.0, 2.0]]), 201),
                        atol=1e-15)

    def test_column_stochastic_after_odd_count(self):
        # passes are 0-indexed and start on columns, so odd k ends on a
        # column pass: columns are the exact marginal, rows the approximate one
        rng = np.random.default_rng(0)
        m = rng.uniform(0.5, 2.0, (6, 6))
        for k in (1, 3, 21):
            out = sinkhorn_naive(m, k)
            assert_allclose(out.sum(axis=0), np.ones(6), atol=1e-14)

    def test_single_pass_is_one_column_normalize(self):
        m = np.array([[1.0, 3.0], [1.0, 1.0]])
        assert_allclose(sinkhorn_naive(m, 1), m / m.sum(axis=0, keepdims=True))

    def test_constant_column_input_hits_uniform_in_one_pass(self):
        m = np.array([[1.0, 5.0, 2.0]] * 3)  # identical rows = constant columns
        assert_allclose(sinkhorn_naive(m, 1), np.full((3, 3), 1 / 3), atol=1e-15)

    def test_constant_row_input_hits_uniform_from_k3(self):
        m = np.exp(np.outer([0.0, 1.0, 0.0, 0.0], np.ones(4)))  # constant rows
        assert np.abs(sinkhorn_naive(m, 1) - 0.25).max() > 0.1  # one pass keeps rows apart
        assert_allclose(sinkhorn_naive(m, 3), np.full((4, 4), 0.25), atol=1e-15)

    def test_row_deviation_decreases_with_k(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(0.1, 5.0, (8, 8))
        devs = []
        for k in range(1, 43, 2):
            out = sinkhorn_naive(m, k)
            devs.append(np.abs(out.sum(axis=1) - 1.0).max())
        # contraction until float round-off flattens the tail
        assert all(b <= a * (1 + 1e-6) + 1e-14 for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 1e-10 < devs[0]

    def test_doubly_stochastic_fixed_point(self):
        m = np.full((4, 4), 0.25)
        assert_allclose(sinkhorn_naive(m, 21), m, atol=1e-15)

    def test_matches_mpmath_on_random_input(self):
        rng = np.random.default_rng(9)
        m = rng.uniform(0.2, 3.0, (5, 5))
        assert_allclose(sinkhorn_naive(m, 21), oracles.mp_sinkhorn(m, 21), atol=1e-13)

    def test_rejects_even_or_non_positive_k(self):
        with pytest.raises(ValueError, match="odd"):
            sinkhorn_naive(np.ones((2, 2)), 2)
        with pytest.raises(ValueError, match="odd"):
            sinkhorn_naive(np.ones((2, 2)), 0)

    def test_rejects_zero_entry(self):
        with pytest.raises(ValueError, match="strictly positive"):
            sinkhorn_naive(np.array([[1.0, 0.0], [1.0, 1.0]]), 3)

    def test_input_not_mutated(self):
        m = np.ones((3, 3))
        sinkhorn_naive(m, 3)
        assert_allclose(m, np.ones((3, 3)))


class TestSinkhornOT:
    def test_iteration_for_iteration_match(self):
        rng = np.random.default_rng(2)
        m = rng.uniform(0.1, 4.0, (7, 7))
        for k in (1, 3, 5, 21):
            assert_allclose(sinkhorn_ot(m, k), sinkhorn_naive(m, k), atol=1e-8)

    def test_extreme_dynamic_range_matches_mpmath(self):
        # tau = 0.01 spreads exp(m/tau) over ~170 orders of magnitude; the
        # log-domain route has to agree with the 60-digit reference
        rng = np.random.default_rng(7)
        scores = rng.uniform(-2.0, 2.0, (5, 5))
        kernel = exp_scale(scores, tau=0.01)
        got = sinkhorn_ot(kernel, 21)
        want = oracles.mp_sinkhorn(oracles.mp_exp_scale(scores, 0.01), 21)
        assert_allclose(got, want, atol=1e-9)

    def test_column_stochastic_after_odd_count(self):
        rng = np.random.default_rng(4)
        out = sinkhorn_ot(rng.uniform(0.5, 2.0, (5, 5)), 7)
        assert_allclose(out.sum(axis=0), np.ones(5), atol=1e-12)

    def test_shares_input_validation(self):
        with pytest.raises(ValueError, match="strictly positive"):
            sinkhorn_ot(np.array([[1.0, -1.0], [1.0, 1.0]]), 3)
        with pytest.raises(ValueError, match="odd"):
            sinkhorn_ot(np.ones((2, 2)), 4)


@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.sampled_from([1, 3, 9, 21]))
@settings(max_examples=30, deadline=None)
def test_output_positive_and_column_stochastic(seed, n, k):
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.05, 10.0, (n, n))
    out = sinkhorn_naive(m, k)
    assert np.all(out > 0.0)
    assert_allclose(out.sum(axis=0), np.ones(n), atol=1e-12)


@given(st.integers(0, 2**32 - 1), st.integers(-3, 8))
@settings(max_examples=25, deadline=None)
def test_power_of_two_scaling_cancels_exactly(seed, exponent):
    # lam * m has the same column sums scaled by lam; power-of-two lam makes
    # the cancellation bit-exact, not just approximate
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.1, 2.0, (4, 4))
    lam = 2.0 ** exponent
    assert np.array_equal(sinkhorn_naive(m, 5), sinkhorn_naive(lam * m, 5))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_exp_scale_shift_cancels_in_sinkhorn(seed):
    # adding a constant to the scores multiplies the kernel by a constant,
    # which the first normalization removes
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((4, 4))
    a = sinkhorn_naive(exp_scale(scores), 5)
    b = sinkhorn_naive(exp_scale(scores - 3.7), 5)
    assert_allclose(a, b, atol=1e-13)


@pytest.mark.parametrize("kind", ["cube", "random"])
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("batch", BATCH_SIZES)
class TestStacks:
    """Each matrix of a (B, n, n) stack comes out as it does alone."""

    def test_exp_scale(self, kind, batch, n):
        assert_each_matches_alone(lambda m: exp_scale(m, 0.3), input_stack(kind, batch, n))

    def test_sinkhorn_naive(self, kind, batch, n):
        stack = exp_scale(input_stack(kind, batch, n), 0.5)
        assert_each_matches_alone(lambda m: sinkhorn_naive(m, 21), stack)

    def test_sinkhorn_ot(self, kind, batch, n):
        stack = exp_scale(input_stack(kind, batch, n), 0.05)
        assert_each_matches_alone(lambda m: sinkhorn_ot(m, 21), stack)


class TestStackValidation:
    def test_one_bad_matrix_rejects_the_stack(self):
        stack = np.ones((3, 2, 2))
        stack[1, 0, 1] = 0.0
        with pytest.raises(ValueError, match="strictly positive"):
            sinkhorn_naive(stack, 3)
        stack[1, 0, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            sinkhorn_ot(stack, 3)

    def test_rejects_other_ranks(self):
        with pytest.raises(ValueError, match=r"\(B, n, n\) stack"):
            sinkhorn_naive(np.ones((2, 2, 2, 2)), 3)
        with pytest.raises(ValueError, match="square"):
            exp_scale(np.ones((2, 2, 3)))

    def test_empty_stack(self):
        assert sinkhorn_ot(np.ones((0, 3, 3)), 5).shape == (0, 3, 3)
        assert sinkhorn_naive(exp_scale(np.ones((0, 3, 3))), 5).shape == (0, 3, 3)


class TestLogsumexp:
    """The numpy logsumexp is scipy's to the bit, ties included."""

    @staticmethod
    def lse(a, axis):
        """_logsumexp on a copy of ``a``, since it overwrites its arguments."""
        return _logsumexp(a.copy(), axis, np.empty(a.shape, dtype=bool))

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_matches_scipy_on_ties(self, axis):
        rng = np.random.default_rng(3)
        # few distinct values, so most slices hold several copies of their max
        a = rng.integers(-2, 3, (200, 5, 5)) * 0.37
        a[:20] = 1.25  # every entry ties
        a[20:40, :, :2] = a[20:40].max(axis=(1, 2), keepdims=True)  # ties at the max
        for scale in (1.0, 1e-300, 700.0):
            want = logsumexp(a * scale, axis=axis)
            assert self.lse(a * scale, axis).tobytes() == want.tobytes()

    def test_matches_scipy_on_random_logs(self):
        rng = np.random.default_rng(4)
        a = np.log(rng.uniform(1e-300, 1.0, (300, 16, 16)))
        for axis in (-1, -2):
            want = logsumexp(a, axis=axis)
            assert self.lse(a, axis).tobytes() == want.tobytes()

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_leaves_the_tie_mask_and_shifted_exponentials(self, axis):
        a = np.array([[[1.0, 2.0, 2.0], [0.5, -1.0, 2.0], [3.0, 3.0, 3.0]]])
        work, ties = a.copy(), np.empty(a.shape, dtype=bool)
        _logsumexp(work, axis, ties)
        top = a.max(axis=axis, keepdims=True)
        assert np.array_equal(ties, a == top)
        assert np.array_equal(work, np.where(a == top, 0.0, np.exp(a - top)))


def extreme_kernel(batch: int, n: int, seed: int = 0) -> np.ndarray:
    """Entries 1e-300 or 1e300 at random: 600 orders of magnitude in one matrix."""
    rng = np.random.default_rng([seed, batch, n])
    return np.where(rng.integers(0, 2, (batch, n, n)) == 1, 1e300, 1e-300)


KERNELS = {
    "cube": lambda batch, n: exp_scale(input_stack("cube", batch, n)),  # many ties per line
    "random": lambda batch, n: exp_scale(input_stack("random", batch, n), 0.3),
    "extreme": extreme_kernel,
}


@pytest.mark.parametrize("k", [1, 3, 21])
@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("n", [*range(1, 10), 16, 17, 64, 129, 256])
@pytest.mark.parametrize("kind", KERNELS)
def test_sinkhorn_ot_matches_the_scipy_oracle(kind, n, batch, k):
    kernel = KERNELS[kind](batch, n)
    assert sinkhorn_ot(kernel, k).tobytes() == oracles.sinkhorn_ot_reference(kernel, k).tobytes()


@pytest.mark.parametrize("kernel", [lambda m: exp_scale(m, 0.01), lambda m: sinkhorn_ot(m, 21)],
                         ids=["exp_scale", "sinkhorn_ot"])
@pytest.mark.parametrize("shape", [(5, 5), (7, 5, 5)])
def test_leaves_the_callers_array_untouched(kernel, shape):
    # a C-ordered float64 input reaches the kernel as the caller's own array
    m = np.random.default_rng(11).uniform(0.1, 2.0, shape)
    before = m.copy()
    kernel(m)
    assert m.tobytes() == before.tobytes()
