import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import birkhoff_attn.qr as qr_module
from birkhoff_attn import GridSpec, qr_dsm, qr_orthonormalize
from birkhoff_attn.expressivity import grid_matrices

import oracles

ROOT_HALF = 1.0 / np.sqrt(2.0)


class TestOrthonormalize:
    def test_two_by_two_by_hand(self):
        # first column normalizes to (1,1)/sqrt2; the second orthogonalizes
        # against it and keeps a positive pivot
        q = qr_orthonormalize(np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert_allclose(q, [[ROOT_HALF, -ROOT_HALF], [ROOT_HALF, ROOT_HALF]], atol=1e-15)

    def test_orthogonal_input_is_fixed(self):
        c, s = np.cos(0.3), np.sin(0.3)
        rot = np.array([[c, -s], [s, c]])
        assert_allclose(qr_orthonormalize(rot), rot, atol=1e-15)

    def test_matches_householder_oracle(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 5, 8):
            m = rng.standard_normal((n, n))
            assert_allclose(qr_orthonormalize(m), oracles.householder_q(m), atol=1e-10)

    def test_orthogonality_at_machine_precision(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            q = qr_orthonormalize(rng.standard_normal((8, 8)))
            assert np.abs(q.T @ q - np.eye(8)).max() < 1e-11

    def test_sign_convention_column_scaling(self):
        # flipping an input column's sign flips the same Q column
        m = np.random.default_rng(2).standard_normal((4, 4))
        flipped = m.copy()
        flipped[:, 2] *= -1.0
        q, qf = qr_orthonormalize(m), qr_orthonormalize(flipped)
        assert_allclose(qf[:, 2], -q[:, 2], atol=1e-12)
        assert_allclose(np.delete(qf, 2, axis=1), np.delete(q, 2, axis=1), atol=1e-12)

    def test_rank_deficient_without_seed_raises(self):
        singular = np.ones((3, 3))
        with pytest.raises(ValueError, match="noise_seed"):
            qr_orthonormalize(singular)

    def test_rank_deficient_with_seed_recovers(self):
        singular = np.ones((3, 3))
        q = qr_orthonormalize(singular, noise_seed=42)
        assert np.abs(q.T @ q - np.eye(3)).max() < 1e-6  # noise floor, not exact

    def test_noise_restart_is_deterministic_per_seed(self):
        singular = np.outer([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        a = qr_orthonormalize(singular, noise_seed=7)
        b = qr_orthonormalize(singular, noise_seed=7)
        assert np.array_equal(a, b)
        c = qr_orthonormalize(singular, noise_seed=8)
        assert not np.array_equal(a, c)

    def test_all_restarts_exhausted_raises(self, monkeypatch):
        # shrink the noise below any useful scale so every restart fails too
        monkeypatch.setattr(qr_module, "_NOISE_STD", 1e-300)
        with pytest.raises(ValueError, match="persisted"):
            qr_orthonormalize(np.ones((3, 3)), noise_seed=0)

    def test_full_rank_path_ignores_seed(self):
        m = np.random.default_rng(3).standard_normal((4, 4))
        assert np.array_equal(qr_orthonormalize(m), qr_orthonormalize(m, noise_seed=123))


class TestQrDsm:
    def test_output_is_doubly_stochastic(self):
        d = qr_dsm(np.random.default_rng(4).standard_normal((6, 6)))
        assert d.report.max_row_deviation < 1e-9
        assert d.report.max_col_deviation < 1e-9
        assert d.report.min_entry >= 0.0

    def test_identity_maps_to_identity(self):
        assert_allclose(qr_dsm(np.eye(4)).matrix, np.eye(4), atol=1e-15)

    def test_known_two_by_two(self):
        d = qr_dsm(np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert_allclose(d.matrix, np.full((2, 2), 0.5), atol=1e-15)

    def test_scale_invariance_is_exact_for_powers_of_two(self):
        m = np.random.default_rng(5).standard_normal((4, 4))
        assert np.array_equal(qr_dsm(m).matrix, qr_dsm(2.0 * m).matrix)

    def test_tiny_input_is_not_taken_for_rank_deficient(self):
        # the pivot floor acts at the input's own scale, so no restart noise
        # is drawn for a full-rank matrix of entries near 1e-12
        m = np.random.default_rng(8).standard_normal((4, 4))
        assert_allclose(qr_dsm(1e-12 * m, noise_seed=0).matrix, qr_dsm(m).matrix, atol=1e-14)
        assert_allclose(qr_dsm(1e-12 * m).matrix, qr_dsm(m).matrix, atol=1e-14)

    def test_huge_input_does_not_overflow(self):
        m = np.ones((2, 2)) + 0.5 * np.eye(2)
        assert_allclose(qr_dsm(1e154 * m, noise_seed=0).matrix, qr_dsm(m).matrix, atol=1e-15)
        assert_allclose(qr_dsm(1e300 * m).matrix, [[9 / 13, 4 / 13], [4 / 13, 9 / 13]], atol=1e-15)


def with_zero_column(m, j):
    out = m.copy()
    out[:, j] = 0.0
    return out


class TestStack:
    def test_mixed_stack_matches_each_matrix_alone(self):
        rng = np.random.default_rng(6)
        full = list(rng.standard_normal((3, 5, 5)))
        deficient = [np.ones((5, 5)), with_zero_column(full[0], 3),
                     rng.standard_normal((5, 2)) @ rng.standard_normal((2, 5))]
        stack = np.array([full[0], deficient[0], full[1], deficient[1], deficient[2], full[2]])
        q = qr_orthonormalize(stack, noise_seed=11)
        p = qr_dsm(stack, noise_seed=11)
        assert q.shape == p.shape == stack.shape
        for i, m in enumerate(stack):
            assert q[i].tobytes() == qr_orthonormalize(m, noise_seed=11).tobytes()
            assert p[i].tobytes() == qr_dsm(m, noise_seed=11).matrix.tobytes()

    def test_collapses_at_different_columns_are_all_restarted(self):
        # the first matrix collapses at column 1 and its later pivots are NaN,
        # which must not hide the second matrix's collapse at column 2
        rng = np.random.default_rng(7)
        stack = np.array([with_zero_column(rng.standard_normal((4, 4)), 1),
                          with_zero_column(rng.standard_normal((4, 4)), 2)])
        q = qr_orthonormalize(stack, noise_seed=0)
        assert np.isfinite(q).all()
        for i, m in enumerate(stack):
            assert q[i].tobytes() == qr_orthonormalize(m, noise_seed=0).tobytes()

    def test_one_deficient_matrix_without_seed_raises(self):
        stack = np.array([np.eye(3), np.ones((3, 3)), np.eye(3)])
        with pytest.raises(ValueError, match="a noise_seed is required"):
            qr_orthonormalize(stack)

    def test_parallel_columns_at_the_top_of_the_float_range_are_rank_deficient(self):
        # scaled to a largest entry in [1, 2), the first column sinks below the
        # pivot floor: a noise seed is required, alone and in a stack, and
        # nothing overflows on the way
        m = np.array([[1.0, 1.7e308], [1.0, 1.7e308]])
        for x in (m, np.array([np.eye(2), m])):
            with pytest.raises(ValueError, match="a noise_seed is required"):
                qr_dsm(x)
        stacked = qr_dsm(np.array([np.eye(2), m]), noise_seed=0)
        assert stacked[1].tobytes() == qr_dsm(m, noise_seed=0).matrix.tobytes()

    def test_all_restarts_exhausted_raises_on_a_stack(self, monkeypatch):
        monkeypatch.setattr(qr_module, "_NOISE_STD", 1e-300)
        with pytest.raises(ValueError, match="persisted"):
            qr_dsm(np.array([np.eye(3), np.ones((3, 3))]), noise_seed=0)


CUBE_4_3 = grid_matrices(GridSpec(n=4, d=3), 0, 512)  # the first 512 inputs: many restarts
UNIT_PEAK = np.abs(CUBE_4_3).max(axis=(1, 2)) != 0.5    # left unscaled


@pytest.mark.parametrize("stack, noise_seed, digest", [
    (CUBE_4_3[UNIT_PEAK], 0, "63b66d14f0b0da5b47a7ce76240dc5cf9b3608ae1df9df19d95217c8ec841868"),
    (np.random.default_rng(0).standard_normal((2, 64, 64)), None,
     "cf13287770dc7dfdbdaab7c7eda278f0f41234fe1f3b19fe3a0bb39522d4d538"),
], ids=["cube-4-3-unit-peak", "normal-64"])
def test_output_bits_are_pinned(stack, noise_seed, digest):
    # digests of each matrix's qr_dsm output, computed one matrix at a time
    # by the scalar Gram-Schmidt this kernel replaced
    assert hashlib.sha256(qr_dsm(stack, noise_seed).tobytes()).hexdigest() == digest


def test_half_peak_restarts_draw_their_noise_at_the_scaled_size():
    # a matrix of the cube whose largest entry is 0.5 is doubled before the
    # sweep, so its restart noise is that of the doubled matrix
    half = CUBE_4_3[~UNIT_PEAK]
    assert qr_dsm(half, 0).tobytes() == qr_dsm(2.0 * half, 0).tobytes()
    assert hashlib.sha256(qr_dsm(CUBE_4_3, 0).tobytes()).hexdigest() == \
        "8f4cb2fedc2fa52c73d29fec279d6d5d68a50237d73c750c2aa889d0cb754709"


@given(st.integers(0, 2**32 - 1), st.integers(2, 7))
@settings(max_examples=30, deadline=None)
def test_q_is_orthogonal_and_squares_to_dsm(seed, n):
    m = np.random.default_rng(seed).standard_normal((n, n))
    q = qr_orthonormalize(m)
    assert np.abs(q.T @ q - np.eye(n)).max() < 1e-10
    p = q * q
    assert_allclose(p.sum(axis=0), np.ones(n), atol=1e-12)
    assert_allclose(p.sum(axis=1), np.ones(n), atol=1e-12)


@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(-40, 500), st.booleans())
@settings(max_examples=40, deadline=None)
def test_power_of_two_scaling_changes_no_output_bit(seed, n, k, deficient):
    # the deficient case draws its restart noise at the scaled matrix's scale
    m = np.random.default_rng(seed).standard_normal((n, n))
    if deficient:
        m = with_zero_column(m, seed % n)
    assert qr_dsm(2.0**k * m, noise_seed=3).matrix.tobytes() == \
        qr_dsm(m, noise_seed=3).matrix.tobytes()
