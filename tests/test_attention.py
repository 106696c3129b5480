import numpy as np
import pytest
from numpy.testing import assert_allclose

from birkhoff_attn import (
    VJP_NORMALIZERS,
    AttentionConfig,
    BirkhoffNormalizer,
    CircuitConfig,
    QontotNormalizer,
    QrNormalizer,
    SinkhornNaive,
    SinkhornOT,
    Softmax,
    NormSoftmax,
    attention_forward,
    exp_scale,
    norm_softmax,
    param_count,
    project,
    qr_dsm,
    sinkhorn_naive,
    sinkhorn_naive_vjp,
    softmax_rows,
    softmax_vjp,
    vjp_check,
)
from birkhoff_attn.operators import SPECS

import oracles


class TestSoftmaxRows:
    def test_rows_sum_to_one(self):
        out = softmax_rows(np.random.default_rng(0).standard_normal((5, 5)))
        assert_allclose(out.sum(axis=1), np.ones(5), atol=1e-12)

    def test_zero_matrix_is_uniform(self):
        assert_allclose(softmax_rows(np.zeros((4, 4))), np.full((4, 4), 0.25), atol=0)

    def test_quarter_three_quarter_row(self):
        out = softmax_rows(np.array([[0.0, np.log(3.0)], [0.0, 0.0]]))
        assert_allclose(out[0], [0.25, 0.75], atol=1e-15)

    def test_huge_scores_stay_finite(self):
        out = softmax_rows(np.array([[1e4, 0.0], [0.0, 1e4]]))
        assert np.all(np.isfinite(out))
        assert_allclose(out.sum(axis=1), np.ones(2))

    def test_temperature_flattens(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert softmax_rows(m, 10.0)[0, 0] < softmax_rows(m, 0.5)[0, 0]

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError, match="tau"):
            softmax_rows(np.eye(2), tau=-1.0)


class TestNormSoftmax:
    def test_unit_std_input_uses_its_own_scale(self):
        m = np.array([[0.0, 2.0], [2.0, 0.0]])  # population std exactly 1
        assert_allclose(norm_softmax(m, tau=5.0), softmax_rows(m, 1.0), atol=0)

    def test_cap_at_tau(self):
        m = np.array([[0.0, 20.0], [20.0, 0.0]])  # std 10, cap at tau=2
        assert_allclose(norm_softmax(m, tau=2.0), softmax_rows(m, 2.0), atol=0)

    def test_variance_power(self):
        m = np.array([[0.0, 4.0], [4.0, 0.0]])  # std 2, variance 4
        assert_allclose(norm_softmax(m, tau=10.0, power=2), softmax_rows(m, 4.0), atol=0)

    def test_constant_input_floors_the_denominator(self):
        out = norm_softmax(np.full((3, 3), 2.0), tau=1.0)
        assert_allclose(out, np.full((3, 3), 1 / 3), atol=1e-12)

    def test_rejects_other_powers(self):
        with pytest.raises(ValueError, match="power"):
            norm_softmax(np.eye(2), power=3)

    @pytest.mark.parametrize("tau", [0.0, -1.0, float("nan")])
    def test_rejects_a_tau_that_is_not_positive(self, tau):
        with pytest.raises(ValueError, match=f"tau must be positive, got {tau}"):
            norm_softmax(np.eye(2), tau=tau)


class TestAttentionForward:
    def test_softmax_output_is_weighted_values(self):
        rng = np.random.default_rng(1)
        qm, km = rng.standard_normal((2, 4, 3))
        vm = rng.standard_normal((4, 2))
        result = attention_forward(qm, km, vm)
        assert_allclose(result["attn"].sum(axis=1), np.ones(4), atol=1e-12)
        assert_allclose(result["output"], result["attn"] @ vm, atol=0)

    def test_default_temperature_is_sqrt_key_width(self):
        rng = np.random.default_rng(2)
        qm, km = rng.standard_normal((2, 4, 9))
        vm = rng.standard_normal((4, 4))
        default = attention_forward(qm, km, vm)
        explicit = attention_forward(qm, km, vm, AttentionConfig(temperature=3.0))
        assert_allclose(default["attn"], explicit["attn"], atol=0)

    def test_zero_queries_average_the_values(self):
        rng = np.random.default_rng(3)
        km = rng.standard_normal((5, 3))
        vm = rng.standard_normal((5, 2))
        result = attention_forward(np.zeros((5, 3)), km, vm)
        assert_allclose(result["attn"], np.full((5, 5), 0.2), atol=1e-15)
        assert_allclose(result["output"], np.tile(vm.mean(axis=0), (5, 1)), atol=1e-12)

    def test_sinkhorn_normalizer_routes_through_exp_scale(self):
        rng = np.random.default_rng(4)
        qm, km = rng.standard_normal((2, 4, 4))
        vm = rng.standard_normal((4, 3))
        config = AttentionConfig(normalizer=SinkhornNaive(iterations=5), temperature=1.5)
        result = attention_forward(qm, km, vm, config)
        want = sinkhorn_naive(exp_scale(qm @ km.T, 1.5), 5)
        assert_allclose(result["attn"], want, atol=0)
        assert_allclose(result["attn"].sum(axis=0), np.ones(4), atol=1e-12)

    def test_ot_and_naive_normalizers_agree(self):
        rng = np.random.default_rng(5)
        qm, km = rng.standard_normal((2, 4, 4))
        vm = rng.standard_normal((4, 3))
        a = attention_forward(qm, km, vm, AttentionConfig(SinkhornNaive(9)))
        b = attention_forward(qm, km, vm, AttentionConfig(SinkhornOT(9)))
        assert_allclose(a["attn"], b["attn"], atol=1e-10)

    def test_qr_normalizer_scales_scores_by_temperature(self):
        rng = np.random.default_rng(6)
        qm, km = rng.standard_normal((2, 4, 4))
        vm = rng.standard_normal((4, 2))
        result = attention_forward(qm, km, vm, AttentionConfig(QrNormalizer(), 2.0))
        assert_allclose(result["attn"], qr_dsm((qm @ km.T) / 2.0).matrix, atol=0)

    def test_birkhoff_normalizer_emits_valid_dsm(self):
        rng = np.random.default_rng(7)
        qm, km = rng.standard_normal((2, 4, 4))
        vm = rng.standard_normal((4, 2))
        result = attention_forward(qm, km, vm, AttentionConfig(BirkhoffNormalizer(), 1.0))
        assert_allclose(result["attn"], project(qm @ km.T).matrix, atol=1e-12)

    def test_qontot_zero_theta_passes_values_through(self):
        c = CircuitConfig(dsm_dim=4, layers=2)
        normalizer = QontotNormalizer(dsm_dim=4, layers=2, theta=np.zeros(param_count(c)))
        rng = np.random.default_rng(8)
        qm, km = rng.standard_normal((2, 4, 4))
        vm = rng.standard_normal((4, 3))
        result = attention_forward(qm, km, vm, AttentionConfig(normalizer))
        assert np.array_equal(result["attn"], np.eye(4))
        assert_allclose(result["output"], vm, atol=0)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="incompatible"):
            attention_forward(np.zeros((4, 3)), np.zeros((4, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError, match="incompatible"):
            attention_forward(np.zeros((4, 3)), np.zeros((4, 3)), np.zeros((5, 2)))
        with pytest.raises(ValueError, match="2-D"):
            attention_forward(np.zeros(4), np.zeros((4, 3)), np.zeros((4, 2)))


class TestSinkhornVjp:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(9)
        for k in (3, 21):
            m = rng.uniform(0.1, 10.0, (6, 6))
            upstream = rng.standard_normal((6, 6))
            got = sinkhorn_naive_vjp(m, k, upstream)
            want = oracles.central_fd_vjp(lambda x: sinkhorn_naive(x, k), m, upstream)
            scale = max(np.abs(want).max(), 1e-12)
            assert np.abs(got - want).max() / scale < 1e-4

    def test_total_mass_functional_has_zero_gradient(self):
        # after the final column pass the total sum is constant n, so the
        # all-ones upstream pulls back to (numerically) nothing
        m = np.random.default_rng(10).uniform(0.5, 2.0, (5, 5))
        g = sinkhorn_naive_vjp(m, 7, np.ones((5, 5)))
        assert np.abs(g).max() < 1e-12

    def test_exact_column_marginal_has_zero_gradient(self):
        # each column sums to exactly one, so a single column of ones is a
        # constant functional too
        m = np.random.default_rng(11).uniform(0.5, 2.0, (5, 5))
        upstream = np.zeros((5, 5))
        upstream[:, 2] = 1.0
        assert np.abs(sinkhorn_naive_vjp(m, 5, upstream)).max() < 1e-12

    def test_linear_in_upstream(self):
        rng = np.random.default_rng(12)
        m = rng.uniform(0.5, 2.0, (4, 4))
        u1, u2 = rng.standard_normal((2, 4, 4))
        lhs = sinkhorn_naive_vjp(m, 3, 2.0 * u1 + u2)
        rhs = 2.0 * sinkhorn_naive_vjp(m, 3, u1) + sinkhorn_naive_vjp(m, 3, u2)
        assert_allclose(lhs, rhs, atol=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="odd"):
            sinkhorn_naive_vjp(np.ones((2, 2)), 2, np.ones((2, 2)))
        with pytest.raises(ValueError, match="positive"):
            sinkhorn_naive_vjp(np.zeros((2, 2)), 3, np.ones((2, 2)))
        with pytest.raises(ValueError, match="shape"):
            sinkhorn_naive_vjp(np.ones((2, 2)), 3, np.ones((3, 3)))


class TestSoftmaxVjp:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((6, 6))
        upstream = rng.standard_normal((6, 6))
        for tau in (0.7, 1.0, 3.0):
            got = softmax_vjp(m, tau, upstream)
            want = oracles.central_fd_vjp(lambda x: softmax_rows(x, tau), m, upstream)
            scale = max(np.abs(want).max(), 1e-12)
            assert np.abs(got - want).max() / scale < 1e-6

    def test_row_sum_functional_has_zero_gradient(self):
        m = np.random.default_rng(14).standard_normal((4, 4))
        assert np.abs(softmax_vjp(m, 1.0, np.ones((4, 4)))).max() < 1e-14

    def test_closed_form_on_two_by_two(self):
        # single-row case y = (y1, y2): J = diag(y) - y y^T, scaled by 1/tau
        m = np.array([[0.3, -0.1], [0.0, 0.0]])
        upstream = np.array([[1.0, 0.0], [0.0, 0.0]])
        y = softmax_rows(m, 2.0)
        want_row0 = (y[0] * (upstream[0] - y[0] @ upstream[0])) / 2.0
        got = softmax_vjp(m, 2.0, upstream)
        assert_allclose(got[0], want_row0, atol=1e-15)
        assert_allclose(got[1], np.zeros(2), atol=1e-15)

    def test_upstream_of_another_shape_is_rejected(self):
        with pytest.raises(ValueError, match="upstream must match m in shape"):
            softmax_vjp(np.zeros((2, 2)), 1.0, np.zeros((3, 3)))


class TestVjpCheck:
    @pytest.mark.parametrize("op", [SinkhornNaive(3), Softmax(0.7)], ids=VJP_NORMALIZERS)
    def test_each_vjp_agrees_with_finite_differences(self, op):
        error = vjp_check(op, n=4, trials=2, seed=0)
        assert 0.0 < error < 1e-4
        # a Generator seeds the same draws as its integer seed
        assert vjp_check(op, n=4, trials=2, seed=np.random.default_rng(0)) == error

    def test_the_vjp_specs_are_read_from_the_spec_table(self):
        assert VJP_NORMALIZERS == ("sinkhorn-naive", "softmax")
        assert VJP_NORMALIZERS == tuple(name for name, spec in SPECS.items()
                                        if hasattr(spec, "vjp"))

    def test_vjp_uses_the_specs_own_setting(self):
        rng = np.random.default_rng(4)
        m, upstream = rng.uniform(0.1, 10.0, (5, 5)), rng.standard_normal((5, 5))
        assert np.array_equal(SinkhornNaive(7).vjp(m, upstream),
                              sinkhorn_naive_vjp(m, 7, upstream))
        assert np.array_equal(Softmax(0.3).vjp(m, upstream), softmax_vjp(m, 0.3, upstream))

    def test_normalizer_without_a_vjp_is_rejected(self):
        with pytest.raises(ValueError, match="no VJP for 'qr'"):
            vjp_check(QrNormalizer(), n=2, trials=1, seed=0)

    @pytest.mark.parametrize("n, trials, message", [
        (2, -1, "trials must be >= 0, got -1"),
        (0, 1, "n must be >= 1, got 0"),
        (-3, 1, "n must be >= 1, got -3"),
    ])
    def test_sizes_are_checked_before_any_draw(self, n, trials, message):
        # trials=-1 returned 0.0, a pass that checked nothing, and n=0 failed inside numpy
        with pytest.raises(ValueError, match=message):
            vjp_check(Softmax(), n=n, trials=trials, seed=0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32])
    @pytest.mark.parametrize("name, setting", [
        *(("sinkhorn-naive", k) for k in (1, 3, 21)),
        *(("softmax", tau) for tau in (0.3, 1.0, 7.0)),
    ])
    def test_matches_the_per_entry_central_difference_to_the_bit(self, name, setting, n):
        # vjp_check steps a row of entries per stacked forward call; its error
        # must be the one of stepping each entry through its own call
        if name == "sinkhorn-naive":
            op = SinkhornNaive(setting)
            fwd = lambda x: sinkhorn_naive(x, setting)
            vjp = lambda m, g: sinkhorn_naive_vjp(m, setting, g)
        else:
            op = Softmax(setting)
            fwd = lambda x: softmax_rows(x, setting)
            vjp = lambda m, g: softmax_vjp(m, setting, g)
        rng = np.random.default_rng(n)
        worst = 0.0
        for _ in range(2):
            m = rng.uniform(0.1, 10.0, (n, n))
            upstream = rng.standard_normal((n, n))
            fd = oracles.central_fd_vjp(fwd, m, upstream)
            scale = max(float(np.abs(fd).max()), 1e-12)
            worst = max(worst, float(np.abs(vjp(m, upstream) - fd).max()) / scale)
        assert vjp_check(op, n=n, trials=2, seed=n) == worst


def test_attention_module_still_binds_softmax_rows():
    # perfbench's attention.softmax_rows span finds the kernel under this module's name,
    # and reads 0 without error when the name is gone
    import birkhoff_attn.attention

    assert birkhoff_attn.attention.softmax_rows is softmax_rows


def test_normalizer_defaults():
    assert SinkhornNaive().iterations == 21
    assert SinkhornOT().iterations == 21
    assert NormSoftmax().power == 1
    assert QrNormalizer().noise_seed is None
    assert AttentionConfig().temperature is None
    assert isinstance(AttentionConfig().normalizer, Softmax)


@pytest.mark.parametrize("normalizer, temperature, message", [
    (Softmax(), 0.0, "tau must be positive"),
    (Softmax(), -1.0, "tau must be positive"),
    (SinkhornNaive(), -2.0, "tau must be positive"),
    (SinkhornOT(), 0.0, "tau must be positive"),
    (NormSoftmax(), 0.0, "tau must be positive"),
    (NormSoftmax(), -1.0, "tau must be positive"),
    (BirkhoffNormalizer(), 0.0, "temperature must be a nonzero number"),
    (QrNormalizer(), float("nan"), "temperature must be a nonzero number"),
])
def test_config_rejects_a_temperature_its_normalizer_cannot_take(normalizer, temperature,
                                                                 message):
    with pytest.raises(ValueError, match=message):
        AttentionConfig(normalizer, temperature)


def test_doubly_stochastic_normalizers_take_a_negative_temperature():
    for normalizer in (BirkhoffNormalizer(), QrNormalizer()):
        assert AttentionConfig(normalizer, -1.0).temperature == -1.0
