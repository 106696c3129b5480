import pickle
import re
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

from birkhoff_attn import (
    AttentionConfig,
    CircuitConfig,
    OPERATOR_NAMES,
    attention_forward,
    exp_scale,
    make_operator,
    norm_softmax,
    param_count,
    qontot_theta,
    qr_orthonormalize,
    sinkhorn_naive,
    softmax_rows,
)

# the settings each operator needs beyond its defaults, for 4x4 inputs
SETTINGS = {
    "qontot": {"dsm_dim": 4, "theta_seed": 0},
    "qr": {"noise_seed": 1},
}


class TestMakeOperator:
    def test_every_listed_name_builds(self):
        for name in OPERATOR_NAMES:
            op = make_operator(name, **SETTINGS.get(name, {}))
            assert op.name == name
            assert callable(op)

    def test_positivity_flags(self):
        assert make_operator("sinkhorn-naive").needs_positive
        assert make_operator("sinkhorn-ot").needs_positive
        assert not make_operator("softmax").needs_positive
        assert not make_operator("qr").needs_positive

    def test_sinkhorn_iterations_are_applied(self):
        m = np.random.default_rng(0).uniform(0.5, 2.0, (3, 3))
        op = make_operator("sinkhorn-naive", iterations=3)
        assert_allclose(op(m), sinkhorn_naive(m, 3), atol=0)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown operator"):
            make_operator("softermax")

    def test_extra_settings_rejected(self):
        with pytest.raises(ValueError, match="unexpected settings"):
            make_operator("softmax", tau=1.0, beta=2.0)
        with pytest.raises(ValueError, match="unexpected settings"):
            make_operator("qr", seed=3)  # the knob is called noise_seed
        # the projection has one route, so no setting chooses it
        with pytest.raises(ValueError, match=re.escape(
                "unexpected settings for operator 'birkhoff-project': ['method']")):
            make_operator("birkhoff-project", method="dykstra")

    def test_qr_rejects_a_negative_seed_when_built(self):
        with pytest.raises(ValueError, match="noise_seed must be >= 0, got -1"):
            make_operator("qr", noise_seed=-1)
        assert make_operator("qr", noise_seed=0).noise_seed == 0

    def test_qontot_requires_dsm_dim(self):
        with pytest.raises(TypeError, match="dsm_dim"):
            make_operator("qontot", theta_seed=0)

    def test_qontot_fields_are_its_settings(self):
        op = make_operator("qontot", dsm_dim=4, aux_qubits=1, layers=2, ansatz="trotter",
                           theta_seed=3)
        assert [f.name for f in fields(op) if f.init] == [
            "dsm_dim", "aux_qubits", "layers", "ansatz", "theta", "theta_seed"]
        assert op.config == CircuitConfig(dsm_dim=4, aux_qubits=1, layers=2, ansatz="trotter")
        assert np.array_equal(op.theta, qontot_theta(op.config, 3))
        with pytest.raises(ValueError, match=r"unexpected settings .*\['config'\]"):
            make_operator("qontot", dsm_dim=4, theta_seed=0, config=op.config)
        with pytest.raises(ValueError, match="theta or a theta_seed"):
            make_operator("qontot", dsm_dim=4)

    def test_qontot_explicit_theta_wins_over_seed(self):
        theta = np.zeros(param_count(CircuitConfig(dsm_dim=4)))
        op = make_operator("qontot", dsm_dim=4, theta=theta, theta_seed=99)
        assert np.array_equal(op(np.random.default_rng(1).standard_normal((4, 4))),
                              np.eye(4))

    def test_qontot_theta_length_is_checked_at_construction(self):
        with pytest.raises(ValueError, match="theta has 3 values, config needs 4"):
            make_operator("qontot", dsm_dim=4, theta=np.zeros(3))
        with pytest.raises(ValueError, match="flat vector"):
            make_operator("qontot", dsm_dim=4, theta=np.zeros((2, 2)))

    @pytest.mark.parametrize("name, settings, message", [
        ("softmax", {"tau": 0.0}, "tau must be positive, got 0.0"),
        ("softmax", {"tau": -1.0}, "tau must be positive, got -1.0"),
        ("norm-softmax", {"power": 3}, r"power must be 1 \(std\) or 2 \(variance\), got 3"),
        ("norm-softmax", {"tau": -1.0}, "tau must be positive, got -1.0"),
        ("norm-softmax", {"tau": float("nan")}, "tau must be positive, got nan"),
        ("sinkhorn-naive", {"iterations": 4}, "iteration count must be odd and >= 1, got 4"),
        ("sinkhorn-ot", {"iterations": 0}, "iteration count must be odd and >= 1, got 0"),
    ])
    def test_settings_are_checked_at_construction(self, name, settings, message):
        # with the kernel's own message, before any matrix is seen
        with pytest.raises(ValueError, match=message):
            make_operator(name, **settings)


@pytest.mark.parametrize("name", OPERATOR_NAMES)
class TestSpec:
    def test_pickle_round_trip_gives_the_same_output(self, name):
        op = make_operator(name, **SETTINGS.get(name, {}))
        clone = pickle.loads(pickle.dumps(op))
        assert type(clone) is type(op)
        m = np.random.default_rng(3).uniform(0.1, 2.0, (4, 4))
        assert np.array_equal(clone(m), op(m))

    def test_attention_applies_the_temperature_rule(self, name):
        rng = np.random.default_rng(4)
        qm, km = rng.standard_normal((2, 4, 3))
        vm = rng.standard_normal((4, 2))
        op = make_operator(name, **SETTINGS.get(name, {}))
        result = attention_forward(qm, km, vm, AttentionConfig(op, temperature=1.5))
        scores = qm @ km.T
        if op.needs_positive:
            want = op(exp_scale(scores, 1.5))
        elif name in ("softmax", "norm-softmax"):
            want = make_operator(name, tau=1.5)(scores)
        else:
            want = op(scores / 1.5)
        assert np.array_equal(result["attn"], want)
        assert np.array_equal(result["output"], want @ vm)


    @pytest.mark.parametrize("batch", [1, 2, 7, 512])
    def test_batch_matches_each_call(self, name, batch):
        op = make_operator(name, **SETTINGS.get(name, {}))
        stack = np.random.default_rng(batch).uniform(0.1, 2.0, (batch, 4, 4))
        out = op(stack)
        assert out.shape == stack.shape and out.dtype == np.float64
        for i, m in enumerate(stack):
            assert out[i].tobytes() == op(m).tobytes()


class TestBatch:
    @pytest.mark.parametrize("n", [1, 2, 4, 16])
    @pytest.mark.parametrize("batch", [1, 2, 7, 512])
    def test_softmax_kernels_stack(self, batch, n):
        rng = np.random.default_rng([batch, n])
        for stack in (rng.integers(0, 2, (batch, n, n)).astype(np.float64),
                      3.0 * rng.standard_normal((batch, n, n))):
            kernels = (lambda m: softmax_rows(m, 0.7), lambda m: norm_softmax(m, 0.7, 1),
                       lambda m: norm_softmax(m, 5.0, 2))
            for kernel in kernels:
                out = kernel(stack)
                for i, m in enumerate(stack):
                    assert out[i].tobytes() == kernel(m).tobytes()

    def test_norm_softmax_temperature_is_the_python_float_rule(self):
        # the temperature is max(min(std ** power, tau), 1e-6) in Python floats;
        # libm's pow rounds some squares one ulp away from numpy's
        stack = np.random.default_rng(6).standard_normal((5000, 8, 8))
        for power, tau in ((1, 0.8), (2, 5.0)):
            out = norm_softmax(stack, tau, power)
            for i, m in enumerate(stack):
                want = softmax_rows(m, max(min(float(m.std()) ** power, tau), 1e-6))
                assert out[i].tobytes() == want.tobytes()


LAYOUT_SUBJECTS = (*OPERATOR_NAMES, "qr_orthonormalize")


def layout_subject(label: str, n: int):
    """Operator ``label``'s spec for n x n inputs, or the QR kernel."""
    if label == "qr_orthonormalize":
        return qr_orthonormalize
    return make_operator(label, **({"dsm_dim": n, "theta_seed": 0} if label == "qontot"
                                   else SETTINGS.get(label, {})))


def layouts(c: np.ndarray):
    """``c`` (C-ordered), its Fortran-ordered copy and a non-contiguous view, all equal."""
    wide = np.zeros(c.shape[:-1] + (2 * c.shape[-1],))
    wide[..., ::2] = c
    view = wide[..., ::2]
    assert not view.flags.c_contiguous and np.array_equal(view, c)
    return c, np.asfortranarray(c), view


@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("shape", [(), (3,)], ids=["alone", "stack"])
@pytest.mark.parametrize("label", LAYOUT_SUBJECTS)
def test_output_bytes_depend_on_the_values_alone(label, shape, n):
    subject = layout_subject(label, n)
    rng = np.random.default_rng(n)
    c = (rng.uniform(0.1, 10.0, (*shape, n, n)) if getattr(subject, "needs_positive", False)
         else rng.standard_normal((*shape, n, n)))
    want, *others = (np.asarray(subject(m)).tobytes() for m in layouts(c))
    assert others == [want, want]


class TestQontotTheta:
    def test_deterministic_and_bounded(self):
        config = CircuitConfig(dsm_dim=8, layers=3)
        a = qontot_theta(config, 7)
        assert np.array_equal(a, qontot_theta(config, 7))
        assert a.shape == (param_count(config),)
        assert np.all((a >= -1.0) & (a <= 1.0))

    def test_seed_changes_draw(self):
        config = CircuitConfig(dsm_dim=4)
        assert not np.array_equal(qontot_theta(config, 0), qontot_theta(config, 1))
