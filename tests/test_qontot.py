import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from birkhoff_attn import qontot
from birkhoff_attn import (
    CircuitConfig,
    GridSpec,
    as_dsm,
    bench_circuit,
    build_block,
    frobenius_distance,
    inject,
    make_operator,
    param_count,
    sample_shots,
    simulate_dsm,
    uniqueness_sweep,
)
from birkhoff_attn.expressivity import grid_matrices

import oracles


def random_config(rng, max_total=6):
    ansatz = rng.choice(["simple", "trotter"])
    dsm_dim = int(rng.choice([2, 4, 8]))
    data = dsm_dim.bit_length() - 1
    aux = int(rng.integers(0, max_total - data + 1))
    layers = int(rng.integers(1, 4))
    return CircuitConfig(dsm_dim=dsm_dim, aux_qubits=aux, layers=layers, ansatz=str(ansatz))


class TestConfig:
    def test_basic_properties(self):
        c = CircuitConfig(dsm_dim=8, aux_qubits=2, layers=3)
        assert c.data_qubits == 3
        assert c.total_qubits == 5
        assert c.aux_dim == 4

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            CircuitConfig(dsm_dim=6)
        with pytest.raises(ValueError, match="power of two"):
            CircuitConfig(dsm_dim=1)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="aux_qubits"):
            CircuitConfig(dsm_dim=4, aux_qubits=-1)
        with pytest.raises(ValueError, match="layers"):
            CircuitConfig(dsm_dim=4, layers=0)
        with pytest.raises(ValueError, match=r"layers must be in \[1, 1024\], got 1025"):
            CircuitConfig(dsm_dim=4, layers=1025)
        assert CircuitConfig(dsm_dim=4, layers=1024).layers == 1024
        with pytest.raises(ValueError, match="ansatz"):
            CircuitConfig(dsm_dim=4, ansatz="deep")

    def test_register_size_limit(self):
        with pytest.raises(ValueError, match="exceed"):
            CircuitConfig(dsm_dim=4, aux_qubits=23)


class TestParamCount:
    @pytest.mark.parametrize(
        "dsm_dim,aux,layers,ansatz,want",
        [
            (4, 0, 1, "simple", 4),    # q=2: one pair in the even layer
            (4, 0, 2, "simple", 4),    # odd layer has no interior pair at q=2
            (8, 0, 2, "simple", 8),    # q=3: one block per layer either parity
            (8, 1, 2, "simple", 12),   # q=4: two even-layer blocks, one odd
            (2, 0, 1, "simple", 4),    # q=1 carve-out still consumes a block
            (2, 0, 4, "simple", 8),    # only even layers act: ceil(4/2) blocks
            (4, 0, 1, "trotter", 3),   # 2q-1 with q=2
            (8, 2, 3, "trotter", 27),  # 3 layers x (2*5-1)
        ],
    )
    def test_counts(self, dsm_dim, aux, layers, ansatz, want):
        c = CircuitConfig(dsm_dim=dsm_dim, aux_qubits=aux, layers=layers, ansatz=ansatz)
        assert param_count(c) == want


class TestInject:
    def test_cycles_matrix_entries(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert_allclose(inject(np.ones(6), m), [1.0, 2.0, 3.0, 4.0, 1.0, 2.0])

    def test_short_theta_uses_prefix(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert_allclose(inject(np.array([2.0, 0.5]), m), [2.0, 1.0])

    def test_rejects_matrix_theta(self):
        with pytest.raises(ValueError, match="flat"):
            inject(np.ones((2, 2)), np.eye(2))

    def test_stack_gives_one_row_per_matrix(self):
        stack = np.random.default_rng(0).standard_normal((3, 2, 2))
        theta = np.linspace(-1.0, 1.0, 7)
        got = inject(theta, stack)
        assert got.shape == (3, 7)
        for row, m in zip(got, stack):
            assert row.tobytes() == inject(theta, m).tobytes()


class TestBuildBlock:
    def test_identity_at_zero(self):
        assert np.array_equal(build_block(np.zeros(4)), np.eye(4, dtype=np.complex128))

    def test_first_factor_acts_on_high_bit(self):
        got = build_block([np.pi, 0.0, 0.0, 0.0])
        assert_allclose(got, np.kron(oracles.ry(np.pi), np.eye(2)), atol=1e-15)

    def test_entangler_is_controlled_phase(self):
        got = build_block([0.0, 0.0, 1.3, 0.0])
        want = np.diag([1.0, 1.0, np.exp(-0.65j), np.exp(0.65j)])
        assert_allclose(got, want, atol=1e-15)

    def test_unitary_for_random_angles(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            b = build_block(rng.uniform(-np.pi, np.pi, 4))
            assert_allclose(b @ b.conj().T, np.eye(4), atol=1e-14)

    def test_stack_of_angles_gives_each_block(self):
        alphas = np.random.default_rng(1).uniform(-np.pi, np.pi, (5, 4))
        blocks = build_block(alphas)
        assert blocks.shape == (5, 4, 4)
        for block, alpha in zip(blocks, alphas):
            assert_allclose(block, oracles.two_qubit_block(*alpha), atol=1e-15)


class TestSimulateDsm:
    def test_zero_theta_gives_exact_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(8):
            c = random_config(rng)
            theta = np.zeros(param_count(c))
            m = rng.standard_normal((c.dsm_dim, c.dsm_dim))
            out = simulate_dsm(c, theta, m).matrix
            assert np.array_equal(out, np.eye(c.dsm_dim))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        configs = [random_config(rng) for _ in range(12)] + [
            CircuitConfig(dsm_dim=2, layers=3),  # the one-qubit simple carve-out
            CircuitConfig(dsm_dim=2, aux_qubits=2, layers=3),
            CircuitConfig(dsm_dim=4, aux_qubits=3, layers=2, ansatz="trotter"),
        ]
        for c in configs:
            theta = rng.uniform(-2.0, 2.0, param_count(c))
            stack = rng.standard_normal((3, c.dsm_dim, c.dsm_dim))
            got = simulate_dsm(c, theta, stack)
            for out, m in zip(got, stack):
                want = oracles.dense_dsm(c.dsm_dim, c.aux_qubits, c.layers, c.ansatz, theta, m)
                assert np.abs(out - want).max() < 1e-12

    def test_single_qubit_uniform_example(self):
        # angles (pi/2, 0, 0, 0) reduce to one RY(pi/2), whose squared
        # magnitudes are all one half
        c = CircuitConfig(dsm_dim=2, layers=1)
        out = simulate_dsm(c, np.array([np.pi / 2, 0.0, 0.0, 0.0]), np.ones((2, 2)))
        assert_allclose(out.matrix, np.full((2, 2), 0.5), atol=1e-15)

    def test_output_is_valid_dsm_with_aux(self):
        c = CircuitConfig(dsm_dim=4, aux_qubits=2, layers=2)
        rng = np.random.default_rng(3)
        d = simulate_dsm(c, rng.uniform(-1, 1, param_count(c)), rng.standard_normal((4, 4)))
        assert d.report.max_row_deviation < 1e-9
        assert d.report.max_col_deviation < 1e-9

    def test_reachable_range_grows_with_depth(self):
        # mean per-cell spread over random theta draws; deeper circuits reach
        # more of the polytope, and for q=2 the odd (offset) layer pairs
        # nothing, so L=1 and L=2 tie exactly
        m = np.ones((4, 4))
        means = []
        for layers in (1, 2, 4, 8):
            c = CircuitConfig(dsm_dim=4, layers=layers, ansatz="simple")
            rng = np.random.default_rng(99)
            outs = np.stack([
                simulate_dsm(c, rng.uniform(-1, 1, param_count(c)), m).matrix
                for _ in range(300)
            ])
            means.append(float((outs.max(axis=0) - outs.min(axis=0)).mean()))
        assert all(a <= b for a, b in zip(means, means[1:]))
        assert means[-1] > means[0]
        assert means[0] == means[1]

    def test_rejects_wrong_theta_length(self):
        c = CircuitConfig(dsm_dim=4)
        with pytest.raises(ValueError, match="length"):
            simulate_dsm(c, np.zeros(3), np.eye(4))

    def test_rejects_wrong_matrix_size(self):
        c = CircuitConfig(dsm_dim=4)
        with pytest.raises(ValueError, match="dsm_dim"):
            simulate_dsm(c, np.zeros(param_count(c)), np.eye(8))


class TestStack:
    @pytest.mark.parametrize("aux", [0, 2])
    @pytest.mark.parametrize("ansatz", ["simple", "trotter"])
    @pytest.mark.parametrize("batch", [1, 2, 7, 512])
    def test_stack_matches_each_matrix_alone(self, batch, ansatz, aux):
        op = make_operator("qontot", dsm_dim=4, aux_qubits=aux, layers=3, ansatz=ansatz,
                           theta_seed=0)
        stack = np.random.default_rng(batch).uniform(-2.0, 2.0, (batch, 4, 4))
        out = op(stack)
        assert out.shape == stack.shape and out.dtype == np.float64
        for i, m in enumerate(stack):
            assert out[i].tobytes() == op(m).tobytes()

    def test_stack_returns_an_array_and_one_matrix_a_dsm(self):
        c = CircuitConfig(dsm_dim=4, layers=2)
        theta = np.random.default_rng(3).uniform(-1.0, 1.0, param_count(c))
        stack = np.random.default_rng(4).standard_normal((2, 4, 4))
        assert isinstance(simulate_dsm(c, theta, stack), np.ndarray)
        assert simulate_dsm(c, theta, stack[0]).matrix.tobytes() == \
            simulate_dsm(c, theta, stack)[0].tobytes()
        assert simulate_dsm(c, theta, stack[:0]).shape == (0, 4, 4)

    def test_sweep_is_the_same_for_one_and_two_workers(self):
        # 1,100 inputs: two full 512-input chunks and a partial one
        op = make_operator("qontot", dsm_dim=4, aux_qubits=2, layers=2, ansatz="trotter",
                           theta_seed=0)
        spec = GridSpec(n=4, d=2)
        base = uniqueness_sweep(spec, op, stop=1100, workers=1)
        assert base == uniqueness_sweep(spec, op, stop=1100, workers=2)

    def test_small_budget_splits_columns_and_inputs_alike(self, monkeypatch):
        # 32 amplitudes: blocks of 2 columns, narrower than the 4 output
        # columns, and one input per pass
        monkeypatch.setattr(qontot, "_AMPLITUDE_BUDGET", 32)
        c = CircuitConfig(dsm_dim=4, aux_qubits=2, layers=2, ansatz="trotter")
        assert qontot._block_shape(c) == (2, 1)
        rng = np.random.default_rng(8)
        theta = rng.uniform(-2.0, 2.0, param_count(c))
        stack = rng.standard_normal((7, 4, 4))
        for out, m in zip(simulate_dsm(c, theta, stack), stack):
            assert out.tobytes() == simulate_dsm(c, theta, m).matrix.tobytes()
            assert np.abs(out - oracles.dense_dsm(4, 2, 2, "trotter", theta, m)).max() < 1e-12

    def test_a_pass_stays_within_the_amplitude_budget(self):
        # the block shape follows from the config alone; nothing is simulated
        for qubits in range(1, qontot._MAX_QUBITS + 1):
            width, per_pass = qontot._block_shape(CircuitConfig(dsm_dim=2,
                                                                aux_qubits=qubits - 1))
            dim = 1 << qubits
            assert 1 <= width <= dim and dim % width == 0 and per_pass >= 1
            if dim <= qontot._AMPLITUDE_BUDGET:
                assert per_pass * width * dim <= qontot._AMPLITUDE_BUDGET
            else:  # one column of one input: 2^q amplitudes
                assert (width, per_pass) == (1, 1)


class TestTrotter:
    """The fused trotter kernel: merged X half-steps, each layer's X rotations as
    one gate per group of qubits, and one phase pass per layer."""

    @pytest.mark.parametrize("dsm_dim, aux, layers, batch", [
        (2, 0, 1, 3),  # q = 1: no ZZ coefficients
        (2, 0, 3, 3),
        (4, 0, 1, 3),  # one layer: no merged half-step
        (4, 3, 2, 3),  # q = 5: one group of five
        (8, 1, 1, 3),
        (2, 4, 5, 3),
        (8, 4, 2, 3),  # q = 7: uneven groups of four and three
        (4, 7, 4, 1),  # q = 9: groups of five and four, the benchmark's circuit
    ])
    def test_matches_dense_oracle(self, dsm_dim, aux, layers, batch):
        c = CircuitConfig(dsm_dim=dsm_dim, aux_qubits=aux, layers=layers, ansatz="trotter")
        rng = np.random.default_rng(dsm_dim + 10 * aux + 100 * layers)
        theta = rng.uniform(-2.0, 2.0, param_count(c))
        stack = rng.standard_normal((batch, dsm_dim, dsm_dim))
        for out, m in zip(simulate_dsm(c, theta, stack), stack):
            want = oracles.dense_dsm(dsm_dim, aux, layers, "trotter", theta, m)
            assert np.abs(out - want).max() < 1e-12

    @pytest.mark.parametrize("dsm_dim, aux, layers", [(2, 0, 3), (4, 0, 1), (2, 4, 5)])
    def test_matches_dense_oracle_in_split_blocks(self, monkeypatch, dsm_dim, aux, layers):
        # 8 amplitudes: the five inputs go through in several passes, and above
        # one qubit each input's columns in several blocks
        monkeypatch.setattr(qontot, "_AMPLITUDE_BUDGET", 8)
        c = CircuitConfig(dsm_dim=dsm_dim, aux_qubits=aux, layers=layers, ansatz="trotter")
        width, per_pass = qontot._block_shape(c)
        assert per_pass < 5 and (width < 1 << c.total_qubits or c.total_qubits == 1)
        rng = np.random.default_rng(layers)
        theta = rng.uniform(-2.0, 2.0, param_count(c))
        stack = rng.standard_normal((5, dsm_dim, dsm_dim))
        for out, m in zip(simulate_dsm(c, theta, stack), stack):
            want = oracles.dense_dsm(dsm_dim, aux, layers, "trotter", theta, m)
            assert np.abs(out - want).max() < 1e-12

    @pytest.mark.parametrize("q, groups", [
        (1, [(0, 1)]), (2, [(0, 1), (1, 1)]), (3, [(0, 3)]), (5, [(0, 5)]),
        (6, [(0, 3), (3, 3)]), (7, [(0, 4), (4, 3)]), (9, [(0, 5), (5, 4)]),
        (11, [(0, 4), (4, 4), (8, 3)]), (24, [(0, 5), (5, 5), (10, 5), (15, 5), (20, 4)]),
    ])
    def test_x_groups_are_contiguous_and_as_even_as_possible(self, q, groups):
        assert qontot._x_groups(q) == groups

    @pytest.mark.parametrize("dsm_dim, aux, layers", [
        (2, 0, 1),  # one qubit: one 2x2 pass per layer
        (4, 0, 8),  # two qubits: per-qubit 2x2 passes
        (4, 1, 2),  # three qubits: one 8x8 gate
        (4, 4, 3),  # six: two 8x8 gates
        (4, 7, 4),  # nine: a 32x32 and a 16x16 gate
    ])
    def test_x_passes_per_block(self, monkeypatch, dsm_dim, aux, layers):
        # (L + 1) X passes per group and block of states, against 2 * L * q
        # unfused; a group of more than two qubits is one matrix product
        calls = {"apply": 0, "matmul": 0, "run": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(qontot, f"_{name}", counted(name, getattr(qontot, f"_{name}")))
        c = CircuitConfig(dsm_dim=dsm_dim, aux_qubits=aux, layers=layers, ansatz="trotter")
        theta = np.random.default_rng(0).uniform(-1.0, 1.0, param_count(c))
        simulate_dsm(c, theta, np.ones((3, dsm_dim, dsm_dim)))
        width, per_pass = qontot._block_shape(c)
        blocks = -(-3 // per_pass) * ((1 << c.total_qubits) // width)
        passes = blocks * (layers + 1) * len(qontot._x_groups(c.total_qubits))
        fused = c.total_qubits > 2
        assert calls == {"run": blocks, "matmul": passes if fused else 0,
                         "apply": 0 if fused else passes}


# digests of the outputs on the first 512 inputs of the n=4, d=3 cube: simple
# since the batched kernel was written; trotter on two qubits since its X
# half-steps were merged and its ZZ phases folded into one diagonal, and on
# four since each layer's X rotations became one 16x16 gate; all are tied to
# the dense oracle too
PINNED = [
    ({"aux_qubits": 0, "layers": 8, "ansatz": "trotter"},
     "4387a23630216c9dae30568c6fc4c211f2195776a7b509cd40beefc80893b958"),
    ({"aux_qubits": 2, "layers": 8, "ansatz": "trotter"},
     "c7438b9bdb387f77ff00cdf52c79f1736db9919fc19e4b5c8b2f530bbcf12ac7"),
    ({"aux_qubits": 2, "layers": 3, "ansatz": "simple"},
     "a64b5ca83127262be448b6d5969354c9a7cd0e37033950f7f6784456ad7e778a"),
]
WIDE = CircuitConfig(dsm_dim=4, aux_qubits=7, layers=4, ansatz="trotter")  # the benchmark's circuit


def pinned_operator(kw: dict):
    return make_operator("qontot", dsm_dim=4, theta_seed=0, **kw)


def pinned_inputs() -> np.ndarray:
    return grid_matrices(GridSpec(n=4, d=3), 0, 512)


def output_digests() -> list[str]:
    """sha256 of each pinned output and of one output of the 9-qubit circuit."""
    rng = np.random.default_rng(5)
    wide = simulate_dsm(WIDE, rng.uniform(-1.0, 1.0, param_count(WIDE)),
                        rng.standard_normal((4, 4)))
    outs = [pinned_operator(kw)(pinned_inputs()) for kw, _ in PINNED] + [wide.matrix]
    return [hashlib.sha256(out.tobytes()).hexdigest() for out in outs]


@pytest.mark.parametrize("kw, digest", PINNED, ids=["trotter-aux0", "trotter-aux2", "simple-aux2"])
def test_output_bits_are_pinned(kw, digest):
    op = pinned_operator(kw)
    inputs = pinned_inputs()
    out = op(inputs)
    assert hashlib.sha256(out.tobytes()).hexdigest() == digest
    c = op.config
    for got, m in zip(out, inputs):
        want = oracles.dense_dsm(c.dsm_dim, c.aux_qubits, c.layers, c.ansatz, op.theta, m)
        assert np.abs(got - want).max() < 1e-13


@pytest.mark.parametrize("threads", ["1", "2"])
def test_outputs_do_not_depend_on_the_blas_thread_count(threads):
    # the fused X gates go through BLAS matrix products: a fresh interpreter
    # with its BLAS held to ``threads`` threads gives this process's bytes
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "tests")]))
    run = subprocess.run(
        [sys.executable, "-c", "import test_qontot; print(*test_qontot.output_digests())"],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    assert run.stdout.split() == output_digests()


class TestSampleShots:
    def test_identity_circuit_sampled_exactly(self):
        c = CircuitConfig(dsm_dim=4, layers=2)
        out = sample_shots(c, np.zeros(param_count(c)), np.eye(4), shots=400, seed=0)
        assert np.array_equal(out, np.eye(4))

    def test_columns_sum_to_one(self):
        c = CircuitConfig(dsm_dim=4, layers=1)
        rng = np.random.default_rng(5)
        theta = rng.uniform(-1, 1, param_count(c))
        out = sample_shots(c, theta, rng.standard_normal((4, 4)), shots=1000, seed=1)
        assert_allclose(out.sum(axis=0), np.ones(4), atol=1e-12)

    def test_deterministic_per_seed(self):
        c = CircuitConfig(dsm_dim=4, layers=1)
        rng = np.random.default_rng(6)
        theta = rng.uniform(-1, 1, param_count(c))
        m = rng.standard_normal((4, 4))
        a = sample_shots(c, theta, m, shots=500, seed=9)
        assert np.array_equal(a, sample_shots(c, theta, m, shots=500, seed=9))
        assert not np.array_equal(a, sample_shots(c, theta, m, shots=500, seed=10))

    def test_error_shrinks_with_shot_count(self):
        c = CircuitConfig(dsm_dim=4, layers=2)
        rng = np.random.default_rng(7)
        theta = rng.uniform(-1, 1, param_count(c))
        m = rng.standard_normal((4, 4))
        exact = simulate_dsm(c, theta, m).matrix
        errs = {
            shots: np.median([
                frobenius_distance(sample_shots(c, theta, m, shots, seed), exact)
                for seed in range(20)
            ])
            for shots in (100, 10_000)
        }
        # 100x the shots should cut the sampling error by about 10x
        assert errs[10_000] < 0.35 * errs[100]

    def test_requires_enough_shots(self):
        c = CircuitConfig(dsm_dim=8)
        with pytest.raises(ValueError, match="at least one shot"):
            sample_shots(c, np.zeros(param_count(c)), np.eye(8), shots=7, seed=0)

    def test_shot_count_fits_an_int64(self):
        c = CircuitConfig(dsm_dim=4)
        with pytest.raises(ValueError, match="shots must be < 2\\^63"):
            sample_shots(c, np.zeros(param_count(c)), np.eye(4), shots=2**63, seed=0)


class TestBench:
    def test_row_shape_and_positive_times(self):
        configs = [CircuitConfig(dsm_dim=4, layers=l) for l in (1, 2)]
        rows = bench_circuit(configs, reps=2, theta_seed=0)
        assert [r["layers"] for r in rows] == [1, 2]
        assert all(r["qubits"] == 2 for r in rows)
        assert all(r["median_seconds"] > 0.0 for r in rows)

    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError, match="reps"):
            bench_circuit([CircuitConfig(dsm_dim=4)], reps=0)

    def test_each_sample_repeats_calls_for_at_least_20_ms(self, monkeypatch):
        # a clock that moves 1/256 s (exact in binary) per reading: a sample
        # reaches 20 ms after six calls and records 6/256 s over six calls
        clock = iter(np.arange(10_000) / 256.0)
        calls = []
        monkeypatch.setattr(qontot.time, "perf_counter", lambda: float(next(clock)))
        monkeypatch.setattr(qontot, "simulate_dsm", lambda *args: calls.append(args))
        rows = bench_circuit([CircuitConfig(dsm_dim=4, layers=1)], reps=3, theta_seed=0)
        assert len(calls) == 1 + 3 * 6  # one warm-up, then six calls per sample
        assert rows[0]["median_seconds"] == 1 / 256
