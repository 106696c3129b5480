import hashlib
import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from birkhoff_attn import (
    OPERATOR_NAMES,
    GridSpec,
    Normalizer,
    exp_scale,
    grid_matrices,
    grid_total,
    make_operator,
    probe_invariances,
    shannon_entropy,
    sphere_columns,
    tradeoff_sweep,
    uniqueness_sweep,
)
from birkhoff_attn import expressivity
from birkhoff_attn.expressivity import _SWEEP_CHUNK, SweepReport

import oracles


def sweep_operator(name: str, n: int):
    """Operator ``name`` for n x n inputs, with the settings it needs beyond its defaults."""
    settings = {"qr": {"noise_seed": 0}, "qontot": {"dsm_dim": n, "layers": 2, "theta_seed": 0},
                "norm-softmax": {"power": 2}}
    return make_operator(name, **settings.get(name, {}))


def one_input(op, m: np.ndarray, tau: float = 1.0) -> np.ndarray:
    return op(exp_scale(m, tau) if op.needs_positive else m)


def per_input_sweep(spec: GridSpec, op) -> SweepReport:
    """The sweep computed one input at a time: decode, apply, round, digest, measure."""
    digests, entropies, residuals = [], [], []
    for index in range(grid_total(spec)):
        m = grid_matrices(spec, index, index + 1)[0]
        out = one_input(op, m)
        rounded = np.round(out, spec.rounding_decimals) + 0.0
        digests.append(hashlib.blake2b(rounded.tobytes(), digest_size=16).digest())
        entropies.append(shannon_entropy(out))
        residuals.append(float(np.linalg.norm(m - out)))
    counts = sorted(np.unique(digests, return_counts=True)[1].tolist(), reverse=True)

    def stats(values):
        values = np.array(values)
        return {"min": float(values.min()), "median": float(np.median(values)),
                "mean": float(values.mean()), "max": float(values.max())}

    return SweepReport(total_inputs=len(digests), unique_outputs=len(counts),
                       entropy_stats=stats(entropies), residual_stats=stats(residuals),
                       count_multiset=counts)


def per_trial_probe(op, trials: int, seed: int, n: int, tolerance: float = 1e-8) -> dict:
    """The invariance probe run one trial and one operator call at a time."""
    rng = np.random.default_rng(seed)
    scale_witness = None
    perm_witness = None
    for _ in range(trials):
        if op.needs_positive:
            m = rng.uniform(0.1, 10.0, (n, n))
        else:
            m = rng.standard_normal((n, n))
        base = op(m)
        for lam in (0.5, 2.0, 10.0):
            dev = float(np.abs(op(lam * m) - base).max())
            if dev > tolerance and scale_witness is None:
                scale_witness = {"matrix": m.tolist(), "lam": lam, "max_abs_deviation": dev}
        p1 = rng.permutation(n)
        p2 = rng.permutation(n)
        dev = float(np.abs(op(m[p1][:, p2]) - base[p1][:, p2]).max())
        if dev > tolerance and perm_witness is None:
            perm_witness = {"matrix": m.tolist(), "row_permutation": p1.tolist(),
                            "col_permutation": p2.tolist(), "max_abs_deviation": dev}
    return {"operator": op.name, "trials": trials, "tolerance": tolerance,
            "scale_invariant": scale_witness is None,
            "permutation_equivariant": perm_witness is None,
            "scale_witness": scale_witness, "permutation_witness": perm_witness}


class CountingSpec(Normalizer):
    """A spec that counts its calls and passes each on to the spec it wraps."""

    def __init__(self, spec: Normalizer):
        self.spec, self.calls = spec, 0
        self.name, self.needs_positive = spec.name, spec.needs_positive

    def __call__(self, m):
        self.calls += 1
        return self.spec(m)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            GridSpec(n=0, d=2)
        with pytest.raises(ValueError, match="resolution"):
            GridSpec(n=2, d=1)
        with pytest.raises(ValueError, match="domain"):
            GridSpec(n=2, d=2, domain="torus")
        with pytest.raises(ValueError, match="rounding"):
            GridSpec(n=2, d=2, rounding_decimals=-1)
        # np.round at 309 decimals overflows 10.0**309 and returns NaN
        with pytest.raises(ValueError, match="rounding_decimals must be <= 308, got 309"):
            GridSpec(n=2, d=2, rounding_decimals=309)
        assert GridSpec(n=2, d=2, rounding_decimals=308).rounding_decimals == 308


class TestSphereColumns:
    def test_four_by_three_has_five_columns(self):
        # sum of squared digits must hit (d-1)^2 = 4: the four axis vectors
        # plus the all-half column, in digit-lexicographic order
        cols = sphere_columns(4, 3)
        want = np.array(
            [
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.5, 0.5, 0.5, 0.5],
                [1.0, 0.0, 0.0, 0.0],
            ]
        )
        assert_allclose(cols, want, atol=0)

    def test_unit_norms_are_exact(self):
        for n, d in ((2, 3), (3, 4), (4, 3), (4, 5)):
            cols = sphere_columns(n, d)
            assert_allclose((cols ** 2).sum(axis=1), np.ones(len(cols)), atol=0)

    @pytest.mark.parametrize("n, d", [(1, 2), (2, 2), (3, 3), (4, 3), (4, 5), (4, 6), (5, 7),
                                      (8, 3), (6, 9)])
    def test_matches_the_digit_tuple_filter(self, n, d, monkeypatch):
        # the same table whatever the pass size, a pass of 7 candidates included
        monkeypatch.setattr(expressivity, "_SPHERE_PASS", 7 if d**n < 10**4 else 1 << 16)
        sphere_columns.cache_clear()
        scale = d - 1
        want = np.array([c for c in itertools.product(range(d), repeat=n)
                         if sum(v * v for v in c) == scale * scale], dtype=np.float64) / scale
        assert sphere_columns(n, d).tobytes() == want.tobytes()
        sphere_columns.cache_clear()

    @pytest.mark.parametrize("n, d", [(64, 2), (2, 10**8), (25, 2), (2, 10**4000)])
    def test_candidate_budget(self, n, d):
        with pytest.raises(ValueError, match="candidate columns, above the 16777216 budget"):
            sphere_columns(n, d)

    @pytest.mark.parametrize("n, d, message", [
        (3, 1, "grid resolution d must be >= 2"),
        (3, 0, "grid resolution d must be >= 2"),
        (0, 3, "n must be >= 1"),
        (-1, 3, "n must be >= 1"),
    ])
    def test_sizes_are_checked_as_grid_spec_checks_them(self, n, d, message):
        # (3, 1) gave a NaN column and (-1, 3) a TypeError before the check
        with pytest.raises(ValueError, match=message):
            sphere_columns(n, d)
        with pytest.raises(ValueError, match=message):
            GridSpec(n=n, d=d, domain="sphere")

    def test_binary_grid_gives_axis_vectors(self):
        assert_allclose(sphere_columns(3, 2), np.eye(3)[::-1], atol=0)

    def test_built_once_and_read_only(self):
        cols = sphere_columns(4, 5)
        assert sphere_columns(4, 5) is cols
        with pytest.raises(ValueError, match="read-only"):
            cols[0, 0] = 2.0
        # decoded stacks are fresh arrays, free to modify
        stack = grid_matrices(GridSpec(n=4, d=5, domain="sphere"), 0, 3)
        stack[0, 0, 0] = 2.0
        assert sphere_columns(4, 5)[0, 0] == 0.0


class TestGridMatrices:
    def test_cube_first_and_last(self):
        spec = GridSpec(n=2, d=3)
        total = grid_total(spec)
        assert_allclose(grid_matrices(spec, 0, 1), np.zeros((1, 2, 2)))
        assert_allclose(grid_matrices(spec, total - 1, total), np.ones((1, 2, 2)))

    def test_cube_odometer_order(self):
        # first cell most significant: index 1 bumps the last cell
        stack = grid_matrices(GridSpec(n=2, d=2), 0, 9)
        assert_allclose(stack[1], [[0.0, 0.0], [0.0, 1.0]])
        assert_allclose(stack[8], [[1.0, 0.0], [0.0, 0.0]])

    def test_sphere_decode_picks_columns(self):
        spec = GridSpec(n=4, d=3, domain="sphere")
        assert grid_total(spec) == 5 ** 4
        m = grid_matrices(spec, 0, 1)[0]
        assert_allclose(m, np.tile(sphere_columns(4, 3)[0], (4, 1)).T)

    @pytest.mark.parametrize("lo, hi", [(16, 17), (15, 17), (-1, 0), (-1, 1)])
    def test_out_of_range_raises(self, lo, hi):
        # the 2x2 binary grid has 16 matrices
        with pytest.raises(IndexError):
            grid_matrices(GridSpec(n=2, d=2), lo, hi)

    def test_window_matches_one_index_decodes(self):
        spec = GridSpec(n=2, d=3)
        want = [grid_matrices(spec, index, index + 1)[0] for index in range(10, 20)]
        assert np.array_equal(grid_matrices(spec, 10, 20), want)

    @pytest.mark.parametrize("spec", [
        GridSpec(n=2, d=5),
        GridSpec(n=3, d=3),
        GridSpec(n=4, d=3, domain="sphere"),
        GridSpec(n=4, d=5, domain="sphere"),
    ])
    def test_decoders_match_divmod_oracle(self, spec):
        total = grid_total(spec)
        assert total > _SWEEP_CHUNK + 3
        # the first index, the last index, and a window across a chunk boundary
        for lo, hi in ((0, 1), (total - 1, total), (_SWEEP_CHUNK - 3, _SWEEP_CHUNK + 3)):
            want = [oracles.grid_matrix_oracle(spec.n, spec.d, spec.domain, index)
                    for index in range(lo, hi)]
            stack = grid_matrices(spec, lo, hi)
            assert stack.shape == (hi - lo, spec.n, spec.n)
            assert np.array_equal(stack, want)
            for index in range(lo, hi):
                assert np.array_equal(grid_matrices(spec, index, index + 1)[0], want[index - lo])
        with pytest.raises(IndexError):
            grid_matrices(spec, total - 1, total + 1)
        with pytest.raises(IndexError):
            grid_matrices(spec, -1, 0)


class TestUniquenessSweep:
    def test_injective_operator_counts_every_input(self):
        spec = GridSpec(n=2, d=2)
        report = uniqueness_sweep(spec, lambda m: m)
        assert report.total_inputs == 16
        assert report.unique_outputs == 16
        assert report.count_multiset == [1] * 16

    def test_constant_operator_collapses_everything(self):
        spec = GridSpec(n=2, d=2)
        report = uniqueness_sweep(spec, lambda ms: np.zeros_like(ms) + np.eye(2))
        assert report.unique_outputs == 1
        assert report.count_multiset == [16]
        assert report.residual_stats["min"] >= 0.0

    def test_negative_zero_folds_into_zero(self):
        spec = GridSpec(n=2, d=2)
        report = uniqueness_sweep(spec, lambda m: np.where(m > 0.5, 0.0, -0.0))
        assert report.unique_outputs == 1

    def test_rounding_merges_nearby_outputs(self):
        spec = GridSpec(n=2, d=2, rounding_decimals=0)
        report = uniqueness_sweep(spec, lambda m: m * 0.4)
        assert report.unique_outputs == 1  # everything rounds to the zero matrix

    def test_start_stop_window(self):
        spec = GridSpec(n=2, d=3)
        report = uniqueness_sweep(spec, lambda m: m, start=5, stop=30)
        assert report.total_inputs == 25
        assert report.unique_outputs == 25

    @pytest.mark.parametrize("op", [lambda m: m, make_operator("softmax")],
                             ids=["bare", "spec"])
    def test_empty_window_counts_nothing(self, op):
        report = uniqueness_sweep(GridSpec(n=2, d=2), op, start=16)
        assert report.total_inputs == report.unique_outputs == 0
        assert report.count_multiset == []
        assert report.entropy_stats == report.residual_stats == {}

    @pytest.mark.parametrize("start, stop", [(10, 5), (20, None)])
    def test_window_outside_the_grid_raises(self, start, stop):
        # the 2x2 binary grid has 16 inputs
        with pytest.raises(ValueError, match="bad index range"):
            uniqueness_sweep(GridSpec(n=2, d=2), lambda m: m, start=start, stop=stop)

    def test_guards_runaway_totals(self):
        spec = GridSpec(n=4, d=20)  # 20^16 matrices
        with pytest.raises(ValueError, match="guard"):
            uniqueness_sweep(spec, lambda m: m, max_total=10**6)
        # a base far past the guard is refused before it is raised to its power
        with pytest.raises(ValueError, match=r"grid has 1000\d*\^65536 matrices"):
            uniqueness_sweep(GridSpec(n=256, d=10**4000), lambda m: m)

    def test_raised_guard_reaches_every_chunk(self):
        spec = GridSpec(n=6, d=2)  # 2^36 inputs, above the default 2^32 guard
        report = uniqueness_sweep(spec, lambda m: m, start=2**35, stop=2**35 + 3,
                                  max_total=2**36)
        assert report.total_inputs == report.unique_outputs == 3

    def test_worker_count_changes_nothing(self):
        spec = GridSpec(n=2, d=5)  # 625 inputs: two fixed-size chunks
        for op in (make_operator("softmax", tau=1.0),
                   make_operator("qontot", dsm_dim=2, layers=2, theta_seed=0)):
            base = uniqueness_sweep(spec, op, workers=1)
            for workers in (2, 3):
                assert base == uniqueness_sweep(spec, op, workers=workers)

    def test_pool_is_no_larger_than_the_chunk_count(self, monkeypatch):
        # a fake context runs the pool in-process, so no process is started
        sizes = []

        class InlinePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, func, tasks):
                return [func(*task) for task in tasks]

        class InlineContext:
            Pool = InlinePool

        import multiprocessing
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: InlineContext)
        spec = GridSpec(n=2, d=5)  # 625 inputs: two fixed-size chunks
        op = make_operator("softmax")
        assert uniqueness_sweep(spec, op, workers=10**6) == uniqueness_sweep(spec, op, workers=1)
        assert sizes == [2]

    def test_parallel_needs_picklable_operator(self):
        with pytest.raises(ValueError, match="picklable"):
            uniqueness_sweep(GridSpec(n=2, d=2), lambda m: m, workers=2)

    @pytest.mark.parametrize("name", OPERATOR_NAMES)
    @pytest.mark.parametrize("spec", [GridSpec(n=2, d=5), GridSpec(n=4, d=3, domain="sphere")])
    def test_chunked_sweep_matches_the_per_input_sweep(self, spec, name):
        # 625 inputs each: one full 512-input chunk and a partial one
        op = sweep_operator(name, spec.n)
        want = per_input_sweep(spec, op)
        assert uniqueness_sweep(spec, op) == want
        assert uniqueness_sweep(spec, op, workers=2) == want

    def test_entropy_stats_of_known_operator(self):
        spec = GridSpec(n=2, d=2)
        report = uniqueness_sweep(spec, lambda ms: np.full(ms.shape, 0.5))
        for key in ("min", "median", "mean", "max"):
            assert report.entropy_stats[key] == pytest.approx(np.log(2))


class TestTradeoffSweep:
    def test_row_per_input(self):
        rng = np.random.default_rng(0)
        inputs = [rng.standard_normal((3, 3)) for _ in range(4)]
        rows = tradeoff_sweep(inputs, make_operator("softmax", tau=1.0))
        assert len(rows) == 4
        assert all(set(r) == {"entropy", "residual"} for r in rows)

    @pytest.mark.parametrize("name", OPERATOR_NAMES)
    def test_rows_match_each_input_alone(self, name):
        # 600 inputs span a full chunk and a partial one
        rng = np.random.default_rng(7)
        inputs = [rng.standard_normal((4, 4)) for _ in range(600)]
        op = sweep_operator(name, 4)
        want = []
        for m in inputs:
            out = one_input(op, m, 0.7)
            want.append({"entropy": shannon_entropy(out),
                         "residual": float(np.linalg.norm(m - out))})
        assert tradeoff_sweep(inputs, op, exp_scale_tau=0.7) == want
        # a (B, n, n) array gives the same rows, and its chunks are read, not written
        stack = np.array(inputs)
        assert tradeoff_sweep(stack, op, exp_scale_tau=0.7) == want
        assert np.array_equal(stack, inputs)
        # one n x n matrix is a batch of one, and no input gives no rows
        assert tradeoff_sweep(stack[0], op, exp_scale_tau=0.7) == want[:1]
        assert tradeoff_sweep([], op) == []

    def test_bare_callable_takes_the_whole_stack(self):
        # a bare callable is called as a spec is: once per chunk, on its (B, n, n) stack
        inputs = [np.arange(4.0).reshape(2, 2) + k for k in range(3)]
        seen = []

        def transpose(ms):
            seen.append(ms.shape)
            return ms.swapaxes(-2, -1)

        rows = tradeoff_sweep(inputs, transpose)
        assert seen == [(3, 2, 2)]
        assert [r["residual"] for r in rows] == [float(np.linalg.norm(m - m.T)) for m in inputs]

    def test_identity_operator_has_zero_residual(self):
        inputs = [np.full((2, 2), 0.5)]
        rows = tradeoff_sweep(inputs, lambda m: m)
        assert rows[0]["residual"] == 0.0
        assert rows[0]["entropy"] == pytest.approx(np.log(2))


class TestProbeInvariances:
    def test_sinkhorn_is_scale_invariant_and_equivariant(self):
        result = probe_invariances(make_operator("sinkhorn-naive", iterations=21), trials=5,
                                   seed=0)
        assert result["scale_invariant"] is True
        assert result["permutation_equivariant"] is True
        assert result["scale_witness"] is None
        assert result["permutation_witness"] is None

    def test_qr_breaks_permutation_equivariance_with_witness(self):
        result = probe_invariances(make_operator("qr", noise_seed=0), trials=8, seed=1)
        assert result["scale_invariant"] is True
        assert result["permutation_equivariant"] is False
        w = result["permutation_witness"]
        assert w["max_abs_deviation"] > 1e-8
        assert np.asarray(w["matrix"]).shape == (4, 4)
        assert sorted(w["row_permutation"]) == [0, 1, 2, 3]

    def test_softmax_scale_dependence_is_caught(self):
        result = probe_invariances(make_operator("softmax", tau=1.0), trials=5, seed=2)
        assert result["scale_invariant"] is False
        assert result["scale_witness"]["lam"] in (0.5, 2.0, 10.0)

    @pytest.mark.parametrize("name", OPERATOR_NAMES)
    def test_stacked_probe_is_the_per_trial_loop(self, name):
        for n in (2, 4, 8):
            op = sweep_operator(name, n)
            for seed in range(3):
                for trials in (0, 1, 10):
                    got = probe_invariances(op, trials=trials, seed=seed, n=n)
                    assert got == per_trial_probe(op, trials, seed, n), (n, seed, trials)

    @pytest.mark.parametrize("trials", [1, 3, 10])
    @pytest.mark.parametrize("name", OPERATOR_NAMES)
    def test_a_probe_makes_five_spec_calls(self, name, trials):
        op = CountingSpec(sweep_operator(name, 4))
        probe_invariances(op, trials=trials, seed=0)
        assert op.calls == 5

    def test_negative_trials_are_rejected(self):
        with pytest.raises(ValueError, match="trials must be >= 0, got -1"):
            probe_invariances(make_operator("softmax"), trials=-1)

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_or_negative_size_is_rejected(self, n):
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            probe_invariances(make_operator("softmax"), trials=2, n=n)

    def test_same_seed_reproduces_witnesses(self):
        op = make_operator("qontot", dsm_dim=4, layers=2, theta_seed=5)
        a = probe_invariances(op, trials=4, seed=3)
        b = probe_invariances(op, trials=4, seed=3)
        assert a == b
        assert a["scale_invariant"] is False  # angle injection reacts to scaling
