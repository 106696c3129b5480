import ast
import io
import itertools
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.stats import rankdata, spearmanr

import birkhoff_attn
from birkhoff_attn import (
    as_dsm,
    birkhoff_distance,
    check_stochasticity,
    frobenius_distance,
    load_matrix,
    load_matrix_csv,
    load_matrix_json,
    save_matrix_csv,
    save_matrix_json,
    shannon_entropy,
    spearman_rho,
)
from birkhoff_attn.core import _average_ranks, _odometer, as_square, matrix_record

import oracles


def square(seed, n=4):
    return np.random.default_rng(seed).standard_normal((n, n))


class TestAsDsm:
    def test_identity(self):
        d = as_dsm(np.eye(3))
        assert d.report.max_row_deviation == 0.0
        assert d.report.max_col_deviation == 0.0
        assert d.report.min_entry == 0.0

    def test_uniform(self):
        d = as_dsm(np.full((4, 4), 0.25))
        assert d.matrix.dtype == np.float64
        assert d.tolerance == 1e-9

    def test_rejects_negative_entry(self):
        m = np.eye(2)
        m[0, 0] = -1e-6
        m[0, 1] = 1.0 + 1e-6
        with pytest.raises(ValueError, match="below"):
            as_dsm(m)

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError, match="deviate"):
            as_dsm(np.full((3, 3), 0.5))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            as_dsm(np.ones((2, 3)))

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError, match="matrix must have n >= 1"):
            as_square(np.zeros((0, 0)))

    def test_rejects_nan(self):
        m = np.eye(2)
        m[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            as_dsm(m)

    def test_tolerance_is_respected(self):
        m = np.eye(2) + 1e-7
        with pytest.raises(ValueError):
            as_dsm(m, tolerance=1e-9)
        as_dsm(m, tolerance=1e-5)  # same matrix, looser gate


class TestAsDsmStack:
    @pytest.mark.parametrize("bad", [
        np.array([[1.0 + 1e-6, -1e-6], [-0.0, 1.0]]),  # an entry below -tolerance
        np.full((2, 2), 0.6),  # sums off by 0.2
        np.eye(2) + 1e-7,  # sums just outside 1e-9
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
    ], ids=["negative-entry", "bad-sums", "near-miss", "nan"])
    def test_stack_raises_the_failing_matrix_error_it_raises_alone(self, bad):
        with pytest.raises(ValueError) as alone:
            as_dsm(bad)
        stack = np.array([np.eye(2), np.full((2, 2), 0.5), bad, np.full((2, 2), 0.6)])
        with pytest.raises(ValueError) as stacked:
            as_dsm(stack)
        assert str(stacked.value) == str(alone.value)

    def test_a_failing_matrix_is_reported_before_a_later_non_finite_one(self):
        stack = np.array([np.eye(2), np.full((2, 2), 0.6), [[np.nan, 0.0], [0.0, 1.0]]])
        with pytest.raises(ValueError) as alone:
            as_dsm(stack[1])
        with pytest.raises(ValueError) as stacked:
            as_dsm(stack)
        assert str(alone.value).startswith("row/col sums deviate from 1 by")
        assert str(stacked.value) == str(alone.value)

    def test_a_passing_stack_comes_back_as_it_is(self):
        stack = np.array([np.eye(3), np.full((3, 3), 1 / 3)])
        assert as_dsm(stack) is stack

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_one_matrix_report_is_its_own_measurement(self, order):
        # the report of a batch of one is the matrix's own, bit for bit
        m = np.asarray(sinkhorn_dsm(5), order=order)
        d = as_dsm(m)
        assert d.matrix is m
        assert d.report == check_stochasticity(m)


def sinkhorn_dsm(n):
    """A doubly stochastic n x n matrix whose sums are off by rounding only."""
    return birkhoff_attn.sinkhorn_naive(np.random.default_rng(n).uniform(0.1, 1.0, (n, n)), 201)


def test_check_stochasticity_measures_known_deviation():
    m = np.array([[0.6, 0.5], [0.4, 0.5]])  # col sums exact, row sums 1.1 / 0.9
    r = check_stochasticity(m)
    assert_allclose(r.max_row_deviation, 0.1)
    assert r.max_col_deviation == 0.0
    assert r.min_entry == 0.4


def test_check_stochasticity_projection_distance_of_dsm_is_zero():
    m = np.eye(3)
    r = check_stochasticity(m)
    assert (r.max_row_deviation, r.max_col_deviation, r.min_entry) == (0.0, 0.0, 0.0)
    assert birkhoff_distance(m) == pytest.approx(0.0, abs=1e-8)


class TestShannonEntropy:
    def test_permutation_matrix_has_zero_entropy(self):
        assert shannon_entropy(np.eye(5)) == 0.0

    def test_uniform_attains_log_n(self):
        assert shannon_entropy(np.full((4, 4), 0.25)) == pytest.approx(np.log(4), rel=1e-15)

    def test_frozen_two_thirds_value(self):
        # entropy of [[2/3,1/3],[1/3,2/3]] is ln 3 - (2/3) ln 2; the constant
        # below was frozen from the mpmath evaluation and re-checked here
        m = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0
        assert shannon_entropy(m) == pytest.approx(0.6365141682948128, abs=1e-15)
        assert oracles.mp_entropy(m) == pytest.approx(0.6365141682948128, abs=1e-14)

    def test_matches_mpmath_on_random_rows(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0.01, 1.0, (5, 5))
        p /= p.sum(axis=1, keepdims=True)
        assert shannon_entropy(p) == pytest.approx(oracles.mp_entropy(p), abs=1e-13)

    def test_accepts_dsm_wrapper(self):
        assert shannon_entropy(as_dsm(np.eye(3))) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 4, 16])
    @pytest.mark.parametrize("batch", [1, 2, 7, 512])
    def test_stack_gives_each_matrix_value(self, batch, n):
        rng = np.random.default_rng([batch, n])
        p = rng.uniform(0.0, 1.0, (batch, n, n))
        p[:, :, 0] = 0.0  # zero entries contribute zero
        p /= p.sum(axis=-1, keepdims=True).clip(1e-300)
        got = shannon_entropy(p)
        assert got.shape == (batch,)
        for i, m in enumerate(p):
            assert got[i] == shannon_entropy(m)
            assert type(shannon_entropy(m)) is float


def tie_heavy_vectors(seed):
    """Vectors of one square length and few distinct values.

    Small integers, runs of equal entries, mixed -0.0 and 0.0, a constant and
    one tie-free normal draw.
    """
    rng = np.random.default_rng([seed, 7])
    size = int(rng.integers(1, 20)) ** 2
    blocks = np.repeat(rng.integers(-2, 3, size).astype(float), rng.integers(1, 9, size))[:size]
    rng.shuffle(blocks)
    return [
        rng.integers(0, 4, size).astype(float),
        blocks,
        rng.choice([-0.0, 0.0, 1.0, -1.0], size),
        np.where(rng.random(size) < 0.5, -0.0, 0.0),  # -0.0 == 0.0: one tie group
        np.full(size, 3.0),
        rng.standard_normal(size),
    ]


class TestSpearman:
    def test_monotone_is_one(self):
        a = np.arange(9.0).reshape(3, 3)
        assert spearman_rho(a, a ** 3) == pytest.approx(1.0)

    def test_reversed_is_minus_one(self):
        a = np.arange(9.0).reshape(3, 3)
        assert spearman_rho(a, -a) == pytest.approx(-1.0)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.integers(0, 4, (4, 4)).astype(float)  # plenty of ties
            b = rng.standard_normal((4, 4))
            want = spearmanr(a.ravel(), b.ravel()).statistic
            assert spearman_rho(a, b) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("seed", range(40))
    def test_ranks_are_rankdata_average_to_the_bit(self, seed):
        for x in tie_heavy_vectors(seed):
            assert _average_ranks(x).tobytes() == rankdata(x, method="average").tobytes()

    @pytest.mark.parametrize("seed", range(40))
    def test_rho_is_the_rankdata_formula_to_the_bit(self, seed):
        vectors = tie_heavy_vectors(seed)
        n = int(np.sqrt(vectors[0].size))
        for x, y in itertools.combinations(vectors, 2):
            a, b = x.reshape(n, n), y.reshape(n, n)
            ra = rankdata(a.ravel(), method="average")
            rb = rankdata(b.ravel(), method="average")
            if np.ptp(ra) == 0.0 or np.ptp(rb) == 0.0:
                continue
            ra, rb = ra - ra.mean(), rb - rb.mean()
            want = float(ra @ rb / np.sqrt((ra @ ra) * (rb @ rb)))
            assert spearman_rho(a, b).hex() == want.hex()

    def test_constant_input_raises(self):
        with pytest.raises(ValueError, match="rank variance"):
            spearman_rho(np.ones((3, 3)), np.arange(9.0).reshape(3, 3))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            spearman_rho(np.eye(2), np.eye(3))


def test_frobenius_distance_known_value():
    assert frobenius_distance(np.eye(2), np.zeros((2, 2))) == pytest.approx(np.sqrt(2))


@pytest.mark.parametrize("n", [1, 2, 4, 16, 256])
@pytest.mark.parametrize("batch", [1, 2, 7, 512])
def test_frobenius_distance_of_stacks_is_each_norm(batch, n):
    # each distance is np.linalg.norm of the difference, to the bit
    rng = np.random.default_rng([batch, n])
    batch = min(batch, 7) if n == 256 else batch
    a = rng.standard_normal((batch, n, n)) * 10.0 ** rng.integers(-3, 4, (batch, 1, 1))
    b = rng.standard_normal((batch, n, n))
    got = frobenius_distance(a, b)
    assert got.shape == (batch,)
    for i in range(batch):
        assert got[i] == np.linalg.norm(a[i] - b[i])
        assert frobenius_distance(a[i], b[i]) == np.linalg.norm(a[i] - b[i])
    with pytest.raises(ValueError, match="mismatch"):
        frobenius_distance(a[0], b)


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." if node.level else node.module.split(".")[0])
    allowed = {"__future__", "collections", "hashlib", "itertools", "numpy", "mpmath", "scipy"}
    assert imported <= allowed, imported


_FAULTS_PER_CALL = """
import resource
import numpy as np
import birkhoff_attn as ba
q, k, v = (np.random.default_rng(0).standard_normal((256, 64)) for _ in range(3))
config = ba.AttentionConfig(normalizer=ba.Softmax())
ba.attention_forward(q, k, v, config)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    ba.attention_forward(q, k, v, config)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds only")
def test_wide_temporaries_reuse_freed_heap_memory():
    # a fresh process, so no earlier test's large free has raised glibc's
    # adaptive threshold; mapped afresh, the 512 KiB temporaries of one
    # n = 256 softmax attention call fault in about 500 pages
    src = str(Path(birkhoff_attn.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", _FAULTS_PER_CALL], capture_output=True,
                            env=dict(os.environ, PYTHONPATH=src), check=True, text=True)
    assert float(result.stdout) < 10.0


_SCIPY_AFTER_IMPORT = """
import json
import sys
import numpy as np
import birkhoff_attn
import birkhoff_attn.cli
from birkhoff_attn import project

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

on_import = scipy_modules()
project(np.eye(3) + 0.5)
print(json.dumps([on_import, scipy_modules()]))
"""


def test_importing_the_package_loads_no_scipy():
    # a fresh process, since the test session itself has scipy loaded; a
    # projection must load none either
    src = str(Path(birkhoff_attn.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", _SCIPY_AFTER_IMPORT], capture_output=True,
                            env=dict(os.environ, PYTHONPATH=src), check=True, text=True)
    assert json.loads(result.stdout) == [[], []]


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        m = square(0)
        path = tmp_path / "m.csv"
        save_matrix_csv(path, m)
        assert_allclose(load_matrix_csv(path), m, rtol=0, atol=0)  # %.17g is lossless

    def test_json_round_trip(self, tmp_path):
        m = square(1)
        path = tmp_path / "m.json"
        save_matrix_json(path, m)
        assert_allclose(load_matrix_json(path), m, rtol=0, atol=0)

    def test_json_output_is_one_line_ending_in_a_newline(self, tmp_path):
        # as each CSV row does, so the CLI prints matrices through these writers
        stream = io.StringIO()
        save_matrix_json(stream, np.eye(2))
        save_matrix_json(tmp_path / "m.json", np.eye(2))
        assert stream.getvalue() == '{"n": 2, "data": [1.0, 0.0, 0.0, 1.0]}\n'
        assert (tmp_path / "m.json").read_text() == stream.getvalue()

    def test_load_matrix_reads_both_formats_from_files(self, tmp_path):
        m = np.eye(2)
        save_matrix_json(tmp_path / "a.json", m)
        save_matrix_csv(tmp_path / "a.csv", m)
        assert_allclose(load_matrix(tmp_path / "a.json"), m)
        assert_allclose(load_matrix(tmp_path / "a.csv"), m)

    def test_load_matrix_sniffs_stream(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        stream = io.StringIO()
        save_matrix_json(stream, m)
        assert_allclose(load_matrix(io.StringIO("\n  " + stream.getvalue())), m, atol=0)
        assert_allclose(load_matrix(io.StringIO("2,1\n1,2\n")), m, atol=0)

    @pytest.mark.parametrize("text, want", [
        ("2,1\n1,2\n", [[2, 1], [1, 2]]),
        ('{"n": 2, "data": [2, 1, 1, 2]}', [[2, 1], [1, 2]]),
        ('\n  \n{"n": 2, "data": [2, 1, 1, 2]}\n', [[2, 1], [1, 2]]),
        ("", "empty matrix input"),
        ("  \n \t\n", "empty matrix input"),
        ("# no data\n", "empty matrix input"),
        ("1,2,3\n4,5\n1,2,3\n", "number of columns changed from 3 to 2"),
        ("1,nan\n2,3\n", "matrix contains non-finite entries"),
    ], ids=["csv", "json", "json-after-blank-lines", "empty", "whitespace", "comments-only",
            "ragged-csv", "csv-nan"])
    def test_load_matrix_reads_every_source_alike(self, text, want, tmp_path):
        # the format follows the text, never the file name, and a file reads as a stream does
        def outcome(source):
            try:
                return load_matrix(source).tolist()
            except ValueError as exc:
                return str(exc)

        paths = [tmp_path / f"m.{suffix}" for suffix in ("csv", "json", "txt")]
        for path in paths:
            path.write_text(text)
        outcomes = [outcome(source) for source in [*paths, io.StringIO(text)]]
        assert outcomes == [outcomes[0]] * 4
        if isinstance(want, str):
            assert want in outcomes[0]
        else:
            assert outcomes[0] == want

    def test_csv_output_rejects_a_3d_array(self):
        with pytest.raises(ValueError, match=r"holds a 2-D array, got shape \(2, 2, 2\)"):
            save_matrix_csv(io.StringIO(), np.zeros((2, 2, 2)))

    def test_matrix_record_rejects_a_non_square_matrix(self):
        with pytest.raises(ValueError, match=r"holds a square matrix, got shape \(2, 3\)"):
            matrix_record(np.zeros((2, 3)))

    def test_json_rejects_wrong_length(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "data": [1.0, 2.0, 3.0]}))
        with pytest.raises(ValueError, match="expected"):
            load_matrix_json(path)

    @pytest.mark.parametrize("n", [1.5, True, 1.0, "1", None])
    def test_json_rejects_a_non_integer_n(self, n, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": n, "data": [3.0]}))
        with pytest.raises(ValueError, match="'n' must be an integer"):
            load_matrix_json(path)

    @pytest.mark.parametrize("n", [0, -1, -2])
    def test_json_rejects_n_below_one(self, n, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": n, "data": [3.0] * (n * n)}))
        with pytest.raises(ValueError, match=f"'n' must be an integer >= 1, got {n}"):
            load_matrix_json(path)

    # strings, booleans and nested lists are not JSON numbers, though numpy converts them
    @pytest.mark.parametrize("data", [3, None, {"a": 1}, [{"a": 1}], ["1"], [True], [None],
                                      [[3.0]]])
    def test_json_rejects_data_that_is_not_a_list_of_numbers(self, data, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "data": data}))
        with pytest.raises(ValueError, match="'data' must be a list of n\\*n numbers"):
            load_matrix_json(path)

    @pytest.mark.parametrize("big", ["1" + "0" * 400, "-1" + "0" * 400], ids=["plus", "minus"])
    def test_json_integer_beyond_float_range_is_non_finite(self, big, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(f'{{"n": 1, "data": [{big}]}}')
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            load_matrix_json(path)

    def test_json_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rows": []}))
        with pytest.raises(ValueError, match="'n' and 'data'"):
            load_matrix_json(path)

    def test_csv_single_entry(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("3.5\n")
        assert load_matrix_csv(path).shape == (1, 1)


@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
@settings(max_examples=25, deadline=None)
def test_entropy_bounded_by_log_n(seed, n):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.0, 1.0, (n, n))
    p /= p.sum(axis=1, keepdims=True)
    h = shannon_entropy(p)
    assert -1e-12 <= h <= np.log(n) + 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_spearman_stays_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, 4, 4))
    assert -1.0 - 1e-12 <= spearman_rho(a, b) <= 1.0 + 1e-12


class TestOdometer:
    @pytest.mark.parametrize("base, width, itemsize", [
        (2, 5, 1), (256, 2, 1), (257, 2, 2), (40000, 1, 2), (70000, 2, 4),
    ])
    def test_matches_divmod_oracle(self, base, width, itemsize):
        total = base ** width
        for lo, hi in ((0, 3), (total - 3, total)):
            digits = _odometer(lo, hi, base, width)
            assert digits.dtype.kind == "u" and digits.dtype.itemsize == itemsize
            want = [oracles.odometer_digits(i, base, width) for i in range(lo, hi)]
            assert digits.tolist() == want

    # both odometers are longer than int64: the leading places are at least
    # 2^63, so those digits are 0 on every admitted index
    @pytest.mark.parametrize("base, width", [(2, 64), (3, 41)])
    def test_places_past_int64_at_the_highest_indices(self, base, width):
        lo, hi = 2**63 - 3, 2**63
        digits = _odometer(lo, hi, base, width)
        assert digits.dtype == np.uint8
        assert digits.tolist() == [oracles.odometer_digits(i, base, width) for i in range(lo, hi)]

    # a negative index, a reversed range, one past 2^3, and an index past int64
    @pytest.mark.parametrize("lo, hi, width", [
        (-1, 2, 3), (3, 2, 3), (0, 9, 3), (2**63, 2**63 + 1, 64),
    ])
    def test_range_outside_the_odometer_raises(self, lo, hi, width):
        with pytest.raises(IndexError):
            _odometer(lo, hi, 2, width)
