import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import birkhoff_attn
from birkhoff_attn import (
    OPERATOR_NAMES,
    GridSpec,
    exp_scale,
    grid_total,
    load_matrix_json,
    sample_shots,
    sinkhorn_naive,
    softmax_rows,
)
from birkhoff_attn import qontot
from birkhoff_attn.cli import _BOUNDS, _FLAGS, _OPERATOR_FLAGS, _build_parser, main
from birkhoff_attn.expressivity import _SWEEP_CHUNK
from birkhoff_attn.operators import SPECS, make_operator

CSV_2X2 = "2,1\n1,2\n"
CSV_ID4 = "1,0,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1\n"
CSV_POS4 = "2,1,1,1\n1,2,1,1\n1,1,2,1\n1,1,1,3\n"
QKV_FLAGS = ["--q-file", "q.csv", "--key-file", "k.csv", "--value-file", "v.csv"]
# flags each operator needs beyond its defaults
OPERATOR_FLAGS = {"qr": ["--seed", "0"], "qontot": ["--theta-seed", "0"]}


def invoke(argv, capsys, monkeypatch=None, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)


def write_qkv(directory, t=3, d_v=2):
    rng = np.random.default_rng(0)
    for name, shape in (("q.csv", (t, 3)), ("k.csv", (t, 3)), ("v.csv", (t, d_v))):
        np.savetxt(directory / name, rng.standard_normal(shape), delimiter=",", fmt="%.17g")


class TestApply:
    def test_sinkhorn_from_stdin(self, capsys, monkeypatch):
        code, out, err = invoke(
            ["apply", "--op", "sinkhorn-naive", "--k", "21"],
            capsys, monkeypatch, stdin_text=CSV_2X2,
        )
        assert code == 0
        assert_allclose(parse_csv(out), np.array([[2, 1], [1, 2]]) / 3.0, atol=1e-9)
        report = json.loads(err)
        assert report["op"] == "sinkhorn-naive"
        assert report["max_col_deviation"] == 0.0

    def test_numerical_failure_leaves_only_json_lines_on_stderr(self):
        # the input overflows inside Sinkhorn; numpy's warnings must not reach stderr
        result = run_cli(["apply", "--op", "sinkhorn-naive"],
                         stdin_text="1e308,1e308\n1e308,1e308\n", returncode=2)
        assert result.stdout == b""
        records = [json.loads(line) for line in result.stderr.decode().splitlines()]
        assert [set(r) for r in records] == [{"error", "input"}]

    def test_identity_projects_to_itself(self, capsys, monkeypatch):
        code, out, err = invoke(
            ["apply", "--op", "birkhoff-project"],
            capsys, monkeypatch, stdin_text="1,0\n0,1\n",
        )
        assert code == 0
        assert_allclose(parse_csv(out), np.eye(2), atol=1e-9)
        report = json.loads(err)
        assert report["max_row_deviation"] <= 1e-9

    def test_json_output_format(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(CSV_2X2)
        code, out, _ = invoke(
            ["apply", "--op", "birkhoff-project", "--input", str(path),
             "--format", "json"],
            capsys, monkeypatch,
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 2
        assert len(obj["data"]) == 4

    def test_json_input_sniffed_from_stdin(self, capsys, monkeypatch):
        payload = json.dumps({"n": 2, "data": [2.0, 1.0, 1.0, 2.0]})
        code, out, _ = invoke(
            ["apply", "--op", "sinkhorn-naive"],
            capsys, monkeypatch, stdin_text=payload,
        )
        assert code == 0
        assert_allclose(parse_csv(out), np.array([[2, 1], [1, 2]]) / 3.0, atol=1e-9)

    def test_json_input_sniffed_from_a_file_of_any_name(self, capsys, monkeypatch, tmp_path):
        payload = json.dumps({"n": 2, "data": [2.0, 1.0, 1.0, 2.0]})
        (tmp_path / "m.txt").write_text(payload)
        argv = ["apply", "--op", "sinkhorn-naive"]
        from_stdin = invoke(argv, capsys, monkeypatch, stdin_text=payload)
        assert from_stdin[0] == 0
        assert invoke(argv + ["--input", str(tmp_path / "m.txt")], capsys) == from_stdin

    def test_exp_scale_flag(self, capsys, monkeypatch):
        m = np.array([[1.0, -1.0], [0.0, 2.0]])
        code, out, _ = invoke(
            ["apply", "--op", "sinkhorn-naive", "--k", "5", "--exp-scale",
             "--tau", "0.5"],
            capsys, monkeypatch, stdin_text="1,-1\n0,2\n",
        )
        assert code == 0
        assert_allclose(parse_csv(out), sinkhorn_naive(exp_scale(m, 0.5), 5), atol=1e-12)

    def test_numerical_failure_echoes_input(self, capsys, monkeypatch):
        code, out, err = invoke(
            ["apply", "--op", "sinkhorn-naive"],
            capsys, monkeypatch, stdin_text="1,1\n0,0\n",
        )
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert "strictly positive" in payload["error"]
        assert payload["input"] == {"n": 2, "data": [1.0, 1.0, 0.0, 0.0]}

    def test_non_finite_result_leaves_stdout_empty(self, capsys, monkeypatch):
        # the column sums overflow, so sinkhorn returns NaN rows; the check
        # must fail before anything reaches stdout
        code, out, err = invoke(
            ["apply", "--op", "sinkhorn-naive"],
            capsys, monkeypatch, stdin_text="1e308,1e308\n1e308,1e308\n",
        )
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert "non-finite" in payload["error"]
        assert payload["input"] == {"n": 2, "data": [1e308] * 4}

    def test_integer_beyond_float_range_fails_like_an_inf_literal(self, capsys, monkeypatch):
        # json reads 1e400 as inf, but an integer literal of that size as a Python int
        results = [invoke(["apply", "--op", "softmax"], capsys, monkeypatch,
                          stdin_text=f'{{"n": 1, "data": [{big}]}}')
                   for big in ("1e400", "1" + "0" * 400, "-1" + "0" * 400)]
        assert results == [(1, "", "error: stdin: matrix contains non-finite entries\n")] * 3

    def test_qr_without_seed_is_usage_error(self, capsys, monkeypatch):
        code, _, err = invoke(
            ["apply", "--op", "qr"], capsys, monkeypatch, stdin_text=CSV_2X2,
        )
        assert code == 1
        assert "--seed" in err

    def test_qontot_theta_file(self, capsys, monkeypatch, tmp_path):
        theta = tmp_path / "theta.csv"
        theta.write_text("0,0,0,0\n")
        code, out, _ = invoke(
            ["apply", "--op", "qontot", "--theta-file", str(theta)],
            capsys, monkeypatch, stdin_text=CSV_ID4,
        )
        assert code == 0
        assert_allclose(parse_csv(out), np.eye(4), atol=0)

    def test_qontot_theta_file_of_wrong_length(self, capsys, monkeypatch, tmp_path):
        theta = tmp_path / "theta.csv"
        theta.write_text("0,0,0\n")
        code, out, err = invoke(
            ["apply", "--op", "qontot", "--theta-file", str(theta)],
            capsys, monkeypatch, stdin_text=CSV_ID4,
        )
        assert (code, out, err) == (1, "", "error: theta has 3 values, config needs 4\n")

    def test_qontot_needs_exactly_one_theta_source(self, capsys, monkeypatch):
        code, _, err = invoke(["apply", "--op", "qontot"],
                              capsys, monkeypatch, stdin_text=CSV_ID4)
        assert code == 1
        assert "theta" in err


class TestApplyAttn:
    def test_softmax_matches_library(self, capsys, monkeypatch, tmp_path):
        rng = np.random.default_rng(0)
        qm, km = rng.standard_normal((2, 3, 3))
        vm = rng.standard_normal((3, 2))
        for name, m in (("q.csv", qm), ("k.csv", km), ("v.csv", vm)):
            np.savetxt(tmp_path / name, m, delimiter=",", fmt="%.17g")
        code, out, _ = invoke(
            ["apply-attn", "--normalizer", "softmax",
             "--q-file", str(tmp_path / "q.csv"),
             "--key-file", str(tmp_path / "k.csv"),
             "--value-file", str(tmp_path / "v.csv"),
             "--temperature", "2.0"],
            capsys, monkeypatch,
        )
        assert code == 0
        want = softmax_rows(qm @ km.T, 2.0) @ vm
        assert_allclose(parse_csv(out), want, atol=1e-12)

    def test_emit_attn(self, capsys, monkeypatch, tmp_path):
        rng = np.random.default_rng(1)
        qm, km = rng.standard_normal((2, 3, 3))
        vm = rng.standard_normal((3, 2))
        for name, m in (("q.csv", qm), ("k.csv", km), ("v.csv", vm)):
            np.savetxt(tmp_path / name, m, delimiter=",", fmt="%.17g")
        code, out, _ = invoke(
            ["apply-attn", "--normalizer", "sinkhorn-naive", "--k", "5",
             "--q-file", str(tmp_path / "q.csv"),
             "--key-file", str(tmp_path / "k.csv"),
             "--value-file", str(tmp_path / "v.csv"),
             "--emit", "attn"],
            capsys, monkeypatch,
        )
        assert code == 0
        attn = parse_csv(out)
        assert_allclose(attn.sum(axis=0), np.ones(3), atol=1e-12)

    def test_missing_files_are_usage_errors(self, capsys, monkeypatch):
        code, _, err = invoke(["apply-attn", "--normalizer", "softmax"],
                              capsys, monkeypatch)
        assert code == 1
        assert "--q-file" in err

    @pytest.mark.parametrize("name, flags, settings", [
        ("birkhoff-project", [], {}),
        ("qr", ["--seed", "0"], {"noise_seed": 0}),
        ("qontot", ["--theta-seed", "0"], {"dsm_dim": 4, "theta_seed": 0}),
    ])
    def test_negative_temperature_scales_the_scores(self, name, flags, settings, capsys,
                                                    monkeypatch, tmp_path):
        # only the softmax and Sinkhorn families need a positive temperature
        monkeypatch.chdir(tmp_path)
        write_qkv(tmp_path, t=4)
        code, out, err = invoke(["apply-attn", "--normalizer", name, *flags, *QKV_FLAGS,
                                 "--temperature", "-1.5", "--emit", "attn"], capsys)
        assert (code, err) == (0, "")
        qm, km = (np.loadtxt(tmp_path / f, delimiter=",") for f in ("q.csv", "k.csv"))
        want = make_operator(name, **settings).attend(qm @ km.T, -1.5)
        assert_allclose(parse_csv(out), want, atol=1e-15)

    def test_json_output_of_attention_weights_loads_back(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        write_qkv(tmp_path, d_v=5)
        code, out, _ = invoke(["apply-attn", "--normalizer", "softmax", *QKV_FLAGS,
                               "--emit", "attn", "--format", "json"], capsys)
        assert code == 0
        assert load_matrix_json(io.StringIO(out)).shape == (3, 3)

    def test_non_square_json_output_is_usage_error(self, capsys, monkeypatch, tmp_path):
        # a 3x5 output has no {"n", "data"} form that load_matrix_json reads back
        monkeypatch.chdir(tmp_path)
        write_qkv(tmp_path, d_v=5)
        code, out, err = invoke(["apply-attn", "--normalizer", "softmax", *QKV_FLAGS,
                                 "--format", "json"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "--format csv" in err


# invalid settings that a kernel checks too, with the stdin each reads; the CLI
# rejects every one before any work starts
KERNEL_SETTING_CASES = [
    (["apply", "--op", "sinkhorn-naive", "--exp-scale", "--k", "4"], CSV_POS4,
     "iteration count must be odd and >= 1, got 4"),
    (["sweep-unique", "--op", "sinkhorn-ot", "--k", "4", "--n", "2", "--d", "2"], None,
     "iteration count must be odd and >= 1, got 4"),
    (["apply", "--op", "norm-softmax", "--power", "3"], CSV_POS4,
     "power must be 1 (std) or 2 (variance), got 3"),
    (["props", "--op", "norm-softmax", "--power", "5", "--seed", "0"], None,
     "power must be 1 (std) or 2 (variance), got 5"),
    (["apply", "--op", "softmax", "--tau", "0"], CSV_POS4, "tau must be positive, got 0.0"),
    (["props", "--op", "softmax", "--tau", "0", "--seed", "0"], None,
     "tau must be positive, got 0.0"),
    (["sweep-tradeoff", "--op", "softmax", "--tau", "-1", "--seed", "0"], None,
     "tau must be positive, got -1.0"),
    (["sweep-unique", "--op", "sinkhorn-naive", "--tau", "0", "--n", "2", "--d", "2"], None,
     "tau must be positive, got 0.0"),
    (["sweep-tradeoff", "--op", "sinkhorn-ot", "--tau", "-2", "--seed", "0"], None,
     "tau must be positive, got -2.0"),
    (["apply", "--op", "sinkhorn-naive", "--exp-scale", "--tau", "0"], CSV_POS4,
     "tau must be positive, got 0.0"),
    (["count", "--n", "1", "--p", "5"], None, "n must be >= 2, got 1"),
    (["count", "--mode", "analytic", "--n", "3", "--p", "1"], None, "p must be >= 2, got 1"),
    (["shots", "--shots", "2", "--seed", "0", "--theta-seed", "0"], CSV_ID4,
     "need at least one shot per column: shots=2 < T=4"),
    (["apply-attn", "--normalizer", "softmax", "--q-file", "q.csv", "--key-file", "k.csv",
      "--value-file", "v3.csv"], None, "incompatible shapes qm(4, 3) km(4, 3) vm(3, 2)"),
    # a temperature the normalizer cannot take: the softmax and Sinkhorn
    # families need a positive one, every other normalizer a nonzero number
    (["apply-attn", "--normalizer", "softmax", *QKV_FLAGS, "--temperature", "0"], None,
     "tau must be positive, got 0.0"),
    (["apply-attn", "--normalizer", "softmax", *QKV_FLAGS, "--temperature", "-1"], None,
     "tau must be positive, got -1.0"),
    (["apply-attn", "--normalizer", "sinkhorn-naive", *QKV_FLAGS, "--temperature", "-0.5"],
     None, "tau must be positive, got -0.5"),
    (["apply-attn", "--normalizer", "sinkhorn-ot", *QKV_FLAGS, "--temperature", "0"], None,
     "tau must be positive, got 0.0"),
    (["apply-attn", "--normalizer", "norm-softmax", *QKV_FLAGS, "--temperature", "0"], None,
     "tau must be positive, got 0.0"),
    (["apply-attn", "--normalizer", "norm-softmax", *QKV_FLAGS, "--temperature", "-1.5"],
     None, "tau must be positive, got -1.5"),
    (["apply", "--op", "norm-softmax", "--tau", "-1"], CSV_POS4,
     "tau must be positive, got -1.0"),
    (["props", "--op", "norm-softmax", "--tau", "nan", "--seed", "0"], None,
     "tau must be positive, got nan"),
    (["apply-attn", "--normalizer", "birkhoff-project", *QKV_FLAGS, "--temperature", "0"],
     None, "temperature must be a nonzero number, got 0.0"),
    (["apply-attn", "--normalizer", "qr", "--seed", "0", *QKV_FLAGS, "--temperature", "0"],
     None, "temperature must be a nonzero number, got 0.0"),
    (["apply-attn", "--normalizer", "qontot", "--theta-seed", "0", *QKV_FLAGS,
      "--temperature", "0"], None, "temperature must be a nonzero number, got 0.0"),
    (["apply-attn", "--normalizer", "birkhoff-project", *QKV_FLAGS, "--temperature", "nan"],
     None, "temperature must be a nonzero number, got nan"),
]

# the CLI's names for the calls that start work; a usage error must come before any
WORK_ENTRY_POINTS = ("vjp_check", "probe_invariances", "tradeoff_sweep", "bench_circuit",
                     "uniqueness_sweep", "count_brute", "f3_analytic", "decomposition_check",
                     "_sample_columns", "attention_forward", "project", "exp_scale")


def forbid_work(monkeypatch):
    """Make every call that starts work fail the test."""
    def work(*args, **kw):
        raise AssertionError("work started before the settings were checked")

    for name in WORK_ENTRY_POINTS:
        monkeypatch.setattr(f"birkhoff_attn.cli.{name}", work)
    for spec in SPECS.values():  # a spec call is work too
        monkeypatch.setattr(spec, "__call__", work)
        monkeypatch.setattr(spec, "attend", work)


def write_setting_inputs(directory):
    """Q/K/V files of 4 rows, and a value file of 3 rows that does not match them."""
    write_qkv(directory, t=4)
    np.savetxt(directory / "v3.csv", np.ones((3, 2)), delimiter=",")


class TestOperatorFlags:
    @pytest.mark.parametrize("name", OPERATOR_NAMES)
    def test_apply_and_apply_attn_accept_the_same_names(self, name, capsys, monkeypatch,
                                                         tmp_path):
        monkeypatch.chdir(tmp_path)
        write_qkv(tmp_path, t=4)
        flags = OPERATOR_FLAGS.get(name, [])
        code, _, err = invoke(["apply", "--op", name, *flags], capsys, monkeypatch,
                              stdin_text=CSV_POS4)
        assert code == 0, err
        code, _, err = invoke(["apply-attn", "--normalizer", name, *flags, *QKV_FLAGS], capsys)
        assert code == 0, err

    def test_unknown_name_lists_the_operators(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        write_qkv(tmp_path)
        errors = []
        for argv in (["apply", "--op", "softermax"],
                     ["apply-attn", "--normalizer", "softermax", *QKV_FLAGS]):
            code, _, err = invoke(argv, capsys, monkeypatch, stdin_text=CSV_2X2)
            assert code == 1
            errors.append(err)
        assert errors[0] == errors[1]
        assert ", ".join(OPERATOR_NAMES) in errors[0]

    @pytest.mark.parametrize("argv, stdin_text, message", [
        (["apply", "--op", "birkhoff-project", "--tolerance", "-1"], CSV_2X2, "tolerance"),
        (["apply", "--op", "qontot", "--layers", "0", "--theta-seed", "0"], CSV_ID4, "layers"),
        (["apply", "--op", "qontot", "--theta-seed", "0"], "1,0,0\n0,1,0\n0,0,1\n", "dsm_dim"),
        (["apply", "--op", "softmax"], '{"n": 1.5, "data": [3]}', "'n' must be an integer"),
        (["apply", "--op", "softmax"], '{"n": true, "data": [3]}', "'n' must be an integer"),
        (["apply", "--op", "softmax"], '{"n": -2, "data": [1, 2, 3, 4]}',
         "'n' must be an integer >= 1, got -2"),
        (["apply", "--op", "softmax"], '{"n": 1, "data": ["1"]}', "'data' must be a list of"),
        (["apply", "--op", "softmax"], '{"n": 1, "data": [true]}', "'data' must be a list of"),
        (["apply", "--op", "softmax"], '{"n": 2, "data": [[1], [2], [3], [4]]}',
         "'data' must be a list of"),
        (["apply-attn", "--normalizer", "birkhoff-project", "--tolerance", "-1", *QKV_FLAGS],
         None, "tolerance"),
        (["apply-attn", "--normalizer", "qontot", "--aux-qubits", "-1", "--theta-seed", "0",
          *QKV_FLAGS], None, "aux_qubits"),
        (["sweep-unique", "--op", "birkhoff-project", "--tolerance", "-1", "--n", "2", "--d", "2"],
         None, "tolerance"),
        (["sweep-tradeoff", "--op", "birkhoff-project", "--max-iterations", "0", "--seed", "0"],
         None, "max_iterations"),
        (["props", "--op", "qontot", "--layers", "0", "--theta-seed", "0", "--seed", "0"],
         None, "layers"),
        (["shots", "--layers", "0", "--theta-seed", "0", "--shots", "10", "--seed", "0"],
         CSV_ID4, "layers"),
        (["sweep-unique", "--op", "softmax", "--n", "0", "--d", "2"], None, "n must be"),
        (["sweep-unique", "--op", "softmax", "--n", "2", "--d", "2", "--rounding-decimals", "-1"],
         None, "rounding_decimals"),
        (["sweep-unique", "--op", "softmax", "--n", "2", "--d", "2", "--start", "-5"],
         None, "bad index range [-5, 16)"),
        (["sweep-unique", "--op", "softmax", "--n", "2", "--d", "2", "--start", "9",
          "--stop", "3"], None, "bad index range [9, 3)"),
        (["bench", "--layers", "0"], None, "layers"),
        (["bench", "--dsm-dim", "3"], None, "dsm_dim"),
        *KERNEL_SETTING_CASES,
    ])
    def test_invalid_setting_is_usage_error(self, argv, stdin_text, message, capsys,
                                            monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        write_setting_inputs(tmp_path)
        code, out, err = invoke(argv, capsys, monkeypatch, stdin_text=stdin_text or "")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and message in err


    @pytest.mark.parametrize("argv, message", [
        (["gradcheck", "--normalizer", "sinkhorn-naive", "--k", "2", "--seed", "0"],
         "iteration count must be odd"),
        (["gradcheck", "--normalizer", "softmax", "--tau", "-1", "--seed", "0"],
         "tau must be positive"),
        (["gradcheck", "--normalizer", "softmax", "--n", "0", "--seed", "0"],
         "n must be >= 1, got 0"),
        (["gradcheck", "--normalizer", "softmax", "--trials", "0", "--seed", "0"],
         "trials must be >= 1, got 0"),
        (["props", "--op", "softmax", "--n", "0", "--seed", "0"], "n must be >= 1, got 0"),
        (["props", "--op", "softmax", "--trials", "-2", "--seed", "0"],
         "trials must be >= 1, got -2"),
        (["sweep-tradeoff", "--op", "softmax", "--n", "0", "--seed", "0"],
         "n must be >= 1, got 0"),
        (["sweep-tradeoff", "--op", "softmax", "--trials", "0", "--seed", "0"],
         "trials must be >= 1, got 0"),
        (["bench", "--reps", "0"], "reps must be >= 1, got 0"),
        # every size flag has a ceiling; these five once ran out of memory or ran unbounded
        (["gradcheck", "--normalizer", "softmax", "--n", "2147483648", "--seed", "0"],
         "n must be <= 256, got 2147483648"),
        (["gradcheck", "--normalizer", "softmax", "--trials", "2147483648", "--seed", "0"],
         "trials must be <= 1000, got 2147483648"),
        (["shots", "--layers", "2147483648", "--theta-seed", "0", "--shots", "10", "--seed", "0"],
         "layers must be in [1, 1024], got 2147483648"),
        (["bench", "--reps", "2147483648"], "reps must be <= 1000, got 2147483648"),
        (["bench", "--layers", "2147483648"], "layers must be in [1, 1024], got 2147483648"),
        (["sweep-unique", "--op", "softmax", "--n", "2147483648", "--d", "2"],
         "n must be <= 256, got 2147483648"),
        (["props", "--op", "softmax", "--trials", "1001", "--seed", "0"],
         "trials must be <= 1000, got 1001"),
        (["sweep-tradeoff", "--op", "softmax", "--n", "257", "--seed", "0"],
         "n must be <= 256, got 257"),
        *((argv, message) for argv, _, message in KERNEL_SETTING_CASES),
        # the iteration flags have ceilings too; the first once ran 2^31 sinkhorn passes
        (["apply", "--op", "sinkhorn-naive", "--k", "2147483647"],
         "k must be <= 10000, got 2147483647"),
        (["sweep-unique", "--op", "sinkhorn-ot", "--k", "10001", "--n", "2", "--d", "2"],
         "k must be <= 10000, got 10001"),
        (["gradcheck", "--normalizer", "sinkhorn-naive", "--k", "10001", "--seed", "0"],
         "k must be <= 10000, got 10001"),
        (["apply", "--op", "birkhoff-project", "--max-iterations", "1000001"],
         "max_iterations must be <= 1000000, got 1000001"),
        (["apply-attn", "--normalizer", "birkhoff-project", "--max-iterations", "2147483648",
          *QKV_FLAGS], "max_iterations must be <= 1000000, got 2147483648"),
        (["props", "--op", "birkhoff-project", "--max-iterations", "1000001", "--seed", "0"],
         "max_iterations must be <= 1000000, got 1000001"),
        # a negative seed is a setting too: props, bench, shots and sweep-unique once failed
        # in the work, apply and apply-attn passed on a full-rank input, which never reads
        # qr's seed, and sweep-tradeoff and gradcheck gave numpy's message
        (["props", "--op", "softmax", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["bench", "--theta-seed", "-1"], "theta_seed must be >= 0, got -1"),
        (["shots", "--theta-seed", "0", "--shots", "10", "--seed", "-1"],
         "seed must be >= 0, got -1"),
        (["sweep-unique", "--op", "qr", "--seed", "-1", "--n", "2", "--d", "2"],
         "seed must be >= 0, got -1"),
        (["apply", "--op", "qr", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["apply-attn", "--normalizer", "qr", "--seed", "-1", *QKV_FLAGS],
         "seed must be >= 0, got -1"),
        (["sweep-tradeoff", "--op", "softmax", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["gradcheck", "--normalizer", "softmax", "--seed", "-1"], "seed must be >= 0, got -1"),
    ])
    def test_invalid_count_or_setting_fails_before_any_work(self, argv, message, capsys,
                                                             monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        write_setting_inputs(tmp_path)
        forbid_work(monkeypatch)
        # every case that reads stdin takes a 4 x 4 matrix
        code, out, err = invoke(argv, capsys, monkeypatch, stdin_text=CSV_POS4)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["apply", "--op", "sinkhorn-naive", "--k", "9999"],
        ["apply", "--op", "birkhoff-project", "--max-iterations", "1000000"],
    ], ids=["k", "max-iterations"])
    def test_iteration_flags_at_their_ceiling_run(self, argv, capsys, monkeypatch):
        code, out, err = invoke(argv, capsys, monkeypatch, stdin_text=CSV_POS4)
        assert code == 0, err
        assert out


# flags that set an operator other than softmax
OTHER_OPERATOR_FLAGS = [("--k", "5"), ("--power", "2"), ("--tolerance", "1e-3"),
                        ("--max-iterations", "9"), ("--layers", "4"), ("--aux-qubits", "1"),
                        ("--ansatz", "trotter"), ("--theta-seed", "1"),
                        ("--theta-file", "theta.csv"), ("--seed", "3")]


class TestOtherOperatorSettings:
    @pytest.mark.parametrize("command, flag, value", [
        (command, flag, value)
        for command in ("apply", "apply-attn", "sweep-unique", "sweep-tradeoff", "props")
        for flag, value in OTHER_OPERATOR_FLAGS
        # sweep-tradeoff and props read --seed for their own draws
        if not (flag == "--seed" and command in ("sweep-tradeoff", "props"))
    ])
    def test_flag_of_another_operator_is_usage_error(self, command, flag, value, capsys,
                                                    monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        write_qkv(tmp_path)
        argv, stdin_text = BASE_RUNS[command]  # a softmax run
        code, out, err = invoke([*argv, flag, value], capsys, monkeypatch,
                                stdin_text=stdin_text or "")
        assert (code, out) == (1, "")
        assert err == f"error: operator 'softmax' takes no {flag}\n"

    def test_config_value_of_another_operator_is_usage_error(self, capsys, monkeypatch,
                                                            tmp_path):
        config = tmp_path / "sinkhorn.cfg"
        config.write_text("k=5\n")
        argv, stdin_text = BASE_RUNS["apply"]
        code, out, err = invoke([*argv, "--config", str(config)], capsys, monkeypatch,
                                stdin_text=stdin_text)
        assert (code, out, err) == (1, "", "error: operator 'softmax' takes no --k\n")

    @pytest.mark.parametrize("normalizer, flag, value", [
        ("softmax", "--k", "5"), ("sinkhorn-naive", "--tau", "3"),
    ])
    def test_gradcheck_setting_of_the_other_normalizer_is_usage_error(
            self, normalizer, flag, value, capsys):
        code, out, err = invoke(["gradcheck", "--normalizer", normalizer, flag, value,
                                 "--n", "3", "--trials", "1", "--seed", "0"], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: operator '{normalizer}' takes no {flag}\n"


SOFTMAXES = {"softmax", "norm-softmax"}
SINKHORNS = {"sinkhorn-naive", "sinkhorn-ot"}
# the operators that take the given flags on each subcommand: --tau is the
# softmax family's temperature, or the exp_scale temperature of a Sinkhorn
# whose inputs the handler exponentiates (the sweeps always, apply with
# --exp-scale); only the Sinkhorn family takes --exp-scale
TAU_TAKERS = {
    ("apply", ("--tau", "0.5")): SOFTMAXES,
    ("apply", ("--exp-scale",)): SINKHORNS,
    ("apply", ("--exp-scale", "--tau", "0.5")): SINKHORNS,
    ("sweep-unique", ("--tau", "0.5")): SOFTMAXES | SINKHORNS,
    ("sweep-tradeoff", ("--tau", "0.5")): SOFTMAXES | SINKHORNS,
    ("props", ("--tau", "0.5")): SOFTMAXES,
}
# a run of each subcommand, less its operator, with the stdin it reads
OPERATOR_RUNS = {
    "apply": (["apply"], CSV_POS4),
    "sweep-unique": (["sweep-unique", "--n", "2", "--d", "2", "--workers", "1"], None),
    "sweep-tradeoff": (["sweep-tradeoff", "--n", "4", "--trials", "2", "--seed", "0"], None),
    "props": (["props", "--n", "4", "--trials", "2", "--seed", "0"], None),
}


class TestTauAndExpScale:
    @pytest.mark.parametrize("command, flags, name", [
        (command, flags, name) for command, flags in TAU_TAKERS for name in OPERATOR_NAMES
    ])
    def test_only_an_operator_that_reads_them_takes_them(self, command, flags, name, capsys,
                                                         monkeypatch):
        argv, stdin_text = OPERATOR_RUNS[command]
        argv = [*argv, "--op", name, *OPERATOR_FLAGS.get(name, []), *flags]
        if name in TAU_TAKERS[command, flags]:
            code, _, err = invoke(argv, capsys, monkeypatch, stdin_text=stdin_text or "")
            assert code == 0, err
            return
        forbid_work(monkeypatch)
        code, out, err = invoke(argv, capsys, monkeypatch, stdin_text=stdin_text or "")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: operator '{name}' takes no --") and err.count("\n") == 1
        if len(named := [flag for flag in flags if flag.startswith("--")]) == 1:
            assert err == f"error: operator '{name}' takes no {named[0]}\n"

    def test_exp_scale_set_to_false_in_a_config_is_unset(self, capsys, monkeypatch, tmp_path):
        config = tmp_path / "switch.cfg"
        argv = ["apply", "--op", "softmax", "--config", str(config)]
        config.write_text("exp-scale=false\n")
        plain = invoke(argv[:3], capsys, monkeypatch, stdin_text=CSV_2X2)
        assert plain[0] == 0
        assert invoke(argv, capsys, monkeypatch, stdin_text=CSV_2X2) == plain
        config.write_text("exp-scale=true\n")
        assert invoke(argv, capsys, monkeypatch, stdin_text=CSV_2X2) == (
            1, "", "error: operator 'softmax' takes no --exp-scale\n")

    def test_operator_flags_are_the_operator_settings_the_parser_declares(self):
        # the flags every subcommand with --op shares, less --op, and apply's --exp-scale
        _, commands = _build_parser()
        with_op = [{action.dest for action in sub._actions}
                   for sub in commands.choices.values()
                   if any(action.dest == "op" for action in sub._actions)]
        shared = set.intersection(*with_op) - {"op", "config", "help"}
        assert set(_OPERATOR_FLAGS) == shared | {"exp_scale"}


def test_every_spec_setting_has_an_operator_flag():
    # and every operator flag sets a spec field some operator has; qontot's
    # dsm_dim comes from the input's size, not from a flag
    settings = set().union(*({f.name for f in fields(spec) if f.init} for spec in SPECS.values()))
    set_by_flags = {key for key, _ in _OPERATOR_FLAGS.values() if key is not None}
    assert settings - {"dsm_dim"} == set_by_flags


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["count", "--qubits", "3"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_non_finite_theta_file_is_usage_error(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "theta.csv").write_text("0.5,nan,0.25\n")
        code, out, err = invoke(["apply", "--op", "qontot", "--theta-file", "theta.csv"],
                                capsys, monkeypatch, stdin_text=CSV_ID4)
        assert (code, out, err) == (
            1, "", "error: theta.csv: matrix contains non-finite entries\n")

    @pytest.mark.parametrize("argv, stdin_text, source, message", [
        (["apply", "--op", "softmax"], "1,2\n3,4,5\n", "stdin", "number of columns"),
        (["apply", "--op", "softmax"], "1,2,3\n4,5,6\n", "stdin", "must be square"),
        (["apply", "--op", "softmax"], '{"n": 2}', "stdin", "'data'"),
        (["apply", "--op", "softmax"], '{"n": 1, "data": 3}', "stdin", "'data' must be a list"),
        (["apply", "--op", "softmax"], '{"n": 1, "data": null}', "stdin",
         "'data' must be a list"),
        (["apply", "--op", "softmax"], '{"n": 1, "data": {"a": 1}}', "stdin",
         "'data' must be a list"),
        (["apply", "--op", "softmax"], " \n", "stdin", "empty matrix input"),
        (["apply", "--op", "softmax", "--input", "missing.csv"], None, "missing.csv",
         "No such file"),
        (["apply-attn", "--normalizer", "softmax", "--q-file", "q.csv", "--key-file",
          "ragged.csv", "--value-file", "v.csv"], None, "ragged.csv", "number of columns"),
        (["apply-attn", "--normalizer", "softmax", "--q-file", "q.csv", "--key-file",
          "missing.csv", "--value-file", "v.csv"], None, "missing.csv", "No such file"),
        (["apply", "--op", "qontot", "--theta-file", "missing.csv"], CSV_ID4, "missing.csv",
         "No such file"),
        (["count", "--n", "3", "--p", "2", "--config", "missing.cfg"], None, "missing.cfg",
         "No such file"),
        (["apply", "--op", "softmax", "--input", "empty.csv"], None, "empty.csv",
         "empty matrix input"),
        (["apply-attn", "--normalizer", "softmax", "--q-file", "empty.csv", "--key-file",
          "k.csv", "--value-file", "v.csv"], None, "empty.csv", "empty matrix input"),
        (["apply", "--op", "softmax", "--input", "blank.csv"], None, "blank.csv",
         "empty matrix input"),
        (["apply", "--op", "softmax", "--input", "empty.json"], None, "empty.json",
         "empty matrix input"),
        (["apply-attn", "--normalizer", "softmax", "--q-file", "nan.csv", "--key-file",
          "k.csv", "--value-file", "v.csv"], None, "nan.csv",
         "matrix contains non-finite entries"),
    ], ids=["ragged-stdin", "non-square-stdin", "json-without-data", "json-int-data",
            "json-null-data", "json-object-data", "empty-stdin",
            "missing-input", "ragged-key-file", "missing-key-file", "missing-theta-file",
            "missing-config", "empty-input-file", "empty-q-file", "blank-input-file",
            "empty-json-file", "non-finite-q-file"])
    def test_unreadable_input_names_its_source(self, argv, stdin_text, source, message,
                                                capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        write_qkv(tmp_path)
        (tmp_path / "ragged.csv").write_text("1,2,3\n4,5\n1,2,3\n")
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "empty.json").write_text("")
        (tmp_path / "blank.csv").write_text("  \n \n")
        (tmp_path / "nan.csv").write_text("1,2,3\n4,nan,6\n7,8,9\n")
        code, out, err = invoke(argv, capsys, monkeypatch, stdin_text=stdin_text or "")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {source}: ") and err.count("\n") == 1
        assert message in err and "StringIO" not in err


class TestCount:
    def test_brute(self, capsys, monkeypatch):
        code, out, _ = invoke(["count", "--n", "4", "--p", "2"], capsys, monkeypatch)
        assert code == 0
        assert json.loads(out) == {"n": 4, "p": 2, "f": 24,
                                   "c1": None, "c2": None, "c12": None}

    def test_decompose(self, capsys, monkeypatch):
        code, out, _ = invoke(
            ["count", "--n", "3", "--p", "3", "--mode", "decompose"],
            capsys, monkeypatch,
        )
        assert code == 0
        assert json.loads(out) == {"n": 3, "p": 3, "f": 21, "c1": 55, "c2": 5, "c12": 0}

    def test_analytic(self, capsys, monkeypatch):
        code, out, _ = invoke(
            ["count", "--n", "3", "--p", "12", "--mode", "analytic"],
            capsys, monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["f"] == 3081

    def test_analytic_rejects_other_sizes(self, capsys, monkeypatch):
        code, _, err = invoke(
            ["count", "--n", "4", "--p", "3", "--mode", "analytic"],
            capsys, monkeypatch,
        )
        assert code == 1
        assert "n = 3" in err

    def test_budget_blowup_is_numerical_error(self, capsys, monkeypatch):
        code, _, err = invoke(["count", "--n", "9", "--p", "11"], capsys, monkeypatch)
        assert code == 2
        assert "budget" in json.loads(err)["error"]

    # SHA-256 of stdout, taken before counting split candidates into head and
    # last rows; the empty-stdout digest is analytic's usage error for n = 4
    @pytest.mark.parametrize("mode,n,p,code,digest", [
        ("brute", 3, 12, 0, "90ce916ea941f246b9c0c155c88d334a34244b460bb00bd5712dca6dc6ae5cc6"),
        ("brute", 4, 5, 0, "f6e4d707b5cd670fe7aa74d554dab936fca3a84780a5f4b74e4612dd988ffea0"),
        ("decompose", 3, 12, 0, "ab36d57dc047a16d779617dc2ad120e84b1a35ac085cdd4ffc1ee14b809f309d"),
        ("decompose", 4, 5, 0, "be87cdd5ef48927f271c011ce0931f46c47f5d5a8b5971956225e5981df6f768"),
        ("analytic", 3, 12, 0, "90ce916ea941f246b9c0c155c88d334a34244b460bb00bd5712dca6dc6ae5cc6"),
        ("analytic", 4, 5, 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        # the benchmark's sizes, taken before counting in array passes
        ("brute", 3, 43, 0, "c7b97a352ba0a12644801be086379f18d2aa853404749cff5d122ea3c11ee7d2"),
        ("analytic", 3, 43, 0, "c7b97a352ba0a12644801be086379f18d2aa853404749cff5d122ea3c11ee7d2"),
        ("decompose", 4, 6, 0, "5f693019fefcf574bccaf7829a93e7e818d556fad51bbf0c6877518549a8f5ed"),
    ])
    def test_stdout_bytes_are_pinned(self, mode, n, p, code, digest, capsys, monkeypatch):
        got, out, _ = invoke(["count", "--n", str(n), "--p", str(p), "--mode", mode],
                             capsys, monkeypatch)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestShots:
    def test_metrics_on_stderr(self, capsys, monkeypatch):
        code, out, err = invoke(
            ["shots", "--shots", "400", "--seed", "3", "--theta-seed", "5",
             "--layers", "2"],
            capsys, monkeypatch, stdin_text=CSV_ID4,
        )
        assert code == 0
        sampled = parse_csv(out)
        assert_allclose(sampled.sum(axis=0), np.ones(4), atol=1e-12)
        metrics = json.loads(err)
        assert metrics["shots"] == 400
        assert 0.0 <= metrics["frobenius_to_exact"]
        assert -1.0 <= metrics["spearman_to_exact"] <= 1.0

    def test_project_flag_gives_doubly_stochastic_output(self, capsys, monkeypatch):
        code, out, _ = invoke(
            ["shots", "--shots", "400", "--seed", "3", "--theta-seed", "5",
             "--layers", "2", "--project"],
            capsys, monkeypatch, stdin_text=CSV_ID4,
        )
        assert code == 0
        sampled = parse_csv(out)
        assert_allclose(sampled.sum(axis=0), np.ones(4), atol=1e-7)
        assert_allclose(sampled.sum(axis=1), np.ones(4), atol=1e-7)

    def test_simulates_the_circuit_once(self, capsys, monkeypatch):
        # the exact matrix is both the sampling distribution and the metrics' reference
        calls = []
        simulate = qontot._simulate

        def spy(config, phi):
            calls.append(len(phi))
            return simulate(config, phi)

        monkeypatch.setattr(qontot, "_simulate", spy)
        code, out, _ = invoke(["shots", "--shots", "400", "--seed", "3", "--theta-seed", "5"],
                              capsys, monkeypatch, stdin_text=CSV_ID4)
        assert (code, calls) == (0, [1])
        circuit = make_operator("qontot", dsm_dim=4, theta_seed=5)
        want = sample_shots(circuit.config, circuit.theta, np.eye(4), shots=400, seed=3)
        assert np.array_equal(parse_csv(out), want)

    def test_seed_required(self, capsys, monkeypatch):
        code, _, err = invoke(
            ["shots", "--shots", "400", "--theta-seed", "5"],
            capsys, monkeypatch, stdin_text=CSV_ID4,
        )
        assert code == 1
        assert "--seed" in err


class TestBench:
    def test_csv_table(self, capsys, monkeypatch):
        code, out, _ = invoke(
            ["bench", "--dsm-dim", "4", "--layers", "1,2", "--reps", "2"],
            capsys, monkeypatch,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "layers,qubits,median_seconds"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["1", "2"]
        assert all(float(r[2]) > 0.0 for r in rows)

    @pytest.mark.parametrize("layers", ["1,two", ",", ""])
    def test_bad_layer_list(self, layers, capsys, monkeypatch, tmp_path):
        config = tmp_path / "bench.cfg"
        config.write_text(f"layers={layers}\n")
        for argv, message in ((["bench", "--layers", layers], "comma-separated"),
                              (["bench", "--config", str(config)], "bad config value for layers")):
            code, out, err = invoke(argv, capsys, monkeypatch)
            assert code == 1
            assert out == ""
            assert message in err


class TestGradcheck:
    def test_sinkhorn(self, capsys, monkeypatch):
        code, out, _ = invoke(
            ["gradcheck", "--normalizer", "sinkhorn-naive", "--k", "3",
             "--n", "4", "--trials", "2", "--seed", "0"],
            capsys, monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["max_relative_error"] < 1e-4

    def test_softmax(self, capsys, monkeypatch):
        code, out, _ = invoke(
            ["gradcheck", "--normalizer", "softmax", "--n", "4",
             "--trials", "2", "--seed", "0"],
            capsys, monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["max_relative_error"] < 1e-6

    def test_unsupported_normalizer(self, capsys, monkeypatch):
        code, _, err = invoke(
            ["gradcheck", "--normalizer", "qr", "--seed", "0"],
            capsys, monkeypatch,
        )
        assert code == 1
        assert "gradcheck" in err


class TestSweeps:
    def test_unique_json_report(self, capsys, monkeypatch):
        code, out, _ = invoke(
            ["sweep-unique", "--op", "softmax", "--n", "2", "--d", "3",
             "--workers", "1"],
            capsys, monkeypatch,
        )
        assert code == 0
        report = json.loads(out)
        assert report["total_inputs"] == 81
        assert report["unique_outputs"] <= 81
        assert sum(report["count_multiset"]) == 81

    def test_large_grid_needs_full_flag(self, capsys, monkeypatch):
        code, _, err = invoke(
            ["sweep-unique", "--op", "softmax", "--n", "3", "--d", "5"],
            capsys, monkeypatch,
        )
        assert code == 1
        assert "--full" in err

    def test_window_under_the_gate_runs_without_full(self, capsys):
        # the grid has 3^16 = 43,046,721 inputs; the gate counts the 10 in the window
        code, out, err = invoke(["sweep-unique", "--n", "4", "--d", "3", "--op", "softmax",
                                 "--start", "0", "--stop", "10", "--workers", "1"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["total_inputs"] == 10

    def test_window_clipped_to_the_grid_is_what_the_gate_counts(self, capsys):
        code, out, _ = invoke(["sweep-unique", "--n", "4", "--d", "3", "--op", "softmax",
                               "--start", str(3**16 - 5), "--stop", str(3**16 + 10**7),
                               "--workers", "1"], capsys)
        assert code == 0
        assert json.loads(out)["total_inputs"] == 5

    def test_window_above_the_gate_needs_full(self, capsys):
        code, out, err = invoke(["sweep-unique", "--n", "4", "--d", "3", "--op", "softmax",
                                 "--start", "5", "--stop", str(5 + 2**20 + 1)], capsys)
        assert (code, out) == (1, "")
        assert err == "error: sweep covers 1048577 inputs; pass --full to confirm\n"

    def test_zero_workers_is_usage_error(self, capsys, monkeypatch):
        code, out, err = invoke(["sweep-unique", "--op", "softmax", "--n", "2", "--d", "2",
                                 "--workers", "0"], capsys, monkeypatch)
        assert (code, out, err) == (1, "", "error: workers must be >= 1, got 0\n")

    @pytest.mark.parametrize("value, message", [
        ("two", "bad BIRKHOFF_ATTN_WORKERS value 'two'"),
        ("0", "workers must be >= 1, got 0"),
    ])
    def test_bad_workers_variable_is_usage_error(self, value, message, capsys, monkeypatch):
        monkeypatch.setenv("BIRKHOFF_ATTN_WORKERS", value)
        code, out, err = invoke(["sweep-unique", "--op", "softmax", "--n", "2", "--d", "2"],
                                capsys, monkeypatch)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_tradeoff_csv(self, capsys, monkeypatch):
        code, out, _ = invoke(
            ["sweep-tradeoff", "--op", "softmax", "--n", "4", "--trials", "3",
             "--seed", "1"],
            capsys, monkeypatch,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,entropy,residual"
        assert len(lines) == 4

    def test_tradeoff_requires_seed(self, capsys, monkeypatch):
        code, _, err = invoke(
            ["sweep-tradeoff", "--op", "softmax"], capsys, monkeypatch,
        )
        assert code == 1
        assert "--seed" in err


class TestProps:
    def test_json_payload(self, capsys, monkeypatch):
        code, out, _ = invoke(
            ["props", "--op", "sinkhorn-naive", "--trials", "3", "--seed", "0"],
            capsys, monkeypatch,
        )
        assert code == 0
        result = json.loads(out)
        assert result["scale_invariant"] is True
        assert result["permutation_equivariant"] is True


# SHA-256 of stdout, taken while probes and tradeoff sweeps still called
# their operator one matrix at a time
SEEDED_RUNS = {"props": ["--n", "4", "--trials", "10", "--seed", "5"],
               "sweep-tradeoff": ["--n", "4", "--trials", "20", "--seed", "0"]}


@pytest.mark.parametrize("command, name, digest", [
    ("props", "sinkhorn-naive", "2161578c141495f3facb791d1bf1e54373da9478f1ffd9812dbc5ddcc022f8c4"),
    ("sweep-tradeoff", "sinkhorn-naive",
     "3a36a969f8b31952378a4d917d9121a19f6388acbbba51fdd335c684a20cd902"),
    ("props", "sinkhorn-ot", "2132ee1ccc3d9af6dc9eaacc9eeb957962eb624f9970cf0b1a2ff16bc1ad212b"),
    ("sweep-tradeoff", "sinkhorn-ot",
     "02e532148df7fc66baea88c6d53bcd4bdbeb2d09e3e7f80779f9ce417204fd5b"),
    ("props", "birkhoff-project",
     "6d705a6b7f493ea6389a8775457297f8c097a95702fd9813f4d239c8a045e33d"),
    ("sweep-tradeoff", "birkhoff-project",
     "2a0174b6d256c40890a177b0825dd3a60466fe1cc3abd115a590c157b0fbde41"),
    ("props", "qr", "eaa54dfb07f03c939f8fe72bc4f2a4e7a51dbdc50cf9fda483cc6d0ae856d0c6"),
    ("sweep-tradeoff", "qr", "1bb0965d9c5801666237eccfca09ca050206b12c4f744e822eade86894cd104b"),
    ("props", "qontot", "6e3941c0152f155116646022827b67ab55e1c6458ce296a47bf4586bf8519567"),
    ("sweep-tradeoff", "qontot",
     "d2be0d6a7afba89cd278481a731bfbc32ccea62d5994ef3df0bc919a482bdbeb"),
    ("props", "softmax", "dece479ee8c876dc58907ee65d3fb891ccb2a2034b5fc3d97277ca83c9d2e096"),
    ("sweep-tradeoff", "softmax",
     "c42419c2213fc6c201c4f3b82dfbb51648861bb70ec7aa2c93fa2385a9f8c9ac"),
    ("props", "norm-softmax", "2bdb72162b24992e5ea21fc399f3522907bfaf331e515e85bd40527205fc7312"),
    ("sweep-tradeoff", "norm-softmax",
     "51ff38a10d8ece4fee163756b1d0dbb19cdb74dcde9b7d112722fa22b2434944"),
])
def test_props_and_tradeoff_stdout_bytes_are_pinned(command, name, digest, capsys):
    flags = ["--theta-seed", "0"] if name == "qontot" else []
    code, out, err = invoke([command, "--op", name, *flags, *SEEDED_RUNS[command]], capsys)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestConfigFile:
    def test_config_supplies_missing_flags(self, capsys, monkeypatch, tmp_path):
        config = tmp_path / "defaults.cfg"
        config.write_text("# defaults\nseed=4\ntrials=2\n")
        code, out, _ = invoke(
            ["props", "--op", "qr", "--config", str(config)],
            capsys, monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["trials"] == 2

    def test_flag_overrides_config(self, capsys, monkeypatch, tmp_path):
        config = tmp_path / "defaults.cfg"
        config.write_text("n=3\np=2\n")
        code, out, _ = invoke(
            ["count", "--config", str(config), "--p", "3"],
            capsys, monkeypatch,
        )
        assert code == 0
        assert json.loads(out) == {"n": 3, "p": 3, "f": 21,
                                   "c1": None, "c2": None, "c12": None}

    @pytest.mark.parametrize("value, code, message", [
        ("false", 1, "--full"),
        ("False", 1, "--full"),
        ("TRUE", 0, ""),
        ("no", 1, "bad config value for full: 'no'"),
        ("1", 1, "bad config value for full: '1'"),
    ])
    def test_full_takes_true_or_false(self, value, code, message, capsys, monkeypatch,
                                      tmp_path):
        monkeypatch.setattr("birkhoff_attn.cli._FULL_GATE", 1)  # so a 2-input window needs --full
        config = tmp_path / "sweep.cfg"
        config.write_text(f"full={value}\n")
        got, _, err = invoke(
            ["sweep-unique", "--op", "softmax", "--n", "4", "--d", "3", "--stop", "2",
             "--workers", "1", "--config", str(config)],
            capsys, monkeypatch,
        )
        assert got == code
        assert message in err

    def test_exp_scale_and_project_take_true_or_false(self, capsys, monkeypatch, tmp_path):
        config = tmp_path / "switches.cfg"
        apply = ["apply", "--op", "sinkhorn-naive", "--k", "5"]
        shots = ["shots", "--shots", "800", "--seed", "1", "--theta-seed", "2"]
        for argv, stdin_text, key in ((apply, CSV_2X2, "exp-scale"), (shots, CSV_ID4, "project")):
            def run(value):
                config.write_text(f"{key}={value}\n")
                return invoke([*argv, "--config", str(config)], capsys, monkeypatch,
                              stdin_text=stdin_text)

            plain = invoke(argv, capsys, monkeypatch, stdin_text=stdin_text)
            assert plain[0] == 0
            assert run("false") == plain
            switched = run("True")
            assert switched[0] == 0 and switched[1] != plain[1]
            code, out, err = run("no")
            assert code == 1 and out == ""
            assert f"bad config value for {key.replace('-', '_')}: 'no'" in err

    @pytest.mark.parametrize("argv, stdin_text, key, good, bad", [
        (["count", "--p", "3"], None, "n", "3", "x"),
        (["apply", "--op", "softmax"], CSV_2X2, "tau", "0.5", "x"),
        (["count", "--n", "3", "--p", "3"], None, "mode", "decompose", "foo"),
        (["apply-attn", "--normalizer", "softmax", *QKV_FLAGS], None, "emit", "attn", "foo"),
        (["apply", "--op", "softmax"], CSV_2X2, "format", "json", "xml"),
        (["bench", "--reps", "1"], None, "layers", "1,3", "1,x"),
    ], ids=["int", "float", "choices-mode", "choices-emit", "choices-format", "list"])
    def test_value_is_checked_like_its_flag(self, argv, stdin_text, key, good, bad, capsys,
                                            monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        write_qkv(tmp_path)
        config = tmp_path / "flag.cfg"

        def run(*extra):
            return invoke([*argv, *extra], capsys, monkeypatch, stdin_text=stdin_text or "")

        def rows(out):  # bench's last column is a wall time
            if argv[0] != "bench":
                return out
            return [line.rsplit(",", 1)[0] for line in out.splitlines()]

        config.write_text(f"{key}={good}\n")
        from_config = run("--config", str(config))
        from_flag = run(f"--{key}", good)
        assert from_config[0] == from_flag[0] == 0, from_config[2]
        assert rows(from_config[1]) == rows(from_flag[1])
        config.write_text(f"{key}={bad}\n")
        code, out, err = run("--config", str(config))
        assert code == 1 and out == ""
        assert f"bad config value for {key}: '{bad}'" in err

    def test_bad_config_line(self, capsys, monkeypatch, tmp_path):
        config = tmp_path / "broken.cfg"
        config.write_text("just-some-text\n")
        code, _, err = invoke(
            ["count", "--config", str(config), "--n", "3", "--p", "2"],
            capsys, monkeypatch,
        )
        assert code == 1
        assert "key=value" in err


# one successful run per subcommand, with the stdin it reads
BASE_RUNS = {
    "apply": (["apply", "--op", "softmax"], CSV_2X2),
    "apply-attn": (["apply-attn", "--normalizer", "softmax", *QKV_FLAGS], None),
    "sweep-unique": (["sweep-unique", "--op", "softmax", "--n", "2", "--d", "2"], None),
    "sweep-tradeoff": (["sweep-tradeoff", "--op", "softmax", "--n", "4", "--trials", "2",
                        "--seed", "0"], None),
    "props": (["props", "--op", "softmax", "--trials", "2", "--seed", "0"], None),
    "count": (["count", "--n", "3", "--p", "2"], None),
    "shots": (["shots", "--shots", "10", "--seed", "0", "--theta-seed", "0"], CSV_ID4),
    "bench": (["bench", "--layers", "1", "--reps", "1"], None),
    "gradcheck": (["gradcheck", "--normalizer", "softmax", "--n", "2", "--trials", "1",
                   "--seed", "0"], None),
}


def operator_runs(command):
    """argv and stdin of one successful run per operator (or per mode) of ``command``."""
    ops = [["--op", name, *OPERATOR_FLAGS.get(name, [])] for name in OPERATOR_NAMES]
    per_command = {
        "apply": [([*op, *["--exp-scale"] * SPECS[op[1]].needs_positive], CSV_POS4)
                  for op in ops],
        "apply-attn": [(["--normalizer", *op[1:], *QKV_FLAGS], None) for op in ops],
        # a window above the --full gate, which the test lowers to 1 input
        "sweep-unique": [([*op, "--n", "4", "--d", "3", "--stop", "2", "--full",
                           "--workers", "1"], None) for op in ops],
        "sweep-tradeoff": [([*op, "--n", "4", "--trials", "2", "--seed", "0"], None)
                           for op in ops],
        "props": [([*op, "--n", "4", "--trials", "2", "--seed", "0"], None) for op in ops],
        "count": [(["--n", "3", "--p", "3", "--mode", mode], None)
                  for mode in ("brute", "analytic", "decompose")],
        "shots": [(BASE_RUNS["shots"][0][1:], CSV_ID4)],
        "bench": [(BASE_RUNS["bench"][0][1:], None)],
        "gradcheck": [(["--normalizer", name, "--n", "2", "--trials", "1", "--seed", "0"], None)
                      for name in birkhoff_attn.VJP_NORMALIZERS],
    }
    return [([command, *argv], stdin) for argv, stdin in per_command[command]]


class ReadRecorder(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "_reads", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


# the declared parser, pinned: each action's option strings, nargs, default,
# type name, choices and help, in declaration order
HELP = (("-h", "--help"), 0, "==SUPPRESS==", None, None, "show this help message and exit")
CONFIG = (("--config",), None, None, None, None, "flat key=value defaults file")
OP = (("--op",), None, None, None, None, None)
TAU = (("--tau",), None, None, "float", None,
       "softmax temperature, or the sinkhorn family's exp-scale one")
SETTINGS = [
    (("--k",), None, None, "int", None, "sinkhorn iteration count (odd)"),
    (("--power",), None, None, "int", None, None),
    (("--tolerance",), None, None, "float", None, None),
    (("--max-iterations",), None, None, "int", None, None),
    (("--seed",), None, None, "int", None, None),
    (("--layers",), None, None, "int", None, None),
    (("--aux-qubits",), None, None, "int", None, None),
    (("--ansatz",), None, None, None, ("simple", "trotter"), None),
    (("--theta-seed",), None, None, "int", None, None),
    (("--theta-file",), None, None, None, None, None),
]
INPUT = (("--input",), None, "-", None, None, "matrix file (CSV or JSON); default stdin")
FORMAT = (("--format",), None, "csv", None, ("csv", "json"), None)


def int_flag(flag, default=None):
    return ((flag,), None, default, "int", None, None)


PARSER_ACTIONS = {
    "apply": [HELP, CONFIG, OP, TAU, *SETTINGS, INPUT,
              (("--exp-scale",), 0, None, None, None,
               "pre-apply exp_scale (for the sinkhorn family on raw scores)"), FORMAT],
    "apply-attn": [HELP, CONFIG, (("--normalizer",), None, None, None, None, None), *SETTINGS,
                   *(((flag,), None, None, None, None, None)
                     for flag in ("--q-file", "--key-file", "--value-file")),
                   (("--temperature",), None, None, "float", None, None),
                   (("--emit",), None, "output", None, ("output", "attn"), None), FORMAT],
    "sweep-unique": [HELP, CONFIG, OP, TAU, *SETTINGS, int_flag("--n"), int_flag("--d"),
                     (("--domain",), None, "cube", None, ("cube", "sphere"), None),
                     int_flag("--rounding-decimals", 3), int_flag("--start", 0),
                     int_flag("--stop"),
                     (("--full",), 0, False, None, None,
                      "confirm a sweep window above 2^20 inputs"), int_flag("--workers")],
    "sweep-tradeoff": [HELP, CONFIG, OP, TAU, *SETTINGS, int_flag("--n", 8),
                       int_flag("--trials", 100)],
    "props": [HELP, CONFIG, OP, TAU, *SETTINGS, int_flag("--n", 4), int_flag("--trials", 10)],
    "count": [HELP, CONFIG, int_flag("--n"), int_flag("--p"),
              (("--mode",), None, "brute", None, ("brute", "analytic", "decompose"), None)],
    "shots": [HELP, CONFIG, *SETTINGS[4:], INPUT, int_flag("--shots"),
              (("--project",), 0, False, None, None,
               "project the sampled matrix back to doubly stochastic"), FORMAT],
    "bench": [HELP, CONFIG, int_flag("--dsm-dim", 4),
              (("--layers",), None, [1, 2], "_int_list", None, "comma-separated layer counts"),
              (("--aux-qubits",), None, [0], "_int_list", None,
               "comma-separated aux qubit counts"),
              (("--ansatz",), None, "simple", None, ("simple", "trotter"), None),
              int_flag("--reps", 5), int_flag("--theta-seed", 0)],
    "gradcheck": [HELP, CONFIG,
                  (("--normalizer",), None, None, None, ("sinkhorn-naive", "softmax"), None),
                  (("--k",), None, None, "int", None,
                   "sinkhorn-naive iteration count (odd; default 3)"),
                  (("--tau",), None, None, "float", None, "softmax temperature (default 1.0)"),
                  int_flag("--n", 8), int_flag("--trials", 10), int_flag("--seed")],
}
COMMAND_HELP = {
    "apply": "apply a normalizer to one matrix",
    "apply-attn": "attention forward pass from Q/K/V files",
    "sweep-unique": "count distinct outputs over a grid",
    "sweep-tradeoff": "entropy/residual rows on random inputs",
    "props": "probe scale/permutation invariances",
    "count": "count grid-valued doubly stochastic matrices",
    "shots": "finite-shot sampled circuit DSM",
    "bench": "wall-time scaling of the circuit simulator",
    "gradcheck": "compare analytic VJPs with finite differences",
}


def describe(action):
    """The pinned fields of a parser action."""
    choices = None if action.choices is None else tuple(action.choices)
    return (tuple(action.option_strings), action.nargs, action.default,
            getattr(action.type, "__name__", None), choices, action.help)


class TestDeclaredFlags:
    def test_the_parser_declares_the_pinned_flags(self):
        # unlike --help text, independent of the terminal width
        _, commands = _build_parser()
        assert {action.dest: action.help for action in commands._choices_actions} == COMMAND_HELP
        assert list(commands.choices) == list(PARSER_ACTIONS)
        for name, sub in commands.choices.items():
            assert [describe(action) for action in sub._actions] == PARSER_ACTIONS[name], name

    def test_every_table_flag_is_declared_by_some_subcommand(self):
        # so the table has no dead entries, and every declared flag comes from it
        _, commands = _build_parser()
        declared = {action.dest for sub in commands.choices.values() for action in sub._actions}
        assert declared - {"help"} == set(_FLAGS)

    @pytest.mark.parametrize("command", list(BASE_RUNS))
    def test_every_declared_flag_is_read(self, command, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("birkhoff_attn.cli._FULL_GATE", 1)  # so sweep-unique reads --full
        write_qkv(tmp_path, t=4)
        parser, commands = _build_parser()
        declared = {action.dest for action in commands.choices[command]._actions
                    if action.dest not in ("help", "config")}
        read = set()
        for argv, stdin_text in operator_runs(command):
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text or ""))
            args = parser.parse_args(argv, namespace=ReadRecorder())
            args._reads.clear()
            assert args.func(args) == 0, argv
            read |= args._reads
        capsys.readouterr()
        assert declared - read == set()

    @pytest.mark.parametrize("command, flag, value", [
        *((command, "--workers", "2") for command in BASE_RUNS if command != "sweep-unique"),
        *((command, "--format", "json") for command in
          ("sweep-unique", "sweep-tradeoff", "props", "count", "bench", "gradcheck")),
        ("apply-attn", "--op", "qr"),
        ("apply-attn", "--tau", "3"),
        *(("shots", flag, value) for flag, value in (
            ("--op", "qr"), ("--k", "4"), ("--tau", "3"), ("--power", "2"),
            ("--tolerance", "1e-3"), ("--max-iterations", "1"))),
        # the projection has one route, so no subcommand takes --method
        *((command, "--method", "dykstra") for command in
          ("apply", "apply-attn", "sweep-unique", "sweep-tradeoff", "props")),
    ])
    def test_flag_no_handler_reads_is_rejected(self, command, flag, value, capsys,
                                              monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        write_qkv(tmp_path)
        argv, stdin_text = BASE_RUNS[command]
        assert invoke(argv, capsys, monkeypatch, stdin_text=stdin_text or "")[0] == 0
        code, out, err = invoke([*argv, flag, value], capsys, monkeypatch,
                                stdin_text=stdin_text or "")
        assert code == 1 and out == ""
        assert f"unrecognized arguments: {flag} {value}" in err

    def test_config_keys_naming_no_flag_stay_ignored(self, capsys, monkeypatch, tmp_path):
        config = tmp_path / "shared.cfg"
        config.write_text("workers=2\nformat=json\nseed=0\n")
        for argv, seed_flags in ((BASE_RUNS["count"][0], []),
                                 (["props", "--op", "qr", "--trials", "2"], ["--seed", "0"])):
            plain = invoke([*argv, *seed_flags], capsys)
            assert plain[0] == 0
            assert invoke([*argv, "--config", str(config)], capsys) == plain


def test_config_key_naming_no_flag_of_any_subcommand_is_usage_error(capsys, monkeypatch,
                                                                    tmp_path):
    config = tmp_path / "typo.cfg"
    config.write_text("trials=2\ntrails=2\n")
    forbid_work(monkeypatch)
    assert invoke(["props", "--op", "qr", "--seed", "0", "--config", str(config)], capsys) == (
        1, "", "error: config key 'trails' names no flag of any subcommand\n")


def test_config_key_of_the_removed_method_flag_is_usage_error(capsys, monkeypatch, tmp_path):
    # the projection has one route, so --method names no flag any more
    config = tmp_path / "method.cfg"
    config.write_text("method=dykstra\n")
    forbid_work(monkeypatch)
    assert invoke(["apply", "--op", "birkhoff-project", "--config", str(config)], capsys,
                  monkeypatch, stdin_text=CSV_2X2) == (
        1, "", "error: config key 'method' names no flag of any subcommand\n")


@pytest.mark.parametrize("key", ["help", "config"])
def test_help_and_config_are_no_config_keys(key, capsys, monkeypatch, tmp_path):
    config = tmp_path / "self.cfg"
    config.write_text(f"{key}={'true' if key == 'help' else 'other.cfg'}\n")
    forbid_work(monkeypatch)
    assert invoke(["apply", "--op", "softmax", "--config", str(config)], capsys, monkeypatch,
                  stdin_text=CSV_2X2) == (
        1, "", f"error: config key {key!r} names no flag of any subcommand\n")


# per bounded flag, a run of a subcommand that reads it, with the stdin it reads
BOUNDED_RUNS = {
    "n": (["props", "--op", "softmax", "--seed", "0"], None),
    "trials": (["gradcheck", "--normalizer", "softmax", "--seed", "0"], None),
    "reps": (["bench", "--layers", "1"], None),
    "k": (["apply", "--op", "sinkhorn-naive"], CSV_POS4),
    "max_iterations": (["apply-attn", "--normalizer", "birkhoff-project", *QKV_FLAGS], None),
    "seed": (["sweep-tradeoff", "--op", "softmax"], None),
    "theta_seed": (["shots", "--shots", "10", "--seed", "0"], CSV_ID4),
    "workers": (["sweep-unique", "--op", "softmax", "--n", "2", "--d", "2"], None),
}


@pytest.mark.parametrize("name, value", [
    (name, bound + step) for name, bounds in _BOUNDS.items()
    for step, bound in zip((-1, 1), bounds) if bound is not None])
def test_config_value_past_a_bound_fails_as_the_flag_does(name, value, capsys, monkeypatch,
                                                          tmp_path):
    monkeypatch.chdir(tmp_path)
    write_qkv(tmp_path)
    forbid_work(monkeypatch)
    argv, stdin_text = BOUNDED_RUNS[name]
    config = tmp_path / "bounds.cfg"
    config.write_text(f"{name}={value}\n")
    by_flag = invoke([*argv, f"--{name.replace('_', '-')}", str(value)], capsys, monkeypatch,
                     stdin_text=stdin_text or "")
    by_config = invoke([*argv, "--config", str(config)], capsys, monkeypatch,
                       stdin_text=stdin_text or "")
    assert by_config == by_flag
    code, out, err = by_config
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {name} must be ") and err.count("\n") == 1


def run_cli(argv, stdin_text="", returncode=0, **env_overrides):
    """Run the CLI in a child interpreter on the package this test imported.

    The console script exists only after ``pip install``, so the child runs
    ``python -m birkhoff_attn.cli``; the absolute source directory goes first
    on its PYTHONPATH so neither the working directory nor an installed copy
    decides which code runs.  The child reads ``stdin_text`` and must exit
    with ``returncode``.
    """
    src = str(Path(birkhoff_attn.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, **env_overrides)
    result = subprocess.run(
        [sys.executable, "-m", "birkhoff_attn.cli", *argv],
        input=stdin_text.encode(), capture_output=True, env=env,
    )
    assert result.returncode == returncode, (
        f"{argv} exited {result.returncode}:\n{result.stderr.decode(errors='replace')}"
    )
    return result


class TestDeterminism:
    def test_identical_argv_identical_bytes(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(CSV_2X2)
        argv = ["apply", "--op", "qr", "--seed", "3", "--input", str(path)]
        a = run_cli(argv)
        b = run_cli(argv)
        assert a.stdout == b.stdout

    def test_worker_env_fallback_does_not_change_bytes(self):
        # more than one chunk, or the two-worker run never forks a pool
        assert grid_total(GridSpec(n=2, d=5)) > _SWEEP_CHUNK
        argv = ["sweep-unique", "--op", "softmax", "--n", "2", "--d", "5"]
        a = run_cli(argv, BIRKHOFF_ATTN_WORKERS="1")
        b = run_cli(argv, BIRKHOFF_ATTN_WORKERS="2")
        assert a.stdout == b.stdout

    def test_shots_deterministic_per_seed(self, capsys, monkeypatch):
        runs = []
        for _ in range(2):
            code, out, _ = invoke(
                ["shots", "--shots", "800", "--seed", "11", "--theta-seed", "2"],
                capsys, monkeypatch, stdin_text=CSV_ID4,
            )
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]
