"""Command line front end.

Subcommands: apply, apply-attn, sweep-unique, sweep-tradeoff, props, count,
shots, bench, gradcheck.  Matrix results go to stdout (CSV by default, JSON
with --format json); structured reports are JSON.  Exit codes: 0 on
success, 1 on usage errors, 2 on numerical failures, which echo the failing
input matrix as JSON on stderr.

Flag values can come from a flat key=value file via --config; explicit
flags win.  --workers falls back to the BIRKHOFF_ATTN_WORKERS environment
variable and then the CPU count.  Every randomized code path requires an
explicit seed, so identical invocations produce byte-identical output
regardless of worker count (bench wall-times excepted).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields

import numpy as np

from .attention import AttentionConfig, attention_forward, sinkhorn_naive_vjp, softmax_vjp
from .birkhoff import ProjectionError, project
from .core import (
    check_stochasticity,
    frobenius_distance,
    load_matrix,
    matrix_record,
    save_matrix_json,
    spearman_rho,
)
from .counting import count_brute, decomposition_check, f3_analytic
from .expressivity import GridSpec, grid_total, probe_invariances, tradeoff_sweep, uniqueness_sweep
from .operators import OPERATOR_NAMES, SPECS, Normalizer, make_operator, softmax_rows
from .qontot import CircuitConfig, bench_circuit, param_count, sample_shots
from .sinkhorn import exp_scale, sinkhorn_naive

_FULL_GATE = 1 << 20  # sweep sizes above this need --full


class _Usage(Exception):
    pass


class _Numerical(Exception):
    def __init__(self, message: str, matrix: np.ndarray | None):
        super().__init__(message)
        self.matrix = matrix


def _print_matrix(m: np.ndarray, fmt: str) -> None:
    if fmt != "json":
        np.savetxt(sys.stdout, m, delimiter=",", fmt="%.17g")
        return
    if m.shape[0] != m.shape[1]:
        raise _Usage(f"JSON output holds square matrices only; the {m.shape[0]}x{m.shape[1]} "
                     "result needs --format csv")
    save_matrix_json(sys.stdout, m)
    sys.stdout.write("\n")


@contextmanager
def _reading(source: str):
    """Turn a missing, unreadable or malformed input into a usage error naming it."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise _Usage(f"{source}: {exc}") from exc


def _read_matrix(args) -> np.ndarray:
    path = _opt(args, "input", str, "-")
    with _reading("stdin" if path == "-" else path):
        return load_matrix(sys.stdin if path == "-" else path)


# --- flag resolution: explicit flag > --config file > builtin default -------

def _load_config(path: str) -> dict:
    out = {}
    with _reading(path), open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise _Usage(f"bad config line (want key=value): {line!r}")
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _resolve(args, name: str, cast):
    value = getattr(args, name, None)
    if value is not None:
        return value
    config = getattr(args, "_config_values", {})
    if name in config:
        try:
            return cast(config[name]) if cast is not None else config[name]
        except ValueError as exc:
            raise _Usage(f"bad config value for {name}: {config[name]!r}") from exc
    return None


def _opt(args, name: str, cast, default):
    value = _resolve(args, name, cast)
    return default if value is None else value


def _req(args, name: str, cast):
    value = _resolve(args, name, cast)
    if value is None:
        raise _Usage(f"--{name.replace('_', '-')} is required here")
    return value


def _workers(args) -> int:
    value = _resolve(args, "workers", int)
    if value is None:
        env = os.environ.get("BIRKHOFF_ATTN_WORKERS")
        if env is not None:
            try:
                value = int(env)
            except ValueError as exc:
                raise _Usage(f"bad BIRKHOFF_ATTN_WORKERS value {env!r}") from exc
        else:
            value = os.cpu_count() or 1
    if value < 1:
        raise _Usage(f"workers must be >= 1, got {value}")
    return value


def _boolean(text: str) -> bool:
    """A config-file switch: ``true`` or ``false`` in any case, nothing else."""
    value = text.lower()
    if value not in ("true", "false"):
        raise ValueError(text)
    return value == "true"


# --- the operator spec shared by apply / apply-attn / sweeps / props / shots --

# make_operator setting -> (flag destination, cast)
_SETTING_FLAGS = {
    "iterations": ("k", int),
    "tau": ("tau", float),
    "power": ("power", int),
    "method": ("method", str),
    "tolerance": ("tolerance", float),
    "max_iterations": ("max_iterations", int),
    "noise_seed": ("seed", int),
    "aux_qubits": ("aux_qubits", int),
    "layers": ("layers", int),
    "ansatz": ("ansatz", str),
}


def _operator(args, name: str, dsm_dim: int) -> Normalizer:
    """The spec of operator ``name`` from the flags; settings not given keep its defaults.

    qontot takes its size from ``dsm_dim`` and its parameters from exactly
    one of --theta-seed / --theta-file.  Settings the spec rejects are usage
    errors.
    """
    if name not in SPECS:
        raise _Usage(f"unknown operator {name!r} (choose from {', '.join(OPERATOR_NAMES)})")
    if name == "qontot":
        keys = ("aux_qubits", "layers", "ansatz")
    else:
        keys = [f.name for f in fields(SPECS[name])]
    settings = {key: value for key in keys
                if (value := _resolve(args, *_SETTING_FLAGS[key])) is not None}
    theta = None
    if name == "qr":
        settings["noise_seed"] = _req(args, "seed", int)
    elif name == "qontot":
        theta_file = _opt(args, "theta_file", str, None)
        theta_seed = _resolve(args, "theta_seed", int)
        if (theta_file is None) == (theta_seed is None):
            raise _Usage("qontot needs exactly one of --theta-seed / --theta-file")
        if theta_file is not None:
            theta = _load_table(theta_file).ravel()
        settings.update(dsm_dim=dsm_dim, theta=theta, theta_seed=theta_seed)
    try:
        op = make_operator(name, **settings)
    except ValueError as exc:
        raise _Usage(str(exc)) from exc
    if theta is not None and theta.size != param_count(op.config):
        raise _Usage(f"theta file has {theta.size} values, config needs {param_count(op.config)}")
    return op


# --- subcommand implementations --------------------------------------------

def _cmd_apply(args) -> int:
    name = _req(args, "op", str)
    m = _read_matrix(args)
    op = _operator(args, name, m.shape[0])
    fmt = _opt(args, "format", str, "csv")
    try:
        x = exp_scale(m, _opt(args, "tau", float, 1.0)) if (
            op.needs_positive and _opt(args, "exp_scale", _boolean, False)
        ) else m
        out = op(x)
    except (ValueError, ProjectionError) as exc:
        raise _Numerical(str(exc), m) from exc
    _print_matrix(out, fmt)
    report = check_stochasticity(out)
    json.dump(
        {
            "op": name,
            "max_row_deviation": report.max_row_deviation,
            "max_col_deviation": report.max_col_deviation,
            "min_entry": report.min_entry,
        },
        sys.stderr,
    )
    sys.stderr.write("\n")
    return 0


def _load_table(path: str) -> np.ndarray:
    # CSV operands (T x d for Q/K/V, a flat theta) need not be square.
    with _reading(path):
        out = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    if not np.all(np.isfinite(out)):
        raise _Usage(f"{path} contains NaN or inf")
    return out


def _cmd_apply_attn(args) -> int:
    name = _req(args, "normalizer", str)
    qm = _load_table(_req(args, "q_file", str))
    km = _load_table(_req(args, "key_file", str))
    vm = _load_table(_req(args, "value_file", str))
    config = AttentionConfig(
        normalizer=_operator(args, name, qm.shape[0]),
        temperature=_opt(args, "temperature", float, None),
    )
    try:
        result = attention_forward(qm, km, vm, config)
    except (ValueError, ProjectionError) as exc:
        raise _Numerical(str(exc), qm @ km.T) from exc
    emit = _opt(args, "emit", str, "output")
    if emit not in ("output", "attn"):
        raise _Usage(f"--emit must be output or attn, got {emit!r}")
    _print_matrix(result[emit], _opt(args, "format", str, "csv"))
    return 0


def _grid_spec(args) -> GridSpec:
    return GridSpec(
        n=_req(args, "n", int),
        d=_req(args, "d", int),
        domain=_opt(args, "domain", str, "cube"),
        rounding_decimals=_opt(args, "rounding_decimals", int, 3),
    )


def _cmd_sweep_unique(args) -> int:
    spec = _grid_spec(args)
    total = grid_total(spec)
    if total > _FULL_GATE and not _opt(args, "full", _boolean, False):
        raise _Usage(f"sweep covers {total} inputs; pass --full to confirm")
    name = _req(args, "op", str)
    op = _operator(args, name, spec.n)
    try:
        report = uniqueness_sweep(
            spec,
            op,
            exp_scale_tau=_opt(args, "tau", float, 1.0),
            workers=_workers(args),
            start=_opt(args, "start", int, 0),
            stop=_opt(args, "stop", int, None),
            max_total=1 << 48,
        )
    except (ValueError, ProjectionError) as exc:
        raise _Numerical(str(exc), None) from exc
    json.dump(
        {
            "op": name,
            "domain": spec.domain,
            "n": spec.n,
            "d": spec.d,
            "total_inputs": report.total_inputs,
            "unique_outputs": report.unique_outputs,
            "entropy_stats": report.entropy_stats,
            "residual_stats": report.residual_stats,
            "count_multiset": report.count_multiset,
        },
        sys.stdout,
    )
    sys.stdout.write("\n")
    return 0


def _cmd_sweep_tradeoff(args) -> int:
    name = _req(args, "op", str)
    n = _opt(args, "n", int, 8)
    trials = _opt(args, "trials", int, 100)
    seed = _req(args, "seed", int)
    op = _operator(args, name, n)
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal((n, n)) for _ in range(trials)]
    try:
        rows = tradeoff_sweep(inputs, op,
                              exp_scale_tau=_opt(args, "tau", float, 1.0))
    except (ValueError, ProjectionError) as exc:
        raise _Numerical(str(exc), None) from exc
    sys.stdout.write("index,entropy,residual\n")
    for i, row in enumerate(rows):
        sys.stdout.write(f"{i},{row['entropy']:.17g},{row['residual']:.17g}\n")
    return 0


def _cmd_props(args) -> int:
    name = _req(args, "op", str)
    n = _opt(args, "n", int, 4)
    op = _operator(args, name, n)
    try:
        result = probe_invariances(
            op,
            trials=_opt(args, "trials", int, 10),
            seed=_req(args, "seed", int),
            n=n,
        )
    except (ValueError, ProjectionError) as exc:
        raise _Numerical(str(exc), None) from exc
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _cmd_count(args) -> int:
    n = _req(args, "n", int)
    p = _req(args, "p", int)
    mode = _opt(args, "mode", str, "brute")
    try:
        if mode == "brute":
            payload = {"n": n, "p": p, "f": count_brute(n, p),
                       "c1": None, "c2": None, "c12": None}
        elif mode == "analytic":
            if n != 3:
                raise _Usage("--mode analytic is only available for n = 3")
            payload = {"n": n, "p": p, "f": f3_analytic(p),
                       "c1": None, "c2": None, "c12": None}
        elif mode == "decompose":
            counts = decomposition_check(n, p)
            payload = {"n": n, "p": p, "f": counts["f"], "c1": counts["c1"],
                       "c2": counts["c2"], "c12": counts["c12"]}
        else:
            raise _Usage(f"--mode must be brute, analytic or decompose, got {mode!r}")
    except (ValueError, AssertionError) as exc:
        raise _Numerical(str(exc), None) from exc
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")
    return 0


def _cmd_shots(args) -> int:
    m = _read_matrix(args)
    circuit = _operator(args, "qontot", m.shape[0])
    shots = _req(args, "shots", int)
    seed = _req(args, "seed", int)
    try:
        sampled = sample_shots(circuit.config, circuit.theta, m, shots, seed)
        exact = circuit(m)
        out = project(sampled).matrix if _opt(args, "project", _boolean, False) else sampled
        metrics = {
            "shots": shots,
            "frobenius_to_exact": frobenius_distance(out, exact),
            "spearman_to_exact": spearman_rho(out, exact),
        }
    except (ValueError, ProjectionError) as exc:
        raise _Numerical(str(exc), m) from exc
    _print_matrix(out, _opt(args, "format", str, "csv"))
    json.dump(metrics, sys.stderr)
    sys.stderr.write("\n")
    return 0


def _split_ints(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise _Usage(f"--{flag} wants a comma-separated integer list, got {text!r}") from exc


def _cmd_bench(args) -> int:
    dsm_dim = _opt(args, "dsm_dim", int, 4)
    layers = _split_ints(_opt(args, "layers", str, "1,2"), "layers")
    aux = _split_ints(_opt(args, "aux_qubits", str, "0"), "aux-qubits")
    ansatz = _opt(args, "ansatz", str, "simple")
    configs = [
        CircuitConfig(dsm_dim=dsm_dim, aux_qubits=a, layers=l, ansatz=ansatz)
        for l in layers
        for a in aux
    ]
    try:
        rows = bench_circuit(configs, reps=_opt(args, "reps", int, 5),
                             theta_seed=_opt(args, "theta_seed", int, 0))
    except ValueError as exc:
        raise _Numerical(str(exc), None) from exc
    sys.stdout.write("layers,qubits,median_seconds\n")
    for row in rows:
        sys.stdout.write(f"{row['layers']},{row['qubits']},{row['median_seconds']:.9f}\n")
    return 0


def _cmd_gradcheck(args) -> int:
    name = _req(args, "normalizer", str)
    if name not in ("sinkhorn-naive", "softmax"):
        raise _Usage("gradcheck supports --normalizer sinkhorn-naive or softmax")
    n = _opt(args, "n", int, 8)
    trials = _opt(args, "trials", int, 10)
    seed = _req(args, "seed", int)
    tau = _opt(args, "tau", float, 1.0)
    k = _opt(args, "k", int, 3)
    h = 1e-5
    rng = np.random.default_rng(seed)
    worst = 0.0
    try:
        for _ in range(trials):
            m = rng.uniform(0.1, 10.0, (n, n))
            upstream = rng.standard_normal((n, n))
            if name == "sinkhorn-naive":
                fwd = lambda x: sinkhorn_naive(x, k)
                analytic = sinkhorn_naive_vjp(m, k, upstream)
            else:
                fwd = lambda x: softmax_rows(x, tau)
                analytic = softmax_vjp(m, tau, upstream)
            fd = np.empty_like(m)
            for i in range(n):
                for j in range(n):
                    bump = np.zeros_like(m)
                    bump[i, j] = h
                    fd[i, j] = (
                        (upstream * fwd(m + bump)).sum() - (upstream * fwd(m - bump)).sum()
                    ) / (2 * h)
            scale = max(float(np.abs(fd).max()), 1e-12)
            worst = max(worst, float(np.abs(analytic - fd).max()) / scale)
    except ValueError as exc:
        raise _Numerical(str(exc), None) from exc
    json.dump({"normalizer": name, "trials": trials, "max_relative_error": worst}, sys.stdout)
    sys.stdout.write("\n")
    return 0


# --- parser -----------------------------------------------------------------

def _add_common(sub) -> None:
    sub.add_argument("--config", help="flat key=value defaults file")
    sub.add_argument("--format", choices=("csv", "json"))
    sub.add_argument("--workers", type=int)


def _add_operator_flags(sub) -> None:
    sub.add_argument("--op")
    sub.add_argument("--k", type=int, help="sinkhorn iteration count (odd)")
    sub.add_argument("--tau", type=float, help="exp-scale temperature")
    sub.add_argument("--power", type=int)
    sub.add_argument("--method", choices=("dykstra", "splitting-qp"))
    sub.add_argument("--tolerance", type=float)
    sub.add_argument("--max-iterations", type=int, dest="max_iterations")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--layers", type=int)
    sub.add_argument("--aux-qubits", type=int, dest="aux_qubits")
    sub.add_argument("--ansatz", choices=("simple", "trotter"))
    sub.add_argument("--theta-seed", type=int, dest="theta_seed")
    sub.add_argument("--theta-file", dest="theta_file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="birkhoff-attn",
        description="Doubly stochastic attention normalizers and their analysis tools",
    )
    commands = parser.add_subparsers(dest="command")

    sub = commands.add_parser("apply", help="apply a normalizer to one matrix")
    _add_common(sub)
    _add_operator_flags(sub)
    sub.add_argument("--input", help="matrix file (CSV or JSON); default stdin")
    sub.add_argument("--exp-scale", action="store_true", dest="exp_scale", default=None,
                     help="pre-apply exp_scale (for the sinkhorn family on raw scores)")
    sub.set_defaults(func=_cmd_apply)

    sub = commands.add_parser("apply-attn", help="attention forward pass from Q/K/V files")
    _add_common(sub)
    _add_operator_flags(sub)
    sub.add_argument("--normalizer")
    sub.add_argument("--q-file", dest="q_file")
    sub.add_argument("--key-file", dest="key_file")
    sub.add_argument("--value-file", dest="value_file")
    sub.add_argument("--temperature", type=float)
    sub.add_argument("--emit", choices=("output", "attn"))
    sub.set_defaults(func=_cmd_apply_attn)

    sub = commands.add_parser("sweep-unique", help="count distinct outputs over a grid")
    _add_common(sub)
    _add_operator_flags(sub)
    sub.add_argument("--n", type=int, dest="n")
    sub.add_argument("--d", type=int, dest="d")
    sub.add_argument("--domain", choices=("cube", "sphere"))
    sub.add_argument("--rounding-decimals", type=int, dest="rounding_decimals")
    sub.add_argument("--start", type=int)
    sub.add_argument("--stop", type=int)
    sub.add_argument("--full", action="store_true", default=None,
                     help="confirm sweeps above 2^20 inputs")
    sub.set_defaults(func=_cmd_sweep_unique)

    sub = commands.add_parser("sweep-tradeoff", help="entropy/residual rows on random inputs")
    _add_common(sub)
    _add_operator_flags(sub)
    sub.add_argument("--n", type=int)
    sub.add_argument("--trials", type=int)
    sub.set_defaults(func=_cmd_sweep_tradeoff)

    sub = commands.add_parser("props", help="probe scale/permutation invariances")
    _add_common(sub)
    _add_operator_flags(sub)
    sub.add_argument("--n", type=int)
    sub.add_argument("--trials", type=int)
    sub.set_defaults(func=_cmd_props)

    sub = commands.add_parser("count", help="count grid-valued doubly stochastic matrices")
    _add_common(sub)
    sub.add_argument("--n", type=int)
    sub.add_argument("--p", type=int)
    sub.add_argument("--mode", choices=("brute", "analytic", "decompose"))
    sub.set_defaults(func=_cmd_count)

    sub = commands.add_parser("shots", help="finite-shot sampled circuit DSM")
    _add_common(sub)
    _add_operator_flags(sub)
    sub.add_argument("--input", help="matrix file (CSV or JSON); default stdin")
    sub.add_argument("--shots", type=int)
    sub.add_argument("--project", action="store_true", default=None,
                     help="project the sampled matrix back to doubly stochastic")
    sub.set_defaults(func=_cmd_shots)

    sub = commands.add_parser("bench", help="wall-time scaling of the circuit simulator")
    _add_common(sub)
    sub.add_argument("--dsm-dim", type=int, dest="dsm_dim")
    sub.add_argument("--layers", help="comma-separated layer counts")
    sub.add_argument("--aux-qubits", dest="aux_qubits", help="comma-separated aux qubit counts")
    sub.add_argument("--ansatz", choices=("simple", "trotter"))
    sub.add_argument("--reps", type=int)
    sub.add_argument("--theta-seed", type=int, dest="theta_seed")
    sub.set_defaults(func=_cmd_bench)

    sub = commands.add_parser("gradcheck", help="compare analytic VJPs with finite differences")
    _add_common(sub)
    sub.add_argument("--normalizer")
    sub.add_argument("--k", type=int)
    sub.add_argument("--tau", type=float)
    sub.add_argument("--n", type=int)
    sub.add_argument("--trials", type=int)
    sub.add_argument("--seed", type=int)
    sub.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        config_path = getattr(args, "config", None)
        args._config_values = _load_config(config_path) if config_path else {}
        return args.func(args)
    except _Usage as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except _Numerical as exc:
        echo = None if exc.matrix is None else matrix_record(exc.matrix)
        json.dump({"error": str(exc), "input": echo}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
