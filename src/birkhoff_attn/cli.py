"""Command line front end.

Subcommands: apply, apply-attn, sweep-unique, sweep-tradeoff, props, count,
shots, bench, gradcheck.  Each declares only the flags its handler reads.
Matrix results go to stdout (CSV by default, JSON with --format json);
structured reports are JSON lines written by ``_emit``.  Exit codes: 0 on
success; 1 on a usage error (a bad flag, config value, input or setting),
reported as ``error: ...``; 2 on a failure during computation, which echoes
the failing input matrix as JSON on stderr.  Handlers build their inputs
and operator specs, and check every other setting, inside ``_inputs``
before any work starts; :func:`main` picks every exit code.  Size and
iteration flags have ceilings (``_CEILINGS``), checked with the settings on
every subcommand that takes them: --n 256, --trials 1000, --reps 1000, --k
10000 and --max-iterations 1000000.  --layers has the circuit's own, 1024,
and count's --n and --p the counting budget.  --seed and --theta-seed must
not be negative.

The parser holds each flag's type, choices and default.  A flat key=value
file given by --config supplies the subcommand's defaults, checked as the
flags are; explicit flags win, and a key no subcommand declares is a usage
error.  sweep-unique's --workers falls back to the BIRKHOFF_ATTN_WORKERS
environment variable and then the CPU count.  Every randomized code path
requires an explicit seed, so identical invocations produce byte-identical
output regardless of worker count (bench wall-times excepted).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields, replace

import numpy as np

from .attention import (VJP_NORMALIZERS, AttentionConfig, _check_shapes, attention_forward,
                        vjp_check)
from .birkhoff import METHODS, ProjectionError, project
from .core import (
    as_square,
    check_stochasticity,
    frobenius_distance,
    load_matrix,
    load_table_csv,
    matrix_record,
    save_matrix_csv,
    save_matrix_json,
    spearman_rho,
)
from .counting import _check_sizes, count_brute, decomposition_check, f3_analytic
from .expressivity import (GridSpec, _index_range, probe_invariances, tradeoff_sweep,
                           uniqueness_sweep)
from .operators import OPERATOR_NAMES, SPECS, Normalizer, QontotNormalizer, make_operator
from .qontot import ANSATZES, SIMPLE, CircuitConfig, _check_shots, _sample_columns, bench_circuit
from .sinkhorn import _check_tau, exp_scale

_FULL_GATE = 1 << 20  # sweep windows of more inputs than this need --full
_MAX_TOTAL = 1 << 48  # sweep-unique's runaway guard on the grid size
# ceilings checked before any work: the sizes --n (a gradcheck trial steps
# n^3 floats; 256 is the widest size the benchmark runs), --trials and bench's
# --reps (qontot caps --layers itself), and, with the operator's settings, a
# sinkhorn pass count --k and the projection budget --max-iterations, ten
# times its default, spent in full on an input that never converges
_CEILINGS = {"n": 256, "trials": 1000, "reps": 1000, "k": 10_000, "max_iterations": 1_000_000}


class _Usage(Exception):
    pass


def _print_matrix(m: np.ndarray, fmt: str) -> None:
    if fmt != "json":
        save_matrix_csv(sys.stdout, m)
        return
    if m.shape[0] != m.shape[1]:
        raise _Usage(f"JSON output holds square matrices only; the {m.shape[0]}x{m.shape[1]} "
                     "result needs --format csv")
    save_matrix_json(sys.stdout, m)
    sys.stdout.write("\n")


def _emit(record: dict, stream=None) -> None:
    """Write ``record`` as one JSON line to ``stream`` (stdout when None)."""
    stream = stream or sys.stdout
    json.dump(record, stream)
    stream.write("\n")


@contextmanager
def _inputs(source: str | None = None):
    """Turn a bad input or setting into a usage error, naming ``source`` when given.

    The same ValueError raised after the inputs are built is a numerical failure.
    """
    try:
        yield
    except (OSError, ValueError) as exc:
        raise _Usage(f"{source}: {exc}" if source else str(exc)) from exc


def _read_matrix(path: str) -> np.ndarray:
    with _inputs("stdin" if path == "-" else path):
        return load_matrix(sys.stdin if path == "-" else path)


def _load_table(path: str) -> np.ndarray:
    # CSV operands (T x d for Q/K/V, a flat theta) need not be square.
    with _inputs(path):
        out = load_table_csv(path)
    if not np.all(np.isfinite(out)):
        raise _Usage(f"{path} contains NaN or inf")
    return out


# --- --config: file values become the subcommand's defaults -----------------

def _config_defaults(commands: argparse.Action, command: str, path: str) -> dict:
    """The file's values for ``command``'s flags, converted and checked as the flags are.

    Keys name flag destinations (``-`` and ``_`` interchangeable); keys that
    name another subcommand's flag are ignored, and any other key is a usage
    error.
    """
    actions = {action.dest: action for action in commands.choices[command]._actions}
    known = {action.dest for sub in commands.choices.values() for action in sub._actions}
    with _inputs(path), open(path) as fh:
        lines = [line.strip() for line in fh]
    out = {}
    for line in lines:
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _Usage(f"bad config line (want key=value): {line!r}")
        key, _, text = line.partition("=")
        key, text = key.strip().replace("-", "_"), text.strip()
        action = actions.get(key)
        if action is None:
            if key not in known:
                raise _Usage(f"config key {key!r} names no flag of any subcommand")
            continue
        try:
            if action.const is True:  # a store_true switch; false counts as unset
                out[key] = _boolean(text) or None
            else:
                out[key] = action.type(text) if action.type else text
                if action.choices is not None and out[key] not in action.choices:
                    raise ValueError(text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise _Usage(f"bad config value for {key}: {text!r}") from exc
    return out


def _boolean(text: str) -> bool:
    """A config-file switch: ``true`` or ``false`` in any case, nothing else."""
    value = text.lower()
    if value not in ("true", "false"):
        raise ValueError(text)
    return value == "true"


def _int_list(text: str) -> list[int]:
    """A comma-separated integer list (bench's --layers and --aux-qubits)."""
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"want a comma-separated integer list, got {text!r}")
    return values


def _req(args, name: str):
    value = getattr(args, name)
    if value is None:
        raise _Usage(f"--{name.replace('_', '-')} is required here")
    return value


def _sizes(args, *names) -> None:
    """Check that each named size flag is set, at least 1 and at most its ceiling."""
    for name in names:
        if (value := _req(args, name)) < 1:
            raise _Usage(f"{name} must be >= 1, got {value}")
        _limit(args, name)


def _limit(args, name: str) -> None:
    """Reject flag ``name`` set above its ceiling, or a negative seed, which default_rng refuses."""
    value = getattr(args, name, None)
    if name in _CEILINGS and value is not None and value > _CEILINGS[name]:
        raise _Usage(f"{name} must be <= {_CEILINGS[name]}, got {value}")
    if name in ("seed", "theta_seed") and value is not None and value < 0:
        raise _Usage(f"{name} must be >= 0, got {value}")


def _workers(args) -> int:
    value = args.workers
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


# --- the operator spec of every subcommand that names an operator -----------

# the flags that set an operator or how it is applied, by destination: the
# spec field each sets (None: how it is applied) and its add_argument
# keywords.  Settings default to None, so the spec's own default applies.
_OPERATOR_FLAGS = {
    "k": ("iterations", {"type": int, "help": "sinkhorn iteration count (odd)"}),
    "power": ("power", {"type": int}),
    "tau": ("tau", {"type": float,
                    "help": "softmax temperature, or the sinkhorn family's exp-scale one"}),
    "method": ("method", {"choices": METHODS}),
    "tolerance": ("tolerance", {"type": float}),
    "max_iterations": ("max_iterations", {"type": int}),
    "seed": ("noise_seed", {"type": int}),
    "layers": ("layers", {"type": int}),
    "aux_qubits": ("aux_qubits", {"type": int}),
    "ansatz": ("ansatz", {"choices": ANSATZES}),
    "theta_seed": ("theta_seed", {"type": int}),
    "theta_file": ("theta", {}),
    "exp_scale": (None, {"action": "store_true", "default": None,
                         "help": "pre-apply exp_scale (for the sinkhorn family on raw scores)"}),
}


def _tau(args) -> float:
    """--tau, or 1.0 when it is not set."""
    return 1.0 if args.tau is None else args.tau


def _operator(args, name: str, dsm_dim: int, reads_seed: bool = False,
              scales: bool = False) -> Normalizer:
    """The spec of operator ``name`` from the flags; settings not given keep its defaults.

    The operator takes the flags that set its spec's fields; a field the
    subcommand has no flag for (apply-attn has no --tau) keeps its default,
    and any other operator flag is a usage error.  ``reads_seed`` marks a
    handler that takes --seed for its own draws, ``scales`` one that feeds a
    positive-domain operator (the only kind that takes --exp-scale)
    exp_scale(m, --tau), whose temperature is checked here.  qontot takes its
    size from ``dsm_dim`` and its parameters from exactly one of --theta-seed
    / --theta-file.  Call it inside ``_inputs``, so bad settings are usage
    errors.
    """
    if name not in SPECS:
        raise _Usage(f"unknown operator {name!r} (choose from {', '.join(OPERATOR_NAMES)})")
    spec = SPECS[name]
    init = {f.name for f in fields(spec) if f.init}
    taken = {dest for dest, (key, _) in _OPERATOR_FLAGS.items() if key in init}
    if spec.needs_positive:
        taken.update(("exp_scale", "tau") if scales else ("exp_scale",))
    if reads_seed:
        taken.add("seed")
    stray = [f"--{dest.replace('_', '-')}" for dest in _OPERATOR_FLAGS
             if dest not in taken and getattr(args, dest, None) is not None]
    if stray:
        raise _Usage(f"operator {name!r} takes no {', '.join(stray)}")
    for dest in _OPERATOR_FLAGS:
        _limit(args, dest)
    settings = {key: value for dest, (key, _) in _OPERATOR_FLAGS.items()
                if key in init and (value := getattr(args, dest, None)) is not None}
    if "noise_seed" in init:
        settings["noise_seed"] = _req(args, "seed")
    if "theta" in init:
        if (args.theta_file is None) == (args.theta_seed is None):
            raise _Usage(f"{name} needs exactly one of --theta-seed / --theta-file")
        if args.theta_file is not None:
            settings["theta"] = _load_table(args.theta_file).ravel()
        settings["dsm_dim"] = dsm_dim
    op = make_operator(name, **settings)
    if scales and op.needs_positive:
        _check_tau(_tau(args))
    return op


# --- subcommand implementations --------------------------------------------
# A handler with an input matrix records it as args.echo, for main to echo on a numerical failure.

def _cmd_apply(args) -> int:
    name = _req(args, "op")
    m = _read_matrix(args.input)
    with _inputs():
        op = _operator(args, name, m.shape[0], scales=args.exp_scale)
    args.echo = m
    with np.errstate(all="ignore"):  # a non-finite result fails the check below
        out = op(exp_scale(m, _tau(args)) if args.exp_scale else m)
    report = check_stochasticity(out)  # before printing, so a failed run leaves stdout empty
    _print_matrix(out, args.format)
    _emit({"op": name} | asdict(report), sys.stderr)
    return 0


def _cmd_apply_attn(args) -> int:
    name = _req(args, "normalizer")
    qm = _load_table(_req(args, "q_file"))
    km = _load_table(_req(args, "key_file"))
    vm = _load_table(_req(args, "value_file"))
    with _inputs():
        config = AttentionConfig(normalizer=_operator(args, name, qm.shape[0]),
                                 temperature=args.temperature)
        _check_shapes(qm, km, vm)
        args.echo = as_square(qm @ km.T, "qm @ km.T")
    result = attention_forward(qm, km, vm, config)
    _print_matrix(result[args.emit], args.format)
    return 0


def _cmd_sweep_unique(args) -> int:
    _sizes(args, "n")
    with _inputs():
        spec = GridSpec(n=args.n, d=_req(args, "d"), domain=args.domain,
                        rounding_decimals=args.rounding_decimals)
        start, stop = _index_range(spec, args.start, args.stop, _MAX_TOTAL)
        if stop - start > _FULL_GATE and not args.full:
            raise _Usage(f"sweep covers {stop - start} inputs; pass --full to confirm")
        name = _req(args, "op")
        op = _operator(args, name, spec.n, scales=True)
    report = uniqueness_sweep(spec, op, exp_scale_tau=_tau(args), workers=_workers(args),
                              start=start, stop=stop, max_total=_MAX_TOTAL)
    _emit({"op": name, "domain": spec.domain, "n": spec.n, "d": spec.d} | asdict(report))
    return 0


def _cmd_sweep_tradeoff(args) -> int:
    name = _req(args, "op")
    _sizes(args, "n", "trials")
    _limit(args, "seed")
    with _inputs():
        rng = np.random.default_rng(_req(args, "seed"))
        op = _operator(args, name, args.n, reads_seed=True, scales=True)
        inputs = rng.standard_normal((args.trials, args.n, args.n))
    rows = tradeoff_sweep(inputs, op, exp_scale_tau=_tau(args))
    sys.stdout.write("index,entropy,residual\n")
    for i, row in enumerate(rows):
        sys.stdout.write(f"{i},{row['entropy']:.17g},{row['residual']:.17g}\n")
    return 0


def _cmd_props(args) -> int:
    name = _req(args, "op")
    _sizes(args, "n", "trials")
    with _inputs():
        op = _operator(args, name, args.n, reads_seed=True)
    _emit(probe_invariances(op, trials=args.trials, seed=_req(args, "seed"), n=args.n))
    return 0


def _cmd_count(args) -> int:
    n = _req(args, "n")
    p = _req(args, "p")
    if args.mode == "analytic" and n != 3:
        raise _Usage("--mode analytic is only available for n = 3")
    with _inputs():
        _check_sizes(n, p)
    if args.mode == "decompose":
        counts = decomposition_check(n, p)
    else:
        counts = {"f": count_brute(n, p) if args.mode == "brute" else f3_analytic(p)}
    _emit({"n": n, "p": p} | {key: counts.get(key) for key in ("f", "c1", "c2", "c12")})
    return 0


def _cmd_shots(args) -> int:
    m = _read_matrix(args.input)
    with _inputs():
        circuit = _operator(args, QontotNormalizer.name, m.shape[0], reads_seed=True)
        shots = _req(args, "shots")
        seed = _req(args, "seed")
        _check_shots(shots, circuit.config.dsm_dim)
    args.echo = m
    exact = circuit(m)
    sampled = _sample_columns(exact, shots, seed)
    out = project(sampled).matrix if args.project else sampled
    metrics = {
        "shots": shots,
        "frobenius_to_exact": frobenius_distance(out, exact),
        "spearman_to_exact": spearman_rho(out, exact),
    }
    _print_matrix(out, args.format)
    _emit(metrics, sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    _sizes(args, "reps")
    _limit(args, "theta_seed")
    with _inputs():
        configs = [
            CircuitConfig(dsm_dim=args.dsm_dim, aux_qubits=a, layers=l, ansatz=args.ansatz)
            for l in args.layers
            for a in args.aux_qubits
        ]
    rows = bench_circuit(configs, reps=args.reps, theta_seed=args.theta_seed)
    sys.stdout.write("layers,qubits,median_seconds\n")
    for row in rows:
        sys.stdout.write(f"{row['layers']},{row['qubits']},{row['median_seconds']:.9f}\n")
    return 0


def _cmd_gradcheck(args) -> int:
    name = _req(args, "normalizer")
    _sizes(args, "n", "trials")
    with _inputs():
        op = _operator(args, name, args.n, reads_seed=True)
    if args.k is None and hasattr(op, "iterations"):
        op = replace(op, iterations=3)  # gradcheck's own default pass count
    error = vjp_check(op, n=args.n, trials=args.trials, seed=_req(args, "seed"))
    _emit({"normalizer": name, "trials": args.trials, "max_relative_error": error})
    return 0


# --- parser ---------------------------------------------------------------

def _add_flags(sub, *dests, **override) -> None:
    """Declare the operator flags ``dests`` with their table keywords, ``override`` on top."""
    for dest in dests:
        sub.add_argument(f"--{dest.replace('_', '-')}", **_OPERATOR_FLAGS[dest][1] | override)


def _build_parser() -> tuple[argparse.ArgumentParser, argparse.Action]:
    """The parser and its subcommand action, whose ``choices`` maps names to subparsers."""
    parser = argparse.ArgumentParser(
        prog="birkhoff-attn",
        description="Doubly stochastic attention normalizers and their analysis tools",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    # the settings flags of every subcommand that builds any operator; shots
    # takes --seed and the circuit's
    settings = [dest for dest in _OPERATOR_FLAGS if dest not in ("tau", "exp_scale")]

    def command(name: str, func, help_text: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--config", help="flat key=value defaults file")
        sub.set_defaults(func=func)
        return sub

    def operator_command(name: str, func, help_text: str) -> argparse.ArgumentParser:
        sub = command(name, func, help_text)
        sub.add_argument("--op")
        _add_flags(sub, "tau", *settings)
        return sub

    sub = operator_command("apply", _cmd_apply, "apply a normalizer to one matrix")
    sub.add_argument("--input", default="-", help="matrix file (CSV or JSON); default stdin")
    _add_flags(sub, "exp_scale")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")

    sub = command("apply-attn", _cmd_apply_attn, "attention forward pass from Q/K/V files")
    sub.add_argument("--normalizer")
    _add_flags(sub, *settings)
    sub.add_argument("--q-file")
    sub.add_argument("--key-file")
    sub.add_argument("--value-file")
    sub.add_argument("--temperature", type=float)
    sub.add_argument("--emit", choices=("output", "attn"), default="output")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")

    sub = operator_command("sweep-unique", _cmd_sweep_unique, "count distinct outputs over a grid")
    sub.add_argument("--n", type=int)
    sub.add_argument("--d", type=int)
    sub.add_argument("--domain", choices=("cube", "sphere"), default="cube")
    sub.add_argument("--rounding-decimals", type=int, default=3)
    sub.add_argument("--start", type=int, default=0)
    sub.add_argument("--stop", type=int)
    sub.add_argument("--full", action="store_true",
                     help="confirm a sweep window above 2^20 inputs")
    sub.add_argument("--workers", type=int)

    sub = operator_command("sweep-tradeoff", _cmd_sweep_tradeoff,
                           "entropy/residual rows on random inputs")
    sub.add_argument("--n", type=int, default=8)
    sub.add_argument("--trials", type=int, default=100)

    sub = operator_command("props", _cmd_props, "probe scale/permutation invariances")
    sub.add_argument("--n", type=int, default=4)
    sub.add_argument("--trials", type=int, default=10)

    sub = command("count", _cmd_count, "count grid-valued doubly stochastic matrices")
    sub.add_argument("--n", type=int)
    sub.add_argument("--p", type=int)
    sub.add_argument("--mode", choices=("brute", "analytic", "decompose"), default="brute")

    sub = command("shots", _cmd_shots, "finite-shot sampled circuit DSM")
    _add_flags(sub, *settings[settings.index("seed"):])
    sub.add_argument("--input", default="-", help="matrix file (CSV or JSON); default stdin")
    sub.add_argument("--shots", type=int)
    sub.add_argument("--project", action="store_true",
                     help="project the sampled matrix back to doubly stochastic")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")

    sub = command("bench", _cmd_bench, "wall-time scaling of the circuit simulator")
    sub.add_argument("--dsm-dim", type=int, default=4)
    sub.add_argument("--layers", type=_int_list, default=[1, 2],
                     help="comma-separated layer counts")
    sub.add_argument("--aux-qubits", type=_int_list, default=[0],
                     help="comma-separated aux qubit counts")
    _add_flags(sub, "ansatz", default=SIMPLE)
    sub.add_argument("--reps", type=int, default=5)
    _add_flags(sub, "theta_seed", default=0)

    sub = command("gradcheck", _cmd_gradcheck,
                  "compare analytic VJPs with finite differences")
    sub.add_argument("--normalizer", choices=VJP_NORMALIZERS)
    _add_flags(sub, "k", help="sinkhorn-naive iteration count (odd; default 3)")
    _add_flags(sub, "tau", help="softmax temperature (default 1.0)")
    sub.add_argument("--n", type=int, default=8)
    sub.add_argument("--trials", type=int, default=10)
    _add_flags(sub, "seed")

    return parser, commands


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            commands.choices[args.command].set_defaults(
                **_config_defaults(commands, args.command, args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse printed --help or a usage error
        return 0 if exc.code in (0, None) else 1
    except _Usage as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValueError, ProjectionError, AssertionError) as exc:
        echo = getattr(args, "echo", None)
        _emit({"error": str(exc), "input": None if echo is None else matrix_record(echo)},
              sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
