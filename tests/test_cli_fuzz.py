"""Parser-driven fuzz of the command line.

Each example draws a subcommand, an operator for it, and some of the flags
its parser declares, added to a run that succeeds, with values from the flag's own type and choices: edge ints
(huge, negative, zero), edge floats (NaN, inf, subnormal), bogus choices,
good, malformed and missing files, and a --config file of the same.  Every
run must end with exit code 0, 1 or 2, leave no traceback or numpy warning
on stderr, and on exit 2 write exactly one JSON record to stderr.

Flags whose large valid values run long (sizes, iteration counts, shots)
draw valid values up to a small cap, and beyond it only values that every
rule refuses.  A projection tolerance is drawn no tighter than 1e-6 for the
same reason.  sweep-unique always runs with --workers 1, so no example
starts a pool, and each example has a time budget, so a hang fails the
example instead of stalling the suite.
"""

import argparse
import contextlib
from dataclasses import fields
import io
import json
import signal
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from birkhoff_attn import OPERATOR_NAMES
from birkhoff_attn.cli import _OPERATOR_FLAGS, _build_parser, _int_list, main
from birkhoff_attn.operators import SPECS

BUDGET_S = 5.0  # wall time of one example
# the largest valid value drawn for each flag whose large values run long
CAPS = {"n": 3, "d": 3, "p": 6, "trials": 3, "reps": 2, "layers": 3, "shots": 64, "k": 9,
        "max_iterations": 50, "dsm_dim": 8, "aux_qubits": 2}
# int values beyond every cap that every rule refuses, and edge ints for the rest
REFUSED_INTS = (-(2**63), -1, 0, 10**30)
EDGE_INTS = (*REFUSED_INTS, 1, 2, 3, 2**31, 2**63)
EDGE_FLOATS = ("nan", "inf", "-inf", "0", "-0.0", "-1", "5e-324", "1e-300", "1e308", "0.5", "3")
WORKERS = ["--workers", "1"]
MATRIX_4 = "0.5,1.0,0.25,2.0\n1.5,0.75,1.0,0.5\n0.25,2.0,1.25,1.0\n1.0,0.5,0.75,1.5\n"

_, COMMANDS = _build_parser()


class TimeBudget(BaseException):
    """Raised in the run when an example outlives its budget; no handler catches it."""


# the input files an example may name, good and bad, and one that is missing
FILES = {
    "matrix.csv": MATRIX_4,
    "matrix.json": '{"data": [[0.5, 1.0], [2.0, 0.25]]}',
    "table.csv": "0.5,1.0,0.25\n1.5,0.75,1.0\n0.25,2.0,1.25\n1.0,0.5,0.75\n",
    "theta.csv": "0.5,-0.25,0.75,0.1\n",
    "nan.csv": "0.5,nan\n1.0,0.5\n",
    "ragged.csv": "1,2\n3\n",
    "empty.csv": "",
}
PATHS = [*FILES, "missing.csv"]
CONFIG = "run.cfg"
# a run of each subcommand that succeeds, less its operator
RUNS = {
    "apply": [],
    "apply-attn": ["--q-file", "table.csv", "--key-file", "table.csv", "--value-file", "table.csv"],
    "sweep-unique": ["--n", "2", "--d", "2"],
    "sweep-tradeoff": ["--n", "3", "--trials", "2", "--seed", "0"],
    "props": ["--n", "3", "--trials", "2", "--seed", "0"],
    "count": ["--n", "3", "--p", "3"],
    "shots": ["--shots", "16", "--seed", "0", "--theta-seed", "0"],
    "bench": ["--reps", "1", "--layers", "1"],
    "gradcheck": ["--n", "3", "--trials", "1", "--seed", "0"],
}
# the settings an operator needs beyond its defaults
NEEDS = {"qr": ["--seed", "1"], "qontot": ["--theta-seed", "0"]}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        (root / name).write_text(text)
    return root


def _mostly(draw, valid, edge):
    """A draw from ``valid`` four times in five, else from ``edge``."""
    return draw(edge if draw(st.integers(0, 4)) == 0 else valid)


def _value(draw, action: argparse.Action) -> str:
    """A value for ``action`` as argv text: in its type's range, at its edges, or outside."""
    dest = action.dest
    if action.choices is not None:
        return _mostly(draw, st.sampled_from(list(map(str, action.choices))), st.just("bogus"))
    if dest in ("op", "normalizer"):
        return draw(st.sampled_from([*OPERATOR_NAMES, "bogus"]))
    if action.type is int:
        if dest in CAPS:
            return str(_mostly(draw, st.integers(0, CAPS[dest]), st.sampled_from(REFUSED_INTS)))
        return str(_mostly(draw, st.integers(-3, 9), st.sampled_from(EDGE_INTS)))
    if action.type is _int_list:
        ints = st.integers(0, CAPS[dest]) | st.sampled_from(REFUSED_INTS)
        return _mostly(draw, st.lists(ints.map(str), min_size=1, max_size=3).map(",".join),
                       st.sampled_from(["", ",", "1,x"]))
    if action.type is float:
        if dest == "tolerance":
            return _mostly(draw, st.sampled_from(["1e-6", "1e-3", "1", "inf"]),
                           st.sampled_from(["nan", "-inf", "0", "-1"]))
        return _mostly(draw, st.floats(0.1, 4).map(repr), st.sampled_from(EDGE_FLOATS))
    return draw(st.sampled_from([*PATHS, "-"] if dest == "input" else PATHS))


def _flags(draw, command: str, taken=None) -> dict:
    """Some of ``command``'s declared flags, each with a drawn value (None for a switch).

    With ``taken`` given, an operator flag is drawn only if it is in it.
    """
    chosen = {}
    for action in COMMANDS.choices[command]._actions:
        if not action.option_strings or action.dest in ("help", "config", "workers"):
            continue
        if taken is not None and action.dest in _OPERATOR_FLAGS and action.dest not in taken:
            continue
        if draw(st.integers(0, 5)) == 0:
            chosen[action.dest] = None if action.nargs == 0 else _value(draw, action)
    return chosen


def _taken(name: str) -> set:
    """The operator flags that set a field of operator ``name``, and how it is applied."""
    init = {f.name for f in fields(SPECS[name]) if f.init}
    return {dest for dest, (key, _) in _OPERATOR_FLAGS.items() if key in init or key is None
            } | {"tau", "seed"}


@st.composite
def runs(draw):
    """An argv, and the text of the --config file it names or None.

    The argv is a run of the subcommand that succeeds as it stands, with an
    operator drawn from every name and the seed it needs, and then the drawn
    flags, which win over the run's own.
    """
    command = draw(st.sampled_from(sorted(COMMANDS.choices)))
    argv = [command, *RUNS[command]]
    names = {action.dest: action for action in COMMANDS.choices[command]._actions}
    taken = None
    if flag := next((dest for dest in ("op", "normalizer") if dest in names), None):
        name = draw(st.sampled_from(names[flag].choices or OPERATOR_NAMES))
        argv += [f"--{flag}", name, *NEEDS.get(name, [])]
        # half the examples draw only the operator flags this operator may take
        taken = _taken(name) if draw(st.booleans()) else None
    for dest, value in _flags(draw, command, taken).items():
        argv += [f"--{dest.replace('_', '-')}"] + ([] if value is None else [value])
    config = None
    if draw(st.booleans()):
        lines = [f"{dest}={'true' if value is None else value}"
                 for dest, value in _flags(draw, command, taken).items()]
        lines += _mostly(draw, st.just([]), st.sampled_from([["junk"], ["nope=1"], ["# c"]]))
        config = "\n".join(lines)
        argv += ["--config", CONFIG]
    if command == "sweep-unique":
        argv += WORKERS
    return argv, config


def check_run(argv: list[str], monkeypatch) -> tuple[int, str]:
    """Run ``main`` in-process on a 4 x 4 stdin within the time budget and check how it ended.

    Returns the exit code and stderr.
    """
    err = io.StringIO()

    def expire(signum, frame):
        raise TimeBudget(f"{argv} ran past {BUDGET_S} s")

    monkeypatch.setattr("sys.stdin", io.StringIO(MATRIX_4))
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
            warnings.simplefilter("always")
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    assert not caught, (argv, [str(w.message) for w in caught])
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict), (argv, err)
    return code, err


# runs that hung, crashed or printed a numpy warning, each with the exit code
# and the words it must now end with at once
FORMER_FAULTS = [
    (["count", "--mode", "analytic", "--n", "3", "--p", "100000"], 2, "budget"),
    (["count", "--n", "2", "--p", "1000000000000"], 2, "budget"),
    (["sweep-unique", "--op", "softmax", "--domain", "sphere", "--n", "64", "--d", "2",
      *WORKERS], 1, "error: sphere grid has 2^64 candidate columns"),
    (["sweep-unique", "--op", "softmax", "--domain", "sphere", "--n", "2", "--d", "100000000",
      *WORKERS], 1, "error: sphere grid has 100000000^2 candidate columns"),
    (["sweep-unique", "--op", "softmax", "--n", "2", "--d", "2", "--rounding-decimals", "309",
      *WORKERS], 1, "error: rounding_decimals must be <= 308"),
]


@pytest.mark.parametrize("argv, code, message", FORMER_FAULTS)
def test_former_fault_ends_with_its_message(argv, code, message, monkeypatch):
    ended, err = check_run(argv, monkeypatch)
    assert ended == code and message in err


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(run=runs())
@example(run=(FORMER_FAULTS[0][0], None))
@example(run=(FORMER_FAULTS[1][0], None))
@example(run=(FORMER_FAULTS[2][0], None))
@example(run=(FORMER_FAULTS[3][0], None))
@example(run=(FORMER_FAULTS[4][0], None))
def test_any_argv_ends_cleanly(workdir, run, monkeypatch):
    argv, config = run
    monkeypatch.chdir(workdir)
    if config is not None:
        (workdir / CONFIG).write_text(config + "\n")
    check_run(argv, monkeypatch)
