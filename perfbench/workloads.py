"""The benchmark's workloads: their inputs, timed steps and output checks.

Every workload runs the same metric set in its own regime, so each end-to-end
metric exists on every workload:

- ``grid-sweep``: thousands of 4x4 cube-grid inputs pushed through
  ``uniqueness_sweep`` (per-call overhead, decoding and digesting dominate)
  plus ``count_brute(3, 43)``, a pure-Python enumeration.
- ``wide-inputs``: few large inputs -- ``attention_forward`` at n=256,
  d_k=64, a 9-qubit ``simulate_dsm`` -- plus ``decomposition_check(4, 6)``,
  a numpy enumeration of 10M candidates (work per element dominates).

A workload only hands the program inputs it generated from the seed; the
checks compare outputs against fingerprints recorded from the seed commit
(``fingerprints.json``) or against closed forms.  Functions of the package are
always looked up on the package object at call time, so the tracer's wrappers,
installed by replacing those names, see every call.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

OP_NAMES = ("softmax", "sinkhorn-naive", "sinkhorn-ot", "birkhoff-project", "qr", "qontot")


@dataclass
class Task:
    """One timed step, repeated within its share of the run.

    ``step(r)`` performs repetition ``r``: it times the program call alone and
    returns (seconds, problems), where problems lists failed output checks.
    ``scale`` turns seconds into the metric's unit.
    """

    metric: str
    unit: str
    weight: float
    scale: float
    step: Callable[[int], tuple[float, list[str]]]
    samples: list[float] = field(default_factory=list)


def _timed(fn, *args, **kw):
    start = time.perf_counter()
    out = fn(*args, **kw)
    return time.perf_counter() - start, out


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when the output is right

def sweep_fingerprint(report) -> str:
    """``<unique outputs>:<digest>`` of a SweepReport.

    The digest covers the count multiset exactly and the entropy and residual
    statistics rounded to 9 significant digits, so a change in the last bits
    of a float sum does not count as a different output.
    """
    stats = [f"{report.entropy_stats[k]:.9g}/{report.residual_stats[k]:.9g}"
             for k in ("min", "median", "mean", "max")]
    canon = json.dumps([report.count_multiset, stats], separators=(",", ":")).encode()
    return f"{report.unique_outputs}:{hashlib.sha256(canon).hexdigest()[:16]}"


def check_sweep(report, expected: str, slice_size: int) -> list[str]:
    problems = []
    if sum(report.count_multiset) != report.total_inputs:
        problems.append(f"count multiset sums to {sum(report.count_multiset)}, "
                        f"not total_inputs {report.total_inputs}")
    if report.total_inputs != slice_size:
        problems.append(f"total_inputs {report.total_inputs} != slice size {slice_size}")
    got = sweep_fingerprint(report)
    if got != expected:
        problems.append(f"sweep fingerprint {got} != recorded {expected}")
    return problems


def check_attention(kind: str, result: dict, vm: np.ndarray, ba) -> list[str]:
    """Marginals each normalizer promises, and output == attn @ V."""
    attn, out = result["attn"], result["output"]
    problems = []
    if not np.allclose(out, attn @ vm, rtol=1e-12, atol=1e-12):
        problems.append(f"{kind}: output != attn @ V")
    if kind == "softmax":
        if attn.min() < 0.0 or np.abs(attn.sum(axis=1) - 1.0).max() > 1e-12:
            problems.append("softmax: rows are not distributions")
    elif kind.startswith("sinkhorn"):
        if attn.min() <= 0.0 or np.abs(attn.sum(axis=0) - 1.0).max() > 1e-12:
            problems.append(f"{kind}: not positive and column-stochastic")
    else:
        try:
            ba.as_dsm(attn, tolerance=1e-8)
        except ValueError as exc:
            problems.append(f"{kind}: not doubly stochastic at 1e-8 ({exc})")
    return problems


def check_circuit(matrix: np.ndarray, expected) -> list[str]:
    dev = float(np.abs(matrix - np.asarray(expected)).max())
    return [] if dev <= 1e-12 else [f"simulate_dsm deviates from its record by {dev:.3g}"]


# ---------------------------------------------------------------------------
# grid-sweep

QONTOT_CUBE = {"dsm_dim": 4, "aux_qubits": 0, "layers": 8, "ansatz": "trotter", "theta_seed": 0}
SWEEP_OPERATORS = {
    "softmax": {},
    "sinkhorn-naive": {"iterations": 21},
    "sinkhorn-ot": {"iterations": 21},
    "birkhoff-project": {},
    "qr": {"noise_seed": 0},
    "qontot": QONTOT_CUBE,
}
GRID = {"n": 4, "d": 2}      # the 65,536-input binary cube of the hypercube claim
SLICE = 128                  # inputs per uniqueness_sweep call
SLICES = 2 ** 16 // SLICE
STRIDE = 197                 # odd, so consecutive repetitions visit every slice
COUNT_P = 43


def trotter_amp_updates(qubits: int, layers: int) -> int:
    """Amplitude updates of one trotter-circuit simulation, from its shape.

    Per layer and basis column: 2q half-step X rotations and q-1 ZZ phase
    multiplies, each touching all 2^q amplitudes; 2^q columns per call.
    """
    dim = 1 << qubits
    return dim * layers * (3 * qubits - 1) * dim


class GridSweep:
    name = "grid-sweep"
    weights = {op: 1.0 for op in OP_NAMES} | {"count": 1.0}
    amp_updates_per_circuit = trotter_amp_updates(2, QONTOT_CUBE["layers"])
    candidates_per_check = 0   # decomposition_check does not run here

    def __init__(self, fingerprints: dict):
        self.records = fingerprints["grid-sweep"]

    def setup(self, ba, seed: int) -> dict:
        spec = ba.GridSpec(**GRID)
        first = int(np.random.default_rng(seed).integers(SLICES))
        ops = self.build(ba)
        for op in ops.values():  # one warm-up sweep per operator
            ba.uniqueness_sweep(spec, op, start=0, stop=16, workers=1)
        ba.count_brute(3, 5)
        return {"ba": ba, "spec": spec, "first": first, "ops": ops}

    @staticmethod
    def build(ba) -> dict:
        return {name: ba.make_operator(name, **kw) for name, kw in SWEEP_OPERATORS.items()}

    def slice_at(self, state: dict, r: int) -> int:
        return (state["first"] + r * STRIDE) % SLICES

    def sweep(self, state: dict, name: str, op, index: int):
        ba = state["ba"]
        lo = index * SLICE
        seconds, report = _timed(ba.uniqueness_sweep, state["spec"], op,
                                 start=lo, stop=lo + SLICE, workers=1)
        return seconds, check_sweep(report, self.records[name][index], SLICE)

    def count(self, state: dict):
        ba = state["ba"]
        start = time.perf_counter()
        brute = ba.count_brute(3, COUNT_P)
        closed = ba.f3_analytic(COUNT_P)
        seconds = time.perf_counter() - start
        return seconds, [] if brute == closed else [f"count_brute(3, {COUNT_P}) {brute} != {closed}"]

    def tasks(self, state: dict) -> list[Task]:
        def sweep_step(name):
            op = state["ops"][name]
            return lambda r: self.sweep(state, name, op, self.slice_at(state, r))

        tasks = [Task(f"op_ms.{name}", "ms", self.weights[name], 1e3 / SLICE, sweep_step(name))
                 for name in OP_NAMES]
        tasks.append(Task("count_s", "s", self.weights["count"], 1.0, lambda r: self.count(state)))
        return tasks

    def trace_pass(self, state: dict) -> list[str]:
        """Fixed work: build the operators, sweep the seed's first slice with each, count."""
        ops = self.build(state["ba"])
        problems = []
        for name in OP_NAMES:
            problems += self.sweep(state, name, ops[name], state["first"])[1]
        return problems + self.count(state)[1]


# ---------------------------------------------------------------------------
# wide-inputs

N, D_K = 256, 64
HEADS = 4                    # seeded Q/K/V draws, cycled through by repetitions
BIRKHOFF_REFERENCE_SEED = 0  # see the rationale: one fixed draw for the projection
CIRCUIT = {"dsm_dim": 4, "aux_qubits": 7, "layers": 4, "ansatz": "trotter"}
CIRCUIT_DRAWS = 16           # recorded circuit outputs; the seed picks where to start
DECOMPOSITION = (4, 6)
NORMALIZERS = ("softmax", "sinkhorn-naive", "sinkhorn-ot", "qr", "birkhoff-project")


def circuit_draw(ba, config, k: int):
    """Parameter vector and 4x4 input of recorded circuit draw ``k``."""
    rng = np.random.default_rng([2504, k])
    theta = rng.uniform(-1.0, 1.0, ba.param_count(config))
    return theta, rng.standard_normal((config.dsm_dim, config.dsm_dim))


def normalizer(ba, kind: str):
    return {
        "softmax": ba.Softmax,
        "sinkhorn-naive": lambda: ba.SinkhornNaive(21),
        "sinkhorn-ot": lambda: ba.SinkhornOT(21),
        "qr": lambda: ba.QrNormalizer(noise_seed=0),
        "birkhoff-project": ba.BirkhoffNormalizer,
    }[kind]()


def qkv(rng, n: int = N, d: int = D_K):
    return tuple(rng.standard_normal((n, d)) for _ in range(3))


class WideInputs:
    name = "wide-inputs"
    weights = {"softmax": 1.0, "sinkhorn-naive": 1.0, "sinkhorn-ot": 1.0, "qr": 1.0,
               "birkhoff-project": 5.0, "qontot": 2.0, "count": 3.5}
    amp_updates_per_circuit = trotter_amp_updates(2 + CIRCUIT["aux_qubits"], CIRCUIT["layers"])
    candidates_per_check = DECOMPOSITION[1] ** ((DECOMPOSITION[0] - 1) ** 2)

    def __init__(self, fingerprints: dict):
        self.records = fingerprints["wide-inputs"]

    def setup(self, ba, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        heads = [qkv(rng) for _ in range(HEADS)]
        reference = qkv(np.random.default_rng(BIRKHOFF_REFERENCE_SEED))
        configs = self.build(ba)
        circuit = ba.CircuitConfig(**CIRCUIT)
        first_draw = int(rng.integers(CIRCUIT_DRAWS))
        draws = [circuit_draw(ba, circuit, k) for k in range(CIRCUIT_DRAWS)]
        small = qkv(rng, 16, 8)  # warm-ups: one small call per operator
        for config in configs.values():
            ba.attention_forward(*small, config)
        warm = ba.CircuitConfig(dsm_dim=4, layers=1, ansatz="trotter")
        ba.simulate_dsm(warm, circuit_draw(ba, warm, 0)[0], draws[0][1])
        ba.decomposition_check(3, 4)
        return {"ba": ba, "heads": heads, "reference": reference, "configs": configs,
                "circuit": circuit, "draws": draws, "first_draw": first_draw}

    @staticmethod
    def build(ba) -> dict:
        return {kind: ba.AttentionConfig(normalizer=normalizer(ba, kind)) for kind in NORMALIZERS}

    def attend(self, state: dict, kind: str, config, r: int):
        ba = state["ba"]
        q, k, v = state["reference"] if kind == "birkhoff-project" else state["heads"][r % HEADS]
        seconds, result = _timed(ba.attention_forward, q, k, v, config)
        return seconds, check_attention(kind, result, v, ba)

    def circuit(self, state: dict, r: int):
        ba = state["ba"]
        k = (state["first_draw"] + r) % CIRCUIT_DRAWS
        theta, m = state["draws"][k]
        seconds, dsm = _timed(ba.simulate_dsm, state["circuit"], theta, m)
        return seconds, check_circuit(dsm.matrix, self.records["circuit"][k])

    def count(self, state: dict):
        ba = state["ba"]
        n, p = DECOMPOSITION
        start = time.perf_counter()
        parts = ba.decomposition_check(n, p)
        closed = ba.c2_closed(n, p)
        seconds = time.perf_counter() - start
        problems = []
        if parts["c2"] != closed:
            problems.append(f"decomposition_check({n}, {p}) c2 {parts['c2']} != closed form {closed}")
        if parts["total"] - parts["c1"] - parts["c2"] + parts["c12"] != parts["f"]:
            problems.append(f"decomposition_check({n}, {p}) parts do not add up to f")
        return seconds, problems

    def tasks(self, state: dict) -> list[Task]:
        def attend_step(kind):
            config = state["configs"][kind]
            return lambda r: self.attend(state, kind, config, r)

        tasks = [Task(f"op_ms.{kind}", "ms", self.weights[kind], 1e3, attend_step(kind))
                 for kind in NORMALIZERS]
        tasks.append(Task("op_ms.qontot", "ms", self.weights["qontot"], 1e3,
                          lambda r: self.circuit(state, r)))
        tasks.append(Task("count_s", "s", self.weights["count"], 1.0, lambda r: self.count(state)))
        return tasks

    def trace_pass(self, state: dict) -> list[str]:
        """Fixed work: one call per normalizer, one circuit, one decomposition check."""
        configs = self.build(state["ba"])
        problems = []
        for kind in NORMALIZERS:
            problems += self.attend(state, kind, configs[kind], 0)[1]
        problems += self.circuit(state, 0)[1]
        return problems + self.count(state)[1]


WORKLOADS = {w.name: w for w in (GridSweep, WideInputs)}


def load_fingerprints() -> dict:
    with open(FINGERPRINTS) as fh:
        return json.load(fh)
