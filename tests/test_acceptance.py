"""End-to-end acceptance checks, one numbered test per claim.

Each test prints a single machine-greppable line

    [acceptance] NN name: PASS|FAIL (details)

to the real stdout (bypassing capture) before asserting, so a full run
always shows the per-claim verdict.  Tolerances are pinned here and are
not meant to be loosened; see notes/decisions.md in the build workspace
for the rationale behind each frozen configuration.

Budget: the whole module runs in about six minutes on one core.  The
43M-input d=3 cube sweep only runs with ``pytest --full`` and takes
many hours.
"""

import json
import math
import time

import numpy as np
import pytest

import oracles
from birkhoff_attn import (
    CircuitConfig,
    GridSpec,
    birkhoff_distance,
    c2_closed,
    count_brute,
    decomposition_check,
    exp_scale,
    f3_analytic,
    frobenius_distance,
    param_count,
    probe_invariances,
    project,
    qontot_theta,
    qr_dsm,
    sample_shots,
    simulate_dsm,
    sinkhorn_naive,
    sinkhorn_naive_vjp,
    softmax_rows,
    softmax_vjp,
    spearman_rho,
    tradeoff_sweep,
    uniqueness_sweep,
)
from birkhoff_attn.cli import main
from birkhoff_attn.operators import make_operator

# Frozen circuit choices.  CENSUS reproduces the 625-unique sphere sweep,
# CUBE keeps the 65,536-input sweep around a minute, TRADEOFF needs the
# extra block-folding depth to beat Sinkhorn's entropy (a single folded
# block averages out near psi(9) - psi(2) ~ 1.718, below Sinkhorn here).
QONTOT_CENSUS = {"dsm_dim": 4, "aux_qubits": 2, "layers": 8,
                 "ansatz": "trotter", "theta_seed": 0}
QONTOT_CUBE = {"dsm_dim": 4, "aux_qubits": 0, "layers": 8,
               "ansatz": "trotter", "theta_seed": 0}
QONTOT_TRADEOFF = {"dsm_dim": 8, "aux_qubits": 3, "layers": 16,
                   "ansatz": "trotter", "theta_seed": 1}


@pytest.fixture
def note(capsys):
    """Print one verdict line per claim on the real stdout, then assert."""

    def _note(num: int, name: str, ok: bool, detail: str) -> None:
        line = f"[acceptance] {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _note


def test_c01_sphere_census(note, capsys):
    t0 = time.perf_counter()
    code = main(["sweep-unique", "--n", "4", "--d", "3", "--domain", "sphere",
                 "--op", "sinkhorn-naive", "--k", "201"])
    dt = time.perf_counter() - t0
    report = json.loads(capsys.readouterr().out)
    qontot = uniqueness_sweep(GridSpec(n=4, d=3, domain="sphere"),
                              make_operator("qontot", **QONTOT_CENSUS))
    ok = (code == 0 and report["total_inputs"] == 625
          and report["unique_outputs"] == 621 and dt < 10.0
          and qontot.unique_outputs >= 624)
    note(1, "sphere-census", ok,
          f"sinkhorn {report['unique_outputs']}/625 in {dt:.1f}s, "
          f"qontot {qontot.unique_outputs}/625")


def test_c02_counting_identities(note):
    perm_ok = all(count_brute(n, 2) == math.factorial(n) for n in range(2, 7))
    small_ok = all(f3_analytic(p) == count_brute(3, p) for p in range(2, 13))
    t0 = time.perf_counter()
    big_ok = f3_analytic(43) == count_brute(3, 43)
    t43 = time.perf_counter() - t0
    c2_ok = True
    decomp_ok = True
    for n in (3, 4):
        for p in range(2, 9):
            try:
                parts = decomposition_check(n, p)  # asserts f internally
            except AssertionError:
                decomp_ok = False
                break
            c2_ok = c2_ok and c2_closed(n, p) == parts["c2"]
    ok = perm_ok and small_ok and big_ok and t43 < 600.0 and c2_ok and decomp_ok
    note(2, "counting-identities", ok,
          f"n! {perm_ok}, 3xN p<=12 {small_ok}, p=43 {big_ok} in {t43:.1f}s, "
          f"closed-form c2 {c2_ok}, decomposition {decomp_ok}")


def test_c03_soundness_margins(note):
    # 1,000 trials as one stack: the generator draws the same matrices as
    # 1,000 draws of one 8x8 each, and every operator and birkhoff_distance
    # give each matrix of a stack the bits it gets alone
    x = np.random.default_rng(7).standard_normal((1000, 8, 8))
    qont = make_operator("qontot", dsm_dim=8, layers=2, ansatz="trotter",
                         theta_seed=0)
    # qr_dsm reads its noise seed only to restart a rank-deficient matrix, and
    # without a seed such a restart raises; no Gaussian draw here needs one,
    # so the stack gets the bits the per-trial seeds gave each matrix alone
    dmax = {"qr": float(birkhoff_distance(qr_dsm(x)).max()),
            "qontot": float(birkhoff_distance(qont(x)).max()),
            "projection": float(birkhoff_distance(project(x)).max())}
    median3 = float(np.median(birkhoff_distance(sinkhorn_naive(exp_scale(x, 1.0), 3))))
    ok = all(v <= 1e-6 for v in dmax.values()) and median3 > 1e-3
    note(3, "soundness-margins", ok,
          f"max distances qr {dmax['qr']:.1e}, qontot {dmax['qontot']:.1e}, "
          f"projection {dmax['projection']:.1e}; sinkhorn k=3 median {median3:.1e}")


def test_c04_constant_column_collapse(note):
    uniform = np.full((4, 4), 0.25)
    columns = [np.eye(4)[:, j] for j in range(4)] + [np.full(4, 0.5)]
    worst = max(
        float(np.abs(sinkhorn_naive(exp_scale(np.outer(v, np.ones(4)), 1.0), 201)
                     - uniform).max())
        for v in columns
    )
    config = CircuitConfig(dsm_dim=4, aux_qubits=2, layers=8, ansatz="trotter")
    theta = qontot_theta(config, theta_seed=0)
    e2 = np.outer(np.eye(4)[:, 1], np.ones(4))
    e4 = np.outer(np.eye(4)[:, 3], np.ones(4))
    gap = frobenius_distance(simulate_dsm(config, theta, e2),
                             simulate_dsm(config, theta, e4))
    ok = worst <= 1e-9 and gap > 1e-6
    note(4, "constant-column-collapse", ok,
          f"worst |out - J/4| {worst:.1e}; qontot witness gap {gap:.3f}")


def test_c05_invariance_matrix(note):
    probes = {
        "sinkhorn-naive": make_operator("sinkhorn-naive", iterations=201),
        "birkhoff-project": make_operator("birkhoff-project"),
        "qr": make_operator("qr", noise_seed=0),
        "qontot": make_operator("qontot", dsm_dim=4, layers=8, ansatz="trotter", theta_seed=0),
    }
    got = {name: probe_invariances(op, trials=10, seed=5)
           for name, op in probes.items()}
    rerun = probe_invariances(probes["qr"], trials=10, seed=5)
    reproducible = (
        got["qr"]["permutation_witness"] is not None
        and np.array_equal(got["qr"]["permutation_witness"]["matrix"],
                           rerun["permutation_witness"]["matrix"])
        and got["qr"]["permutation_witness"]["max_abs_deviation"]
        == rerun["permutation_witness"]["max_abs_deviation"]
    )
    quadrants = (
        got["sinkhorn-naive"]["scale_invariant"]
        and got["sinkhorn-naive"]["permutation_equivariant"]
        and got["birkhoff-project"]["permutation_equivariant"]
        and got["qr"]["scale_invariant"]
        and not got["qr"]["permutation_equivariant"]
        and got["qr"]["permutation_witness"] is not None
        and not got["qontot"]["scale_invariant"]
        and got["qontot"]["scale_witness"] is not None
        and not got["qontot"]["permutation_equivariant"]
        and got["qontot"]["permutation_witness"] is not None
    )
    ok = quadrants and reproducible
    summary = ", ".join(
        f"{name} scale={r['scale_invariant']} perm={r['permutation_equivariant']}"
        for name, r in got.items()
    )
    note(5, "invariance-matrix", ok, f"{summary}; witnesses reproducible {reproducible}")


def test_c06_gradient_checks(note):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_sink = 0.0
    worst_soft = 0.0
    for _ in range(50):
        m = rng.uniform(0.1, 10.0, (8, 8))
        upstream = rng.standard_normal((8, 8))
        for k in (3, 21):
            fd = oracles.central_fd_vjp(lambda x: sinkhorn_naive(x, k), m, upstream)
            got = sinkhorn_naive_vjp(m, k, upstream)
            worst_sink = max(worst_sink,
                             float(np.abs(got - fd).max() / np.abs(fd).max()))
        logits = rng.standard_normal((8, 8))
        fd = oracles.central_fd_vjp(lambda x: softmax_rows(x, 1.0), logits, upstream)
        got = softmax_vjp(logits, 1.0, upstream)
        worst_soft = max(worst_soft,
                         float(np.abs(got - fd).max() / np.abs(fd).max()))
    dt = time.perf_counter() - t0
    ok = worst_sink <= 1e-4 and worst_soft <= 1e-6 and dt < 30.0
    note(6, "gradient-checks", ok,
          f"sinkhorn rel {worst_sink:.1e}, softmax rel {worst_soft:.1e}, {dt:.1f}s")


def test_c07_circuit_oracle(note):
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(100):
        ansatz = ("simple", "trotter")[int(rng.integers(2))]
        dsm_dim = int(2 ** rng.integers(1, 4))
        aux = int(rng.integers(0, 8 - int(np.log2(dsm_dim)) + 1))
        layers = int(rng.integers(1, 5))
        config = CircuitConfig(dsm_dim=dsm_dim, aux_qubits=aux, layers=layers,
                               ansatz=ansatz)
        theta = rng.uniform(-1, 1, param_count(config))
        m = rng.standard_normal((dsm_dim, dsm_dim))
        got = simulate_dsm(config, theta, m).matrix
        want = oracles.dense_dsm(dsm_dim, aux, layers, ansatz, theta, m)
        worst = max(worst, float(np.abs(got - want).max()))
    identity_ok = True
    for ansatz in ("simple", "trotter"):
        for dsm_dim in (2, 4, 8):
            for aux in (0, 1, 2):
                for layers in (1, 2, 3):
                    config = CircuitConfig(dsm_dim=dsm_dim, aux_qubits=aux,
                                           layers=layers, ansatz=ansatz)
                    out = simulate_dsm(config, np.zeros(param_count(config)),
                                       np.ones((dsm_dim, dsm_dim))).matrix
                    identity_ok = identity_ok and np.array_equal(out, np.eye(dsm_dim))
    ok = worst <= 1e-10 and identity_ok
    note(7, "circuit-oracle", ok,
          f"worst streaming-vs-dense {worst:.1e} over 100 configs; "
          f"zero-theta identity {identity_ok}")


def test_c08_shot_noise(note):
    config = CircuitConfig(dsm_dim=8, layers=2, ansatz="trotter")
    theta = qontot_theta(config, theta_seed=0)
    m = np.random.default_rng(123).standard_normal((8, 8))
    exact = simulate_dsm(config, theta, m).matrix
    levels = (100, 1000, 10_000, 100_000)
    frob = {s: [] for s in levels}
    rho = []
    for seed in range(50):
        for shots in levels:
            sampled = sample_shots(config, theta, m, shots=shots, seed=seed)
            projected = project(sampled).matrix
            frob[shots].append(frobenius_distance(projected, exact))
            if shots == 10_000:
                rho.append(spearman_rho(projected, exact))
    medians = [float(np.median(frob[s])) for s in levels]
    rho_med = float(np.median(rho))
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    ok = rho_med >= 0.9 and decreasing
    note(8, "shot-noise", ok,
          f"spearman median {rho_med:.3f} at 1e4 shots; "
          f"frobenius medians {[f'{x:.3f}' for x in medians]}")


def test_c09_runtime_shape(note, capsys):
    code = main(["bench", "--dsm-dim", "4", "--aux-qubits", "6,7",
                 "--layers", "2,4", "--ansatz", "trotter", "--reps", "5"])
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    header_ok = lines[0] == "layers,qubits,median_seconds"
    cells = {}
    for line in lines[1:]:
        layers, qubits, seconds = line.split(",")
        cells[(int(qubits), int(layers))] = float(seconds)
    layer_ratios = [cells[(q, 4)] / cells[(q, 2)] for q in (8, 9)]
    qubit_ratios = [cells[(9, l)] / cells[(8, l)] for l in (2, 4)]
    ok = (code == 0 and header_ok and len(cells) == 4
          and all(r < 2.5 for r in layer_ratios)
          and all(r >= 1.8 for r in qubit_ratios))
    note(9, "runtime-shape", ok,
          f"layer-doubling ratios {[f'{r:.2f}' for r in layer_ratios]} < 2.5; "
          f"qubit-increment ratios {[f'{r:.2f}' for r in qubit_ratios]} >= 1.8")


def test_c10_tradeoff_ordering(note):
    rng = np.random.default_rng(2024)
    inputs = [rng.standard_normal((8, 8)) for _ in range(100)]
    rows_q = tradeoff_sweep(inputs, make_operator("qontot", **QONTOT_TRADEOFF))
    rows_s = tradeoff_sweep(inputs, make_operator("sinkhorn-naive", iterations=21))
    ent_q = float(np.median([r["entropy"] for r in rows_q]))
    ent_s = float(np.median([r["entropy"] for r in rows_s]))
    res_q = float(np.median([r["residual"] for r in rows_q]))
    res_s = float(np.median([r["residual"] for r in rows_s]))
    ok = ent_q > ent_s and res_q <= 1.5 * res_s
    note(10, "tradeoff-ordering", ok,
          f"entropy medians qontot {ent_q:.3f} > sinkhorn {ent_s:.3f}; "
          f"residual ratio {res_q / res_s:.2f} <= 1.5")


def test_c11_hypercube_ordering(note):
    spec = GridSpec(n=4, d=2)
    unique = {
        name: uniqueness_sweep(spec, op).unique_outputs
        for name, op in (
            ("qontot", make_operator("qontot", **QONTOT_CUBE)),
            ("sinkhorn", make_operator("sinkhorn-naive", iterations=21)),
            ("birkhoff", make_operator("birkhoff-project")),
        )
    }
    ok = unique["qontot"] > unique["sinkhorn"] > unique["birkhoff"]
    note(11, "hypercube-ordering", ok,
          f"of 65,536: qontot {unique['qontot']} > sinkhorn {unique['sinkhorn']} "
          f"> birkhoff {unique['birkhoff']}")


def test_c11_full_cube(note, request):
    if not request.config.getoption("--full"):
        pytest.skip("43M-input sweep of three operators, 1,290 s on 2 workers; "
                    "enable with --full")
    spec = GridSpec(n=4, d=3)
    unique = {
        name: uniqueness_sweep(spec, op).unique_outputs
        for name, op in (
            ("qontot", make_operator("qontot", **QONTOT_CUBE)),
            ("sinkhorn", make_operator("sinkhorn-naive", iterations=21)),
            ("birkhoff", make_operator("birkhoff-project")),
        )
    }
    ok = unique["qontot"] > unique["sinkhorn"] > unique["birkhoff"]
    note(11, "hypercube-ordering-full-d3", ok,
          f"of 43,046,721: qontot {unique['qontot']} > sinkhorn "
          f"{unique['sinkhorn']} > birkhoff {unique['birkhoff']}")
