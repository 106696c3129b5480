"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def ba():
    return run.import_package()


@pytest.fixture(scope="module")
def fingerprints():
    return workloads.load_fingerprints()


def package_bindings():
    """(module name, attribute) -> object for every binding in the package's modules."""
    return {
        (key, attr): value
        for key, module in list(sys.modules.items())
        if key == tracing.PACKAGE or key.startswith(tracing.PACKAGE + ".")
        for attr, value in vars(module).items()
    }


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 6]; a holds c [2, 3]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    parent = np.array([-1, 0, 1, 0])
    assert tracing.self_times(start, end, parent).tolist() == [6.0, 2.0, 1.0, 1.0]


def test_traced_calls_nest_and_count(ba):
    tracer = tracing.Tracer()
    m = np.random.default_rng(0).standard_normal((4, 4))
    with tracer.installed():
        ba.qr_dsm(m)
    stats = tracer.stats()
    assert stats["qr.qr_dsm"]["calls"] == 1
    assert stats["qr.qr_orthonormalize"]["calls"] == 1
    assert stats["core.as_dsm"]["calls"] == 1
    spans = tracer.arrays()
    root = tracer.names.index("qr.qr_dsm")
    assert spans["parent"][spans["name_id"] == root].tolist() == [-1]
    assert (spans["parent"][spans["name_id"] != root] == 0).all()
    total = spans["end"][0] - spans["start"][0]
    assert sum(s["self_s"] for s in stats.values()) == pytest.approx(total)


def test_wrappers_are_removed_after_tracing(ba):
    before = package_bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert ba.attention_forward is not before[("birkhoff_attn", "attention_forward")]
            assert ba.operators.project is not before[("birkhoff_attn.operators", "project")]
            raise RuntimeError("the traced block fails")
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    spans = len(tracer.start)
    ba.qr_dsm(np.eye(4))
    assert len(tracer.start) == spans


def test_sweep_gate_accepts_recorded_and_rejects_altered(ba, fingerprints):
    expected = fingerprints["grid-sweep"]["softmax"][3]
    op = ba.make_operator("softmax")
    lo = 3 * workloads.SLICE
    report = ba.uniqueness_sweep(ba.GridSpec(**workloads.GRID), op, start=lo,
                                 stop=lo + workloads.SLICE)
    assert workloads.check_sweep(report, expected, workloads.SLICE) == []
    merged = sorted(report.count_multiset[:-2] + [sum(report.count_multiset[-2:])], reverse=True)
    recounted = dataclasses.replace(report, count_multiset=merged,
                                    unique_outputs=report.unique_outputs - 1)
    assert workloads.check_sweep(recounted, expected, workloads.SLICE)
    nudged = dict(report.entropy_stats, mean=report.entropy_stats["mean"] * (1 + 1e-7))
    assert workloads.check_sweep(dataclasses.replace(report, entropy_stats=nudged),
                                 expected, workloads.SLICE)
    short = dataclasses.replace(report, total_inputs=report.total_inputs + 1)
    assert workloads.check_sweep(short, expected, workloads.SLICE)


@pytest.mark.parametrize("kind", workloads.NORMALIZERS)
def test_attention_gate_rejects_altered_weights(ba, kind):
    q, k, v = workloads.qkv(np.random.default_rng(1), 8, 4)
    config = ba.AttentionConfig(normalizer=workloads.normalizer(ba, kind))
    result = ba.attention_forward(q, k, v, config)
    assert workloads.check_attention(kind, result, v, ba) == []
    attn = result["attn"].copy()
    attn[0, 0] += 1e-3
    assert workloads.check_attention(kind, {"attn": attn, "output": attn @ v}, v, ba)
    output = result["output"].copy()
    output[2, 1] += 1e-9
    assert workloads.check_attention(kind, dict(result, output=output), v, ba)


def test_circuit_gate_rejects_altered_matrix(fingerprints):
    recorded = np.array(fingerprints["wide-inputs"]["circuit"][0])
    assert workloads.check_circuit(recorded.copy(), recorded) == []
    altered = recorded.copy()
    altered[1, 2] += 1e-11
    assert workloads.check_circuit(altered, recorded)


def test_failed_checks_are_counted():
    calls = []

    def step(r):
        calls.append(r)
        return 1e-3, ["output differs"] if r == 1 else []

    report = []
    task = workloads.Task("op_ms.fake", "ms", 1.0, 1e3, step)
    metrics, attempted, failed = run.timed_run([task], 0.01, report)
    assert attempted == len(calls) >= 2
    assert failed == 1
    assert any(line.startswith("FAIL op_ms.fake") for line in report)
    assert metrics["op_ms.fake"]["unit"] == "ms"


def test_tail_percentile_needs_ten_samples_above():
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(20)))[0] == 50.0
    assert run.tail_percentile(list(range(1000)))[0] == 99.0
