"""Benchmark of the birkhoff_attn package: one workload, one seed, one run.

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  One process, one caller, a closed loop: each call starts when the
previous one returned, sweeps use ``workers=1`` and BLAS threads are capped
at the number of usable cores.

With ``--trace 0`` every step of the workload repeats within its share of the
run and each end-to-end metric is the mean over its repetitions, rescaled to
a reference machine speed measured by :class:`SpeedProbe`.  With
``--trace 1`` a fixed pass of the workload alternates untraced and traced, and
the per-layer metrics are per-pass counts and self times from the spans.
Human-readable lines come first; the last stdout line is the JSON result.
The exit code is 1 when an output check failed and 2 when the package cannot
be found or the run breaks its thread or process limits.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "birkhoff_attn"
SETUP_WEIGHT = 0.5  # share of the run spent repeating set-up, against 1 per timed step
MIN_SAMPLES = 2     # even a step longer than its share runs twice, so no metric rests on one call
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> int:
    """Cap BLAS thread pools at the usable core count; call before importing numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(cap)
    return nproc


def import_package():
    """Import a fresh copy of the package from this checkout's src/."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module(PACKAGE)
    if SRC not in Path(package.__file__).resolve().parents:
        raise ImportError(f"{PACKAGE} was imported from {package.__file__}, not from {SRC}")
    return package


def source_identity() -> dict:
    """Git commit when the checkout has one, and a digest of the package source."""
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": _git_commit(), "source_sha256": digest.hexdigest()[:16]}


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def thread_counts() -> tuple[int, int]:
    """(OS threads, Python threads) of this process."""
    import threading

    try:
        os_threads = len(os.listdir("/proc/self/task"))
    except OSError:
        os_threads = threading.active_count()
    return os_threads, threading.active_count()


def blas_libraries() -> list[str]:
    """File names of the BLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            names = {line.rsplit("/", 1)[-1].strip() for line in fh}
    except OSError:
        return []
    return sorted(n for n in names if n.startswith("lib") and "blas" in n.lower())


def thread_limit(nproc: int, libraries: int) -> int:
    """Threads allowed: the caller plus each BLAS library's pool of nproc - 1 workers.

    There is one caller, so at most one library computes at a time and no more
    than nproc threads are ever busy at once.
    """
    return 1 + (nproc - 1) * max(1, libraries)


def environment(nproc: int, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "blas_libraries": blas_libraries(),
        "nproc": nproc,
        "machine": platform.machine(),
        "seed": seed,
        **source_identity(),
    }


def tail_percentile(samples: list[float]):
    """Highest of the usual percentiles with at least ten samples above it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(samples) * (1.0 - pct / 100.0) >= 10.0:
            ordered = sorted(samples)
            rank = min(len(ordered) - 1, int(pct / 100.0 * len(ordered)))
            return pct, ordered[rank]
    return None


class SpeedProbe:
    """A fixed slice of interpreter and small-array numpy work, owned by the benchmark.

    On a shared host the speed of a core drifts by up to 2x from minute to
    minute as neighbours come and go, and it moves interpreter-bound and
    numpy-bound code alike.  Timing this probe after every sample measures the
    run's mean speed, so its samples can be rescaled to one reference speed:
    ``REFERENCE_S`` is the probe's duration on an uncontended x86-64 core
    (Python 3.11, numpy 2.4).
    """

    REFERENCE_S = 5.0e-4

    def __init__(self):
        import numpy as np

        self._exp = np.exp
        self._x = np.random.default_rng(0).standard_normal((4, 4))

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0.0
        for i in range(300):
            total += float(self._exp(self._x).sum()) + i
        return time.perf_counter() - start


def timed_run(tasks: list, seconds: float, report: list) -> tuple[dict, int, int]:
    """Interleave the tasks, each repeated until its share of the run is spent.

    Each metric is the mean of its samples, rescaled to the reference speed by
    the run's mean :class:`SpeedProbe` time.  The probe measures the run's
    mean slowdown, so it rescales mean times: a median would jump between the
    fast and the slow speed of the host as their mix in a run crosses half.
    The report also shows the median and the raw mean.
    """
    probe = SpeedProbe()
    probes = [probe()]
    total_weight = sum(t.weight for t in tasks)
    share = {t.metric: seconds * t.weight / total_weight for t in tasks}
    spent = dict.fromkeys(share, 0.0)
    attempted = failed = 0
    active = list(tasks)
    while active:
        # the task furthest behind its share goes next, so every task's samples
        # spread over the whole run and meet the same drift in machine speed
        task = min(active, key=lambda t: spent[t.metric] / share[t.metric])
        attempted += 1
        try:
            elapsed, problems = task.step(len(task.samples))
        except Exception as exc:  # a raising operation counts as failed, the run goes on
            failed += 1
            report.append(f"FAIL {task.metric}: raised {exc!r}")
            active.remove(task)
            continue
        finally:
            probes.append(probe())
        if problems:
            failed += 1
            report.extend(f"FAIL {task.metric}: {p}" for p in problems)
        task.samples.append(elapsed)
        spent[task.metric] += elapsed
        if len(task.samples) >= MIN_SAMPLES and spent[task.metric] + elapsed > share[task.metric]:
            active.remove(task)
    factor = SpeedProbe.REFERENCE_S / statistics.fmean(probes)
    report.append(f"speed factor {factor:.4f} (mean of {len(probes)} probes)")
    metrics = {}
    for task in tasks:
        if not task.samples:
            continue
        values = [elapsed * factor * task.scale for elapsed in task.samples]
        value = statistics.fmean(values)
        metrics[task.metric] = {"value": value, "unit": task.unit}
        tail = tail_percentile(values)
        tail_text = f", p{tail[0]:g} {tail[1]:.6g}" if tail else ""
        report.append(f"{task.metric:<28} {value:.6g} {task.unit} (mean of {len(values)}; "
                      f"median {statistics.median(values):.6g}{tail_text}; "
                      f"raw mean {value / factor:.6g})")
    return metrics, attempted, failed


def traced_run(workload, state: dict, seconds: float, seed: int, report: list):
    """Alternate untraced and traced fixed passes; per-layer figures are per traced pass."""
    import tracing

    tracer = tracing.Tracer()
    untraced, traced = [], []
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        for times, tracer_on in ((untraced, False), (traced, True)):
            start = time.perf_counter()
            if tracer_on:
                with tracer.installed():
                    problems = workload.trace_pass(state)
            else:
                problems = workload.trace_pass(state)
            times.append(time.perf_counter() - start)
            attempted += 1
            if problems:
                failed += 1
                report.extend(f"FAIL trace pass: {p}" for p in problems)
        elapsed = time.perf_counter() - begin
        if elapsed + untraced[-1] + traced[-1] > seconds:
            break
    passes = len(traced)
    stats = tracer.stats()
    metrics = {}
    for name in tracing.TRACED:
        s = stats.get(name, {"calls": 0, "self_s": 0.0, "p50_s": 0.0})
        metrics[f"{name}.calls"] = (s["calls"] / passes, "count")
        metrics[f"{name}.self_s"] = (s["self_s"] / passes, "s")
        metrics[f"{name}.p50_us"] = (s["p50_s"] * 1e6, "us")
    projects = metrics["birkhoff.project.calls"][0]
    metrics["birkhoff.iterations_per_project"] = (
        metrics["birkhoff.affine_project.calls"][0] / projects if projects else 0.0, "ratio")
    metrics["qontot.amp_updates"] = (
        metrics["qontot.simulate_dsm.calls"][0] * workload.amp_updates_per_circuit, "count")
    checks = metrics["counting.decomposition_check.calls"][0]
    check_self = metrics["counting.decomposition_check.self_s"][0]
    metrics["counting.candidates_per_s"] = (
        checks * workload.candidates_per_check / check_self if check_self else 0.0, "1/s")
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    report.append(f"trace: {passes} traced and {len(untraced)} untraced passes, "
                  f"median {statistics.median(traced):.4f} s vs {statistics.median(untraced):.4f} s, "
                  f"overhead {overhead:+.4f} s per pass ({len(tracer.start)} spans)")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload.name}-seed{seed}.npz")
    for name, (value, unit) in metrics.items():
        report.append(f"{name:<44} {value:.6g} {unit}")
    return ({name: {"value": float(value), "unit": unit}
             for name, (value, unit) in metrics.items()}, attempted, failed)


def timed_setup(workload, seed: int) -> tuple[float, dict]:
    """Fresh package import, input generation, operator construction and warm-ups."""
    start = time.perf_counter()
    state = workload.setup(import_package(), seed)
    return time.perf_counter() - start, state


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_threads()
    import workloads  # imports numpy, so only after the thread cap

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](workloads.load_fingerprints())
    try:
        cold, state = timed_setup(workload, args.seed)
    except ImportError as exc:
        print(f"cannot import {PACKAGE} from {SRC}: {exc}", file=sys.stderr)
        return 2

    report = [f"env {json.dumps(environment(nproc, args.seed), sort_keys=True)}",
              f"first set-up {cold:.4f} s (includes the scipy modules the package imports)"]
    if args.trace:
        metrics, attempted, failed = traced_run(workload, state, args.seconds, args.seed, report)
    else:
        # set-up repeats as one more task, so its samples spread over the run like the others
        setup = workloads.Task("setup_s", "s", SETUP_WEIGHT, 1.0,
                               lambda r: (timed_setup(workload, args.seed)[0], []))
        metrics, attempted, failed = timed_run(workload.tasks(state) + [setup],
                                               args.seconds, report)
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
        report.append(f"fail_ratio {failed}/{attempted}")

    os_threads, py_threads = thread_counts()
    limit = thread_limit(nproc, len(blas_libraries()))
    import multiprocessing

    children = multiprocessing.active_children()
    if os_threads > limit or py_threads > 1 or children:
        print(f"run used {os_threads} threads ({py_threads} Python) and {len(children)} child "
              f"processes; the limit is {limit} threads, one Python thread and no children",
              file=sys.stderr)
        return 2

    for line in report:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
