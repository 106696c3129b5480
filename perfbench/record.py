"""Record the outputs the benchmark's correctness gate compares against.

Run from the repository root, on the commit whose behaviour is the reference:

    python3 perfbench/record.py > /dev/null

It sweeps every slice of the grid-sweep workload with every operator (about
seven minutes on one core) and simulates every recorded circuit draw of the
wide-inputs workload, then rewrites ``perfbench/fingerprints.json``.  Per-slice
sweep times go to stdout as CSV (operator, slice, seconds).
"""

from __future__ import annotations

import json
import sys
import time

import run


def main() -> int:
    run.cap_threads()
    import workloads as w  # imports numpy, so only after the thread cap

    ba = run.import_package()
    spec = ba.GridSpec(**w.GRID)
    sweeps = {}
    print("operator,slice,seconds")
    for name in w.OP_NAMES:
        op = ba.make_operator(name, **w.SWEEP_OPERATORS[name])
        rows = []
        for index in range(w.SLICES):
            lo = index * w.SLICE
            start = time.perf_counter()
            report = ba.uniqueness_sweep(spec, op, start=lo, stop=lo + w.SLICE, workers=1)
            print(f"{name},{index},{time.perf_counter() - start:.6f}", flush=True)
            rows.append(w.sweep_fingerprint(report))
        sweeps[name] = rows
    config = ba.CircuitConfig(**w.CIRCUIT)
    circuits = []
    for k in range(w.CIRCUIT_DRAWS):
        theta, m = w.circuit_draw(ba, config, k)
        circuits.append(ba.simulate_dsm(config, theta, m).matrix.tolist())
    record = {
        "source": run.source_identity(),
        "grid-sweep": sweeps,
        "wide-inputs": {"circuit": circuits},
    }
    with open(w.FINGERPRINTS, "w") as fh:
        json.dump(record, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
