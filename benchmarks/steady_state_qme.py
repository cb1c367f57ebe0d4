"""Time `quantum.steady_state_qme`, one call of the master-equation
generator and the build of both on driven N-atom rings.

Usage (from the repository root; set the BLAS threads in the environment):

    OPENBLAS_NUM_THREADS=1 python benchmarks/steady_state_qme.py \
        --src src --natoms 6 7 8 --repeats 5

`--src` selects the tree whose `atomarray` is timed, so two checkouts can
be compared with the same script.  The ring matches the benchmark's qme
workload (radius 0.4 lambda, two-level atoms along y, plane-wave Rabi
frequency 0.8).  One untimed call per size warms caches first; a size
whose first call raises is timed once and reported with the error.  The
generator `system.generator` is timed on the ground-state density matrix,
as the median over `--repeats` rounds of CALLS calls each.  The build,
`build_quantum_system` plus `system.generator`, is traced once with
`tracemalloc` (its peak) and then timed `--repeats` times.
Prints one JSON object: per N, the median and all times in seconds, the
median time of one generator call, the median build time and the build's
traced peak in MiB, and the residual ||L rho||_1 or the error.
"""
import argparse
import json
import statistics
import sys
import time
import tracemalloc

parser = argparse.ArgumentParser()
parser.add_argument("--src", default="src")
parser.add_argument("--natoms", type=int, nargs="+", default=[6, 7, 8])
parser.add_argument("--repeats", type=int, default=5)
args = parser.parse_args()
sys.path.insert(0, args.src)

import numpy as np  # noqa: E402

from atomarray import quantum  # noqa: E402
from atomarray.drives import PlaneWave  # noqa: E402
from atomarray.errors import NonConvergenceError  # noqa: E402
from atomarray.geometry import LAMBDA, build_ring  # noqa: E402
from atomarray.lli import TransitionSpec  # noqa: E402

CALLS = 20


def build(n):
    system = quantum.build_quantum_system(
        build_ring(n, 0.4 * LAMBDA), TransitionSpec(levels=2),
        PlaneWave(amplitude=0.8))
    system.generator
    return system


report = {}
for n in args.natoms:
    tracemalloc.start()
    system = build(n)
    build_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    build_times = []
    for _ in range(args.repeats):
        del system
        t0 = time.perf_counter()
        system = build(n)
        build_times.append(time.perf_counter() - t0)
    times, entry = [], {"dim": system.dim,
                        "build_median_s": statistics.median(build_times),
                        "build_peak_mib": build_peak / 2**20}
    for i in range(args.repeats + 1):
        t0 = time.perf_counter()
        try:
            rho = quantum.steady_state_qme(system)
        except NonConvergenceError as err:
            entry["error"] = f"NonConvergenceError: residual {err.residual:.2e}"
            times.append(time.perf_counter() - t0)
            break
        if i > 0:
            times.append(time.perf_counter() - t0)
    else:
        entry["residual"] = float(np.abs(system.generator(rho)).sum())
    g = system.ground_state()
    w = np.outer(g, g.conj())
    system.generator(w)
    per_call = []
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        for _ in range(CALLS):
            system.generator(w)
        per_call.append((time.perf_counter() - t0) / CALLS)
    entry.update(median_s=statistics.median(times), times_s=times,
                 generator_median_s=statistics.median(per_call))
    report[n] = entry
print(json.dumps(report))
