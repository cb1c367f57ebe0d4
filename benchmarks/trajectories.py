"""Time `quantum.run_trajectories` on the driven 6-atom ring.

Usage (from the repository root; set the BLAS threads in the environment):

    OPENBLAS_NUM_THREADS=1 python benchmarks/trajectories.py \
        --src src --repeats 5

`--src` selects the tree whose `atomarray` is timed, so two checkouts can
be compared with the same script.  The run matches the benchmark's traj
workload (ring of 6 two-level atoms along y, radius 0.4 lambda, plane-wave
Rabi frequency 0.8, 1024 trajectories from the ground state to t = 1 on a
3-point grid, seed 0), once with the source-mode jump basis and once with
the CLI's 8 x 16 directional basis.  One untimed call per basis warms
caches first.  After the timed calls, one more call per basis runs under
`tracemalloc`, which records the peak of the memory that numpy and Python
allocate while the basis is built and the trajectories run.  Prints one
JSON object: per basis, the channel count, the median and all times in
seconds, that peak in MB, the ensemble excited population at t = 1 and,
for the directional basis, the number of clicks (two trees that draw the
same jumps agree on both, the population to rounding).
"""
import argparse
import json
import statistics
import sys
import time
import tracemalloc

parser = argparse.ArgumentParser()
parser.add_argument("--src", default="src")
parser.add_argument("--repeats", type=int, default=5)
args = parser.parse_args()
sys.path.insert(0, args.src)

import numpy as np  # noqa: E402

from atomarray import quantum  # noqa: E402
from atomarray.drives import PlaneWave  # noqa: E402
from atomarray.geometry import LAMBDA, build_ring  # noqa: E402
from atomarray.lli import TransitionSpec  # noqa: E402

system = quantum.build_quantum_system(
    build_ring(6, 0.4 * LAMBDA), TransitionSpec(levels=2),
    PlaneWave(amplitude=0.8))
bases = {
    "source": lambda: quantum.source_mode_basis(system),
    "directional_8x16": lambda: quantum.directional_basis(system, n_theta=8,
                                                          n_phi=16),
}
t_grid = np.linspace(0.0, 1.0, 3)


def run(basis):
    return quantum.run_trajectories(system.ground_state(), system, basis,
                                    t_grid, 1024, seed=0)


report = {}
for name, make_basis in bases.items():
    basis = make_basis()
    times = []
    for i in range(args.repeats + 1):
        t0 = time.perf_counter()
        res = run(basis)
        if i > 0:
            times.append(time.perf_counter() - t0)
    tracemalloc.start()
    run(make_basis())
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    report[name] = {"channels": len(basis.amplitudes),
                    "median_s": statistics.median(times), "times_s": times,
                    "tracemalloc_peak_mb": peak / 1e6,
                    "population_t1": float(res.populations[-1])}
    if res.clicks_are_detections:
        report[name]["clicks"] = len(res.clicks)
print(json.dumps(report))
