"""Time `quantum.run_trajectories` on the driven 6-atom ring and on the
driven pair of acceptance criterion 8(a).

Usage (from the repository root; set the BLAS threads in the environment):

    OPENBLAS_NUM_THREADS=1 python benchmarks/trajectories.py \
        --src src --repeats 5

`--src` selects the tree whose `atomarray` is timed, so two checkouts can
be compared with the same script.  Three cases run, each with seed 0:

- `source` and `directional_8x16`: the benchmark's traj workload (ring of
  6 two-level atoms along y, radius 0.4 lambda, plane-wave Rabi frequency
  0.8, 1024 trajectories from the ground state to t = 1 on a 3-point
  grid), once with the source-mode jump basis and once with the CLI's
  8 x 16 directional basis;
- `pair_source`: the system of criterion 8(a) (two atoms 0.5 lambda apart
  along z, dipoles along y, detuning 0.3, Rabi frequency 0.8) with the
  source-mode basis, 2e4 trajectories to t = 6 on a 7-point grid.

One untimed call per case warms caches first.  After the timed calls, one
more call per case runs under `tracemalloc`, which records the peak of the
memory that numpy and Python allocate while the basis is built and the
trajectories run.  Prints one JSON object: per case, the channel count,
the median and all times in seconds, that peak in MB, the ensemble excited
population at the last time, the mean number of jumps per trajectory (null
for a tree whose result does not count them) and, for the directional
basis, the number of clicks.
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
from atomarray.geometry import LAMBDA, Geometry, build_ring  # noqa: E402
from atomarray.lli import TransitionSpec  # noqa: E402

drive = PlaneWave(amplitude=0.8)
ring = quantum.build_quantum_system(
    build_ring(6, 0.4 * LAMBDA), TransitionSpec(levels=2), drive)
pair = quantum.build_quantum_system(
    Geometry([[0, 0, 0], [0, 0, 0.5 * LAMBDA]]),
    TransitionSpec(levels=2, orientation=(0, 1, 0), detuning=0.3), drive)
ring_grid = np.linspace(0.0, 1.0, 3)
# name: (system, basis factory, output grid, trajectories)
cases = {
    "source": (ring, quantum.source_mode_basis, ring_grid, 1024),
    "directional_8x16": (ring, lambda s: quantum.directional_basis(
        s, n_theta=8, n_phi=16), ring_grid, 1024),
    "pair_source": (pair, quantum.source_mode_basis, np.linspace(0, 6, 7),
                    20_000),
}

report = {}
for name, (system, make_basis, t_grid, n_traj) in cases.items():
    def run(basis):
        return quantum.run_trajectories(system.ground_state(), system, basis,
                                        t_grid, n_traj, seed=0)

    basis = make_basis(system)
    times = []
    for i in range(args.repeats + 1):
        t0 = time.perf_counter()
        res = run(basis)
        if i > 0:
            times.append(time.perf_counter() - t0)
    tracemalloc.start()
    run(make_basis(system))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    jumps = getattr(res, "n_jumps", None)
    report[name] = {"channels": len(basis.amplitudes),
                    "median_s": statistics.median(times), "times_s": times,
                    "tracemalloc_peak_mb": peak / 1e6,
                    "population_final": float(res.populations[-1]),
                    "jumps_per_trajectory": (None if jumps is None
                                             else jumps / n_traj)}
    if res.clicks_are_detections:
        report[name]["clicks"] = len(res.clicks)
print(json.dumps(report))
