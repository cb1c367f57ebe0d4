"""Time `observables.farfield_detector` of this tree against another tree's,
interleaved, at 1 and 2 BLAS threads.

Usage (from the repository root):

    python benchmarks/detector.py --parent <other tree>/src --repeats 15 \
        --out BENCH_15.json

The cases are sampled square arrays of 10x10, 20x20 and 40x40 atoms: the
benchmark's disorder config (spacing 0.68 lambda, lattice depth 50, its
Gaussian beam) with the array size changed, one position sample (seed 0).
Both trees' `atomarray` packages are loaded side by side in one process,
under different names, and the same geometry and beam go to both.  Each
thread count runs in its own process, with the BLAS variables set before
numpy is imported.  One untimed call of each detector warms caches first;
the timed calls alternate between the two, which tree goes first
alternating too.  The report gives the medians and all times in seconds,
the tracemalloc peak of one call of each, the number of complex
exponentials each evaluates, and the largest difference of the two
detectors' weights relative to the largest weight.
"""
import argparse
import importlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SIZES = (10, 20, 40)


def load_observables(src, name):
    """The `observables` module of the atomarray package under `src`,
    imported as the package `name`."""
    pkg = Path(src).resolve() / "atomarray"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.observables")


def cases():
    """(name, geometry, beam) of each timed case."""
    import numpy as np

    import workloads
    from atomarray import cli, geometry
    disorder = workloads.config("full", "disorder")
    for n in SIZES:
        cfg = {**disorder, "geometry": {**disorder["geometry"], "nx": n,
                                        "ny": n}}
        geo, _, beam = cli._array(cfg)
        yield (f"{n}x{n} sampled (N={n * n})",
               geometry.sample_positions(geo, np.random.default_rng(0)), beam)


def traced_peak(build) -> float:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def worker(parent_src, repeats: int) -> dict:
    import numpy as np
    trees = {"parent": load_observables(parent_src, "atomarray_parent"),
             "change": load_observables(ROOT / "src", "atomarray_change")}
    n_theta, n_phi = trees["change"].N_THETA, trees["change"].N_PHI
    report = {}
    for name, geo, beam in cases():
        builds = {k: (lambda obs=obs: obs.farfield_detector(geo, beam))
                  for k, obs in trees.items()}
        times = {k: [] for k in builds}
        for i in range(repeats + 1):
            order = list(builds) if i % 2 == 0 else list(builds)[::-1]
            for key in order:
                t0 = time.perf_counter()
                builds[key]()
                if i > 0:
                    times[key].append(time.perf_counter() - t0)
        peaks = {k: traced_peak(b) for k, b in builds.items()}
        old, new = builds["parent"](), builds["change"]()
        w_old = np.stack([old.forward, old.backward])
        w_new = np.stack([new.forward, new.backward])
        n = geo.natoms
        report[name] = {
            **{f"{k}_median_s": round(statistics.median(v), 5)
               for k, v in times.items()},
            **{f"{k}_times_s": [round(t, 5) for t in v]
               for k, v in times.items()},
            **{f"{k}_traced_peak_mib": round(v, 2) for k, v in peaks.items()},
            "parent_exponentials": 2 * n_theta * n_phi * n,
            "change_exponentials": (n_theta * n_phi // 2 + n_theta) * n,
            "max_weight_difference_rel": float(
                np.abs(w_new - w_old).max() / np.abs(w_old).max()),
        }
    return report


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--parent", required=True,
                        help="the src directory of the tree to compare with")
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--threads", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--out", default="BENCH_15.json")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(worker(args.parent, args.repeats)))
        return
    from eigen_blocks import machine
    results = {}
    for t in args.threads:
        env = {**os.environ, **dict.fromkeys(THREAD_VARS, str(t))}
        out = subprocess.run([sys.executable, __file__, "--worker",
                              "--parent", args.parent,
                              "--repeats", str(args.repeats)], env=env,
                             check=True, capture_output=True, text=True)
        for name, entry in json.loads(out.stdout).items():
            results.setdefault(name, {})[f"blas_threads_{t}"] = entry
    report = {
        "what": "Median wall time of one observables.farfield_detector "
                "build (default 48 x 96 hemisphere grids), parent tree "
                "against this one, interleaved, after one untimed warm-up "
                "call of each.",
        "command": f"python benchmarks/detector.py --parent <parent>/src "
                   f"--repeats {args.repeats} --out {args.out}",
        "machine": machine(),
        "notes": [
            "The parent evaluates two full (n_theta n_phi x N) phase "
            "matrices; the change evaluates e^{-ik n.r} as an (n_theta x N) "
            "table times one (n_theta x n_phi/2 x N) table, with complex "
            "conjugates for the backward hemisphere and for phi + pi.",
            "traced_peak_mib is the tracemalloc peak of one build, outside "
            "the timed calls.",
            "max_weight_difference_rel is max |w_change - w_parent| / "
            "max |w_parent| over both hemispheres' (N, 3) weights.",
            "Each thread count ran in its own process, on a shared machine "
            "that was not isolated.",
        ],
        "farfield_detector": results,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
