"""Time the block eigensolve of `lli.eigenmodes` against one full
eigendecomposition of the same coupling matrix, at 1 and 2 BLAS threads.

Usage (from the repository root):

    python benchmarks/eigen_blocks.py --repeats 5 --out BENCH_10.json

The cases are the benchmark's eigen config (16x16 J=0->1, M = 768), a
20x20 J=0->1 array (M = 1200), both at spacing 0.55 lambda, and one
disordered sample of the eigen config, which keeps no mirror and is
solved as one block.  The full solver is one `scipy.linalg.eig` of H
followed by the same v^T v normalisation and sort as `eigenmodes`.  Each
thread count runs in its own process, with the BLAS variables set before
numpy is imported.  One untimed call of each solver warms caches first;
the timed calls alternate between the two.  The report gives medians and
all times in seconds, the block sizes, and the largest distance between
the two sets of eigenvalues paired one to one.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cases():
    """(name, coupling system) of each timed case."""
    import numpy as np

    import workloads
    from atomarray import cli, geometry, lli
    eigen = workloads.config("full", "eigen")
    geo, tr, beam = cli._array(eigen)
    yield "eigen config (16x16 J=0->1, M=768)", lli.assemble(geo, tr, beam)
    big = {**eigen["geometry"], "nx": 20, "ny": 20}
    yield "20x20 J=0->1 (M=1200)", lli.assemble(
        *cli._array({**eigen, "geometry": big}))
    sample = geometry.sample_positions(geo, np.random.default_rng(0),
                                       0.05 * geometry.LAMBDA)
    yield ("eigen config, disordered sample (no mirror, M=768)",
           lli.assemble(sample, tr, beam))


def full_eigenmodes(H):
    """One dense eigendecomposition with the normalisation and sort of
    `lli.eigenmodes`."""
    import numpy as np
    import scipy.linalg
    evals, vecs = scipy.linalg.eig(H)
    norms = np.einsum("ij,ij->j", vecs, vecs)
    anomalous = np.abs(norms) < 1e-12
    scale = np.where(anomalous, np.abs(vecs).max(axis=0).astype(complex),
                     np.sqrt(norms + 0j))
    order = np.argsort(evals.imag)
    return evals[order], (vecs / scale)[:, order]


def worker(repeats: int) -> dict:
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    from atomarray import lli
    report = {}
    for name, system in cases():
        solvers = {"full_eigenmodes": lambda: full_eigenmodes(system.H),
                   "block_eigenmodes": lambda: lli.eigenmodes(system)}
        times = {k: [] for k in solvers}
        for i in range(repeats + 1):
            for key, solve in solvers.items():
                t0 = time.perf_counter()
                solve()
                if i > 0:
                    times[key].append(time.perf_counter() - t0)
        full = full_eigenmodes(system.H)[0]
        es = lli.eigenmodes(system)
        dist = np.abs(full[:, None] - es.eigenvalues[None, :])
        rows, cols = linear_sum_assignment(dist)
        report[name] = {
            **{f"{k}_median_s": round(statistics.median(v), 4)
               for k, v in times.items()},
            **{f"{k}_times_s": [round(t, 4) for t in v]
               for k, v in times.items()},
            "blocks": list(es.blocks),
            "max_eigenvalue_distance": float(dist[rows, cols].max()),
        }
    return report


def machine() -> dict:
    import numpy as np
    import scipy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return {"cpu": f"{cpu} (nproc {os.cpu_count()})",
            "memory_gib": round(mem, 1),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--threads", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--out", default="BENCH_10.json")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(worker(args.repeats)))
        return
    results = {}
    for t in args.threads:
        env = {**os.environ, **dict.fromkeys(THREAD_VARS, str(t))}
        out = subprocess.run([sys.executable, __file__, "--worker",
                              "--repeats", str(args.repeats)], env=env,
                             check=True, capture_output=True, text=True)
        for name, entry in json.loads(out.stdout).items():
            results.setdefault(name, {})[f"blas_threads_{t}"] = entry
    report = {
        "what": "Median wall time of one full eigendecomposition of the "
                "coupled-dipole matrix H against lli.eigenmodes, which "
                "solves H block by block in the orbit-sum basis of the "
                "mirrors that leave it invariant, after one untimed "
                "warm-up call of each.",
        "command": f"python benchmarks/eigen_blocks.py --repeats "
                   f"{args.repeats} --out {args.out}",
        "machine": machine(),
        "notes": [
            "full_eigenmodes is one scipy.linalg.eig of H with the v^T v "
            "normalisation and sort; block_eigenmodes is the whole of "
            "lli.eigenmodes: the mirror check, the basis, the projections, "
            "the block eigensolves, the cluster orthonormalisation, the "
            "back-transform and the normalisation.",
            "The disordered sample (Gaussian displacements of 0.05 lambda, "
            "seed 0) keeps no mirror, so lli.eigenmodes solves it as one "
            "block; its time against full_eigenmodes is the cost of the "
            "block path where there is no symmetry to use.",
            "max_eigenvalue_distance pairs the two eigenvalue sets one to "
            "one (linear_sum_assignment) and reports the largest distance, "
            "in units of gamma.",
            "Each thread count ran in its own process, on a shared machine "
            "that was not isolated.",
        ],
        "eigensolve": results,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
