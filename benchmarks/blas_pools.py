"""Time single LAPACK and BLAS calls at 2 BLAS threads without and with
the CLI's BLAS policy (`cli.blas_policy`: scipy's bundled OpenBLAS pool on
one thread, numpy's left at the environment's count).

Usage (from the repository root):

    python benchmarks/blas_pools.py --processes 3 --out BENCH_17.json

"parent" runs without the policy, as `cli.run` did before it existed;
"change" calls `cli.blas_policy()` first.  Every (call, policy) pair runs
in `--processes` fresh interpreters at OPENBLAS_NUM_THREADS=2 (set before
numpy is imported), parent and change alternating, because a stall between
the two pools shows in some processes and not in others.  In each process
one untimed call warms up, then each repeat times the call twice:

- contended: right after work in the other pool, as the workloads
  interleave them.  A scipy call follows a (1024, 64) @ (64, 64) complex
  numpy product; the numpy product follows a 64 x 64 `scipy.linalg.expm`.
- alone: after a 0.3 s pause, which outlasts OpenBLAS's spin-wait, and
  one untimed call of its own, so its own pool is awake and the other
  asleep.  This is the cost of the thread count itself.

The report gives, per call and policy, the median of all timed calls and
each process's median, in seconds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# (call, matrix size, timed repeats per process)
CALLS = [("lu_factor", 100, 15), ("lu_factor", 400, 9),
         ("lu_factor", 1600, 5), ("eig", 128, 9), ("eig", 600, 3),
         ("eig", 1200, 2), ("expm", 64, 15), ("numpy_matmul", 64, 15)]


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def worker(call: str, n: int, repeats: int, policy: bool) -> dict:
    import numpy as np
    import scipy.linalg
    report = None
    if policy:
        from atomarray.cli import blas_policy
        report = blas_policy()
    rng = np.random.default_rng(0)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    psi = rng.normal(size=(1024, 64)) + 1j * rng.normal(size=(1024, 64))
    U = psi[:64]
    G = (U + U.conj().T) / 16            # a 64 x 64 Hermitian generator

    def expm():
        return scipy.linalg.expm(-1j * G)

    fn = {"lu_factor": lambda: scipy.linalg.lu_factor(A),
          "eig": lambda: scipy.linalg.eig(A),
          "expm": expm, "numpy_matmul": lambda: psi @ U}[call]
    other = expm if call == "numpy_matmul" else (lambda: psi @ U)
    fn()
    contended, alone = [], []
    for _ in range(repeats):
        other()
        contended.append(timed(fn))
        time.sleep(0.3)
        fn()
        alone.append(timed(fn))
    return {"contended": contended, "alone": alone, "blas": report}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--processes", type=int, default=3)
    parser.add_argument("--out", default="BENCH_17.json")
    parser.add_argument("--worker", nargs=4, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        call, n, repeats, policy = args.worker
        print(json.dumps(worker(call, int(n), int(repeats), policy == "1")))
        return
    from eigen_blocks import machine
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "2")}
    results, pools = {}, None
    for call, n, repeats in CALLS:
        runs = {"parent": [], "change": []}
        for _ in range(args.processes):
            for name, policy in (("parent", "0"), ("change", "1")):
                out = subprocess.run(
                    [sys.executable, __file__, "--worker", call, str(n),
                     str(repeats), policy], env=env, check=True,
                    capture_output=True, text=True)
                runs[name].append(json.loads(out.stdout))
                pools = runs[name][-1]["blas"] or pools
        entry = {}
        for name, procs in runs.items():
            for mode in ("contended", "alone"):
                times = [t for p in procs for t in p[mode]]
                entry[name + f"_{mode}_median_s"] = round(
                    statistics.median(times), 6)
                entry[name + f"_{mode}_process_medians_s"] = [
                    round(statistics.median(p[mode]), 6) for p in procs]
        results[f"{call} n={n}"] = entry
        print(call, n, {k: v for k, v in entry.items() if "median_s" in k
                        and "process" not in k}, file=sys.stderr)
    report = {
        "what": "Median wall time of single scipy.linalg and numpy calls on "
                "complex n x n matrices at 2 BLAS threads, without (parent) "
                "and with (change) the CLI's BLAS policy, each in fresh "
                "processes after one untimed warm-up call.",
        "command": f"python benchmarks/blas_pools.py --processes "
                   f"{args.processes} --out {args.out}",
        "machine": machine(),
        "pools_with_policy": pools,
        "notes": [
            "contended: timed right after work in the other OpenBLAS pool "
            "(a (1024, 64) @ (64, 64) numpy product before a scipy call, a "
            "64 x 64 expm before the numpy product).",
            "alone: timed after a 0.3 s pause and one untimed call of its "
            "own, so only its own pool is awake.",
            "numpy_matmul n=64 is the (1024, 64) @ (64, 64) product; it "
            "runs in numpy's pool, which the policy leaves at 2 threads.",
            "Each process is a fresh interpreter; parent and change "
            "processes alternate, on a shared machine that was not "
            "isolated.",
        ],
        "calls": results,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
