"""Benchmark of the atomarray CLI scenarios, end to end and per layer.

    python3 perfbench/run.py --workload transmit --seed 1 --seconds 10 --trace 0

Run from the root of a source tree that holds ``src/atomarray``; the
program is imported from there, no install needed.  Workloads (see
``workloads.py``): transmit, disorder, eigen, traj, qme.

``--trace 0`` measures the end-to-end metrics with tracing off:

- wall_s: median wall time of one warm execution of the workload's scenario
  through ``atomarray.cli.run``, artifacts written to a temp dir;
- setup_s: median wall time of a fresh interpreter that imports
  ``atomarray.cli``, validates the config and builds geometry, transition
  and drive, the fixed cost of every ``atomarray --config`` call;
- peak_rss_mb: ``ru_maxrss`` of the workload's process.

fail_frac (failed / attempted executions) is printed beside them; the JSON
result carries both counts.

``--trace 1`` runs the workload traced (see ``tracing.py``) and reports,
for each wrapped function, ``<module>.<fn>.self_s`` and ``.calls`` per
execution, ``.self_s.blas1`` from a second process pinned to one BLAS
thread, a few counts computed from call arguments, and
``trace.overhead_s`` (traced minus untraced wall time) and
``trace.coverage`` (sum of self times over the traced wall time).

Each workload process runs with ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to the number of usable
cores.  Every execution's artifacts are checked (``workloads.check``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = {"full": 5, "tiny": 1}

SETUP_CODE = """\
import json, sys
from atomarray import cli
cfg = json.loads(sys.argv[1])
cli.validate_config(cfg)
cli.geometry_from_config(cfg)
cli.transition_from_config(cfg)
cli.drive_from_config(cfg)
"""


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args, threads: int, untraced_s: float, traced_s: float) -> dict:
    job = {"workload": args.workload, "size": args.size, "seed": args.seed,
           "out": str(OUT), "blas_threads": threads,
           "untraced_s": untraced_s, "traced_s": traced_s}
    proc = subprocess.run([sys.executable, str(HERE / "child.py"),
                           json.dumps(job)], cwd=ROOT, env=child_env(threads),
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_times(args, threads: int) -> list:
    cfg = json.dumps(workloads.config(args.size, args.workload))
    times = []
    for _ in range(SETUP_REPS[args.size]):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, cfg],
                              cwd=ROOT, env=child_env(threads),
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"set-up process failed:\n{proc.stderr}")
    return times


def machine_line(info: dict, nproc: int) -> str:
    mem_gb = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30
    return (f"machine: nproc {nproc}, BLAS {info['blas']} at {nproc} threads, "
            f"numpy {info['numpy']}, scipy {info['scipy']}, "
            f"memory {mem_gb:.1f} GiB")


def end_to_end(args, nproc: int) -> tuple:
    res = run_child(args, nproc, untraced_s=args.seconds, traced_s=-1)
    setup = setup_times(args, nproc)
    wall = statistics.median(res["times"])
    print(machine_line(res["machine"], nproc))
    print(f"{args.workload} ({args.size}, seed {args.seed}):")
    print(f"  wall_s      {wall:.4f} s   median of {len(res['times'])} "
          f"warm executions")
    print(f"  setup_s     {statistics.median(setup):.4f} s   median of "
          f"{len(setup)} fresh interpreters")
    print(f"  peak_rss_mb {res['peak_rss_mb']:.1f} MB")
    print(f"  fail_frac   {res['failed'] / res['attempted']:g} 1   "
          f"{res['failed']} failed of {res['attempted']} attempted")
    metrics = {"wall_s": (wall, "s"),
               "setup_s": (statistics.median(setup), "s"),
               "peak_rss_mb": (res["peak_rss_mb"], "MB")}
    return [res], metrics


UNITS = {"self_s": "s", "calls": "count", "phase_evals": "count",
         "bytes": "B", "rhs_evals": "count", "rhs_s": "s"}


def per_layer(args, nproc: int) -> tuple:
    # the run's seconds are shared by the untraced and the traced
    # executions at nproc threads and the traced executions at one thread
    third = args.seconds / 3
    main = run_child(args, nproc, untraced_s=third, traced_s=third)
    single = run_child(args, 1, untraced_s=-1, traced_s=third)
    layers, layers1 = main["layers"], single["layers"]
    traced = statistics.median(main["traced_times"])
    metrics = {}
    for key, value in layers.items():
        suffix = key.rsplit(".", 1)[-1]
        if suffix in UNITS:
            metrics[key] = (value, UNITS[suffix])
    for key, value in layers1.items():
        if key.endswith(".self_s"):
            metrics[key + ".blas1"] = (value, "s")
    metrics["trace.overhead_s"] = (traced - statistics.median(main["times"]),
                                   "s")
    metrics["trace.coverage"] = (layers["coverage"], "1")

    print(machine_line(main["machine"], nproc))
    print(f"{args.workload} ({args.size}, seed {args.seed}), traced: "
          f"{len(main['traced_times'])} executions at {nproc} BLAS threads, "
          f"{len(single['traced_times'])} at 1; median traced wall "
          f"{traced:.4f} s, coverage {layers['coverage']:.3f}")
    ranked = sorted((k for k in layers if k.endswith(".self_s")),
                    key=lambda k: -layers[k])
    for key in ranked:
        fn = key[:-len(".self_s")]
        if layers[fn + ".calls"]:
            print(f"  {fn:38s} self {layers[key]:9.4f} s "
                  f"({layers[key] / traced:6.1%})  calls "
                  f"{layers[fn + '.calls']:6g}  blas1 "
                  f"{layers1.get(key, float('nan')):9.4f} s")
    return [main, single], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time spent on timed executions (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES),
                        default="full", help="tiny is for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "atomarray" / "__init__.py").is_file():
        print(f"no atomarray sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    results, metrics = (per_layer if args.trace else end_to_end)(args, nproc)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
