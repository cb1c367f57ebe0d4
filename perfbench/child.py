"""One workload's process: runs the scenario through ``atomarray.cli.run``
as a closed loop, checks every execution's artifacts and prints one JSON
line with its timings.

    python3 perfbench/child.py '<json job>'

The job names the workload, size, seed and output directory, and how many
seconds to spend on untraced and on traced executions (a negative number
skips that phase).  Every phase runs at least one execution.  A warm-up
execution comes first and is checked but not timed.  An execution that
raises or fails its check is counted as failed and the loop goes on.
"""
from __future__ import annotations

import json
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads


def machine() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas": f"{blas.get('name')} {blas.get('version')}",
            "numpy": np.__version__, "scipy": scipy.__version__}


class Loop:
    def __init__(self, job):
        from atomarray import cli
        self.cli = cli
        self.workload = job["workload"]
        self.seed = job["seed"]
        self.cfg = workloads.config(job["size"], self.workload)
        self.reference = workloads.load_reference(job["size"], self.workload,
                                                  self.seed)
        self.out = Path(job["out"])
        self.attempted = 0
        self.failed = 0

    def execute(self) -> float:
        """One execution: returns its wall time; counts and reports a
        failure instead of raising."""
        seed = self.seed if self.workload in workloads.SEEDED else None
        self.attempted += 1
        with tempfile.TemporaryDirectory(dir=self.out) as d:
            t0 = time.perf_counter()
            try:
                self.cli.run(self.cfg, out_dir=d, seed=seed)
                wall = time.perf_counter() - t0
                workloads.check(self.workload, self.cfg,
                                workloads.observe(self.workload, Path(d)),
                                self.reference)
            except Exception:
                wall = time.perf_counter() - t0
                self.failed += 1
                print(f"[{self.workload}] execution {self.attempted} failed:",
                      file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
        return wall

    def timed(self, seconds: float, before_each=None) -> list:
        times = []
        start = time.perf_counter()
        while True:
            if before_each is not None:
                before_each(len(times))
            times.append(self.execute())
            if time.perf_counter() - start >= seconds:
                return times


def main(job: dict) -> dict:
    loop = Loop(job)
    loop.execute()                                   # warm-up
    result = {"machine": machine()}
    if job["untraced_s"] >= 0:
        result["times"] = loop.timed(job["untraced_s"])
    if job["traced_s"] >= 0:
        from tracing import Tracer, median_metrics
        tracer = Tracer()
        tracer.install()

        def next_execution(i):
            tracer.execution = i
        result["traced_times"] = loop.timed(job["traced_s"], next_execution)
        per_exec = [tracer.execution_metrics(i)
                    for i in range(len(result["traced_times"]))]
        for m, wall in zip(per_exec, result["traced_times"]):
            m["coverage"] = m["self_total_s"] / wall
        result["layers"] = median_metrics(per_exec)
        tracer.dump(loop.out / f"spans-{job['workload']}-"
                               f"{job['blas_threads']}thr.json")
    result.update(attempted=loop.attempted, failed=loop.failed,
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
