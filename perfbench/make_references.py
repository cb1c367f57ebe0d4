"""Regenerate references.json: run every referenced workload once per size
at the default seed and store the observed values its checks compare.

    PYTHONPATH=src python3 perfbench/make_references.py

Run it only when a workload's config changes, on a commit whose outputs
are trusted: the stored values then pin those outputs for later commits.
"""
from __future__ import annotations

import json
import tempfile
from pathlib import Path

import workloads
from atomarray import cli


def main():
    refs = {}
    for workload, (keys, _, _) in workloads.REFERENCED.items():
        refs[workload] = {}
        for size in workloads.SIZES:
            cfg = workloads.config(size, workload)
            with tempfile.TemporaryDirectory(dir=workloads.HERE) as d:
                cli.run(cfg, out_dir=d, seed=workloads.DEFAULT_SEED)
                obs = workloads.observe(workload, Path(d))
            ref = {k: obs[k] for k in keys}
            workloads.check(workload, cfg, obs, ref)      # oracle checks
            refs[workload][workloads.reference_key(size, workload)] = ref
    workloads.REFERENCE_FILE.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
