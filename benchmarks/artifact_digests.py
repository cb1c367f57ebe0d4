"""Print the sha256 of every artifact of a fixed set of CLI runs.

Usage (no options):

    python3 benchmarks/artifact_digests.py > digests.json

The `atomarray` and `perfbench` of the checkout that holds this script are
imported, so two checkouts are compared by running each one's copy and
diffing the two JSON documents.  OpenBLAS (and OpenMP/MKL) run on one
thread, set before numpy is imported, so that the bytes do not depend on
how a threaded BLAS splits its sums.  `manifest.json` is left out: it
records the wall time.

The runs: the perfbench "full" configs (disorder and traj at seeds 0-4),
the default and a 5-layer unequal `stack`, a one-atom `g2`, a directional
`traj` on a 3-atom ring at seeds 0-4, a Zeeman-split J=0->1 `qme` pair, and
the default `spectrum`, `bistab` and `bands`.  The output maps
"<run>/<artifact>" to its hex digest.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

from atomarray.cli import run  # noqa: E402

SEEDS = range(5)
RING3 = {"kind": "ring", "natoms": 3, "radius_wl": 0.4}


def runs():
    """(name, config, seed) of every run, in a fixed order."""
    full = workloads.SIZES["full"]
    for name, cfg in full.items():
        seeds = SEEDS if name in workloads.SEEDED else [None]
        for seed in seeds:
            yield f"{name}" + ("" if seed is None else f"@{seed}"), cfg, seed
    yield "stack_default", {"scenario": "stack"}, None
    yield "stack_unequal", {"scenario": "stack", "geometry": {
        "spacing_wl": 0.55, "separations_wl": [0.6, 0.8, 0.55, 0.7]}}, None
    yield "g2_single_atom", {
        "scenario": "g2", "geometry": {"kind": "square", "nx": 1, "ny": 1},
        "drive": {"kind": "plane", "rabi": 0.35}}, None
    for seed in SEEDS:
        yield f"traj_directional@{seed}", {
            "scenario": "traj", "geometry": RING3,
            "drive": {"kind": "plane", "rabi": 0.8},
            "jump_basis": "directional", "n_trajectories": 300,
            "t_final": 2.0, "n_times": 5}, seed
    yield "qme_zeeman_pair", {
        "scenario": "qme",
        "geometry": {"kind": "ring", "natoms": 2, "radius_wl": 0.25},
        "transition": {"levels": 4, "zeeman": [0.3, 0.0, 0.5]},
        "drive": {"kind": "plane", "rabi": 0.5},
        "t_final": 10.0, "n_times": 21}, None
    for scenario in ("spectrum", "bistab", "bands"):
        yield scenario, {"scenario": scenario}, None


def main():
    digests = {}
    for name, cfg, seed in runs():
        with tempfile.TemporaryDirectory() as tmp:
            run(cfg, out_dir=tmp, seed=seed)
            for path in sorted(Path(tmp).iterdir()):
                if path.name != "manifest.json":
                    digests[f"{name}/{path.name}"] = hashlib.sha256(
                        path.read_bytes()).hexdigest()
    print(json.dumps(digests, indent=2))


if __name__ == "__main__":
    main()
