"""Smoke test of benchmarks/layers.py: this tree against itself on the
cheap cases, one repeat at one BLAS thread."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHEAP = ["infinite.lattice_sums", "semiclassical.obe_rhs",
         "lli.assemble@10x10", "observables.farfield_detector@10x10",
         "quantum.generator@N6", "quantum.evolve_qme@N6"]


def test_layers_reports_both_trees(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(ROOT / "benchmarks" / "layers.py"),
                    "--parent", str(ROOT / "src"), "--threads", "1",
                    "--repeats", "1", "--layers", *CHEAP, "--out", str(out)],
                   check=True, capture_output=True, timeout=60)
    cases = json.loads(out.read_text())["cases"]
    assert len(cases) == len(CHEAP)
    assert all(any(name.startswith(c) for name in cases) for c in CHEAP)
    for name, case in cases.items():
        entry = case["blas_threads_1"]
        for tree in ("parent", "change"):
            assert len(entry[tree]["times_s"]) == 1, (name, entry)
            assert entry[tree]["median_s"] == entry[tree]["times_s"][0] > 0
            assert entry[tree]["tracemalloc_peak_mib"] >= 0
        assert entry["max_output_rel_diff"] == 0.0, name
