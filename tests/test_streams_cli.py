import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from atomarray.cli import ConfigError, main, run, validate_config
from atomarray.streams import generator_for, seed_streams


def test_seed_streams_determinism():
    a = [np.random.default_rng(s).random(8) for s in seed_streams(77, 5)]
    b = [np.random.default_rng(s).random(8) for s in seed_streams(77, 5)]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_generator_for_matches_streams():
    draws = np.random.default_rng(seed_streams(5, 4)[3]).random(6)
    again = generator_for(5, 3).random(6)
    assert np.array_equal(draws, again)


def test_streams_pairwise_correlation():
    n = 20000
    xs = [np.random.default_rng(s).random(n) - 0.5
          for s in seed_streams(1, 4)]
    for i in range(4):
        for j in range(i + 1, 4):
            corr = np.mean(xs[i] * xs[j]) / np.sqrt(
                np.mean(xs[i] ** 2) * np.mean(xs[j] ** 2))
            assert abs(corr) < 4.0 / np.sqrt(n)


def test_single_stream_equals_direct():
    assert len(seed_streams(9, 1)) == 1
    with pytest.raises(ValueError):
        seed_streams(9, 0)


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="scenario"):
        validate_config({"scenario": "nope"})
    with pytest.raises(ConfigError, match="geometry/nx"):
        validate_config({"scenario": "eigen", "geometry": {"nx": 0}})
    validate_config({"scenario": "checks"})


def test_cli_exit_code_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"scenario": "spectral"}))
    assert main(["--config", str(cfg)]) == 2
    cfg.write_text("{not json")
    assert main(["--config", str(cfg)]) == 2


def test_cli_rejects_removed_config_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "checks", "threads": 2}))
    assert main(["--config", str(cfg)]) == 2
    assert ("config invalid at <root>: Additional properties are not "
            "allowed ('threads' was unexpected)") in capsys.readouterr().err


TINY = {"nx": 2, "ny": 2, "spacing_wl": 0.6}
GRID = {"start": -1.0, "stop": 1.0, "num": 3}


@pytest.mark.parametrize("cfg, path", [
    # another scenario's top-level key
    ({"scenario": "eigen", "geometry": TINY, "n_trajectories": 10},
     "n_trajectories"),
    # seed on a deterministic scenario
    ({"scenario": "g2", "geometry": {"nx": 1, "ny": 1},
      "drive": {"kind": "plane"}, "seed": 3}, "seed"),
    # a geometry key of another kind
    ({"scenario": "eigen", "geometry": {**TINY, "natoms": 5}},
     "geometry/natoms"),
    ({"scenario": "eigen",
      "geometry": {"kind": "ring", "natoms": 3, "spacing_wl": 0.3}},
     "geometry/spacing_wl"),
    # ell_x_wl without lattice_depth
    ({"scenario": "eigen", "geometry": {**TINY, "ell_x_wl": 0.1}},
     "geometry/ell_x_wl"),
    # orientation at levels 4, zeeman at levels 2
    ({"scenario": "eigen", "geometry": TINY,
      "transition": {"levels": 4, "orientation": [0, 0, 1]}},
     "transition/orientation"),
    ({"scenario": "eigen", "geometry": TINY,
      "transition": {"zeeman": [0.2, 0.0, 0.1]}}, "transition/zeeman"),
    # waist_wl on a plane drive
    ({"scenario": "eigen", "geometry": TINY,
      "drive": {"kind": "plane", "waist_wl": 2.0}}, "drive/waist_wl"),
    # any physics key on checks
    ({"scenario": "checks", "geometry": {"spacing_wl": 0.5}}, "geometry"),
    # geometry.kind where no finite array is built
    ({"scenario": "spectrum", "geometry": {"kind": "square"},
      "detuning_grid": GRID}, "geometry/kind"),
    ({"scenario": "bands", "geometry": {"kind": "square"},
      "q_path": [[0.0, 0.0]]}, "geometry/kind"),
    ({"scenario": "stack", "geometry": {"kind": "stack"},
      "detuning_grid": GRID}, "geometry/kind"),
    ({"scenario": "bistab", "geometry": {"kind": "square"},
      "detuning_grid": GRID, "intensity_grid": {"start": 1.0, "stop": 2.0,
                                                "num": 2}},
     "geometry/kind"),
    # the laser detuning outside the quantum scenarios
    ({"scenario": "transmit", "geometry": TINY, "transition": {
        "detuning": 0.5}, "detuning_grid": {**GRID, "num": 4}},
     "transition/detuning"),
    ({"scenario": "eigen", "geometry": TINY,
      "transition": {"levels": 4, "detuning": 0.5}}, "transition/detuning"),
])
def test_cli_rejects_ignored_keys(tmp_path, capsys, cfg, path):
    # each key is valid for some scenario but has no effect on this run
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert (f"config invalid at {path}: scenario {cfg['scenario']!r} does "
            "not read this key") in capsys.readouterr().err


def test_config_schemas_are_valid():
    from jsonschema import Draft202012Validator

    from atomarray.cli import CONFIG_SCHEMA, SCENARIOS
    Draft202012Validator.check_schema(CONFIG_SCHEMA)
    for scenario in SCENARIOS.values():
        Draft202012Validator.check_schema(scenario.rule)


def _module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shipped_configs_validate(monkeypatch):
    # the benchmark workloads, the README example and the artifact-digest
    # runs; importing the digest script pins the BLAS thread variables and
    # extends sys.path, both undone here
    root = Path(__file__).resolve().parent.parent
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    digests = _module(root / "benchmarks" / "artifact_digests.py")
    configs = [cfg for sizes in digests.workloads.SIZES.values()
               for cfg in sizes.values()]
    configs += [cfg for _, cfg, _ in digests.runs()]
    readme = (root / "README.md").read_text()
    configs.append(json.loads(re.search(
        r"Example config:\s*```json\n(.*?)```", readme, re.S).group(1)))
    for cfg in configs:
        validate_config(cfg)


def test_cli_rejects_removed_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "checks"}))
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "--threads", "2"])
    assert exc.value.code == 2


def test_cli_bug_is_not_a_numeric_failure(tmp_path, monkeypatch):
    from atomarray import cli

    def broken(cfg, out, seed, diagnostics):
        raise TypeError("a bug, not physics")

    monkeypatch.setitem(cli.SCENARIOS, "spectrum",
                        cli.SCENARIOS["spectrum"]._replace(handler=broken))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "spectrum"}))
    with pytest.raises(TypeError, match="a bug"):
        main(["--config", str(cfg), "--out", str(tmp_path)])


def test_cli_spectrum_scenario(tmp_path):
    cfg = {"scenario": "spectrum",
           "geometry": {"spacing_wl": 0.68},
           "drive": {"rabi": 0.5},
           "detuning_grid": {"start": -2.0, "stop": 2.0, "num": 9}}
    manifest = run(cfg, out_dir=tmp_path)
    assert manifest["scenario"] == "spectrum"
    text = (tmp_path / "spectrum.csv").read_text()
    header = text.splitlines()[0]
    assert "delta[gamma]" in header and "F_inc[1]" in header
    rows = text.splitlines()[1:]
    assert len(rows) >= 9
    resid = [abs(float(r.split(",")[4])) for r in rows]
    assert max(resid) < 1e-10
    assert json.loads((tmp_path / "manifest.json").read_text())["seed"] == 0


def test_cli_eigen_scenario(tmp_path):
    cfg = {"scenario": "eigen",
           "geometry": {"kind": "square", "nx": 4, "ny": 4,
                        "spacing_wl": 0.55}}
    run(cfg, out_dir=tmp_path)
    lines = (tmp_path / "eigenmodes.csv").read_text().splitlines()
    assert lines[0].split(",")[1] == "shift[gamma]"
    assert len(lines) == 17
    assert (tmp_path / "linewidth_histogram.csv").exists()
    # two-level dipoles along y: the y and z mirrors split the 4x4 array
    # (x -> -x leaves every amplitude as it is)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["diagnostics"]["eigen_blocks"] == [4, 4, 4, 4]


@pytest.mark.parametrize("natoms", [10, 20])
def test_cli_eigen_histogram_keeps_every_mode(tmp_path, natoms):
    # a dense ring of x dipoles has modes far below 1e-4 gamma (at 10 atoms
    # 6.5e-9 and a pair at 8.8e-7; at 20 some round to about +-1e-16): the
    # grid widens, decade-aligned, and a linewidth <= 0 lands in its first bin
    cfg = {"scenario": "eigen",
           "geometry": {"kind": "ring", "natoms": natoms, "radius_wl": 0.1},
           "transition": {"levels": 2, "orientation": [1, 0, 0]}}
    run(cfg, out_dir=tmp_path)
    rows = np.loadtxt(tmp_path / "linewidth_histogram.csv", delimiter=",",
                      skiprows=1)
    assert rows[:, 2].sum() == natoms
    assert rows[0, 0] <= 1e-9 and rows[-1, 1] == 1e2
    decades = 10 * np.log10(rows[:, :2])
    assert np.allclose(decades, np.round(decades))
    assert np.allclose(np.diff(decades, axis=1), 1.0)


def test_cli_ring_trap_needs_its_spacing(tmp_path, capsys):
    ring = {"kind": "ring", "natoms": 3, "radius_wl": 0.4,
            "lattice_depth": 50.0}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "eigen", "geometry": ring}))
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert ("config invalid at geometry/spacing_wl: a ring in a lattice "
            "trap needs the trap spacing") in capsys.readouterr().err
    cfg.write_text(json.dumps({"scenario": "eigen", "geometry": {
        **ring, "spacing_wl": 0.5}}))
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 0


def test_cli_transmit_scenario(tmp_path):
    cfg = {"scenario": "transmit",
           "geometry": {"nx": 6, "ny": 6, "spacing_wl": 0.68},
           "drive": {"kind": "gaussian", "waist_wl": 1.5},
           "detuning_grid": {"start": -1.0, "stop": 1.6, "num": 14}}
    run(cfg, out_dir=tmp_path)
    fit = json.loads((tmp_path / "transmit_fit.json").read_text())
    # subwavelength array: fitted width below the single-atom linewidth
    assert 0.0 < fit["fitted_hwhm_gamma"] < 1.0
    assert (tmp_path / "farfield_map.csv").exists()
    diag = json.loads((tmp_path / "manifest.json").read_text())["diagnostics"]
    assert 0.0 <= diag["detector_quadrature_error"] < 1e-10


def test_cli_stack_and_bands(tmp_path):
    run({"scenario": "stack",
         "geometry": {"spacing_wl": 0.55, "separations_wl": [0.6, 0.6]},
         "detuning_grid": {"start": -2.0, "stop": 2.0, "num": 11}},
        out_dir=tmp_path)
    assert (tmp_path / "stack_spectrum.csv").exists()
    run({"scenario": "bands", "geometry": {"spacing_wl": 0.4},
         "q_path": [[0.0, 0.0], [0.5, 0.0]]}, out_dir=tmp_path)
    lines = (tmp_path / "bands.csv").read_text().splitlines()
    assert lines[0].startswith("qy[pi/a]")
    assert len(lines) == 3


def test_cli_qme_and_g2(tmp_path):
    manifest = run({"scenario": "qme",
                    "geometry": {"kind": "square", "nx": 1, "ny": 2,
                                 "spacing_wl": 0.5},
                    "drive": {"kind": "plane", "rabi": 0.4},
                    "t_final": 6.0, "n_times": 7}, out_dir=tmp_path)
    assert (tmp_path / "qme_populations.csv").exists()
    assert (tmp_path / "qme_steady.json").exists()
    assert manifest["diagnostics"]["qme_steady_residual"] < 1e-9
    run({"scenario": "g2", "geometry": {"kind": "square", "nx": 1, "ny": 1},
         "drive": {"kind": "plane", "rabi": 0.35}, "tau_max": 6.0},
        out_dir=tmp_path)
    lines = (tmp_path / "g2.csv").read_text().splitlines()
    row1 = lines[1].split(",")
    assert abs(float(row1[1])) < 1e-8      # antibunching at tau = 0


def test_cli_qme_transition_detuning(tmp_path):
    cfg = {"scenario": "qme", "geometry": {"kind": "ring", "natoms": 2,
                                           "radius_wl": 0.4},
           "drive": {"kind": "plane", "rabi": 0.8}, "t_final": 2.0,
           "n_times": 3}

    def steady(transition):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        run({**cfg, "transition": transition}, out_dir=out)
        return (out / "qme_steady.json").read_bytes()
    unset = steady({})
    assert steady({"detuning": 0.0}) == unset
    moved = json.loads(steady({"detuning": 1.5}))
    # off resonance the pair scatters less and is less excited
    assert moved["steady_population"] < json.loads(unset)["steady_population"]


def test_cli_traj_scenario(tmp_path):
    cfg = {"scenario": "traj",
           "geometry": {"kind": "square", "nx": 1, "ny": 2,
                        "spacing_wl": 0.5},
           "drive": {"kind": "plane", "rabi": 0.5},
           "n_trajectories": 400, "t_final": 2.0, "n_times": 5, "seed": 3}
    run(cfg, out_dir=tmp_path)
    lines = (tmp_path / "trajectories.csv").read_text().splitlines()
    dists = [float(r.split(",")[2]) for r in lines[1:]]
    assert max(dists) < 0.2
    diag = json.loads((tmp_path / "manifest.json").read_text())["diagnostics"]
    assert diag["traj_propagator_error"] < 1e-6
    assert diag["traj_eigvec_cond"] >= 1.0
    assert diag["traj_jumps"] > 0


def test_cli_traj_grid_not_a_multiple_of_dt(tmp_path):
    # an output interval of 1/3 writes every row of the grid
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"scenario": "traj",
         "geometry": {"kind": "ring", "natoms": 2, "radius_wl": 0.4},
         "drive": {"kind": "plane", "rabi": 0.8},
         "n_trajectories": 10, "t_final": 1.0, "n_times": 4}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "trajectories.csv").read_text().splitlines()
    assert len(lines) == 1 + 4


def test_cli_disorder_roundtrip_bitstable(tmp_path):
    cfg = {"scenario": "disorder", "seed": 11,
           "geometry": {"nx": 3, "ny": 3, "spacing_wl": 0.68,
                        "lattice_depth": 300.0},
           "drive": {"kind": "gaussian", "waist_wl": 1.2},
           "n_realizations": 4,
           "detuning_grid": {"start": -1.0, "stop": 1.0, "num": 3}}
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run(cfg, out_dir=out1)
    run(cfg, out_dir=out2)
    assert (out1 / "disorder_spectrum.csv").read_bytes() \
        == (out2 / "disorder_spectrum.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["config_sha256"] == m2["config_sha256"]
    assert m1["diagnostics"] == m2["diagnostics"]
    assert set(m1["diagnostics"]) == {"disorder_failures",
                                      "detector_quadrature_error"}
    assert m1["diagnostics"]["disorder_failures"] == 0
    assert 0.0 <= m1["diagnostics"]["detector_quadrature_error"] < 1e-10


def test_cli_traj_directional_clicks(tmp_path):
    cfg = {"scenario": "traj", "jump_basis": "directional",
           "geometry": {"kind": "square", "nx": 1, "ny": 1},
           "drive": {"kind": "plane", "rabi": 0.8},
           "n_trajectories": 200, "t_final": 4.0, "n_times": 5, "seed": 1}
    run(cfg, out_dir=tmp_path)
    lines = (tmp_path / "clicks.csv").read_text().splitlines()
    assert lines[0] == "t[1/gamma],theta[rad],phi[rad]"
    assert len(lines) > 10      # a strongly driven atom clicks often


def test_cli_exit_code_numeric_failure(tmp_path, capsys):
    # a 16-atom master equation exceeds the Hilbert-space cap
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"scenario": "qme", "geometry": {"kind": "square", "nx": 4, "ny": 4,
                                         "spacing_wl": 0.5},
         "drive": {"kind": "plane", "rabi": 0.5}}))
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "DimensionCapError" in capsys.readouterr().err


@pytest.mark.parametrize("override, path", [
    ({"drive": {"kind": "plane", "polarization": [1, 0, 0]}},
     "drive/polarization"),
    ({"drive": {"kind": "gaussian", "polarization": [1, 0, 0]}},
     "drive/polarization"),
    ({"drive": {"polarization": [0, 0, 0]}}, "drive/polarization"),
    ({"transition": {"orientation": [0, 0, 0]}}, "transition/orientation"),
    ({"detuning_grid": {"start": -1.0, "stop": 1.0, "num": 3}},
     "detuning_grid/num"),
    ({"transition": {"levels": 4, "zeeman": [0.2, 0.3, 0.1]}},
     "transition/zeeman/1"),
])
def test_cli_exit_code_physically_invalid_config(tmp_path, capsys, override,
                                                 path):
    # schema-valid values that no beam or transition can take
    cfg = {"scenario": "transmit",
           "geometry": {"nx": 3, "ny": 3, "spacing_wl": 0.68},
           "detuning_grid": {"start": -1.0, "stop": 1.0, "num": 5}}
    cfg.update(override)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert f"config invalid at {path}:" in capsys.readouterr().err


def test_cli_checks_scenario(tmp_path):
    manifest = run({"scenario": "checks"}, out_dir=tmp_path)
    results = json.loads((tmp_path / "checks.json").read_text())
    assert results["pass"] is True
    assert results["appendix_recursion_dev"] < 1e-8
    assert results["rate_quadrature_rel_dev"] < 1e-6
    assert results["energy_closure_residual"] < 1e-10
    assert manifest["scenario"] == "checks"


def test_cli_bistab_scenario(tmp_path):
    cfg = {"scenario": "bistab",
           "geometry": {"spacing_wl": 0.1},
           "detuning_grid": {"start": -30.0, "stop": 0.0, "num": 7},
           "intensity_grid": {"start": 1.0, "stop": 1000.0, "num": 7}}
    run(cfg, out_dir=tmp_path)
    lines = (tmp_path / "branches.csv").read_text().splitlines()
    assert lines[0].split(",")[2] == "branch[1]"
    nstable = {int(r.split(",")[2]) for r in lines[1:]}
    assert nstable


def test_cli_bistab_spacing_grid(tmp_path):
    cfg = {"scenario": "bistab", "spacing_grid_wl": [0.1, 0.5],
           "detuning_grid": {"start": -1.0, "stop": 0.0, "num": 2},
           "intensity_grid": {"start": 1.0, "stop": 10.0, "num": 2}}
    run(cfg, out_dir=tmp_path)
    summary = json.loads((tmp_path / "bistab_summary.json").read_text())
    assert summary["max_bistable_spacing_wl"] == 0.1
    lines = (tmp_path / "bistable_spacings.csv").read_text().splitlines()
    assert lines == ["spacing[lambda],bistable[0/1]", "0.1,1", "0.5,0"]


def test_write_csv_matches_csv_module(tmp_path):
    import csv

    from atomarray.cli import write_csv
    rows = [(0.1, 2, np.float64(1 / 3), np.int64(-4), -0.0),
            (np.float64(np.nan), 1, np.inf, np.int64(7), 1e-300),
            (1.5, 2, "nan", "nan", np.float32(0.25)),
            (2.5, 3, 1e20, np.int64(0), True)]
    header = ["a[1]", "b[1]", "c[1]", "d[1]", "e[1]"]
    write_csv(tmp_path / "t.csv", header, iter(rows))
    with (tmp_path / "ref.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.12g}" if isinstance(v, float) else v
                        for v in row])
    assert ((tmp_path / "t.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


ROOT = Path(__file__).resolve().parent.parent


def run_in_subprocess(code: str, threads: int, *args) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src"), str(ROOT / "perfbench")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True).stdout


def test_cli_runs_scipy_blas_pool_on_one_thread(tmp_path):
    code = ("import json, sys\n"
            "from atomarray.cli import run\n"
            "print(json.dumps(run({'scenario': 'bands'}, sys.argv[1])"
            "['blas']))\n")
    blas = json.loads(run_in_subprocess(code, 2, str(tmp_path)))
    if not blas["policy_applied"] or blas["numpy"] is None:
        pytest.skip("numpy or scipy does not bundle OpenBLAS")
    assert blas["scipy"]["threads"] == 1
    # OpenBLAS caps a pool at the usable cores
    assert blas["numpy"]["threads"] == min(2, len(os.sched_getaffinity(0)))
    assert blas["scipy"]["library"].startswith("libscipy_openblas-")
    assert json.loads((tmp_path / "manifest.json").read_text())[
        "blas"] == blas


def test_blas_policy_without_bundled_openblas(monkeypatch, caplog):
    from atomarray import cli
    monkeypatch.setattr(cli, "_openblas", lambda package, suffix: None)
    with caplog.at_level("DEBUG", logger="atomarray"):
        report = cli.blas_policy()
    assert report == {"policy_applied": False, "numpy": None, "scipy": None}
    assert "not applied" in caplog.text


def test_artifacts_do_not_depend_on_blas_threads(tmp_path):
    code = ("import sys, workloads\n"
            "from atomarray.cli import run\n"
            "for name in ('transmit', 'eigen'):\n"
            "    cfg = workloads.SIZES['full'][name]\n"
            "    run(cfg, f'{sys.argv[1]}/{name}')\n")
    for threads in (1, 2):
        run_in_subprocess(code, threads, str(tmp_path / str(threads)))
    names = sorted(p.relative_to(tmp_path / "1")
                   for p in (tmp_path / "1").rglob("*")
                   if p.is_file() and p.name != "manifest.json")
    assert len(names) == 5
    for name in names:
        assert ((tmp_path / "1" / name).read_bytes()
                == (tmp_path / "2" / name).read_bytes()), name


def test_disorder_run_leaves_scipy_sparse_unloaded(tmp_path):
    # disordered arrays have no mirror: one sector, Q = 1, which the
    # steady state applies without building the sparse Q
    code = ("import json, sys, workloads\n"
            "from atomarray.cli import run\n"
            "run(workloads.SIZES['tiny']['disorder'], sys.argv[1])\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.startswith('scipy.sparse'))))\n")
    assert json.loads(run_in_subprocess(code, 1, str(tmp_path))) == []
