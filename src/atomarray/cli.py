"""Scenario runner: JSON configs in, CSV/JSON artifacts + run manifest out.

`SCENARIOS` maps each scenario to its handler and the config keys it reads;
a key that the scenario does not read in that config is a config error.

Exit codes: 0 ok, 2 config error, 3 numeric failure (an atomarray error
type from `errors` or a LinAlgError).  Any other exception is a bug and
propagates with its traceback.
Every output table carries units in its header row; identical config and
seed reproduce identical bytes (accumulation order is fixed by realization
index, not by scheduling).
"""
from __future__ import annotations

import argparse
import csv
import functools
from collections import namedtuple
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import AtomarrayError, NonConvergenceError
from .geometry import (LAMBDA, Geometry, LatticeTrapSpec, build_bilayer,
                       build_ring, build_square_lattice, build_stack,
                       wannier_width)
from .streams import seed_streams


class ConfigError(ValueError):
    pass


def geometry_from_config(cfg: dict) -> Geometry:
    g = cfg.get("geometry", {})
    kind = g.get("kind", "square")
    a = g.get("spacing_wl", 0.68) * LAMBDA
    nx, ny = g.get("nx", 10), g.get("ny", 10)
    if kind == "square":
        geo = build_square_lattice(nx, ny, a)
    elif kind == "bilayer":
        geo = build_bilayer(nx, ny, a, g.get("separation_wl", 0.5) * LAMBDA)
    elif kind == "stack":
        seps = [s * LAMBDA for s in g.get("separations_wl", [0.5])]
        geo = build_stack(nx, ny, a, seps)
    else:
        geo = build_ring(g.get("natoms", 8), g.get("radius_wl", 1.0) * LAMBDA)
    if "lattice_depth" in g:
        if kind == "ring" and "spacing_wl" not in g:
            raise ConfigError("config invalid at geometry/spacing_wl: a ring "
                              "in a lattice trap needs the trap spacing, "
                              "which sets the Wannier width")
        spec = LatticeTrapSpec(a, g["lattice_depth"],
                               g.get("ell_x_wl", 0.0) * LAMBDA)
        geo = geo.with_fluctuation(wannier_width(spec), spec.ell_x)
    return geo


def transition_from_config(cfg: dict):
    from .lli import TransitionSpec
    t = cfg.get("transition", {})
    orientation = tuple(t.get("orientation", (0, 1, 0)))
    if not any(orientation):
        raise ConfigError("config invalid at transition/orientation: the "
                          "dipole orientation must be a nonzero vector")
    return TransitionSpec(levels=t.get("levels", 2), orientation=orientation,
                          zeeman=tuple(t.get("zeeman", (0, 0, 0))),
                          detuning=t.get("detuning", 0.0))


def drive_from_config(cfg: dict):
    from .drives import GaussianBeam, PlaneWave
    d = cfg.get("drive", {})
    pol = tuple(d.get("polarization", (0, 1, 0)))
    if pol[0] != 0 or not any(pol):
        raise ConfigError("config invalid at drive/polarization: the beam "
                          "travels along +x, so the polarization must be a "
                          "nonzero vector with no x component")
    amp = d.get("rabi", 1.0)
    if d.get("kind", "gaussian") == "plane":
        return PlaneWave(amplitude=amp, polarization=pol)
    return GaussianBeam(waist=d.get("waist_wl", 3.0) * LAMBDA,
                        amplitude=amp, polarization=pol)


def _array(cfg: dict):
    return (geometry_from_config(cfg), transition_from_config(cfg),
            drive_from_config(cfg))


def detuning_grid(cfg, default=(-4.0, 4.0, 81)):
    g = cfg.get("detuning_grid")
    if g is None:
        return np.linspace(*default)
    return np.linspace(g["start"], g["stop"], g["num"])


def write_csv(path: Path, header, rows):
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.12g}" if isinstance(v, float) else v
                        for v in row])


# ---------------------------------------------------------------------------
# scenario handlers: (cfg, out, seed, diagnostics) -> list of artifact paths

def run_spectrum(cfg, out, seed, diagnostics):
    """Uniform-mode (infinite lattice) spectrum with energy balance, plus
    the LLI amplitude response."""
    from .infinite import lattice_sums, single_mode_rt
    from .observables import rt_beyond_lli
    a = cfg.get("geometry", {}).get("spacing_wl", 0.68) * LAMBDA
    om, gt = lattice_sums(a).uniform_mode(1)
    rabi = cfg.get("drive", {}).get("rabi", 1e-3)
    rows, amp_rows = [], []
    for d in detuning_grid(cfg):
        for rep in rt_beyond_lli(d, om, gt, rabi):
            rows.append((d, rep.transmittance, rep.reflectance,
                         rep.incoherent_flux, rep.residual))
        r, t = single_mode_rt(d, om, gt)
        amp_rows.append((d, r.real, r.imag, abs(r) ** 2, abs(t) ** 2))
    path = out / "spectrum.csv"
    write_csv(path, ["delta[gamma]", "T[1]", "R[1]", "F_inc[1]",
                     "residual[1]"], rows)
    resp = out / "response.csv"
    write_csv(resp, ["delta[gamma]", "Re_r[1]", "Im_r[1]", "R[1]", "T[1]"],
              amp_rows)
    return [path, resp]


def run_eigen(cfg, out, seed, diagnostics):
    from . import lli
    system = lli.assemble(*_array(cfg))
    es = lli.eigenmodes(system)
    diagnostics["eigen_blocks"] = list(es.blocks)
    table = lli.eigen_table(system, es)
    path = out / "eigenmodes.csv"
    write_csv(path, ["mode[1]", "shift[gamma]", "linewidth[gamma]",
                     "occupation[1]"], table)
    counts, edges = np.histogram([r[2] for r in table],
                                 bins=np.geomspace(1e-4, 1e2, 61))
    hist = out / "linewidth_histogram.csv"
    write_csv(hist, ["linewidth_lo[gamma]", "linewidth_hi[gamma]", "count[1]"],
              [(edges[i], edges[i + 1], int(c)) for i, c in enumerate(counts)])
    return [path, hist]


def run_transmit(cfg, out, seed, diagnostics):
    from . import lli
    from .observables import (dipole_table, farfield_detector, lorentzian_fit,
                              spectrum)
    geo, tr, beam = _array(cfg)
    deltas = detuning_grid(cfg)
    system = lli.assemble(geo, tr, beam)
    t, r = spectrum(system, farfield_detector(geo, beam), deltas)
    R = np.abs(r) ** 2
    path = out / "transmission.csv"
    write_csv(path, ["delta[gamma]", "T[1]", "R[1]", "Re_t[1]", "Im_t[1]"],
              zip(deltas, np.abs(t) ** 2, R, t.real, t.imag))
    A, d0, w, c = lorentzian_fit(deltas, R)
    meta = out / "transmit_fit.json"
    meta.write_text(json.dumps({"fitted_hwhm_gamma": w,
                                "resonance_gamma": d0,
                                "peak_reflectance": A + c}, indent=2))
    # far-field intensity map at the fitted resonance
    from .kernel import direction_angles
    from .observables import farfield_amplitude, sphere_grid
    b = lli.steady_state(system, float(d0))
    nhat, _ = sphere_grid(24, 48)
    I = np.sum(np.abs(farfield_amplitude(dipole_table(system, b),
                                         geo, nhat)) ** 2, axis=1)
    theta, phi = direction_angles(nhat)
    fmap = out / "farfield_map.csv"
    write_csv(fmap, ["theta[rad]", "phi[rad]", "intensity[arb]"],
              list(zip(theta, phi, I)))
    return [path, meta, fmap]


def run_bistab(cfg, out, seed, diagnostics):
    from .infinite import lattice_sums
    from .semiclassical import has_bistable_window, uniform_steady_state
    grid = cfg.get("spacing_grid_wl")
    paths = []
    if grid:
        a_grid = [s * LAMBDA for s in grid]
        rows = [(a / LAMBDA, int(has_bistable_window(a))) for a in a_grid]
        p = out / "bistable_spacings.csv"
        write_csv(p, ["spacing[lambda]", "bistable[0/1]"], rows)
        (out / "bistab_summary.json").write_text(json.dumps(
            {"max_bistable_spacing_wl": max((s for s, f in rows if f),
                                            default=0.0),
             "analytic_bound_wl": float(np.sqrt(np.pi / 3) / (2 * np.pi))},
            indent=2))
        paths += [p, out / "bistab_summary.json"]
    a = cfg.get("geometry", {}).get("spacing_wl", 0.1) * LAMBDA
    om, gt = lattice_sums(a).uniform_mode(1)
    ig = cfg.get("intensity_grid", {"start": 1e-2, "stop": 1e3, "num": 25})
    intensities = np.geomspace(ig["start"], ig["stop"], ig["num"])
    rows = []
    for d in detuning_grid(cfg, default=(-max(3, 4 * abs(om)),
                                         max(3, 4 * abs(om)), 41)):
        for I in intensities:
            sols = uniform_steady_state(d, np.sqrt(I / 2), om, gt)
            for i, s in enumerate(sols):
                rows.append((d, I, i, s.rho_ee, s.inversion, int(s.stable)))
    p = out / "branches.csv"
    write_csv(p, ["delta[gamma]", "I[I_sat]", "branch[1]", "rho_ee[1]",
                  "Z[1]", "stable[0/1]"], rows)
    return paths + [p]


def run_bands(cfg, out, seed, diagnostics):
    from .infinite import band_structure
    a = cfg.get("geometry", {}).get("spacing_wl", 0.5) * LAMBDA
    qpath = cfg.get("q_path")
    if qpath is None:
        edge = np.pi / a
        s = np.linspace(0, 1, 25)
        qpath = ([(x * edge, 0.0) for x in s]
                 + [(edge, x * edge) for x in s]
                 + [((1 - x) * edge, (1 - x) * edge) for x in s])
    else:
        qpath = [(qy * np.pi / a, qz * np.pi / a) for qy, qz in qpath]
    rows = []
    for q, ev in band_structure(a, qpath):
        if ev is None:
            rows.append((q[0] * a / np.pi, q[1] * a / np.pi)
                        + ("nan",) * 6)
            continue
        flat = []
        for e in ev:
            flat += [e.real, e.imag]
        rows.append((q[0] * a / np.pi, q[1] * a / np.pi) + tuple(flat))
    path = out / "bands.csv"
    write_csv(path, ["qy[pi/a]", "qz[pi/a]",
                     "shift1[gamma]", "width1[gamma]",
                     "shift2[gamma]", "width2[gamma]",
                     "shift3[gamma]", "width3[gamma]"], rows)
    return [path]


def run_stack(cfg, out, seed, diagnostics):
    from .stacked1d import LayerStack, system_rt
    g = cfg.get("geometry", {})
    a = g.get("spacing_wl", 0.55) * LAMBDA
    seps = [s * LAMBDA for s in g.get("separations_wl", [0.5])]
    x = np.concatenate([[0.0], np.cumsum(seps)])
    from .infinite import lattice_sums
    om, gt = lattice_sums(a).uniform_mode(1)
    stack = LayerStack.uniform(x, 1.0 + gt, om)
    rows = []
    for d in detuning_grid(cfg):
        t, r = system_rt(stack, d)
        rows.append((d, abs(t) ** 2, abs(r) ** 2, np.angle(t)))
    path = out / "stack_spectrum.csv"
    write_csv(path, ["delta[gamma]", "T[1]", "R[1]", "arg_t[rad]"], rows)
    return [path]


def run_qme(cfg, out, seed, diagnostics):
    from .quantum import (build_quantum_system, evolve_qme, mean_lowering,
                          qme_rhs, steady_state_qme)
    system = build_quantum_system(*_array(cfg))
    tgrid = np.linspace(0, cfg.get("t_final", 20.0), cfg.get("n_times", 41))
    psi0 = system.ground_state()
    rhos = evolve_qme(np.outer(psi0, psi0.conj()), system, tgrid)
    pop_op = system.population_operator()
    rows = [(t, float(np.real(np.trace(pop_op @ r))))
            for t, r in zip(tgrid, rhos)]
    path = out / "qme_populations.csv"
    write_csv(path, ["t[1/gamma]", "total_excited[1]"], rows)
    rho_ss = steady_state_qme(system)
    diagnostics["qme_steady_residual"] = float(
        np.abs(qme_rhs(rho_ss, system)).sum())
    means = mean_lowering(rho_ss, system)
    meta = out / "qme_steady.json"
    meta.write_text(json.dumps(
        {"steady_population": float(np.real(np.trace(pop_op @ rho_ss))),
         "mean_lowering_abs": np.abs(means).tolist()}, indent=2))
    return [path, meta]


def run_traj(cfg, out, seed, diagnostics):
    from .quantum import (build_quantum_system, directional_basis, evolve_qme,
                          run_trajectories, source_mode_basis, trace_distance)
    system = build_quantum_system(*_array(cfg))
    tgrid = np.linspace(0, cfg.get("t_final", 5.0), cfg.get("n_times", 11))
    psi0 = system.ground_state()
    n_traj = cfg.get("n_trajectories", 2000)
    directional = cfg.get("jump_basis", "source") == "directional"
    basis = (directional_basis(system, n_theta=8, n_phi=16) if directional
             else source_mode_basis(system))
    res = run_trajectories(psi0, system, basis, tgrid, n_traj, seed)
    ref = evolve_qme(np.outer(psi0, psi0.conj()), system, tgrid)
    rows = [(t, res.populations[i],
             trace_distance(res.rho[i], ref[i]))
            for i, t in enumerate(tgrid)]
    path = out / "trajectories.csv"
    write_csv(path, ["t[1/gamma]", "mean_excited[1]", "trace_distance[1]"],
              rows)
    artifacts = [path]
    if directional:
        # photon detection records: directional jumps only
        click_rows = [(t, basis.directions[ch][0], basis.directions[ch][1])
                      for _, t, ch in res.clicks]
        clicks = out / "clicks.csv"
        write_csv(clicks, ["t[1/gamma]", "theta[rad]", "phi[rad]"],
                  click_rows)
        artifacts.append(clicks)
    return artifacts


def run_g2(cfg, out, seed, diagnostics):
    from .quantum import build_quantum_system, g2_analytic, g2_regression
    system = build_quantum_system(*_array(cfg))
    tau = np.linspace(0, cfg.get("tau_max", 10.0), 101)
    vals = g2_regression(system, tau)
    rabi = cfg.get("drive", {}).get("rabi", 1.0)
    ratio = 2 * abs(rabi) ** 2
    ana = g2_analytic(tau, ratio)
    rows = list(zip(tau, vals, ana))
    path = out / "g2.csv"
    write_csv(path, ["tau[1/gamma]", "g2_regression[1]",
                     "g2_single_atom_closed_form[1]"], rows)
    return [path]


def run_disorder(cfg, out, seed, diagnostics):
    from .observables import disorder_average
    n = cfg.get("n_realizations", 16)
    deltas = detuning_grid(cfg, default=(-3, 3, 25))
    reps = disorder_average(*_array(cfg), n, seed_streams(seed, n), deltas)
    rows = [(d, abs(rep.mean_t) ** 2, abs(rep.mean_r) ** 2, rep.stderr_t,
             rep.stderr_r) for d, rep in zip(deltas, reps)]
    path = out / "disorder_spectrum.csv"
    write_csv(path, ["delta[gamma]", "T[1]", "R[1]", "stderr_t[1]",
                     "stderr_r[1]"], rows)
    # dropped (realization, detuning) pairs
    diagnostics["disorder_failures"] = sum(rep.failures for rep in reps)
    return [path]


def run_checks(cfg, out, seed, diagnostics):
    """Verification bundle: appendix integrals, rate-formula equivalence on
    random configurations, and uniform-mode energy closure."""
    from .lli import TransitionSpec
    from .observables import (farfield_rate_quadrature, rt_beyond_lli,
                              total_scattering_rate)
    from .stacked1d import appendix_checks
    results = {}
    app = appendix_checks()
    results["appendix_field_dev"] = app["field_rel_dev"]
    results["appendix_recursion_dev"] = app["recursion_rel_dev"]
    results["appendix_linewidth_dev"] = app["linewidth_rel_dev"]
    ok = (app["field_rel_dev"] < 1e-3 and app["recursion_rel_dev"] < 1e-8
          and app["linewidth_rel_dev"] < 1e-4)

    rng = np.random.default_rng(11)
    worst = 0.0
    tr = TransitionSpec(levels=2, orientation=(0, 1, 0))
    for _ in range(10):
        n = rng.integers(2, 6)
        pos = rng.uniform(-1.5 * LAMBDA, 1.5 * LAMBDA, size=(n, 3))
        geo = Geometry(pos)
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        C = A @ A.conj().T
        C /= np.trace(C).real
        n_s = total_scattering_rate(C, geo, tr)
        n_q = farfield_rate_quadrature(C, geo, tr, n_theta=72, n_phi=144)
        worst = max(worst, abs(n_s - n_q) / abs(n_s))
    results["rate_quadrature_rel_dev"] = worst
    ok = ok and worst < 1e-6

    res_worst = 0.0
    for d in np.linspace(-3, 3, 11):
        for I in np.geomspace(0.01, 100, 11):
            for rep in rt_beyond_lli(d, -0.6, -0.4, np.sqrt(I / 2)):
                res_worst = max(res_worst, abs(rep.residual))
    results["energy_closure_residual"] = res_worst
    ok = ok and res_worst < 1e-10

    results["pass"] = bool(ok)
    path = out / "checks.json"
    path.write_text(json.dumps(results, indent=2))
    if not ok:
        raise NonConvergenceError(f"verification failures: {results}")
    return [path]


# A handler and the config keys it reads: `reads` maps each top-level key to
# None (read whole), its set of sub-keys read, or a function of its value
# that returns that set.  `rule` is a JSON schema on the values.
Scenario = namedtuple("Scenario", "handler reads rule", defaults=[{}])


def _reads(*whole, **sections) -> dict:
    return dict.fromkeys(("scenario", "out_dir", *whole)) | sections


# geometry keys of each finite-array kind, besides kind and lattice_depth
LATTICE_KEYS = {"nx", "ny", "spacing_wl"}
GEOMETRY_KEYS = {"square": LATTICE_KEYS, "ring": {"natoms", "radius_wl"},
                 "bilayer": LATTICE_KEYS | {"separation_wl"},
                 "stack": LATTICE_KEYS | {"separations_wl"}}

# the keys of a finite array: what _array reads.  With lattice_depth, the
# trap spacing sets the Wannier width, on a ring too.
ARRAY = {
    "geometry": lambda g: {"kind", "lattice_depth",
                           *GEOMETRY_KEYS[g.get("kind", "square")]}
    | ({"ell_x_wl", "spacing_wl"} if "lattice_depth" in g else set()),
    "transition": lambda t: {
        "levels", "orientation" if t.get("levels", 2) == 2 else "zeeman"},
    "drive": lambda d: {"kind", "rabi", "polarization"} | (
        {"waist_wl"} if d.get("kind", "gaussian") == "gaussian" else set()),
}
# the quantum scenarios also read the laser detuning of the transition;
# transmit and disorder sweep it (detuning_grid), and eigen reports the
# occupations of its steady state at resonance
QUANTUM_ARRAY = ARRAY | {
    "transition": lambda t: ARRAY["transition"](t) | {"detuning"}}

SCENARIOS = {
    "spectrum": Scenario(run_spectrum, _reads(
        "detuning_grid", geometry={"spacing_wl"}, drive={"rabi"})),
    "eigen": Scenario(run_eigen, _reads(**ARRAY)),
    "transmit": Scenario(run_transmit, _reads("detuning_grid", **ARRAY), {
        "properties": {"detuning_grid": {"properties": {"num": {
            "minimum": 4, "description": "the Lorentzian fit of the "
            "reflectance needs at least 4 detunings"}}}}}),
    "bistab": Scenario(run_bistab, _reads(
        "spacing_grid_wl", "intensity_grid", "detuning_grid",
        geometry={"spacing_wl"})),
    "bands": Scenario(run_bands, _reads("q_path", geometry={"spacing_wl"})),
    "stack": Scenario(run_stack, _reads(
        "detuning_grid", geometry={"spacing_wl", "separations_wl"})),
    "qme": Scenario(run_qme, _reads("t_final", "n_times", **QUANTUM_ARRAY)),
    "traj": Scenario(run_traj, _reads(
        "t_final", "n_times", "n_trajectories", "jump_basis", "seed",
        **QUANTUM_ARRAY)),
    "g2": Scenario(run_g2, _reads("tau_max", **QUANTUM_ARRAY)),
    "disorder": Scenario(run_disorder, _reads(
        "n_realizations", "detuning_grid", "seed", **ARRAY)),
    "checks": Scenario(run_checks, _reads()),
}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["scenario"],
    "additionalProperties": False,
    "properties": {
        "scenario": {"enum": list(SCENARIOS)},
        "seed": {"type": "integer", "minimum": 0},
        "geometry": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["square", "bilayer", "stack", "ring"]},
                "nx": {"type": "integer", "minimum": 1},
                "ny": {"type": "integer", "minimum": 1},
                "spacing_wl": {"type": "number", "exclusiveMinimum": 0},
                "separation_wl": {"type": "number", "exclusiveMinimum": 0},
                "separations_wl": {"type": "array",
                                   "items": {"type": "number",
                                             "exclusiveMinimum": 0}},
                "natoms": {"type": "integer", "minimum": 2},
                "radius_wl": {"type": "number", "exclusiveMinimum": 0},
                "lattice_depth": {"type": "number", "exclusiveMinimum": 0},
                "ell_x_wl": {"type": "number", "minimum": 0},
            },
        },
        "transition": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "levels": {"enum": [2, 4]},
                "detuning": {"type": "number"},
                "orientation": {"type": "array", "items": {"type": "number"},
                                "minItems": 3, "maxItems": 3},
                "zeeman": {"type": "array", "items": {"type": "number"},
                           "minItems": 3, "maxItems": 3, "prefixItems": [
                               {"type": "number"}, {"const": 0, "description":
                                   "the m = 0 level has no linear Zeeman "
                                   "shift"}]},
            },
        },
        "drive": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["plane", "gaussian"]},
                "rabi": {"type": "number"},
                "waist_wl": {"type": "number", "exclusiveMinimum": 0},
                "polarization": {"type": "array", "items": {"type": "number"},
                                 "minItems": 3, "maxItems": 3},
            },
        },
        "detuning_grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["start", "stop", "num"],
            "properties": {
                "start": {"type": "number"},
                "stop": {"type": "number"},
                "num": {"type": "integer", "minimum": 2},
            },
        },
        "intensity_grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["start", "stop", "num"],
            "properties": {
                "start": {"type": "number", "exclusiveMinimum": 0},
                "stop": {"type": "number", "exclusiveMinimum": 0},
                "num": {"type": "integer", "minimum": 2},
            },
        },
        "spacing_grid_wl": {"type": "array",
                            "items": {"type": "number", "exclusiveMinimum": 0}},
        "q_path": {"type": "array",
                   "items": {"type": "array", "items": {"type": "number"},
                             "minItems": 2, "maxItems": 2}},
        "n_realizations": {"type": "integer", "minimum": 2},
        "n_trajectories": {"type": "integer", "minimum": 1},
        "jump_basis": {"enum": ["source", "directional"]},
        "t_final": {"type": "number", "exclusiveMinimum": 0},
        "n_times": {"type": "integer", "minimum": 2},
        "tau_max": {"type": "number", "exclusiveMinimum": 0},
        "out_dir": {"type": "string"},
    },
}


@functools.cache
def _validator(scenario=None):
    # the tests check every schema against the meta-schema, so this does not
    from jsonschema import Draft202012Validator as Validator
    return Validator(SCENARIOS[scenario].rule if scenario else CONFIG_SCHEMA)


def _check(config: dict, scenario=None) -> None:
    """Raise the best-matching error, worded by its clause's description."""
    from jsonschema.exceptions import best_match
    err = best_match(_validator(scenario).iter_errors(config))
    if err is not None:
        path = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {path}: "
                          f"{err.schema.get('description', err.message)}")


def _unread(config: dict, reads: dict):
    """Paths of the keys of `config` that a scenario's `reads` leaves out."""
    for key, value in config.items():
        if key not in reads:
            yield key
        elif reads[key] is not None:
            sub = reads[key](value) if callable(reads[key]) else reads[key]
            yield from (f"{key}/{k}" for k in value if k not in sub)


def validate_config(config: dict) -> None:
    _check(config)
    name = config["scenario"]
    path = next(_unread(config, SCENARIOS[name].reads), None)
    if path is not None:
        raise ConfigError(f"config invalid at {path}: scenario {name!r} does "
                          "not read this key in this config")
    _check(config, name)


def run(config: dict, out_dir=None, seed=None) -> dict:
    """Execute one scenario; returns the manifest dict."""
    validate_config(config)
    scenario = config["scenario"]
    seed = seed if seed is not None else config.get("seed", 0)
    out = Path(out_dir or config.get("out_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    diagnostics = {}
    artifacts = SCENARIOS[scenario].handler(config, out, seed, diagnostics)
    import scipy
    manifest = {
        "scenario": scenario,
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "seed": seed,
        "versions": {"atomarray": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "wall_time_s": round(time.time() - t0, 3),
        "diagnostics": diagnostics,
        "artifacts": [str(p) for p in artifacts],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="atomarray",
        description="cooperative-scattering scenario runner")
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    try:
        manifest = run(config, out_dir=args.out, seed=args.seed)
    except ConfigError as err:
        print(str(err), file=sys.stderr)
        return 2
    except (AtomarrayError, np.linalg.LinAlgError) as err:
        print(f"numeric failure: {type(err).__name__}: {err}",
              file=sys.stderr)
        return 3
    print(json.dumps(manifest, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
