"""Workloads of the benchmark: one CLI scenario config each, and the checks
applied to the artifacts of every execution.

Each workload is one scenario run through ``atomarray.cli.run`` as a closed
loop by a single process.  The "full" sizes are what the benchmark times;
they are scaled so that one execution takes about 1-3 s on a 2-core box,
which leaves several timed executions per run.  The "tiny" sizes exist for
the harness's own smoke test.

Why each workload is here (which layer it isolates):

- transmit: one system solved at many detunings; far-field projection and
  the shifted solve, assembly once.
- disorder: the same layers used differently; many small systems,
  re-sampled and re-assembled at every detuning.
- eigen: the dense eigensolve and the 3-component (J=0->1) assembler.
- traj: the quantum-trajectory step, which no other workload runs.
- qme: the master-equation generator, a small share of traj.

A check runs each workload about twenty times, so the sizes are smaller
than the paper-scale examples: transmit is 10x10 at 5 detunings (the README
example, 14x14 at 33 detunings, takes about 30 s per execution); disorder
is 10x10 with 2 realizations x 3 detunings; eigen is 16x16 with J=0->1
(M = 768); traj runs 1024 trajectories to t = 1.  The arrays of transmit
and disorder keep n = 100 atoms, because below that OpenBLAS factorises on
one thread and the slow multi-threaded solve of lli.steady_state would not
show.  traj keeps 1024 trajectories, which makes each time step one
(1024 x 64) by (64 x 64) product: on a 2-vCPU VM at two BLAS threads, 512
trajectories to t = 2 cost the same per execution but spread three times
as much from run to run.  The quantum workloads use a ring of N = 6
(D = 64): at N = 7 steady_state_qme does not converge, and at N = 8
evolve_qme alone takes about 40 s.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "references.json"

NAMES = ("transmit", "disorder", "eigen", "traj", "qme")
# workloads whose cli.run receives the benchmark seed; the others are
# deterministic and their inputs do not depend on it
SEEDED = ("disorder", "traj")
# reference values of seeded workloads are stored for this seed only; the
# oracle checks apply at every seed
DEFAULT_SEED = 0


def _square(n, spacing_wl, **extra):
    return {"kind": "square", "nx": n, "ny": n, "spacing_wl": spacing_wl,
            **extra}


def _ring(natoms):
    return {"kind": "ring", "natoms": natoms, "radius_wl": 0.4}


TWO_LEVEL_Y = {"levels": 2, "orientation": [0, 1, 0]}
RING_DRIVE = {"kind": "plane", "rabi": 0.8}


def _configs(n_tr, w_tr, n_dis, w_dis, n_eig, n_ring, n_det_tr, n_real,
             n_det_dis, n_traj, traj_t, qme_t):
    return {
        "transmit": {
            "scenario": "transmit",
            "geometry": _square(n_tr, 0.68, lattice_depth=300.0),
            "transition": TWO_LEVEL_Y,
            "drive": {"kind": "gaussian", "waist_wl": w_tr},
            "detuning_grid": {"start": -1.2, "stop": 1.9, "num": n_det_tr},
        },
        "disorder": {
            "scenario": "disorder",
            "geometry": _square(n_dis, 0.68, lattice_depth=50.0),
            "transition": TWO_LEVEL_Y,
            "drive": {"kind": "gaussian", "waist_wl": w_dis},
            "detuning_grid": {"start": -1.2, "stop": 1.9, "num": n_det_dis},
            "n_realizations": n_real,
        },
        "eigen": {
            "scenario": "eigen",
            "geometry": _square(n_eig, 0.55),
            "transition": {"levels": 4},
            "drive": {"kind": "gaussian", "waist_wl": 3.0},
        },
        "traj": {
            "scenario": "traj",
            "geometry": _ring(n_ring),
            "drive": RING_DRIVE,
            "n_trajectories": n_traj,
            "jump_basis": "source",
            "t_final": traj_t,
            "n_times": 2 * traj_t + 1,
        },
        "qme": {
            "scenario": "qme",
            "geometry": _ring(n_ring),
            "drive": RING_DRIVE,
            "t_final": qme_t,
            "n_times": 2 * qme_t + 1,
        },
    }


SIZES = {
    "full": _configs(n_tr=10, w_tr=2.0, n_dis=10, w_dis=2.0, n_eig=16,
                     n_ring=6, n_det_tr=5, n_real=2, n_det_dis=3, n_traj=1024,
                     traj_t=1, qme_t=20),
    "tiny": _configs(n_tr=3, w_tr=0.6, n_dis=3, w_dis=0.6, n_eig=3, n_ring=2,
                     n_det_tr=5, n_real=2, n_det_dis=2, n_traj=16, traj_t=1,
                     qme_t=2),
}


# the observed values each reference pins, and the (rtol, atol) they must
# match to.  CSV values carry 12 significant digits; the tolerances allow
# for reordered floating-point sums and fail any change of the physics.
# The QME steady state is converged to a residual of 1e-9 only.  traj has
# no reference: a change of trajectory scheme changes the random stream.
REFERENCED = {
    "transmit": (("delta", "T", "R", "Re_t", "Im_t"), 1e-8, 1e-10),
    "disorder": (("delta", "T", "R", "stderr_t", "stderr_r"), 1e-8, 1e-10),
    "eigen": (("linewidth",), 1e-7, 1e-9),
    "qme": (("steady_population", "mean_lowering_abs"), 1e-6, 1e-9),
}


class CheckError(AssertionError):
    """An execution's artifacts failed a check."""


def config(size: str, workload: str) -> dict:
    return SIZES[size][workload]


def reference_key(size: str, workload: str) -> str:
    """Key of a stored reference: a hash of the config and, for seeded
    workloads, of DEFAULT_SEED, so that a changed config has none."""
    seed = DEFAULT_SEED if workload in SEEDED else None
    doc = json.dumps({"config": config(size, workload), "seed": seed},
                     sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def load_reference(size: str, workload: str, seed: int):
    """The committed reference for this execution, or None where only the
    oracle checks apply.  A missing entry is an error, not a skip."""
    if workload not in REFERENCED or (workload in SEEDED
                                      and seed != DEFAULT_SEED):
        return None
    refs = json.loads(REFERENCE_FILE.read_text())
    key = reference_key(size, workload)
    try:
        return refs[workload][key]
    except KeyError:
        raise KeyError(f"no reference for {workload} ({size}, key {key}); "
                       f"regenerate with perfbench/make_references.py") from None


# ---------------------------------------------------------------------------
# artifact readers

def _table(path: Path) -> dict:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name.split("[")[0]: [float(r[i]) for r in body]
            for i, name in enumerate(header)}


def observe(workload: str, out: Path) -> dict:
    """The values the checks and the references use, read from the
    artifacts an execution wrote into `out`."""
    if workload == "transmit":
        tab = _table(out / "transmission.csv")
        return {k: tab[k] for k in ("delta", "T", "R", "Re_t", "Im_t")}
    if workload == "disorder":
        tab = _table(out / "disorder_spectrum.csv")
        return {k: tab[k] for k in ("delta", "T", "R", "stderr_t",
                                    "stderr_r")}
    if workload == "eigen":
        tab = _table(out / "eigenmodes.csv")
        return {"shift": tab["shift"], "linewidth": sorted(tab["linewidth"]),
                "occupation": tab["occupation"]}
    if workload == "traj":
        tab = _table(out / "trajectories.csv")
        return {"t": tab["t"], "mean_excited": tab["mean_excited"],
                "trace_distance": tab["trace_distance"]}
    tab = _table(out / "qme_populations.csv")
    steady = json.loads((out / "qme_steady.json").read_text())
    return {"t": tab["t"], "total_excited": tab["total_excited"],
            "steady_population": [steady["steady_population"]],
            "mean_lowering_abs": steady["mean_lowering_abs"]}


# ---------------------------------------------------------------------------
# checks

def _require(ok: bool, what: str):
    if not ok:
        raise CheckError(what)


def _close(got, want, what, rtol, atol):
    _require(len(got) == len(want),
             f"{what}: {len(got)} values, reference has {len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        _require(abs(g - w) <= atol + rtol * abs(w),
                 f"{what}[{i}] = {g!r}, reference {w!r}")


def _energy_bound(cfg: dict, obs: dict):
    n_rows = cfg["detuning_grid"]["num"]
    _require(len(obs["T"]) == n_rows,
             f"{len(obs['T'])} detunings written, {n_rows} requested")
    for d, T, R in zip(obs["delta"], obs["T"], obs["R"]):
        _require(math.isfinite(T + R) and min(T, R) >= 0.0
                 and T + R <= 1.0 + 1e-9, f"R+T = {T + R!r} at delta {d}")


def _disorder(cfg: dict, obs: dict):
    _energy_bound(cfg, obs)
    _require(min(obs["stderr_t"] + obs["stderr_r"]) >= 0.0,
             "negative standard error")


def _eigen(cfg: dict, obs: dict):
    g = cfg["geometry"]
    m = g["nx"] * g["ny"] * (3 if cfg["transition"]["levels"] == 4 else 1)
    lw, shift = obs["linewidth"], obs["shift"]
    _require(len(lw) == m, f"{len(lw)} modes written, {m} expected")
    # sum of eigenvalues = tr H = i * gamma * M
    _require(abs(sum(lw) - m) <= 1e-8 * m, f"sum of linewidths {sum(lw)}")
    _require(abs(sum(shift)) <= 1e-8 * m, f"sum of shifts {sum(shift)}")
    _require(abs(sum(obs["occupation"]) - 1.0) <= 1e-8,
             f"occupations sum to {sum(obs['occupation'])}")


def trace_distance_bound(n_traj: int) -> float:
    """Bound on the trace distance between the trajectory ensemble's
    density matrix and the master equation.  The sampling error of an
    ensemble mean falls as 1/sqrt(n); over 16 seeds of the full traj
    workload (D = 64, n = 1024, t <= 1) the largest value seen was
    0.8/sqrt(n).
    3/sqrt(n) leaves room for the seed-to-seed spread and still fails
    dynamics that are wrong by more than the sampling error."""
    return 3.0 / math.sqrt(n_traj)


def _traj(cfg: dict, obs: dict):
    natoms = cfg["geometry"]["natoms"]
    _require(len(obs["t"]) == cfg["n_times"], "wrong number of times")
    _require(obs["mean_excited"][0] == 0.0
             and obs["trace_distance"][0] <= 1e-12,
             "trajectories do not start in the ground state")
    bound = trace_distance_bound(cfg["n_trajectories"])
    worst = max(obs["trace_distance"])
    _require(worst <= bound,
             f"trace distance to the QME {worst:.4f} > bound {bound:.4f}")
    _require(all(0.0 <= p <= natoms for p in obs["mean_excited"]),
             "mean excitation outside [0, N]")


def _qme(cfg: dict, obs: dict):
    natoms = cfg["geometry"]["natoms"]
    pops = obs["total_excited"]
    _require(len(pops) == cfg["n_times"], "wrong number of times")
    _require(abs(pops[0]) <= 1e-12, f"population at t=0 is {pops[0]}")
    _require(all(-1e-9 <= p <= natoms for p in pops),
             "population outside [0, N]")


ORACLES = {"transmit": _energy_bound, "disorder": _disorder,
           "eigen": _eigen, "traj": _traj, "qme": _qme}


def check(workload: str, cfg: dict, obs: dict, reference) -> None:
    """Raise CheckError unless the observed artifacts pass the workload's
    oracle checks and, where a reference applies, match it."""
    ORACLES[workload](cfg, obs)
    if reference is not None:
        _, rtol, atol = REFERENCED[workload]
        for k, want in reference.items():
            _close(obs[k], want, k, rtol, atol)
