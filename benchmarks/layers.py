"""Time the eight layer kernels of atomarray, one tree against another.

Usage (from the repository root):

    python benchmarks/layers.py --parent <other tree>/src --out BENCH.json

Each case calls one library function on one input and is named
`<module>.<function>@<input>`.  The inputs are the "full" workload configs
of `perfbench/workloads.py`, resized where the name says so: the square
arrays of transmit (10x10, and a bilayer of two at 0.5 lambda, whose
lattice has two layer separations), disorder (sampled, seed 0) and eigen
(16x16 J=0->1, and its sample with 0.05 lambda Gaussian displacements,
seed 0, which keeps no mirror and no lattice; the eigenmode table of
the steady state also at 12x20, which keeps the three mirrors but has
no degenerate C4v pairs), the qme ring at N = 6-8 and the traj workload; the pair of acceptance criterion 8(a) runs 2e4
trajectories to t = 6.  The far-field detector is built on the sampled
disorder array (waist 2 lambda) at 10x10 to 40x40 and at 100x100; the
far-field map is that of `cli.run_transmit` (`sphere_grid(24, 48)`) on the
transmit array at 10x10 to 40x40; the rate quadrature is that of
`cli.run_checks` on five atoms, two-level and J=0->1.  Each
steady-state and eigenmode call takes a freshly built
`lli.CouplingSystem`, so that the mirror search and projection a system
keeps are timed with every call.  The QME generator layer has four
cases: the build, one call on the ground state (a D x D call, which maps
its argument into the mirror-parity sectors and back), `evolve_qme` from
the ground state on the qme workload's time grid (N = 6 and 7 only), and
`steady_state_qme`, also on a copy of the system that has built no
generator yet (`-fresh`, as a CLI run solves it); the call also runs on
the qme ring of four J=0->1 atoms (D = 256).  `--layers` keeps the cases
whose name starts with one of its values.

For each BLAS thread count, each tree runs in its own worker process, with
the BLAS variables set before numpy is imported and, where the tree has
it, `cli.blas_policy()` applied as `cli.run` does.  Both workers stay
alive and take orders over a pipe.  Per case, each sets the case up; the
timed calls then alternate between the trees, which tree goes first
alternating too.  Each timed call comes right after an untimed call of the
same case in its worker, which wakes that worker's BLAS threads, and after
a pause that lets the other worker's threads go idle.  One more call runs
under `tracemalloc` for its peak, and its output array is compared between
the trees.  A case that raises in a tree reports the error for that tree.
"""
import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# an OpenBLAS thread busy-waits ~0.1 s after a call; without this pause the
# other worker's threads made quantum.generator@N6 2.6 ms, not 0.78 ms
SETTLE_S = 0.2


# ---------------------------------------------------------------------------
# cases: each setup returns (call, output); output(call()) is the array
# compared between the trees

def _array(workload, transition=(), **geometry):
    """Geometry, transition and drive of a workload config, with
    `transition` and `geometry` overriding keys of those sections."""
    import workloads
    from atomarray import cli
    cfg = workloads.config("full", workload)
    cfg = {**cfg, "geometry": {**cfg["geometry"], **geometry},
           "transition": {**cfg.get("transition", {}), **dict(transition)}}
    return (cli.geometry_from_config(cfg), cli.transition_from_config(cfg),
            cli.drive_from_config(cfg))


def lattice_sums():
    from atomarray import infinite
    from atomarray.geometry import LAMBDA
    return (lambda: infinite.lattice_sums(0.55 * LAMBDA),
            lambda sums: sums.coupling)


def obe_rhs():
    from atomarray import lli, semiclassical as sc
    geo, tr, beam = _array("transmit")
    # the OBEs read `lli.assemble`'s system; a tree before that built its own
    system = getattr(sc, "build_obe_system", lli.assemble)(geo, tr, beam)
    rng = np.random.default_rng(0)
    shape = (geo.natoms, tr.components)
    coh = 0.1 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    exc = np.einsum("ja,jb->jab", coh, coh.conj())
    state = sc.SemiclassicalState(coh, exc)
    return lambda: sc.obe_rhs(state, system), lambda d: d.flatten()


def _sampled(geo, disorder):
    """geo displaced by Gaussians of half-width `disorder` wavelengths."""
    from atomarray import geometry
    if not disorder:
        return geo
    return geometry.sample_positions(geo, np.random.default_rng(0),
                                     disorder * geometry.LAMBDA)


def assemble(workload, disorder=0.0, geometry=()):
    from atomarray import lli
    geo, tr, beam = _array(workload, **dict(geometry))
    array = _sampled(geo, disorder), tr, beam
    return lambda: lli.assemble(*array), lambda system: system.H


def _fresh(s):
    """A new `lli.CouplingSystem` of the arrays of s, which has kept
    nothing from an earlier call (its mirror search and sectors)."""
    return dataclasses.replace(s)


def steady_state(workload, delta):
    from atomarray import lli
    system = lli.assemble(*_array(workload))
    return lambda: lli.steady_state(_fresh(system), delta), np.asarray


def eigenmodes(n, disorder=0.0):
    from atomarray import lli
    geo, tr, beam = _array("eigen", nx=n, ny=n)
    system = lli.assemble(_sampled(geo, disorder), tr, beam)
    return (lambda: lli.eigenmodes(_fresh(system)),
            lambda es: np.sort(es.eigenvalues))


def eigen_table(nx, ny):
    import inspect
    from atomarray import lli
    system = lli.assemble(*_array("eigen", nx=nx, ny=ny))

    def table():
        s = _fresh(system)
        # the table solves its own eigenmodes; a tree before that took them
        if len(inspect.signature(lli.eigen_table).parameters) == 1:
            return lli.eigen_table(s)[1]
        return lli.eigen_table(s, lli.eigenmodes(s))
    return table, lambda rows: np.array([row[1:] for row in rows])


def farfield_detector(n):
    from atomarray import geometry, observables
    geo, _, beam = _array("disorder", nx=n, ny=n)
    sample = geometry.sample_positions(geo, np.random.default_rng(0))
    return (lambda: observables.farfield_detector(sample, beam),
            lambda d: np.stack([d.forward, d.backward]))


def farfield_map(n):
    from atomarray import lli, observables
    geo, tr, beam = _array("transmit", nx=n, ny=n)
    system = lli.assemble(geo, tr, beam)
    dip = observables.dipole_table(system, lli.steady_state(system, 0.35))
    # the map of `cli.run_transmit`; a tree before `farfield_map` projected
    # the sphere grid's directions one by one
    if hasattr(observables, "farfield_map"):
        return (lambda: observables.farfield_map(dip, geo, 24, 48),
                np.asarray)
    nhat = observables.sphere_grid(24, 48)[0]
    return (lambda: observables.farfield_amplitude(dip, geo, nhat),
            np.asarray)


def farfield_rate_quadrature(levels):
    """The rate quadrature of `cli.run_checks` (`sphere_grid(72, 144)`) on
    5 atoms at random positions within 1.5 lambda, with a random
    correlation table, seed 11."""
    from atomarray import observables
    from atomarray.geometry import LAMBDA, Geometry
    from atomarray.lli import TransitionSpec
    rng = np.random.default_rng(11)
    tr = TransitionSpec(levels=levels)
    geo = Geometry(rng.uniform(-1.5 * LAMBDA, 1.5 * LAMBDA, size=(5, 3)))
    m = 5 * tr.components
    A = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    C = A @ A.conj().T / np.trace(A @ A.conj().T).real
    return (lambda: observables.farfield_rate_quadrature(C, geo, tr, 72, 144),
            np.asarray)


def _ring(natoms, levels=2):
    from atomarray import quantum
    return quantum.build_quantum_system(
        *_array("qme", {"levels": levels}, natoms=natoms))


def _ground(system):
    g = system.ground_state()
    return np.outer(g, g.conj())


def build_quantum_system(natoms):
    from atomarray import quantum
    array = _array("qme", natoms=natoms)

    def build():
        system = quantum.build_quantum_system(*array)
        system.generator
        return system
    return build, lambda system: system.generator(_ground(system))


def generator(natoms, levels=2):
    system = _ring(natoms, levels)
    rho = _ground(system)
    return lambda: system.generator(rho), np.asarray


def evolve_qme(natoms):
    import workloads
    from atomarray import quantum
    cfg = workloads.config("full", "qme")
    system = _ring(natoms)
    rho, t_grid = _ground(system), np.linspace(0, cfg["t_final"],
                                               cfg["n_times"])
    return lambda: quantum.evolve_qme(rho, system, t_grid), np.asarray


def steady_state_qme(natoms, fresh=False):
    from atomarray import quantum
    system = _ring(natoms)
    # fresh: a copy of the system that has built no generator, so that the
    # generator and the jump terms the solve asks for are timed with it
    copy = dataclasses.replace if fresh else (lambda s: s)
    # the solver returns (rho, residual); a tree before that returns rho
    return (lambda: quantum.steady_state_qme(copy(system)),
            lambda result: np.asarray(
                result[0] if isinstance(result, tuple) else result))


def run_trajectories(basis):
    import workloads
    from atomarray import quantum
    from atomarray.drives import PlaneWave
    from atomarray.geometry import LAMBDA, Geometry
    from atomarray.lli import TransitionSpec
    if basis == "pair-8a":
        system = quantum.build_quantum_system(
            Geometry([[0, 0, 0], [0, 0, 0.5 * LAMBDA]]),
            TransitionSpec(levels=2, orientation=(0, 1, 0), detuning=0.3),
            PlaneWave(amplitude=0.8))
        t_grid, n_traj = np.linspace(0, 6, 7), 20_000
    else:
        cfg = workloads.config("full", "traj")
        system = _ring(cfg["geometry"]["natoms"])
        t_grid = np.linspace(0, cfg["t_final"], cfg["n_times"])
        n_traj = cfg["n_trajectories"]
    jumps = (quantum.directional_basis(system, n_theta=8, n_phi=16)
             if basis == "directional-8x16" else
             quantum.source_mode_basis(system))
    return (lambda: quantum.run_trajectories(
        system.ground_state(), system, jumps, t_grid, n_traj, seed=0),
        lambda result: result.populations)


CASES = {
    "infinite.lattice_sums@a0.55": (lattice_sums,),
    "semiclassical.obe_rhs@10x10": (obe_rhs,),
    "lli.assemble@10x10": (assemble, "transmit"),
    "lli.assemble@16x16-J01": (assemble, "eigen"),
    "lli.assemble@16x16-J01-disordered": (assemble, "eigen", 0.05),
    "lli.assemble@bilayer-10x10": (assemble, "transmit", 0.0, {
        "kind": "bilayer", "separation_wl": 0.5}),
    "lli.steady_state@M100": (steady_state, "transmit", 0.35),
    "lli.steady_state@M768": (steady_state, "eigen", None),
    "lli.eigenmodes@16x16-J01": (eigenmodes, 16),
    "lli.eigenmodes@20x20-J01": (eigenmodes, 20),
    "lli.eigenmodes@16x16-J01-disordered": (eigenmodes, 16, 0.05),
    "lli.eigen_table@16x16-J01": (eigen_table, 16, 16),
    "lli.eigen_table@12x20-J01": (eigen_table, 12, 20),
    **{f"observables.{f.__name__}@{n}x{n}": (f, n)
       for f in (farfield_detector, farfield_map) for n in (10, 20, 40)},
    "observables.farfield_detector@100x100": (farfield_detector, 100),
    "observables.farfield_rate_quadrature@N5": (farfield_rate_quadrature, 2),
    "observables.farfield_rate_quadrature@J01-N5": (
        farfield_rate_quadrature, 4),
    **{f"quantum.{f.__name__}@N{n}": (f, n) for f in (
        build_quantum_system, generator, steady_state_qme) for n in (6, 7, 8)},
    **{f"quantum.steady_state_qme@N{n}-fresh": (steady_state_qme, n, True)
       for n in (6, 7, 8)},
    "quantum.generator@J01-N4": (generator, 4, 4),
    **{f"quantum.evolve_qme@N{n}": (evolve_qme, n) for n in (6, 7)},
    **{f"quantum.run_trajectories@{b}": (run_trajectories, b)
       for b in ("source", "directional-8x16", "pair-8a")},
}


# ---------------------------------------------------------------------------
# worker: one tree at one BLAS thread count

def serve(src):
    """Answer the orders on stdin, ["setup", case], ["time", case] and
    ["finish", case, path], with one JSON line each on stdout."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    reply, sys.stdout = sys.stdout, sys.stderr
    from atomarray import cli
    policy = getattr(cli, "blas_policy", None)
    print(json.dumps({"blas": policy and policy()}), file=reply, flush=True)
    live = {}
    for line in sys.stdin:
        order, name, *path = json.loads(line)
        try:
            if order == "setup":
                setup, *args = CASES[name]
                live[name] = setup(*args)
                answer = {}
            elif order == "time":
                live[name][0]()
                t0 = time.perf_counter()
                live[name][0]()
                answer = {"s": time.perf_counter() - t0}
            else:
                call, output = live.pop(name)
                tracemalloc.start()
                try:
                    result = call()
                    answer = {"peak_mib": tracemalloc.get_traced_memory()[1]
                              / 2**20}
                finally:
                    tracemalloc.stop()
                np.save(path[0], output(result))
        except Exception as err:
            traceback.print_exc()
            live.pop(name, None)
            answer = {"error": f"{type(err).__name__}: {err}"}
        print(json.dumps(answer), file=reply, flush=True)


class Worker:
    def __init__(self, src, threads):
        code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
                "import layers; layers.serve(sys.argv[1])")
        self.proc = subprocess.Popen(
            [sys.executable, "-c", code, str(src)], text=True,
            env={**os.environ, **dict.fromkeys(THREAD_VARS, str(threads))},
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.blas = self.ask()["blas"]

    def ask(self, *order):
        """Send an order, if any, and read the next answer."""
        if order:
            self.proc.stdin.write(json.dumps(order) + "\n")
            self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def measure(workers, name, repeats, tmp) -> dict:
    """One case in both trees' workers."""
    sides = {tree: w.ask("setup", name) for tree, w in workers.items()}
    times = {tree: [] for tree in workers}
    for i in range(repeats):
        for tree in list(workers)[::-1 if i % 2 else 1]:
            if "error" not in sides[tree]:
                time.sleep(SETTLE_S)
                answer = workers[tree].ask("time", name)
                if "error" in answer:
                    sides[tree] = answer
                else:
                    times[tree].append(answer["s"])
    outputs = {}
    for tree, worker in workers.items():
        path = Path(tmp) / f"{tree}.npy"
        if "error" not in sides[tree]:
            sides[tree] = worker.ask("finish", name, str(path))
        if "error" not in sides[tree]:
            outputs[tree] = np.load(path)
            sides[tree] = {
                "median_s": round(statistics.median(times[tree]), 6),
                "times_s": [round(t, 6) for t in times[tree]],
                "tracemalloc_peak_mib": round(sides[tree]["peak_mib"], 3)}
    diff = None
    if len(outputs) == 2:
        old, new = outputs["parent"], outputs["change"]
        diff = float(np.abs(new - old).max() / np.abs(old).max())
    return {**sides, "max_output_rel_diff": diff}


def machine() -> dict:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import child
    try:
        cpu = next(line.split(":", 1)[1].strip() for line in
                   Path("/proc/cpuinfo").read_text().splitlines()
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or "unknown"
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return {"cpu": f"{cpu} (nproc {os.cpu_count()})",
            "memory_gib": round(mem, 1), "python": platform.python_version(),
            **child.machine()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="the src directory of the tree to compare with")
    parser.add_argument("--threads", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--layers", nargs="+", default=[""],
                        help="case name prefixes (default: every case)")
    parser.add_argument("--out", help="also write the report to this file")
    args = parser.parse_args()
    names = [n for n in CASES if n.startswith(tuple(args.layers))]
    if not names:
        parser.error("no case matches; the cases are " + ", ".join(CASES))
    cases = {name: {} for name in names}
    pools = {}
    for t in args.threads:
        workers = {"parent": Worker(args.parent, t),
                   "change": Worker(ROOT / "src", t)}
        try:
            pools[f"blas_threads_{t}"] = {k: w.blas
                                          for k, w in workers.items()}
            for name in names:
                print(f"{name} at {t} BLAS threads", file=sys.stderr)
                with tempfile.TemporaryDirectory() as tmp:
                    cases[name][f"blas_threads_{t}"] = measure(
                        workers, name, args.repeats, tmp)
        finally:
            for worker in workers.values():
                worker.close()
    report = {
        "what": "Median wall time of one call of each layer case, parent "
                "tree against this one, interleaved, each tree in its own "
                "worker process per BLAS thread count, each timed call "
                "right after an untimed call in that process.",
        "command": "python benchmarks/layers.py " + " ".join(
            sys.argv[1:]).replace(args.parent, "<parent>/src"),
        "machine": machine(),
        "blas_pools": pools,
        "notes": [
            "tracemalloc_peak_mib: the peak of one more call, untimed.",
            "max_output_rel_diff: max |out_change - out_parent| / "
            "max |out_parent| over the case's output array; null when a "
            "tree raised, and that tree reports the error.",
        ],
        "cases": cases,
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text)


if __name__ == "__main__":
    main()
