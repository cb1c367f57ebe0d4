"""Exact quantum dynamics for small atom numbers: master equation with
light-mediated couplings, quantum-trajectory unraveling (source-mode and
directional jump operators), and photon-statistics estimators.

The master equation (gamma units, hbar = 1) is

  drho/dt = -i [H_drive - sum_{j!=l} Omega^{jl}_{cc'} s+_{jc} s-_{lc'}, rho]
            + sum B_{(jc),(lc')} (2 s-_{lc'} rho s+_{jc}
                                  - s+_{jc} s-_{lc'} rho - rho s+_{jc} s-_{lc'})

with B = Im and Omega = Re of kernel.coupling_matrix in the dipole basis of
the transition (B real symmetric, diagonal gamma; Omega real symmetric,
zero diagonal) and

  H_drive = -sum_{jc} (R_{jc} s+_{jc} + R*_{jc} s-_{jc})
            - sum_j L_{cc'} s+_{jc} s-_{jc'},

L the per-atom level block (`TransitionSpec.level_block`).  For the
J=0 -> J'=1 transition the three excited sublevels are kept in the
CARTESIAN dipole basis |e_x>, |e_y>, |e_z>, which keeps both Omega and B
real symmetric; Zeeman splittings make L a Hermitian 3x3 block, the same
as in the coupled-dipole module.  Every operator and observable is a
contraction over the stacked lowering operators of `lowering_operators`,
whose docstring states the product-space layout.

Each s-_i is a partial permutation (a row holds at most one 1), applied
as a row move: s-_i X is X[src] placed at the rows dst, the (dst, src) of
`QuantumSystem.moves` read once off the lowering table.  The one generator
(`QuantumSystem.generator`) is the pairwise form above, built once as

  drho/dt = -i (Hnh rho - rho Hnh^dag) + 2 sum_i s-_i rho L_i^dag,
  Hnh = H - i sum B_{il} s+_i s-_l,   L_i = sum_l B_{il} s-_l.

Trajectory jumps J_k = sum_i a_{ki} s-_i are the rows of a (K, M) amplitude
matrix A (`JumpBasis`).  The collective decay channels a_m = sqrt(beta_m)
w_m^T of B = sum_m beta_m w_m w_m^T (real orthonormal w_m) reproduce the
dissipator exactly; when the coherent and dissipative coupling matrices
commute, the w_m are coupled-dipole eigenmodes and beta_m their linewidths.

The steady state solves drho/dt + |G><G| Tr rho = |G><G| (so drho/dt = 0
and Tr rho = 1) by GMRES, preconditioned with the inverse of the no-jump
part, a Sylvester equation in the Schur basis of Hnh (`steady_state_qme`).

Light leaves the array through the far field: `farfield_coefficients`
gives the amplitude rows (pol^* . e_c) e^{-i k n.r_j} of
E(n, pol) = sum_{jc} (pol^* . e_c) e^{-i k n.r_j} s-_{jc} for a stack of
directions and polarizations, from the far-field primitives of `kernel`.
The g2 detection operator is one of them contracted with the lowering
table, and the directional jump operators J(theta, phi; pol) are all of
them on a solid-angle grid, times sqrt((3 gamma/8 pi) dOmega).  Directional
jumps double as photon detections, their click rate 2<J^dag J> equals the
far-field photon flux into the cell, and their completeness sum converges
to the dissipator as the angular grid refines.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy.linalg.lapack import ztrsyl

from .errors import DimensionCapError, NonConvergenceError, UndefinedG2Error
from .geometry import Geometry
from .integrate import integrate_complex
from .kernel import (GAMMA, coupling_matrix, direction, direction_angles,
                     farfield_phase, transverse)
from .lli import TransitionSpec, block_diagonal
from .observables import sphere_grid

QME_DIM_CAP = 4096          # density-matrix evolution
TRAJ_CHUNK = 4096           # trajectories per RNG stream


def _check_cap(dim, cap, what):
    if dim > cap:
        raise DimensionCapError(f"{what} dimension {dim} exceeds cap {cap}")


def lowering_operators(natoms: int, levels: int) -> np.ndarray:
    """(M, D, D) stacked lowering operators of the product space, the one
    place that fixes its layout:

        sigma^-_{jc} = 1^{(x)j} (x) |g><e_c| (x) 1^{(x)(n-j-1)},

    atom 0 being the most significant tensor factor, each atom's basis the
    ground state followed by its excited components (one for two-level,
    the Cartesian x, y, z sublevels for J=0 -> J'=1), and row j*m + c
    holding sigma^-_{jc} (m = levels - 1, D = levels**natoms).
    """
    m = levels - 1
    out = np.empty((natoms * m, levels**natoms, levels**natoms),
                   dtype=complex)
    for j in range(natoms):
        for c in range(m):
            flip = np.zeros((levels, levels))
            flip[0, c + 1] = 1.0
            out[j * m + c] = np.kron(np.kron(np.eye(levels**j), flip),
                                     np.eye(levels**(natoms - j - 1)))
    return out


def pair_sum(coefficients, lower) -> np.ndarray:
    """sum_{il} c_il s+_i s-_l as one contraction over the stacked (M, D, D)
    lowering operators."""
    inner = np.tensordot(coefficients, lower, axes=(1, 0))   # sum_l c_il s-_l
    return np.tensordot(lower.conj(), inner, axes=([0, 1], [0, 1]))


@dataclass
class QuantumSystem:
    """Dense operator tables for one geometry + transition + drive."""
    geometry: Geometry
    transition: TransitionSpec
    lower: np.ndarray            # (M, D, D) from lowering_operators
    hamiltonian: np.ndarray      # drive + detuning/Zeeman + coherent couplings
    bmatrix: np.ndarray          # dissipative matrix, M x M real symmetric

    @property
    def dim(self) -> int:
        return self.lower.shape[-1]

    def ground_state(self) -> np.ndarray:
        psi = np.zeros(self.dim, dtype=complex)
        psi[0] = 1.0
        return psi

    def single_excitation(self, amplitudes) -> np.ndarray:
        """Normalized state sum_{jc} b_{jc} s+_{jc} |G> from a component
        amplitude vector."""
        b = np.asarray(amplitudes, dtype=complex).reshape(-1)
        psi = b @ self.lower[:, 0, :].conj()
        return psi / np.linalg.norm(psi)

    def dissipator_operator(self) -> np.ndarray:
        """sum B_{il} s+_i s-_l (equals sum_m J_m^dag J_m)."""
        return pair_sum(self.bmatrix, self.lower)

    def population_operator(self) -> np.ndarray:
        return pair_sum(np.eye(len(self.lower)), self.lower)

    @cached_property
    def moves(self) -> tuple:
        """(dst, src) rows of each s-_i: s-_i X is X[src] at the rows dst."""
        return tuple(np.nonzero(s) for s in self.lower)

    @cached_property
    def generator(self) -> "QmeGenerator":
        """The master-equation generator, built once per system."""
        L = np.tensordot(self.bmatrix, self.lower, axes=1)   # L_i
        return QmeGenerator(self.hamiltonian - 1j * self.dissipator_operator(),
                            self.moves, 2.0 * L.conj().transpose(0, 2, 1))


class QmeGenerator:
    """drho/dt = -i (Hnh rho - rho Hnh^dag) + sum_i s-_i rho (2 L_i^dag)."""

    def __init__(self, hnh, moves, l_dag):
        self.hnh = hnh
        self.hnh_dag = hnh.conj().T
        self.moves = moves
        self.l_dag = l_dag                   # 2 L_i^dag, (M, D, D)

    def __call__(self, rho) -> np.ndarray:
        out = -1j * (self.hnh @ rho - rho @ self.hnh_dag)
        for (dst, src), Ld in zip(self.moves, self.l_dag):
            out[dst] += rho[src] @ Ld
        return out


def build_quantum_system(geometry: Geometry, transition: TransitionSpec,
                         drive=None) -> QuantumSystem:
    n = geometry.natoms
    _check_cap(transition.levels**n, QME_DIM_CAP, "Hilbert space")
    lower = lowering_operators(n, transition.levels)

    C = coupling_matrix(geometry.positions, transition.basis)
    B = C.imag
    # coherent couplings (zero diagonal) plus the per-atom level blocks
    omega = C.real + block_diagonal(n, transition.level_block)
    H = -pair_sum(omega, lower)
    if drive is not None:
        R = transition.rabi(drive.field(geometry.positions)).reshape(-1)
        pump = np.tensordot(R, lower.conj().transpose(0, 2, 1), axes=1)
        H -= pump + pump.conj().T                  # sum R s+ + R* s-
    return QuantumSystem(geometry, transition, lower, H, B)


def qme_rhs(rho, system: QuantumSystem) -> np.ndarray:
    """drho/dt of the master equation (only D x D objects ever appear)."""
    return system.generator(np.asarray(rho, dtype=complex))


def evolve_qme(rho0, system: QuantumSystem, t_grid, rtol=1e-9, atol=1e-11):
    """Integrate the master equation; returns (nt, D, D)."""
    D = system.dim
    _check_cap(D, QME_DIM_CAP, "QME")
    generator = system.generator

    def rhs(t, y):
        return generator(y.reshape(D, D)).ravel()

    out = integrate_complex(rhs, np.asarray(rho0, dtype=complex).ravel(),
                            t_grid, rtol=rtol, atol=atol)
    return out.reshape(len(t_grid), D, D)


def steady_state_qme(system: QuantumSystem, residual_tol=1e-9, rho0=None):
    """Solve (L + w Tr) rho = w, L the generator and w = |G><G|, by GMRES
    from `rho0` (default w); Tr(L X) = 0 for all X, so L rho = 0 and
    Tr rho = 1.  The right preconditioner is S^-1, S X = -i (Hnh X -
    X Hnh^dag) - sigma X: with one Schur form Hnh = Q T Q^dag, S^-1 Y =
    Q Z Q^dag where T Z - Z T^dag = i Q^dag Y Q (LAPACK ztrsyl).  sigma =
    1e-3 gamma keeps S invertible where Hnh has a real eigenvalue (undriven,
    |G> never decays).  Raises NonConvergenceError unless the result has
    ||L rho||_1 < residual_tol."""
    D = system.dim
    _check_cap(D, QME_DIM_CAP, "QME")
    generator = system.generator
    T, Q = scipy.linalg.schur(generator.hnh - 0.5e-3j * GAMMA * np.eye(D),
                              output="complex")
    w = np.diag(system.ground_state())

    def precondition(y):
        Z, scale, _ = ztrsyl(T, T, Q.conj().T @ y.reshape(D, D) @ Q,
                             trana="N", tranb="C", isgn=-1)
        return (1j / scale) * (Q @ Z @ Q.conj().T)

    def augmented(X):
        return generator(X) + np.trace(X) * w

    rho = w if rho0 is None else np.asarray(rho0, dtype=complex)
    A = scipy.sparse.linalg.LinearOperator(
        (D * D, D * D), dtype=complex,
        matvec=lambda y: augmented(precondition(y)).ravel())
    y, _ = scipy.sparse.linalg.gmres(A, (w - augmented(rho)).ravel(), rtol=0.0,
                                     atol=1e-13, restart=50, maxiter=10)
    rho = rho + precondition(y)
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    resid = float(np.abs(qme_rhs(rho, system)).sum())
    if resid >= residual_tol:
        raise NonConvergenceError(
            f"QME steady state residual {resid:.2e} after GMRES",
            residual=resid)
    return rho


def correlation_table(rho, system: QuantumSystem) -> np.ndarray:
    """C[(jc),(lc')] = <s+_{jc} s-_{lc'}> in the component basis."""
    S = system.lower
    return np.einsum("iba,lbc,ca->il", S.conj(), S, rho, optimize=True)


def mean_lowering(rho, system: QuantumSystem) -> np.ndarray:
    """<sigma^-_{jc}> table (component basis), sum rho[src, dst]."""
    return np.array([rho[src, dst].sum() for dst, src in system.moves])


def single_excitation_block(rho, system: QuantumSystem) -> np.ndarray:
    """rho-bar[(jc),(lc')] = <G| s-_{jc} rho s+_{lc'} |G> = V rho V^dag,
    V the ground-state rows of the lowering operators."""
    V = system.lower[:, 0, :]
    return V @ rho @ V.conj().T


# ---------------------------------------------------------------------------
# jump bases

@dataclass
class JumpBasis:
    """Jump operators J_k = sum_i a_{ki} s-_i as the rows of a (K, M)
    amplitude matrix over the lowering-operator table; directional bases
    carry the (theta, phi) of each channel so clicks double as photon
    detection records."""
    amplitudes: np.ndarray
    directions: np.ndarray = None

    def decay_operator(self, lower) -> np.ndarray:
        """sum_k J_k^dag J_k = sum_{il} (A^H A)_{il} s+_i s-_l."""
        A = self.amplitudes
        return pair_sum(A.conj().T @ A, lower)


def source_mode_basis(system: QuantumSystem) -> JumpBasis:
    """Collective decay channels a_m = sqrt(beta_m) w_m^T from
    B = sum_m beta_m w_m w_m^T; never interpreted as photon detections."""
    rates, modes = np.linalg.eigh(system.bmatrix)
    beta = np.clip(rates, 0.0, None)
    return JumpBasis((modes * np.sqrt(beta)).T)


def farfield_coefficients(system: QuantumSystem, nhat, pols) -> np.ndarray:
    """(K, M) amplitude rows of the far-field lowering operators, one per
    direction nhat[k] (K, 3) and detected polarization pols[k] (K, 3):

        E_k = sum_{jc} (pol_k^* . e_c) e^{-i k n_k.r_j} sigma^-_{jc}

    (no normalization)."""
    phases = farfield_phase(nhat, system.geometry.positions)     # (K, N)
    coef = np.asarray(pols).conj() @ system.transition.basis      # (K, m)
    return (phases[:, :, None] * coef[:, None, :]).reshape(len(coef), -1)


def directional_basis(system: QuantumSystem, n_theta=12, n_phi=24) -> JumpBasis:
    """Photon-detection jump operators on a product solid-angle grid, one
    channel per transverse polarization:

        J(n, pol) = sqrt((3 gamma/8 pi) dOmega) * E(n, pol),

    stored as the `farfield_coefficients` rows of E times the square root;
    channels are ordered by direction, then polarization, and a
    polarization that no dipole component radiates into is dropped.  The
    grid sum of J^dag J converges to the pairwise dissipator as the grid
    refines, and 2<J^dag J> is the photon flux into the cell.
    """
    nhat, w = sphere_grid(n_theta, n_phi)
    # transverse pair: e1 from a seed axis away from n, e2 = n x e1
    seed = np.where(np.abs(nhat[:, :1]) > 0.5, [0.0, 1.0, 0.0],
                    [1.0, 0.0, 0.0])
    e1 = transverse(nhat, seed)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    pols = np.stack([e1, np.cross(nhat, e1)], axis=1).reshape(-1, 3)
    keep = np.max(np.abs(pols @ system.transition.basis), axis=1) >= 1e-14
    idx = np.repeat(np.arange(len(nhat)), 2)[keep]
    amps = farfield_coefficients(system, nhat[idx], pols[keep])
    amps *= np.sqrt(3.0 * GAMMA / (8.0 * np.pi) * w[idx])[:, None]
    return JumpBasis(amps, np.column_stack(direction_angles(nhat[idx])))


def dissipator_completeness(system: QuantumSystem, basis: JumpBasis) -> float:
    """Operator-norm deviation of sum_m J_m^dag J_m from the pairwise
    dissipator (zero for source modes, grid-limited for directional)."""
    A = basis.amplitudes
    return float(np.linalg.norm(
        pair_sum(A.conj().T @ A - system.bmatrix, system.lower), 2))


# ---------------------------------------------------------------------------
# trajectories

@dataclass
class TrajectoryResult:
    t_grid: np.ndarray
    rho: np.ndarray              # ensemble density matrices (nt, D, D)
    clicks: list                 # (trajectory index, time, channel) triples
    n_traj: int
    populations: np.ndarray      # ensemble mean total excited population
    clicks_are_detections: bool = False   # only directional jumps qualify


def run_trajectories(psi0, system: QuantumSystem, jump_basis: JumpBasis,
                     t_grid, n_traj, seed, dt=2e-3) -> TrajectoryResult:
    """Monte Carlo wave-function unraveling, vectorized over trajectories.

    Fixed-step scheme: exact non-Hermitian propagation over dt (dense
    propagator) and a jump decision per step from the exact norm loss.  A
    jump applies every lowering operator to the state as its row move
    (`QuantumSystem.moves`), draws channel k with weight
    ||J_k psi||^2, read off the basis amplitudes and the Gram matrix of
    the s-_i psi, and keeps J_k psi = sum_i a_{ki} s-_i psi; no (K, D, D)
    stack is formed.  dt is halved until the per-step jump probability
    is at most 0.1; then each interval of the uniform `t_grid` (which starts
    at 0) gets a whole number of equal steps no longer than dt.
    Trajectories are processed in chunks of TRAJ_CHUNK with one child RNG
    stream per chunk, so any (seed, trajectory index) pair reproduces
    independently of n_traj and scheduling.

    Clicks are recorded if and only if the basis has detection directions
    (source modes are not photon detections).
    """
    D = system.dim
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] != 0.0:
        raise ValueError("trajectory t_grid must start at 0")
    interval = np.diff(t_grid)
    if (len(interval) == 0 or interval[0] <= 0
            or np.ptp(interval) > 1e-9 * interval[0]):
        raise ValueError("trajectory t_grid must be uniform and increasing "
                         "with >= 2 points")
    record_clicks = jump_basis.directions is not None

    A = jump_basis.amplitudes
    M = len(system.lower)
    JdJ_tot = jump_basis.decay_operator(system.lower)
    # cap the worst-case per-step jump probability at 0.1
    max_rate = float(np.linalg.norm(JdJ_tot, 2))
    while 2.0 * max_rate * dt > 0.1:
        dt /= 2.0
    per_out = int(np.ceil(interval[0] / dt - 1e-9))
    dt = interval[0] / per_out
    n_steps = per_out * len(interval)
    Hnh = system.hamiltonian - 1j * JdJ_tot
    Ut = scipy.linalg.expm(-1j * Hnh * dt).T.copy()

    psi0 = np.asarray(psi0, dtype=complex)
    psi0 = psi0 / np.linalg.norm(psi0)

    rho_acc = np.zeros((len(t_grid), D, D), dtype=complex)
    clicks = []

    streams = np.random.SeedSequence(seed).spawn(
        (n_traj + TRAJ_CHUNK - 1) // TRAJ_CHUNK)
    done = 0
    for ss in streams:
        bsz = min(TRAJ_CHUNK, n_traj - done)
        rng = np.random.default_rng(ss)
        psi = np.tile(psi0, (bsz, 1))
        rho_acc[0] += np.einsum("bi,bj->ij", psi, psi.conj())
        for step in range(1, n_steps + 1):
            psi = psi @ Ut
            nrm2 = np.einsum("bi,bi->b", psi.conj(), psi).real
            # full-width draws keep trajectory i's random stream a fixed
            # function of (seed, chunk, step), independent of n_traj
            u_jump = rng.random(TRAJ_CHUNK)[:bsz]
            u_pick = rng.random(TRAJ_CHUNK)[:bsz]
            psi /= np.sqrt(nrm2)[:, None]
            jumpers = np.nonzero(u_jump < (1.0 - nrm2))[0]
            if len(jumpers):
                low = np.zeros((len(jumpers), M, D), dtype=complex)
                for i, (dst, src) in enumerate(system.moves):  # s-_i psi
                    low[:, i, dst] = psi[jumpers[:, None], src]
                # ||J_k psi||^2 = a_k^H G a_k, G_il = <s-_i psi|s-_l psi>
                gram = low.conj() @ low.transpose(0, 2, 1)
                rates = np.sum((A.conj() @ gram) * A, axis=2).real
                cum = np.cumsum(rates, axis=1)
                u2 = u_pick[jumpers, None] * cum[:, -1:]
                pick = (u2 > cum).sum(axis=1)
                chosen = np.einsum("bi,bid->bd", A[pick], low)
                psi[jumpers] = chosen / np.linalg.norm(chosen, axis=1,
                                                       keepdims=True)
                if record_clicks:
                    tj = step * dt
                    for b, ch in zip(jumpers, pick):
                        clicks.append((done + int(b), tj, int(ch)))
            if step % per_out == 0:
                rho_acc[step // per_out] += np.einsum("bi,bj->ij", psi,
                                                      psi.conj())
        done += bsz
    rho_acc /= n_traj
    populations = np.einsum("ij,tji->t", system.population_operator(),
                            rho_acc).real
    return TrajectoryResult(t_grid, rho_acc, clicks, n_traj, populations,
                            clicks_are_detections=record_clicks)


def trace_distance(rho_a, rho_b) -> float:
    dev = np.asarray(rho_a) - np.asarray(rho_b)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(dev))))


# ---------------------------------------------------------------------------
# photon statistics

def detection_operator(system: QuantumSystem, theta, phi,
                       polarization=None) -> np.ndarray:
    """Far-field detection operator E(n, pol) along n = (theta, phi), its
    `farfield_coefficients` row over the lowering table, normalization-free
    (the scale cancels in g2).  The default polarization is the transverse
    projection of the dominant dipole component."""
    nh = direction(theta, phi)
    if polarization is None:
        proj = transverse(nh, system.transition.basis.T)      # (m, 3)
        norms = np.real(np.einsum("ci,ci->c", proj.conj(), proj))
        pol = proj[int(np.argmax(norms))]
    else:
        pol = transverse(nh, np.asarray(polarization, dtype=complex))
    pol = pol / np.linalg.norm(pol)
    row = farfield_coefficients(system, nh[None], pol[None])[0]
    return np.tensordot(row, system.lower, axes=1)


def g2_regression(system: QuantumSystem, tau_grid, theta=0.0, phi=0.0,
                  rho_ss=None):
    """g2(tau) by quantum regression: evolve the conditional state
    E rho_ss E^dag under the QME generator and read out <E^dag E>."""
    if rho_ss is None:
        rho_ss = steady_state_qme(system)
    E = detection_operator(system, theta, phi)
    EdE = E.conj().T @ E
    rate_ss = float(np.real(np.trace(EdE @ rho_ss)))
    if rate_ss < 1e-14:
        raise UndefinedG2Error("mean detection rate vanishes in steady state")
    cond = E @ rho_ss @ E.conj().T
    tau_grid = np.asarray(tau_grid, dtype=float)
    grid = tau_grid if tau_grid[0] == 0 else np.concatenate([[0.0], tau_grid])
    traj = evolve_qme(cond, system, grid, rtol=1e-11, atol=1e-13)
    if tau_grid[0] != 0:
        traj = traj[1:]
    vals = np.einsum("tij,ji->t", traj, EdE).real
    return vals / rate_ss**2


def g2_analytic(tau, intensity_ratio, linewidth=GAMMA):
    """Closed-form driven two-level g2, with the collective-mode
    substitution gamma -> ups for arrays locked to one collective mode:

        g2(tau) = 1 - e^{-3 ups tau/2} [cosh(kappa ups tau)
                   + (3/2) sinh(kappa ups tau)/kappa],
        kappa = (1/2) sqrt(1 - 8 I/I_s),

    continued analytically (kappa imaginary) for I > I_s/8.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be >= 0")
    ups = linewidth
    kappa = 0.5 * np.sqrt(complex(1.0 - 8.0 * intensity_ratio))
    x = ups * tau
    if abs(kappa) < 1e-12:
        body = 1.0 + 1.5 * x
    else:
        body = np.cosh(kappa * x) + 1.5 * np.sinh(kappa * x) / kappa
    return np.real(1.0 - np.exp(-1.5 * x) * body)


def g2_from_clicks(result: TrajectoryResult, tau_edges, t_min=0.0):
    """Coincidence estimator of g2 from directional click records.

    Histograms pairwise click delays inside each trajectory over the bins
    `tau_edges` and normalizes by the uncorrelated rate^2 expectation.
    Returns (bin centers, g2 estimates, standard errors).
    """
    if not result.clicks_are_detections:
        raise UndefinedG2Error(
            "click records from a non-directional jump basis are not photon "
            "detections; rerun with a directional basis")
    tau_edges = np.asarray(tau_edges, dtype=float)
    width = np.diff(tau_edges)
    T = result.t_grid[-1]
    window = T - t_min
    by_traj = {}
    n_clicks = 0
    for b, t, _ in result.clicks:
        if t >= t_min:
            by_traj.setdefault(b, []).append(t)
            n_clicks += 1
    if n_clicks == 0:
        raise UndefinedG2Error("no clicks recorded")
    rate = n_clicks / (result.n_traj * window)
    counts = np.zeros(len(width))
    for times in by_traj.values():
        times = np.sort(np.asarray(times))
        for i, ti in enumerate(times):
            idx = np.searchsorted(tau_edges, times[i + 1:] - ti,
                                  side="right") - 1
            good = (idx >= 0) & (idx < len(counts))
            np.add.at(counts, idx[good], 1.0)
    # pairs expected from an uncorrelated stream at the same mean rate,
    # reduced by the finite observation window
    centers = 0.5 * (tau_edges[1:] + tau_edges[:-1])
    eff_window = np.maximum(window - centers, 1e-12)
    expected = result.n_traj * rate**2 * eff_window * width
    g2 = counts / expected
    err = np.sqrt(np.maximum(counts, 1.0)) / expected
    return centers, g2, err
