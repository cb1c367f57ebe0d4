"""Nonlinear optical Bloch equations with light-mediated couplings, the
uniform-mode reduction, steady states, power broadening, cooperativity,
and bistability analysis.

Per atom j the state holds the ground-excited coherences rho_ge,nu and the
excited-level block X_{nu eta} = rho_{e eta, e nu} (populations on the
diagonal); the ground population is eliminated by conservation.  The drive
seen by atom j is the effective Rabi frequency

    Rbar_nu(j) = R_nu(j) + XI * sum_{l != j} G_numu(r_j - r_l) rho_ge,mu(l),

with the couplings of kernel.coupling_matrix, and with the per-atom
Hermitian level block L = Delta*1 - zeeman_block the equations of motion are

    d/dt rho_ge,eta  = i L_{eta tau} rho_ge,tau - gamma rho_ge,eta
                       + i Rbar_eta rho_gg - i Rbar_tau X_{tau eta}
    d/dt X_{nu eta}  = i (X L^T - L^T X)_{nu eta} - 2 gamma X_{nu eta}
                       + i Rbar_eta conj(rho_ge,nu) - i conj(Rbar_nu conj(rho_ge,eta)).

Two-level atoms keep a single coherence/population pair per atom; the
J=0 -> J'=1 variant uses the Cartesian components eta = x, y, z, the
dipole basis of the coupled-dipole and master-equation models.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .errors import NonConvergenceError
from .geometry import LAMBDA, Geometry
from .integrate import integrate_complex
from .kernel import GAMMA, coupling_matrix
from .lli import TransitionSpec


@dataclass
class SemiclassicalState:
    """coherences: (N, m) complex; excited: (N, m, m) Hermitian blocks."""
    coherences: np.ndarray
    excited: np.ndarray

    @property
    def natoms(self) -> int:
        return self.coherences.shape[0]

    @property
    def ncomp(self) -> int:
        return self.coherences.shape[1]

    def populations(self) -> np.ndarray:
        """Total excited population per atom."""
        return np.einsum("jnn->j", self.excited).real

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.coherences.ravel(), self.excited.ravel()])

    @classmethod
    def unflatten(cls, vec, natoms, ncomp):
        nc = natoms * ncomp
        coh = vec[:nc].reshape(natoms, ncomp)
        exc = vec[nc:].reshape(natoms, ncomp, ncomp)
        return cls(coh, exc)

    @classmethod
    def ground(cls, natoms, ncomp=1):
        return cls(np.zeros((natoms, ncomp), dtype=complex),
                   np.zeros((natoms, ncomp, ncomp), dtype=complex))


@dataclass
class ObeSystem:
    """Geometry-dependent pieces of the OBEs, precomputed.

    coupling[(j nu), (l mu)] = XI * G_numu(r_j - r_l) (zero for j = l), the
    rescattering part of kernel.coupling_matrix;
    level is the per-atom level block (laser detuning and Zeeman shifts);
    rabi[j, nu] is the bare drive.
    """
    coupling: np.ndarray
    level: np.ndarray
    rabi: np.ndarray
    transition: TransitionSpec

    @property
    def natoms(self) -> int:
        return self.rabi.shape[0]

    @property
    def ncomp(self) -> int:
        return self.rabi.shape[1]


def build_obe_system(geometry: Geometry, transition: TransitionSpec,
                     drive=None) -> ObeSystem:
    pos = geometry.positions
    basis = transition.basis
    C = coupling_matrix(geometry, basis)
    C[np.diag_indices(len(C))] -= 1j * GAMMA
    if drive is None:
        R = np.zeros((len(pos), basis.shape[1]), dtype=complex)
    else:
        R = transition.rabi(drive.field(pos))
    return ObeSystem(C, transition.level_block, R, transition)


def effective_rabi(system: ObeSystem, coherences) -> np.ndarray:
    """Rbar = R + XI sum_l G rho_ge(l): drive plus rescattered fields."""
    return system.rabi + (system.coupling @ coherences.ravel()).reshape(
        coherences.shape)


def obe_rhs(state: SemiclassicalState, system: ObeSystem) -> SemiclassicalState:
    coh, exc = state.coherences, state.excited
    rbar = effective_rabi(system, coh)
    rho_gg = 1.0 - np.einsum("jnn->j", exc)
    LT = system.level.T
    dcoh = (1j * coh @ LT - GAMMA * coh
            + 1j * rbar * rho_gg[:, None]
            - 1j * np.einsum("jt,jte->je", rbar, exc))
    dexc = (1j * (exc @ LT - LT @ exc) - 2 * GAMMA * exc
            + 1j * rbar[:, None, :] * np.conj(coh)[:, :, None]
            - 1j * np.conj(rbar[:, :, None] * np.conj(coh)[:, None, :]))
    return SemiclassicalState(dcoh, dexc)


def integrate_obe(state0: SemiclassicalState, system: ObeSystem, t_grid):
    """Adaptive integration; returns a list of states on t_grid."""
    n, m = state0.natoms, state0.ncomp

    def rhs(t, y):
        return obe_rhs(SemiclassicalState.unflatten(y, n, m), system).flatten()

    traj = integrate_complex(rhs, state0.flatten(), t_grid, rtol=1e-9, atol=1e-11)
    return [SemiclassicalState.unflatten(row, n, m) for row in traj]


def steady_state_obe(system: ObeSystem, horizon=200.0, residual_tol=1e-10,
                     refine=True):
    """March from the ground state to the attractor, then damped-Newton
    refine.

    Returns (state, residual).  Raises NonConvergenceError with the
    trajectory tail attached when no stationary point is reached (possible
    in bistable/oscillatory regimes).
    """
    n, m = system.natoms, system.ncomp
    t_grid = np.linspace(0.0, horizon, 41)
    traj = integrate_obe(SemiclassicalState.ground(n, m), system, t_grid)
    state = traj[-1]

    def fun(y):
        vec = y.view(complex)
        return obe_rhs(SemiclassicalState.unflatten(vec, n, m),
                       system).flatten().view(float)

    resid = np.max(np.abs(fun(state.flatten().view(float))))
    if refine:
        sol = scipy.optimize.root(fun, state.flatten().view(float), method="hybr")
        cand = SemiclassicalState.unflatten(sol.x.view(complex), n, m)
        cresid = np.max(np.abs(fun(sol.x)))
        if cresid < resid:
            state, resid = cand, cresid
    if resid > residual_tol:
        raise NonConvergenceError(
            f"OBE steady state residual {resid:.2e} > {residual_tol:.0e} "
            "(bistable or oscillatory dynamics?)", residual=resid,
            tail=traj[-5:])
    return state, resid


def cooperativity(delta, omega_t, gamma_t) -> complex:
    """C = (Omega~ + i gamma~) / (2 (Delta + i gamma))."""
    return (omega_t + 1j * gamma_t) / (2.0 * (delta + 1j * GAMMA))


@dataclass
class UniformSolution:
    """One branch of the uniform-mode steady state."""
    rho_ge: complex
    rho_ee: float
    rabi_eff: complex
    inversion: float
    cooperativity: complex
    stable: bool


def _uniform_rhs(p, nn, delta, rabi, G):
    rbar = rabi + G * p
    dp = (1j * delta - GAMMA) * p + 1j * rbar * (1.0 - 2.0 * nn)
    dn = -2.0 * GAMMA * nn - 2.0 * np.imag(rbar * np.conj(p))
    return dp, dn


def _uniform_jacobian(p, nn, delta, rabi, G):
    """Real 3x3 Jacobian in (Re p, Im p, n)."""
    def f(v):
        dp, dn = _uniform_rhs(v[0] + 1j * v[1], v[2], delta, rabi, G)
        return np.array([dp.real, dp.imag, dn])
    v0 = np.array([p.real, p.imag, nn])
    f0 = f(v0)
    J = np.zeros((3, 3))
    eps = 1e-8 * max(1.0, np.abs(v0).max())
    for i in range(3):
        v = v0.copy()
        v[i] += eps
        J[:, i] = (f(v) - f0) / eps
    return J


def uniform_steady_state(delta, rabi, omega_t, gamma_t):
    """All steady branches of the uniform two-level mode.

    Solves the cubic in y = |Rbar|^2 obtained from |R/Rbar|^2 =
    |1 + 2 C A/(A + 2y)|^2 with A = Delta^2 + gamma^2, keeps the real
    positive roots, reconstructs (rho_ge, rho_ee), and classifies the
    dynamical stability of each branch by the Jacobian of the uniform
    single-mode reduction.
    """
    if gamma_t <= -GAMMA:
        raise ValueError("gamma~ must exceed -gamma (total linewidth > 0)")
    G = omega_t + 1j * gamma_t
    A = delta**2 + GAMMA**2
    R2 = abs(rabi) ** 2
    c = G / (delta + 1j * GAMMA) * A          # = 2 C A
    cr, ci = c.real, c.imag
    poly = [4.0,
            4.0 * (A + cr) - 4.0 * R2,
            (A + cr) ** 2 + ci**2 - 4.0 * A * R2,
            -R2 * A**2]
    roots = np.roots(poly)
    sols = []
    for y in roots:
        # on a fold the double root comes out as a conjugate pair split by
        # ~sqrt(eps); keep one member of such a pair as the real root
        if y.imag < 0 or y.imag > 1e-6 * max(1.0, abs(y)) or y.real <= 0:
            continue
        y = float(y.real)
        # Newton polish on the cubic
        for _ in range(4):
            val = ((4 * y + poly[1]) * y + poly[2]) * y + poly[3]
            dv = (12 * y + 2 * poly[1]) * y + poly[2]
            if dv != 0:
                y -= val / dv
        u = A + 2 * y
        rbar = rabi / (1.0 + c / u)
        rho_ge = rbar * (-delta + 1j * GAMMA) / u
        rho_ee = y / u
        J = _uniform_jacobian(rho_ge, rho_ee, delta, rabi, G)
        stable = bool(np.max(np.linalg.eigvals(J).real) < 1e-9)
        sols.append(UniformSolution(rho_ge, rho_ee, rbar, 2 * rho_ee - 1.0,
                                    cooperativity(delta, omega_t, gamma_t),
                                    stable))
    sols.sort(key=lambda s: s.rho_ee)
    return sols


def uniform_evolve(delta, rabi, omega_t, gamma_t, t_grid, p0=0.0, n0=0.0):
    """Time-march the uniform single-mode reduction (for hysteresis sweeps)."""
    G = omega_t + 1j * gamma_t

    def rhs(t, y):
        dp, dn = _uniform_rhs(y[0], y[1].real, delta, rabi, G)
        return np.array([dp, dn])

    out = integrate_complex(rhs, np.array([p0, n0], dtype=complex), t_grid)
    return out[:, 0], out[:, 1].real


def bistable_at(delta, omega_t, gamma_t) -> bool:
    """Whether this detuning has an intensity fold window."""
    return bistable_intensity_window(delta, omega_t, gamma_t) is not None


def bistable_intensity_window(delta, omega_t, gamma_t):
    """Intensity fold window (I_lo, I_hi) in units of I_sat at this
    detuning, or None if single valued; I/I_sat = 2 |R|^2 / gamma^2.

    The window exists exactly when the drive-intensity map I(y) of the
    cubic is non-monotone, i.e. P(u) = u^3 - (|c|^2 - 2 Re(c) A) u
    + 2 A |c|^2 has two distinct roots above A (c = 2 C A, u = A + 2y)."""
    A = delta**2 + GAMMA**2
    c = (omega_t + 1j * gamma_t) / (delta + 1j * GAMMA) * A
    b2 = abs(c) ** 2
    P = [1.0, 0.0, -(b2 - 2 * c.real * A), 2 * A * b2]
    r = np.roots(P)
    real = np.sort(r[np.abs(r.imag) < 1e-9 * np.maximum(1.0, np.abs(r.real))].real)
    ups = real[real > A]
    # np.roots splits the double root of the cusp by ~sqrt(eps)
    if len(ups) < 2 or ups[-1] - ups[-2] <= 1e-6 * ups[-1]:
        return None

    def intensity(u):
        y = (u - A) / 2.0
        R2 = y * ((u + c.real) ** 2 + c.imag**2) / u**2
        return 2.0 * R2 / GAMMA**2

    lo, hi = intensity(ups[-1]), intensity(ups[-2])
    return (min(lo, hi), max(lo, hi))


@dataclass
class BistabilityScan:
    spacing: float
    omega_t: float
    gamma_t: float
    table: list          # rows (delta, I, n_roots, n_stable)
    bistable: bool


def bistability_scan(a, delta_grid, intensity_grid) -> BistabilityScan:
    """Root/stability table of the uniform mode over a (Delta, I) grid for
    one lattice spacing (I in units of I_sat, |R|^2 = I/2 in gamma units)."""
    from .infinite import lattice_sums
    omega_t, gamma_t = lattice_sums(a).uniform_mode(1)
    rows = []
    any_bi = False
    for d in delta_grid:
        for I in intensity_grid:
            rabi = np.sqrt(I / 2.0) * GAMMA
            sols = uniform_steady_state(d, rabi, omega_t, gamma_t)
            ns = sum(s.stable for s in sols)
            rows.append((d, I, len(sols), ns))
            if ns >= 2:
                any_bi = True
    return BistabilityScan(a, omega_t, gamma_t, rows, any_bi)


def has_bistable_window(a) -> bool:
    """Whether any of 1601 detunings in +-(6 |Omega~| + 6) gamma yields a
    bistable intensity window at spacing a, confirmed by a two-stable-branch
    root solve at a witness intensity."""
    from .infinite import lattice_sums
    omega_t, gamma_t = lattice_sums(a).uniform_mode(1)
    span = 6.0 * abs(omega_t) + 6.0
    for d in np.linspace(-span, span, 1601):
        window = bistable_intensity_window(d, omega_t, gamma_t)
        if window is None:
            continue
        I_mid = 0.5 * (window[0] + window[1])
        sols = uniform_steady_state(d, np.sqrt(I_mid / 2.0), omega_t, gamma_t)
        if sum(s.stable for s in sols) >= 2:
            return True
    return False


def max_bistable_spacing(a_grid=None) -> float:
    """Largest lattice spacing in a_grid with a bistable window; compare
    with the analytic bound k a < sqrt(pi/3) (a ~ 0.163 lambda)."""
    if a_grid is None:
        a_grid = np.linspace(0.10, 0.20, 21) * LAMBDA
    best = 0.0
    for a in sorted(a_grid):
        if has_bistable_window(a):
            best = a
    return best


def power_broadened_linewidth(intensity, gamma_t, inversion) -> float:
    """Leading collective power-broadened linewidth

        gamma_PB = gamma [1 + (I/I_sat)(1 - 2 b gamma~)]^(1/2),
        b = -Z/(gamma - Z gamma~).
    """
    if intensity < 0:
        raise ValueError("intensity must be >= 0")
    b = -inversion / (GAMMA - inversion * gamma_t)
    return GAMMA * np.sqrt(1.0 + intensity * (1.0 - 2.0 * b * gamma_t))
