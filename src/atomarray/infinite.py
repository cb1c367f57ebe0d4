"""Infinite-lattice physics: regularized lattice sums of the radiation
kernel at arbitrary Bloch wavevector, the single- and two-mode superatom
models, arbitrary-incidence response, Rydberg-EIT reflection, and the
magnetic-mirror amplitudes.

The collective coupling matrix of a square planar lattice (spacing a,
atoms in the yz plane) at in-plane Bloch vector q is

    Omega~(q) + i gamma~(q) = XI * S(q),
    S(q) = (1/a^2) sum_g Gpar*(q + g)|_{x=0}  -  Gstar(0),

the Poisson-resummed form of sum_{l != 0} G(r_l) e^{i q.r_l}.  Both terms
carry a Gaussian momentum regulator of 1/e width eta; observables are
extrapolated to eta -> 0 with a Richardson ladder (the sum is only
conditionally convergent without the regulator).  The in-plane kernel is
the p_x integral of the regulated 3D kernel, which evaluates to erfc
closed forms.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import erfc, erfi

from .errors import BraggResonanceError
from .geometry import LAMBDA
from .integrate import affine_evolve
from .kernel import GAMMA, K, XI, direction, transverse
from .stacked1d import layer_reflection

DEFAULT_ETA_LADDER = (0.05, 0.04, 0.03)   # in units of the lattice spacing

# Gaussian suppression demanded of the largest retained reciprocal shell
SHELL_SUPPRESSION = 1e-12

BRAGG_GUARD = 1e-9


def _axial_integral(beta, eta):
    """J = int dp_x/2pi exp(-p_x^2 eta^2/4) / (p_x^2 + beta^2)
       = (1/2 beta) e^{beta^2 eta^2/4} erfc(beta eta / 2),  Re beta >= 0."""
    return 0.5 / beta * np.exp(beta**2 * eta**2 / 4.0) * erfc(beta * eta / 2.0)


def _self_term(eta):
    """Regularized kernel at the origin, G*(0) = delta_numu * (this scalar):
    smeared contact term plus the resonant shell contribution."""
    return (-1.0 / (3.0 * np.pi**1.5 * eta**3)
            + K**2 / (3.0 * np.pi**1.5 * eta)
            + 1j * K**3 / (6.0 * np.pi) * np.exp(-K**2 * eta**2 / 4.0)
            * (1.0 + 1j * erfi(K * eta / 2.0)))


@dataclass
class LatticeSums:
    """Collective shift/linewidth matrices of one Bloch mode.

    coupling = Omega~ + i gamma~ as a 3x3 complex matrix in Cartesian
    components (x out of plane), extrapolated to eta -> 0; `raw` maps each
    ladder eta to its un-extrapolated matrix.
    """
    spacing: float
    q: np.ndarray
    coupling: np.ndarray
    raw: dict

    @property
    def omega(self) -> np.ndarray:
        return self.coupling.real

    @property
    def gamma(self) -> np.ndarray:
        return self.coupling.imag

    def uniform_mode(self, component: int = 1):
        """(Omega~, gamma~) of the given Cartesian dipole component."""
        c = self.coupling[component, component]
        return c.real, c.imag

    def collective_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of Omega~ + i(gamma + gamma~): the x (out-of-plane)
        value and the two in-plane ones, sorted by linewidth."""
        M = self.coupling + 1j * GAMMA * np.eye(3)
        out_of_plane = M[0, 0]
        inplane = np.linalg.eigvals(M[1:, 1:])
        ev = np.concatenate([[out_of_plane], inplane])
        return ev[np.argsort(ev.imag)]


def _sum_matrix(a, q, eta, nmax):
    g = 2 * np.pi / a
    n = np.arange(-nmax, nmax + 1)
    gy, gz = np.meshgrid(n * g, n * g, indexing="ij")
    py = q[0] + gy.ravel()
    pz = q[1] + gz.ravel()
    p2 = py**2 + pz**2
    kp2 = K**2 - p2
    if np.any(np.abs(kp2) < (BRAGG_GUARD * K) ** 2):
        bad = int(np.argmin(np.abs(kp2)))
        raise BraggResonanceError((py[bad] - q[0], pz[bad] - q[1]))
    beta = np.where(p2 >= K**2, np.sqrt(np.abs(kp2)) + 0j,
                    -1j * np.sqrt(np.abs(kp2)))
    reg = np.exp(-p2 * eta**2 / 4.0)
    J = _axial_integral(beta, eta)
    S = np.zeros((3, 3), dtype=complex)
    S[1, 1] = np.sum((K**2 - py**2) * reg * J)
    S[2, 2] = np.sum((K**2 - pz**2) * reg * J)
    S[1, 2] = S[2, 1] = -np.sum(py * pz * reg * J)
    # x x component: numerator k^2 - p_x^2 leaves a Gaussian-counterterm
    S[0, 0] = np.sum(reg * (p2 * J - 1.0 / (np.sqrt(np.pi) * eta)))
    S /= a**2
    S -= _self_term(eta) * np.eye(3)
    return S


def _richardson(etas, values):
    """Extrapolate f(eta) = f0 + c1 eta^2 + c2 eta^4 + ... to eta = 0."""
    A = np.vander(np.asarray(etas, dtype=float) ** 2, len(etas), increasing=True)
    return np.linalg.solve(A, np.asarray(values))[0]


def lattice_sums(a: float, q=(0.0, 0.0), eta_ladder=None) -> LatticeSums:
    """Collective coupling matrix Omega~(q) + i gamma~(q) for a square
    lattice of spacing a at in-plane Bloch vector q = (q_y, q_z)."""
    if a <= 0:
        raise ValueError("lattice spacing must be positive")
    q = np.asarray(q, dtype=float)
    if eta_ladder is None:
        eta_ladder = tuple(f * a for f in DEFAULT_ETA_LADDER)
    raw = {}
    for eta in eta_ladder:
        if eta <= 0:
            raise ValueError("regulator widths must be positive")
        # suppress the largest shell below SHELL_SUPPRESSION
        nmax = int(np.ceil(np.sqrt(-np.log(SHELL_SUPPRESSION))
                           * a / (np.pi * eta))) + 2
        raw[eta] = XI * _sum_matrix(a, q, eta, nmax)
    etas = list(raw)
    coupling = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            coupling[i, j] = _richardson(etas, [raw[e][i, j] for e in etas])
    return LatticeSums(a, q, coupling, raw)


def uniform_linewidth_analytic(a: float) -> float:
    """Closed-form collective linewidth gamma + gamma~ = 3 pi gamma/(k a)^2
    of the uniform in-plane mode, valid for a < lambda."""
    if not 0 < a < LAMBDA:
        raise ValueError("closed form requires 0 < a < lambda "
                         "(higher Bragg orders open at a >= lambda)")
    return 3 * np.pi * GAMMA / (K * a) ** 2


def single_mode_rt(delta, omega_t, gamma_t):
    """Uniform-mode (superatom) reflection and transmission amplitudes, the
    single-layer reflection with gamma_1d = gamma + gamma~ and shift Omega~:

        r = -i(gamma+gamma~) / (Delta + Omega~ + i(gamma+gamma~)),  t = 1 + r.
    """
    r = layer_reflection(delta, GAMMA + gamma_t, omega_t)
    return r, 1.0 + r


def zero_shift_spacings():
    """Lattice constants a < lambda where the uniform-mode collective shift
    Omega~(q=0) vanishes (near a/lambda ~ 0.2 and 0.8), bracketed on 80
    spacings from 0.05 to 0.999 lambda."""
    grid = np.linspace(0.05 * LAMBDA, 0.999 * LAMBDA, 80)

    def shift(a):
        return lattice_sums(a).uniform_mode(1)[0]

    vals = np.array([shift(a) for a in grid])
    roots = []
    for i in range(len(grid) - 1):
        if np.sign(vals[i]) != np.sign(vals[i + 1]):
            roots.append(brentq(shift, grid[i], grid[i + 1], xtol=1e-6))
    return roots


@dataclass(frozen=True)
class TwoModeParams:
    """Two-mode superatom: collective (shift, linewidth) of the perpendicular
    (P) and in-plane (I) uniform modes plus the level-shift parameters."""
    delta_p: float
    ups_p: float
    delta_i: float
    ups_i: float
    dbar: float = 0.0
    dtilde: float = 0.0
    rabi: complex = 1.0

    def __post_init__(self):
        if self.ups_p < 0 or self.ups_i < 0:
            raise ValueError("collective linewidths must be >= 0")

    def z_p(self, delta0):
        return delta0 + self.delta_p - self.dtilde + 1j * self.ups_p

    def z_i(self, delta0):
        return delta0 + self.delta_i - self.dtilde + 1j * self.ups_i


def two_mode_steady_state(params: TwoModeParams, delta0):
    """Steady amplitudes (perpendicular, in-plane) of the two-mode model."""
    zp, zi = params.z_p(delta0), params.z_i(delta0)
    rho_y = params.rabi * zp / (params.dbar**2 - zp * zi)
    rho_x = -1j * params.dbar * rho_y / zp
    return rho_x, rho_y


def two_mode_rt(params: TwoModeParams, delta0):
    """Reflection amplitude r = i ups_I Z_P / (dbar^2 - Z_P Z_I), t = 1+r."""
    zp, zi = params.z_p(delta0), params.z_i(delta0)
    r = 1j * params.ups_i * zp / (params.dbar**2 - zp * zi)
    return r, 1.0 + r


def two_mode_perfect_reflection_detunings(params: TwoModeParams):
    """The two detunings with |r| = 1 in the ups_P -> 0 limit, given by
    Delta0 + delta_P - dtilde = delta_d +- sqrt(dbar^2 + delta_d^2) with
    delta_d = (delta_P - delta_I)/2."""
    dd = (params.delta_p - params.delta_i) / 2.0
    root = np.sqrt(params.dbar**2 + dd**2)
    base = -params.delta_p + params.dtilde
    return base + dd - root, base + dd + root


def two_mode_transparency_detuning(params: TwoModeParams):
    """Detuning of complete transmission (r = 0 when ups_P = 0): the
    perpendicular-mode resonance Delta0 = dtilde - delta_P."""
    return params.dtilde - params.delta_p


def two_mode_finite_size_reflection(params: TwoModeParams):
    """|r| at the perpendicular resonance for small nonzero ups_P and
    delta_P ~ delta_I:  r ~ -ups_I ups_P / (dbar^2 + ups_I ups_P)."""
    return -params.ups_i * params.ups_p / (params.dbar**2
                                           + params.ups_i * params.ups_p)


def two_mode_exceptional_point(params: TwoModeParams) -> bool:
    """True when |dbar| = |ups_I - ups_P|/2 to 1e-9 (eigenvector
    coalescence of the two-mode non-Hermitian matrix, exact for
    delta_P = delta_I)."""
    return abs(abs(params.dbar) - abs(params.ups_i - params.ups_p) / 2.0) < 1e-9


def two_mode_evolve(params: TwoModeParams, delta0, t_grid):
    """Exact evolution of the two coupled mode amplitudes from rest,
    constant drive."""
    A = np.array([[1j * params.z_p(delta0), -params.dbar],
                  [params.dbar, 1j * params.z_i(delta0)]])
    return affine_evolve(A, [0.0, 1j * params.rabi], (0.0, 0.0), t_grid)


def propagating_orders(a, q):
    """Reciprocal orders g with |q + g| < k (propagating Bragg channels)."""
    g = 2 * np.pi / a
    nmax = int(np.floor((K + np.linalg.norm(q)) / g)) + 1
    out = []
    for ny in range(-nmax, nmax + 1):
        for nz in range(-nmax, nmax + 1):
            p = np.asarray(q) + g * np.array([ny, nz])
            if np.linalg.norm(p) < K:
                out.append((ny, nz))
    return out


@dataclass
class NonNormalResponse:
    """Oblique-incidence response of an infinite lattice."""
    r_vector: np.ndarray          # backward scattered amplitude (Rabi units)
    t_vector: np.ndarray          # total forward amplitude
    reflectance: float            # |r|^2 summed over polarization
    transmittance: float
    collective_eigenvalues: np.ndarray   # eig of Omega~ + i(gamma+gamma~)
    resonance_eigenvalues: np.ndarray    # resonance positions: -shift + i*ups
    multi_order: bool


def in_plane_polarization(khat):
    """Transverse unit polarization lying in the lattice (yz) plane."""
    e = np.cross(khat, [1.0, 0.0, 0.0])
    n = np.linalg.norm(e)
    if n < 1e-12:
        return np.array([0.0, 1.0, 0.0])
    return e / n


def nonnormal_response(a, theta, phi, delta,
                       polarization=None) -> NonNormalResponse:
    """Response of the infinite lattice to a unit plane wave at oblique
    incidence (R and T are ratios to the incident intensity, so the drive
    strength drops out).

    Solves the self-consistent dipole amplitude with the q = k_par Bloch
    coupling matrix (lattice sums on their default eta ladder) and projects
    the scattered field on the forward and mirrored backward zeroth-order
    directions.  Raises a multi-order flag when higher Bragg channels
    propagate (then R+T<1 as computed here).
    """
    khat = direction(theta, phi)
    q = K * khat[1:]
    if polarization is None:
        polarization = in_plane_polarization(khat)
    pol = np.asarray(polarization, dtype=complex)
    if abs(pol @ khat) > 1e-10:
        raise ValueError("polarization must be transverse to the incidence")

    sums = lattice_sums(a, q)
    Mc = sums.coupling
    # LLI polarizability alpha/XI = -1/(Delta + i gamma)
    alpha_over_xi = -1.0 / (delta + 1j * GAMMA)
    rho = alpha_over_xi * np.linalg.solve(
        np.eye(3) - alpha_over_xi * Mc, pol)

    orders = propagating_orders(a, q)
    multi = sorted(orders) != [(0, 0)]

    cos_theta = khat[0]
    pref = 1j * K * XI / (2 * a**2 * cos_theta)
    khat_b = khat.copy()
    khat_b[0] = -khat_b[0]              # mirrored k_perp for the x<0 side
    r_vec = pref * transverse(khat_b, rho)
    t_vec = pol + pref * transverse(khat, rho)
    R = float(np.sum(np.abs(r_vec) ** 2))
    T = float(np.sum(np.abs(t_vec) ** 2))
    ev = sums.collective_eigenvalues()
    return NonNormalResponse(r_vec, t_vec, R, T, ev,
                             -ev.real + 1j * ev.imag, multi)


def rydberg_eit_rt(delta, delta_r, U, rabi_c, ups_i, delta_i, gamma_r):
    """Reflection amplitude of the Rydberg-EIT controlled array:

        r = i ups_I Z_r / (|R_c|^2 - Z_r Z_I),
        Z_I = Delta + delta_I + i ups_I,  Z_r = Delta_r + U + i gamma_r.
    """
    z_i = delta + delta_i + 1j * ups_i
    z_r = delta_r + U + 1j * gamma_r
    return 1j * ups_i * z_r / (abs(rabi_c) ** 2 - z_r * z_i)


def magnetic_mirror_rt(delta_m, gamma_m):
    """Uniform magnetic-dipole mode: r = i gamma_M/(Delta_M + i gamma_M),
    t = Delta_M/(Delta_M + i gamma_M); resonance reflection is +1."""
    if gamma_m <= 0:
        raise ValueError("magnetic-mode linewidth must be positive")
    den = delta_m + 1j * gamma_m
    return 1j * gamma_m / den, delta_m / den


def band_structure(a, q_list):
    """Collective eigenvalues over a list of Bloch vectors (lattice sums on
    their default eta ladder); Bragg-singular points come back as None."""
    rows = []
    for q in q_list:
        try:
            ev = lattice_sums(a, q).collective_eigenvalues()
        except BraggResonanceError:
            ev = None
        rows.append((np.asarray(q), ev))
    return rows
