"""Effective 1D electrodynamics for stacked, uniformly excited planar
arrays: coupled-layer dynamics, transfer matrices, system reflection and
transmission (one Redheffer-star composition of per-layer scattering
matrices, `system_rt`), and the consistency checks behind the reduction.

Each layer is a superatom with collective linewidth gamma_1d (= gamma +
gamma~ of its uniform mode, 3 pi gamma/(k a)^2 for an infinite square
lattice) and resonance shifted by the collective shift; layers couple
through the lossless 1D kernel e^{i k |x|}:

    d/dt rho_j = (i Delta_1d - gamma_1d) rho_j + i R(x_j)
                 - gamma_1d sum_{l != j} e^{i k |x_j - x_l|} rho_l.

The validity window is d >~ 0.5 lambda (for a <~ 0.7 lambda) and
d << sqrt(array area).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import exp1

from .errors import PerfectReflectionError
from .geometry import LAMBDA
from .integrate import affine_evolve, solve_checked
from .kernel import GAMMA, K


@dataclass(frozen=True)
class LayerStack:
    """Layer coordinates x_j (strictly increasing, units 1/k) with per-layer
    collective linewidth gamma_1d, collective shift, and an optional
    Purcell-type loss factor multiplying the collective coupling (mean-field
    treatment of defects and position fluctuations)."""
    x: np.ndarray
    gamma_1d: np.ndarray
    shift: np.ndarray
    loss_factor: np.ndarray = None

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        if np.any(np.diff(x) <= 0):
            raise ValueError("layer coordinates must be strictly increasing")
        object.__setattr__(self, "x", x)
        n = len(x)
        for name in ("gamma_1d", "shift"):
            v = np.broadcast_to(np.asarray(getattr(self, name), dtype=float),
                                (n,)).copy()
            object.__setattr__(self, name, v)
        if np.any(self.gamma_1d <= 0):
            raise ValueError("gamma_1d must be positive")
        lf = self.loss_factor
        lf = np.ones(n) if lf is None else np.broadcast_to(
            np.asarray(lf, dtype=float), (n,)).copy()
        object.__setattr__(self, "loss_factor", lf)
        if n > 1:
            dmin = np.min(np.diff(x))
            if dmin < 0.5 * LAMBDA:
                warnings.warn(
                    f"layer spacing {dmin / LAMBDA:.2f} lambda below the "
                    "validity window d >~ 0.5 lambda of the 1D reduction",
                    stacklevel=3)

    @property
    def nlayers(self) -> int:
        return len(self.x)


def _coupling_matrix(stack: LayerStack, delta):
    g = stack.gamma_1d * stack.loss_factor     # emitted-field strength
    A = -g * np.exp(1j * K * np.abs(stack.x[:, None] - stack.x))
    np.fill_diagonal(A, 1j * (delta + stack.shift) - stack.gamma_1d)
    return A


def steady_state_1d(stack: LayerStack, delta) -> np.ndarray:
    """Per-layer amplitudes of the stack driven by the unit plane wave
    e^{ikx}; raises ResonantSingularityError at a cavity resonance."""
    drive = 1j * np.exp(1j * K * stack.x)
    return solve_checked(_coupling_matrix(stack, delta), -drive)


def evolve_1d(stack: LayerStack, delta, t_grid):
    """Exact evolution of the coupled-layer amplitudes from rest under the
    unit plane wave."""
    drive = 1j * np.exp(1j * K * stack.x)
    return affine_evolve(_coupling_matrix(stack, delta), drive,
                         np.zeros(stack.nlayers), t_grid)


def stack_rt_from_amplitudes(stack: LayerStack, rho):
    """r/t of the whole stack from its per-layer amplitudes under the unit
    plane wave (the amplitudes are linear in the drive, so r/t do not
    depend on its strength): each layer radiates
    i gamma_1d e^{ik|x - x_j|} rho_j."""
    g = stack.gamma_1d * stack.loss_factor
    t = 1.0 + 1j * np.sum(g * rho * np.exp(-1j * K * stack.x))
    r = 1j * np.sum(g * rho * np.exp(+1j * K * stack.x))
    return complex(t), complex(r)


def system_rt_direct(stack: LayerStack, delta):
    """r/t via the steady state of the coupled-layer equations."""
    rho = steady_state_1d(stack, delta)
    return stack_rt_from_amplitudes(stack, rho)


# ---------------------------------------------------------------------------
# transfer and scattering matrices

def layer_transfer(r: complex) -> np.ndarray:
    """Transfer matrix of one array with reflection amplitude r:

        T = 1/(r+1) [[2r+1, r], [-r, 1]],   det T = 1.
    """
    if abs(1.0 + r) < 1e-8:
        raise PerfectReflectionError(
            "layer transfer matrix singular at r = -1; compose scattering "
            "matrices (redheffer_star) instead")
    return np.array([[2 * r + 1, r], [-r, 1]], dtype=complex) / (r + 1)


def propagation(d: float) -> np.ndarray:
    """Free-propagation phases diag(e^{ikd}, e^{-ikd}) over distance d."""
    return np.diag([np.exp(1j * K * d), np.exp(-1j * K * d)])


def layer_reflection(delta, gamma_1d, shift=0.0, loss_factor=1.0):
    """Single-layer (superatom) reflection amplitude; the loss factor scales
    the emitted field.  Broadcasts over layers."""
    return -1j * (gamma_1d * loss_factor) / (delta + shift + 1j * gamma_1d)


def system_rt(stack: LayerStack, delta):
    """r/t of the stack by Redheffer-star composition of the per-layer
    scattering matrices (each layer followed by free propagation to the
    next), mapped from the entry/exit local frames to the global frame of
    the coupled-layer route (wave coefficients of e^{+-ikx} about the
    origin).  Regular at per-layer perfect reflection, where the transfer
    matrix is singular; raises PerfectReflectionError only when the
    composition itself is resonant."""
    S = None
    r_layers = layer_reflection(delta, stack.gamma_1d, stack.shift,
                                stack.loss_factor)
    for j, r in enumerate(r_layers):
        d_next = (stack.x[j + 1] - stack.x[j]
                  if j + 1 < stack.nlayers else 0.0)
        sj = layer_scattering(r, d_next=d_next)
        S = sj if S is None else redheffer_star(S, sj)
    span = stack.x[-1] - stack.x[0]
    t = S[0, 0] * np.exp(-1j * K * span)
    r = S[1, 0] * np.exp(2j * K * stack.x[0])
    return complex(t), complex(r)


def redheffer_star(s_a, s_b) -> np.ndarray:
    """Compose two scattering matrices [[t, r'], [r, t']]; stable route at
    perfect reflection where the transfer matrix is singular."""
    ta, rpa, ra, tpa = s_a[0, 0], s_a[0, 1], s_a[1, 0], s_a[1, 1]
    tb, rpb, rb, tpb = s_b[0, 0], s_b[0, 1], s_b[1, 0], s_b[1, 1]
    den = 1.0 - rpa * rb
    if abs(den) < 1e-14:
        raise PerfectReflectionError("scattering composition resonant")
    return np.array([[tb * ta / den, rpb + tb * rpa * tpb / den],
                     [ra + tpa * rb * ta / den, tpa * tpb / den]],
                    dtype=complex)


def layer_scattering(r: complex, d_next: float = 0.0) -> np.ndarray:
    """Scattering matrix [[t_fw, r_bw], [r_fw, t_bw]] of one symmetric layer
    followed by free propagation over d_next."""
    t = 1.0 + r
    ph = np.exp(1j * K * d_next)
    return np.array([[t * ph, r * ph * ph], [r, t * ph]], dtype=complex)


def resonance_shift_estimate(d, gamma_1d) -> float:
    """Literature estimate of the peak-transmission resonance shift of a
    regular stack with layer spacing d: delta ~ cot(2 k d) gamma_1d / 2.

    See `band_edge_shift` for the exact transfer-matrix band edge that the
    transmission peaks of this module accumulate at; the two expressions
    differ (the estimate diverges at d = m lambda/2 where the exact edge
    detuning vanishes).
    """
    return 0.5 * gamma_1d / np.tan(2 * K * d)


def band_edge_shift(d, gamma_1d) -> float:
    """Exact pass-band edge of the infinite regular stack.

    The Bloch condition of the per-period transfer matrix T_layer Phi(d)
    gives cos(q d) = cos(k d) + (gamma_1d/delta) sin(k d); the band edge
    cos(q d) = 1 nearest the per-layer resonance sits at

        delta_edge = gamma_1d * cot(k d / 2).

    Finite stacks pile their unit-transmission peaks against this edge.
    """
    return gamma_1d / np.tan(K * d / 2.0)


# ---------------------------------------------------------------------------
# spatial-integration checks of the 1D reduction

def f_integral_quadrature(n: int, x: float) -> complex:
    """F_n = int_|x|^inf e^{i k R} / R^n dR by oscillatory quadrature
    (QAWF for the semi-infinite Fourier transform)."""
    ax = abs(x)
    if n == 0:
        raise ValueError("F_0 diverges without a convergence factor")

    def f(R):
        return R ** (-n)

    # the n = 1 tail converges only conditionally; QAWF saturates around
    # 1e-11 absolute there, while faster-decaying integrands go deeper
    epsabs = 1e-11 if n == 1 else 1e-14
    re, _ = quad(f, ax, np.inf, weight="cos", wvar=K, limit=800,
                 epsabs=epsabs)
    im, _ = quad(f, ax, np.inf, weight="sin", wvar=K, limit=800,
                 epsabs=epsabs)
    return re + 1j * im


def f_integral_recursion(n_max: int, x: float) -> list:
    """F_0 .. F_n_max from the closed forms F_0 = i e^{ik|x|}/k,
    F_1 = E_1(-ik|x|) and the upward recursion
    F_{n+1} = (i k F_n + e^{ik|x|}/|x|^n)/n."""
    ax = abs(x)
    out = [1j * np.exp(1j * K * ax) / K]
    if n_max >= 1:
        out.append(exp1(-1j * K * ax))
    for n in range(1, n_max):
        out.append((1j * K * out[n] + np.exp(1j * K * ax) / ax**n) / n)
    return out


def planar_field_integrand(rho, x):
    """phi-integrated kernel of a y-polarized uniform dipole sheet (the
    y-component of int dphi G(R) e_y) at in-plane radius rho."""
    R = np.sqrt(x * x + rho * rho)
    kr = K * R
    return (K**2 / (4 * R) * np.exp(1j * kr)
            * ((rho**2 + 2 * x**2) / R**2
               + (1.0 / kr**2 - 1j / kr) * (3 * rho**2 / R**2 - 2.0)))


def disk_integrated_field(x, radius):
    """Integrate the uniform sheet's scattered field over a disk of the
    given radius (unit dipole density): int_0^rho0 rho drho f(rho) with the
    substitution rho drho = R dR on 400,000 trapezoid points, and a smooth
    cosine taper beyond R1/2 standing in for the convergence factor.  The
    exact infinite-sheet value is (i k / 2) e^{ik|x|}."""
    R0 = abs(x)
    R1 = np.sqrt(x * x + radius * radius)
    R = np.linspace(R0, R1, 400_000)
    rho = np.sqrt(np.maximum(R * R - x * x, 0.0))
    vals = planar_field_integrand(rho, x) * R
    w = np.ones_like(R)
    t0 = 0.5 * R1
    sel = R > t0
    w[sel] = 0.5 * (1.0 + np.cos(np.pi * (R[sel] - t0) / (R1 - t0)))
    return np.trapezoid(vals * w, R)


def appendix_checks(x=LAMBDA, disk_radius=1000 * LAMBDA):
    """Consistency report of the 1D reduction:

    (i)   the disk-integrated sheet field against (ik/2) e^{ik|x|},
    (ii)  the recursion-built F_n against oscillatory quadrature,
    (iii) gamma_1d = 3 pi gamma/(k a)^2 against the independent
          lattice-sum value gamma + gamma~(q=0), at a = 0.6 lambda.

    Returns a dict of relative deviations.
    """
    from .infinite import lattice_sums, uniform_linewidth_analytic

    exact = 0.5j * K * np.exp(1j * K * abs(x))
    disk = disk_integrated_field(x, disk_radius)
    field_dev = abs(disk - exact) / abs(exact)

    recur = f_integral_recursion(4, x)
    quad_dev = max(
        abs(recur[n] - f_integral_quadrature(n, x)) / abs(recur[n])
        for n in (2, 3, 4))

    a = 0.6 * LAMBDA
    g_closed = uniform_linewidth_analytic(a)
    g_sum = GAMMA + lattice_sums(a).uniform_mode(1)[1]
    width_dev = abs(g_closed - g_sum) / g_closed

    return {
        "field_rel_dev": float(field_dev),
        "recursion_rel_dev": float(quad_dev),
        "linewidth_rel_dev": float(width_dev),
        "f0": recur[0],
    }
