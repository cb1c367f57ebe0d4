"""Scattered-light observables: fields, intensity decomposition, photon
rates, transmission/reflection, energy balance, and disorder ensembles.

Fields are expressed in Rabi units (XI G maps a dipole amplitude to the
field it contributes at another atom), so field / incident-amplitude
ratios are dimensionless.

Amplitude and correlation tables use the dipole basis of the transition
(`TransitionSpec.basis`): a single amplitude per atom for two-level atoms
(dipole along the fixed orientation), or the three Cartesian components
for the J=0 -> J'=1 transition.

Far-field observables on the product quadrature grid (Gauss-Legendre
theta x uniform phi, `hemisphere_grid`, `sphere_grid`) read its phases
from one helper, `grid_phases`, whose factors cover the grid with a
quarter of the exponentials of the full table: the far-field map
(`farfield_map`) and the rate quadrature (`farfield_rate_quadrature`),
which share the map's batched product.  The transmission and reflection
detector (`farfield_detector`) needs no direction grid: it integrates
over phi in closed form (Bessel functions J0, J1, J2) and over theta by a
Gauss-Legendre rule fitted to the beam and the array.
`farfield_amplitude` projects on any set of directions, one phase each.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import lli
from .errors import (DegenerateConfigurationError, ResonantSingularityError,
                     SingularSeparationError)
from .geometry import Geometry, sample_positions
from .kernel import (GAMMA, K, XI, coupling_matrix, farfield_phase,
                     green_tensor, transverse)
from .lli import TransitionSpec

def dipole_table(system_or_transition, b) -> np.ndarray:
    """(N, 3) Cartesian dipole vectors from a component-amplitude vector."""
    basis = getattr(system_or_transition, "transition",
                    system_or_transition).basis
    return np.asarray(b, dtype=complex).reshape(-1, basis.shape[1]) @ basis.T


def coherent_field(dipoles, geometry: Geometry, point) -> np.ndarray:
    """Coherent scattered field (Rabi units) at one point:
    XI * sum_j G(r - r_j) p_j."""
    pos = geometry.positions
    point = np.asarray(point, dtype=float)
    sep = np.linalg.norm(point - pos, axis=1)
    if np.any(sep < 1e-9):
        raise SingularSeparationError("field point coincides with an atom")
    G = green_tensor(point - pos)
    return XI * np.einsum("jab,jb->a", G, np.asarray(dipoles, dtype=complex))


@lru_cache(maxsize=None)
def _gauss_legendre(n_theta):
    """Read-only Gauss-Legendre nodes and weights on (-1, 1), once per
    order (`leggauss` costs about 1 ms at order 48)."""
    x, w = np.polynomial.legendre.leggauss(n_theta)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def hemisphere_grid(n_theta, n_phi, forward=True):
    """Product quadrature directions/weights covering the x>0 (forward) or
    x<0 (backward) hemisphere: Gauss-Legendre in cos(theta) (row index
    a = 0..n_theta-1) times the uniform phi_b = (b + 1/2) 2 pi / n_phi,
    flattened as a * n_phi + b."""
    x, w = _gauss_legendre(n_theta)
    ct = 0.5 * (x + 1.0)              # cos(angle to the +-x axis) in (0, 1)
    wct = 0.5 * w
    phi = (np.arange(n_phi) + 0.5) * 2 * np.pi / n_phi
    wphi = 2 * np.pi / n_phi
    CT, PH = np.meshgrid(ct, phi, indexing="ij")
    W = np.outer(wct, np.full(n_phi, wphi)).ravel()
    st = np.sqrt(1.0 - CT**2)
    sgn = 1.0 if forward else -1.0
    nhat = np.column_stack([sgn * CT.ravel(),
                            (st * np.cos(PH)).ravel(),
                            (st * np.sin(PH)).ravel()])
    return nhat, W


def sphere_grid(n_theta, n_phi):
    """Full-sphere product quadrature."""
    nf, wf = hemisphere_grid(n_theta, n_phi, forward=True)
    nb, wb = hemisphere_grid(n_theta, n_phi, forward=False)
    return np.vstack([nf, nb]), np.concatenate([wf, wb])


def farfield_amplitude(dipoles, geometry: Geometry, nhat) -> np.ndarray:
    """(M, 3) far-zone amplitude F with E_s(r n) ~ (e^{ikr}/r) F(n):
    F = XI (k^2/4pi) sum_j e^{-i k n.r_j} (n x p_j) x n, in any directions
    nhat (M, 3)."""
    nhat = np.atleast_2d(nhat)
    p = np.asarray(dipoles, dtype=complex)
    vec = farfield_phase(nhat, geometry.positions) @ p         # (M, 3)
    return XI * K**2 / (4 * np.pi) * transverse(nhat, vec)


def grid_phases(positions, n_theta, n_phi):
    """Factors (X, E) of the phases e^{-i k n.r_j} on the product grid of
    `hemisphere_grid`: X = e^{-i k cos(theta_a) x_j}, shape (n_theta, N),
    and E = e^{-i k sin(theta_a) (cos(phi_b) y_j + sin(phi_b) z_j)} on the
    first half of the phi grid only, shape (n_theta, N, n_phi/2).  The
    phase of forward direction a * n_phi + b is X[a, j] E[a, j, b]; the
    backward hemisphere (n_x = -cos theta) takes conj(X), and
    phi_b + pi = phi_{b + n_phi/2} takes conj(E).  So n_phi must be even
    (ValueError otherwise), and the grid costs a quarter of the
    exponentials of its full table."""
    if n_phi % 2:
        raise ValueError(f"n_phi must be even, got {n_phi}")
    half = n_phi // 2
    # the forward directions of the first phi half, as `hemisphere_grid`
    ct = 0.5 * (_gauss_legendre(n_theta)[0] + 1.0)
    CT, PH = np.meshgrid(ct, (np.arange(half) + 0.5) * 2 * np.pi / n_phi,
                         indexing="ij")
    st = np.sqrt(1.0 - CT**2)
    kn = K * np.stack([CT, st * np.cos(PH), st * np.sin(PH)], axis=2)
    pos = np.asarray(positions, dtype=float)
    X = np.exp(-1j * np.outer(kn[:, 0, 0], pos[:, 0]))
    E = -1j * (pos[:, 1:] @ kn[..., 1:].transpose(0, 2, 1))
    np.exp(E, out=E)
    return X, E


def _grid_sums(tables, positions, n_theta, n_phi) -> np.ndarray:
    """sum_j e^{-i k n.r_j} p_j on the directions of `sphere_grid(n_theta,
    n_phi)` for a stack of tables p (K, N, c), from the `grid_phases`
    factors: per theta row, one product of E^T (n_phi/2, N) with the
    (N, 4 K c) tables weighted by X and conj(X) and conjugated, which gives
    both hemispheres and both halves of the phi grid.  Shape
    (n_theta, 2 n_phi, K, c): row a holds the forward, then the backward
    phi grid of theta_a."""
    n, c = tables.shape[1:]
    p = np.moveaxis(tables, 0, 1).reshape(n, -1)       # (N, K c)
    q = p.shape[1]
    X, E = grid_phases(positions, n_theta, n_phi)
    fwd = X[:, :, None] * p                             # (n_theta, N, K c)
    bwd = X.conj()[:, :, None] * p
    R = E.transpose(0, 2, 1) @ np.concatenate(
        [fwd, fwd.conj(), bwd, bwd.conj()], axis=2)     # (n_theta, half, 4q)
    vec = np.concatenate([R[..., :q], R[..., q:2 * q].conj(),
                          R[..., 2 * q:3 * q], R[..., 3 * q:].conj()], axis=1)
    return vec.reshape(n_theta, 2 * n_phi, -1, c)


def farfield_map(dipoles, geometry: Geometry, n_theta, n_phi) -> np.ndarray:
    """`farfield_amplitude` on the directions of `sphere_grid(n_theta,
    n_phi)`, in its row order, from the batched product of `_grid_sums`."""
    p = np.asarray(dipoles, dtype=complex)
    vec = _grid_sums(p[None], geometry.positions, n_theta, n_phi)
    nhat, _ = sphere_grid(n_theta, n_phi)
    # (n_theta, [fwd phi, bwd phi], 3) -> (hemisphere, n_theta, n_phi, 3)
    vec = vec.reshape(n_theta, 2, n_phi, 3).transpose(1, 0, 2, 3)
    return XI * K**2 / (4 * np.pi) * transverse(nhat, vec.reshape(-1, 3))


@dataclass(frozen=True)
class Detector:
    """(N, 3) weights of one geometry: t - 1 and r are linear in the
    dipoles, t = 1 + sum(forward * p) and r = sum(backward * p).  `error`
    is the change of the weights between two quadrature orders, summed
    over atoms and components: it bounds the change of t and of r for
    dipole components of modulus at most 1."""
    forward: np.ndarray
    backward: np.ndarray
    error: float

    def project(self, dipoles):
        p = np.asarray(dipoles, dtype=complex)
        return (complex(1.0 + np.sum(self.forward * p)),
                complex(np.sum(self.backward * p)))


def _theta_rule(theta_max, order):
    """Gauss-Legendre nodes on [0, theta_max], with weights times
    sin(theta), the polar factor of the solid angle."""
    x, w = _gauss_legendre(order)
    theta = 0.5 * theta_max * (x + 1.0)
    return theta, 0.5 * theta_max * w * np.sin(theta)


def _detector_order(positions, theta_max):
    """Order of the theta rule of `farfield_detector`: half the phase range
    of its integrand over [0, theta_max], k rho_max sin(theta_max) of the
    Bessel functions plus k |x|_max (1 - cos(theta_max)) of layers off
    x = 0, and 36 nodes for the beam profile and the smooth factors.  A
    rule of n nodes is exact to degree 2n - 1, and the mapped frequency of
    either phase is at most a quarter of its range (theta <= 2 sin(theta)
    on [0, pi/2])."""
    pos = np.asarray(positions, dtype=float)
    phase = K * (np.hypot(pos[:, 1], pos[:, 2]).max() * np.sin(theta_max)
                 + np.abs(pos[:, 0]).max() * (1.0 - np.cos(theta_max)))
    return int(np.ceil(phase / 2.0)) + 36


def _beam_weights(positions, beam, theta_max, theta_edge, order):
    """Forward and backward weights of `farfield_detector` from the theta
    rule of one order: overlaps on [0, theta_max], norm on [0, theta_edge].

    At polar angle theta (s = sin, c = cos) in the hemisphere n_x = +-c
    (sigma = +-1), the phi integral of e^{-i k n.r_j} times the conjugate
    mode g(theta) (e - n (n.e)), e = conj(polarization), is g(theta) pi
    e^{-+i k c x_j} times

        (2 e_x s^2 J0,
         e_y (2 - s^2) J0 + s^2 J2 (e_y cos 2a + e_z sin 2a),
         e_z (2 - s^2) J0 + s^2 J2 (e_y sin 2a - e_z cos 2a))
        + 2i sigma s c J1 (e_y cos a + e_z sin a, e_x cos a, e_x sin a)

    with J_m = J_m(k s rho_j) and a = alpha_j.  The theta sums are
    real-weighted sums of e^{-i k c x_j} J_m, and the backward hemisphere
    takes the conjugate phase, so its sums are the conjugates of the
    forward ones."""
    # imported here: `quantum` imports this module and needs no Bessel
    # functions
    from scipy.special import j0, j1
    pos = np.asarray(positions, dtype=float)
    theta, w = _theta_rule(theta_max, order)
    s, c = np.sin(theta), np.cos(theta)
    w = w * beam.angular_profile(s)
    rho = np.hypot(pos[:, 1], pos[:, 2])
    u = K * np.outer(s, rho)                            # (order, N)
    X = np.exp(-1j * (K * np.outer(c, pos[:, 0])))
    J = np.empty((3,) + u.shape)
    J[0], J[1] = j0(u), j1(u)
    # J2 = 2 J1 / u - J0, with J1(u) / u = 1/2 at u = 0
    J[2] = 2.0 * np.divide(J[1], u, out=np.full_like(u, 0.5),
                           where=u > 0) - J[0]
    # one batched product with two weight rows per J_m: a vector-matrix
    # product of complex arrays (zgemv) takes ~8 ms at 2 OpenBLAS threads
    zero = np.zeros_like(w)
    (S0, T0), (S1, _), (S2, _) = np.stack(
        [[w * (2.0 - s**2), w * s**2], [w * s * c, zero], [w * s**2, zero]]
    ) @ (X * J)
    # the azimuth alpha_j of each atom; J1 and J2 vanish where rho = 0
    safe = np.where(rho > 0, rho, 1.0)
    ca, sa = np.where(rho > 0, pos[:, 1] / safe, 1.0), pos[:, 2] / safe
    c2a, s2a = ca**2 - sa**2, 2.0 * sa * ca
    ex, ey, ez = np.asarray(beam.polarization, dtype=complex).conj()

    def weights(S0, T0, S1, S2):
        return np.pi * np.stack(
            [2.0 * ex * T0 + 2j * (ey * ca + ez * sa) * S1,
             ey * S0 + (ey * c2a + ez * s2a) * S2 + 2j * ex * ca * S1,
             ez * S0 + (ey * s2a - ez * c2a) * S2 + 2j * ex * sa * S1],
            axis=1)
    fwd = weights(S0, T0, S1, S2)
    bwd = weights(S0.conj(), T0.conj(), -S1.conj(), S2.conj())

    # <f_in|f_in>: the phi integral of |e|^2 - |n.e|^2
    theta, w = _theta_rule(theta_edge, order)
    s2 = np.sin(theta) ** 2
    norm = np.pi * np.sum(w * beam.angular_profile(np.sin(theta)) ** 2 * (
        2.0 * s2 * abs(ex) ** 2 + (2.0 - s2) * (abs(ey) ** 2 + abs(ez) ** 2)))
    # Fraunhofer far-zone amplitude of the beam: (-i k w0^2 / 2 r) e^{ikr} f_in
    a_in = -1j * K * beam.waist**2 / 2.0 * beam.amplitude
    scale = XI * K**2 / (4 * np.pi) / (a_in * norm)
    return scale * fwd, scale * bwd


def farfield_detector(geometry: Geometry, beam,
                      collection_half_angle=np.pi / 2) -> Detector:
    """Detector for the amplitude transmission and reflection of a beam.

    Projects the scattered far field on the incident (forward) and the
    mirrored (backward) beam modes over the collection cone:

        t = 1 + <f_in | f_s>_fwd / <f_in | f_in>,
        r =     <f_mirror | f_s>_bwd / <f_in | f_in>,

    with the beam's own far-zone amplitude (-i k w0^2 / 2 r) e^{ikr} f_in.
    The overlap normalization always covers the full forward hemisphere,
    so a finite collection cone reports only the collected fraction.

    The phi integrals are done in closed form (the integrals I00, I01 and
    I02 of Richards & Wolf, Proc. R. Soc. A 253, 358 (1959); Novotny &
    Hecht, Principles of Nano-Optics, ch. 3).  With (rho_j, alpha_j) the
    polar coordinates of atom j in the y-z plane and u = k sin(theta)
    rho_j, e^{-i u cos(phi - alpha)} integrates over phi to 2 pi J0(u),
    against cos(phi) and sin(phi) to -2 pi i J1(u) (cos, sin)(alpha), and
    against cos^2, sin^2 and sin cos to pi (J0 -+ J2 cos(2 alpha)) and
    -pi J2 sin(2 alpha).  A Gauss-Legendre rule in theta does the rest,
    over [0, theta_max]: theta_max is the collection half angle or the
    angle where the beam profile e^{-(k w0 sin(theta))^2 / 4} falls below
    rounding (k w0 sin(theta) = 12, capped at pi/2), whichever is smaller,
    so the cone edge is an endpoint of the rule.  Its order follows from
    the array and the beam (`_detector_order`); `Detector.error` is the
    change of the weights from a rule 6 nodes smaller.
    """
    if not collection_half_angle > 0:
        raise ValueError("collection_half_angle must be positive, got "
                         f"{collection_half_angle}")
    pos = geometry.positions
    theta_edge = np.arcsin(min(1.0, 12.0 / (K * beam.waist)))
    theta_max = min(collection_half_angle, theta_edge)
    order = _detector_order(pos, theta_max)
    fwd, bwd = _beam_weights(pos, beam, theta_max, theta_edge, order)
    fwd2, bwd2 = _beam_weights(pos, beam, theta_max, theta_edge, order - 6)
    error = max(np.abs(fwd - fwd2).sum(), np.abs(bwd - bwd2).sum())
    return Detector(fwd, bwd, float(error))


def transmission_reflection(dipoles, geometry: Geometry, beam,
                            collection_half_angle=np.pi / 2):
    """Amplitude t and r of a beam through the array (one
    `farfield_detector` projection)."""
    return farfield_detector(
        geometry, beam,
        collection_half_angle=collection_half_angle).project(dipoles)


def spectrum(system, detector: Detector, deltas):
    """Amplitude t and r of an assembled coupled-dipole system at each
    detuning: one shifted solve and one detector projection per point."""
    rt = [detector.project(dipole_table(system, lli.steady_state(system, d)))
          for d in np.asarray(deltas, dtype=float)]
    t, r = np.array(rt).T
    return t, r


def total_scattering_rate(corr, geometry, transition) -> float:
    """Rate formula n_s = 2 gamma sum_{j,c} C_{(jc),(jc)} +
    2 sum_{j != l} gamma^{(jl)}_{cc'} C_{(jc),(lc')} for a Hermitian table
    C = <s+ s->."""
    B = coupling_matrix(geometry, transition.basis).imag
    C = np.asarray(corr, dtype=complex)
    return float(2.0 * np.real(np.sum(B * C)))


def coherent_scattering_rate(means, geometry, transition) -> float:
    """Rate formula with factorized inputs <s+><s->."""
    v = np.asarray(means, dtype=complex)
    return total_scattering_rate(np.outer(np.conj(v), v), geometry, transition)


def saq_incoherent_rate(populations, means) -> float:
    """Single-atom-quantum incoherent rate
    2 gamma sum_j (<sigma_ee>_j - |<sigma^+>_j|^2)."""
    pops = np.asarray(populations, dtype=float)
    m = np.asarray(means)
    return float(2.0 * GAMMA * np.sum(pops - np.abs(m) ** 2))


def scattering_rates(corr, means, geometry, transition) -> dict:
    """All three rates from a correlation table and the one-body means."""
    return {
        "n_s": total_scattering_rate(corr, geometry, transition),
        "n_c": coherent_scattering_rate(means, geometry, transition),
        "n_inc_saq": saq_incoherent_rate(np.real(np.diag(corr)), means),
    }


def farfield_rate_quadrature(corr, geometry: Geometry, transition: TransitionSpec,
                             n_theta, n_phi) -> float:
    """Independent oracle for the total rate: sphere quadrature of the
    far-field intensity per photon energy,

      dn/dOmega = (3 gamma/4 pi) sum [e_c^*.P(n).e_c'] e^{i k n.(r_l - r_j)}
                  C_{(jc),(lc')},   P(n) = 1 - n n^T,

    on `sphere_grid(n_theta, n_phi)` (n_phi even).  The Hermitian C is
    sum_k lambda_k a_k a_k^H (one `eigh`), and the basis columns e_c are
    orthonormal, so dn/dOmega is sum_k lambda_k (|s_k|^2 - |s_k.conj(n.e)|^2)
    with s_kc = sum_j e^{-i k n.r_j} a_k[jc]: the batched product of
    `farfield_map` (`_grid_sums`) gives every s_k at once.
    """
    basis = transition.basis
    m = basis.shape[1]
    lam, a = np.linalg.eigh(np.asarray(corr, dtype=complex))
    s = _grid_sums(a.T.reshape(len(lam), -1, m), geometry.positions,
                   n_theta, n_phi).reshape(n_theta, 2, n_phi, -1, m)
    # the directions and weights in that order; the weights depend on theta
    nhat, w = sphere_grid(n_theta, n_phi)
    ne = nhat.reshape(2, n_theta, n_phi, 3).transpose(1, 0, 2, 3) @ basis
    sn = np.einsum("abckm,abcm->abck", s, ne.conj())
    intensity = (np.einsum("abckm,abckm->ak", s.conj(), s).real
                 - np.einsum("abck,abck->ak", sn.conj(), sn).real)
    return float(3.0 * GAMMA / (4.0 * np.pi)
                 * (w[:n_theta * n_phi:n_phi] @ intensity @ lam))


def intensity_decomposition(point, geometry, drive, amplitudes, transition,
                            corr=None):
    """Intensity split at a point, in |incident Rabi|^2 units: incident,
    incident/coherent interference, coherent, and incoherent.

    `amplitudes` is the component-basis one-body table <sigma^->; the
    incoherent term needs the two-body table `corr` (quantum solutions) and
    is identically zero without it (semiclassical atoms at fixed positions).
    """
    point = np.asarray(point, dtype=float)
    dip = dipole_table(transition, amplitudes)
    Ein = drive.field(point[None, :])[0]
    Ecoh = coherent_field(dip, geometry, point)
    incident = float(np.sum(np.abs(Ein) ** 2))
    interference = float(2.0 * np.real(Ein.conj() @ Ecoh))
    coherent = float(np.sum(np.abs(Ecoh) ** 2))
    incoherent = 0.0
    if corr is not None:
        pos = geometry.positions
        basis = transition.basis
        b = np.asarray(amplitudes, dtype=complex).reshape(-1)
        C = np.asarray(corr, dtype=complex)
        # A[(jc), a] = field component a at the point from unit amplitude (jc)
        A = np.swapaxes(XI * green_tensor(point - pos) @ basis, 1, 2)
        A = A.reshape(-1, 3)
        dC = C - np.outer(np.conj(b), b)
        incoherent = float(np.real(np.einsum("ia,ja,ij->", A.conj(), A, dC)))
    return {"incident": incident, "interference": interference,
            "coherent": coherent, "incoherent": incoherent,
            "total": incident + interference + coherent + incoherent}


def ensemble_incoherent_intensity(field_samples) -> np.ndarray:
    """Disorder estimator <|E|^2> - |<E>|^2 from per-realization coherent
    fields, shape (n_realizations, n_points, 3)."""
    F = np.asarray(field_samples)
    if len(F) < 2:
        raise ValueError("need at least 2 realizations")
    mean_sq = np.mean(np.sum(np.abs(F) ** 2, axis=-1), axis=0)
    sq_mean = np.sum(np.abs(np.mean(F, axis=0)) ** 2, axis=-1)
    return mean_sq - sq_mean


@dataclass
class FluxReport:
    reflectance: float
    transmittance: float
    incoherent_flux: float

    @property
    def residual(self) -> float:
        return 1.0 - self.reflectance - self.transmittance - self.incoherent_flux


def rt_beyond_lli(delta, omega_t, gamma_t, rabi) -> list:
    """FluxReports (one per steady branch) of the uniform-mode model beyond
    the low-intensity limit:

        R = (gamma+gamma~)^2 |rho_ge/R|^2,  T = |1 + i(gamma+gamma~) rho_ge/R|^2,
        F_inc = 2 gamma (gamma+gamma~) (rho_ee/|R|^2 - |rho_ge/R|^2);

    energy closure R + T + F_inc = 1 holds on every exact branch.
    """
    from .semiclassical import uniform_steady_state
    sols = uniform_steady_state(delta, rabi, omega_t, gamma_t)
    g1 = GAMMA + gamma_t
    out = []
    for s in sols:
        w = s.rho_ge / rabi
        r = 1j * g1 * w
        R = abs(r) ** 2
        T = abs(1.0 + r) ** 2
        F = 2.0 * GAMMA * g1 * (s.rho_ee / abs(rabi) ** 2 - abs(w) ** 2)
        out.append(FluxReport(float(R), float(T), float(F)))
    return out


def many_body_signature(qme_corr, qme_means, sc_populations, sc_means,
                        geometry, transition) -> dict:
    """Quantum many-body diagnostic: incoherent photon rate from the full
    quantum correlations versus the semiclassical dynamics amended by the
    single-atom-quantum term.  Their difference signals light-induced
    many-body quantum correlations (it vanishes when only one atom
    scatters or when two-body correlations factorize)."""
    n_inc_quantum = (total_scattering_rate(qme_corr, geometry, transition)
                     - coherent_scattering_rate(qme_means, geometry,
                                                transition))
    n_inc_saq = saq_incoherent_rate(sc_populations, sc_means)
    return {
        "n_inc_quantum": n_inc_quantum,
        "n_inc_semiclassical_saq": n_inc_saq,
        "many_body_signature": n_inc_quantum - n_inc_saq,
    }


@dataclass
class EnsembleObservables:
    n_realizations: int
    mean_t: complex
    mean_r: complex
    stderr_t: float
    stderr_r: float
    mean_field: np.ndarray = None
    mean_intensity: np.ndarray = None
    incoherent_intensity: np.ndarray = None
    failures: int = 0
    # the largest `Detector.error` over the realizations' detectors
    detector_error: float = 0.0


def disorder_average(geometry: Geometry, transition: TransitionSpec, beam,
                     n_realizations: int, rng_streams, deltas,
                     field_points=None, max_failure_fraction=0.01) -> list:
    """LLI disorder ensemble over a detuning grid: one EnsembleObservables
    per detuning in `deltas`, with mean r/t and (optionally) mean fields;
    the incoherent intensity is the ensemble variance at each field point.

    Realization i draws from rng_streams[i], so results are independent of
    scheduling; it is sampled, assembled and given its detector once.  A
    failed sampling drops it at every detuning, a singular solve at that
    detuning only; more than max(1, max_failure_fraction * n) drops at one
    detuning re-raise.
    """
    if n_realizations < 2:
        raise ValueError("need n >= 2 realizations")
    deltas = np.asarray(deltas, dtype=float)
    t_acc, r_acc, f_acc = ([[] for _ in deltas] for _ in range(3))
    failures = np.zeros(len(deltas), dtype=int)
    limit = max(1, max_failure_fraction * n_realizations)
    detector_error = 0.0
    for i in range(n_realizations):
        rng = np.random.default_rng(rng_streams[i])
        try:
            geo = sample_positions(geometry, rng)
        except DegenerateConfigurationError:
            failures += 1
            if failures.max() > limit:
                raise
            continue
        sys_i = lli.assemble(geo, transition, beam)
        detector = farfield_detector(geo, beam)
        detector_error = max(detector_error, detector.error)
        for k, d in enumerate(deltas):
            try:
                b = lli.steady_state(sys_i, d)
            except ResonantSingularityError:
                failures[k] += 1
                if failures[k] > limit:
                    raise
                continue
            dip = dipole_table(sys_i, b)
            t, r = detector.project(dip)
            t_acc[k].append(t)
            r_acc[k].append(r)
            if field_points is not None:
                f_acc[k].append(np.array([coherent_field(dip, geo, pt)
                                          for pt in field_points]))
    reps = []
    for t_k, r_k, f_k, n_failed in zip(t_acc, r_acc, f_acc, failures):
        t_arr, r_arr = np.array(t_k), np.array(r_k)
        n = len(t_arr)
        rep = EnsembleObservables(
            n, complex(t_arr.mean()), complex(r_arr.mean()),
            float(np.std(t_arr) / np.sqrt(n)),
            float(np.std(r_arr) / np.sqrt(n)), failures=int(n_failed),
            detector_error=detector_error)
        if field_points is not None:
            F = np.array(f_k)
            rep.mean_field = F.mean(axis=0)
            rep.mean_intensity = np.mean(np.sum(np.abs(F) ** 2, axis=-1),
                                         axis=0)
            rep.incoherent_intensity = ensemble_incoherent_intensity(F)
        reps.append(rep)
    return reps


def lorentzian_fit(deltas, values):
    """Least-squares fit values ~ A w^2/((d-d0)^2 + w^2) + c; returns
    (A, d0, w, c) with w the fitted HWHM."""
    from scipy.optimize import curve_fit
    deltas = np.asarray(deltas, dtype=float)
    values = np.asarray(values, dtype=float)

    def model(d, A, d0, w, c):
        return A * w**2 / ((d - d0) ** 2 + w**2) + c

    def jacobian(d, A, d0, w, c):
        q = (d - d0) ** 2 + w**2
        f = w**2 / q
        return np.stack([f, 2 * A * f * (d - d0) / q,
                         2 * A * w * (d - d0) ** 2 / q**2, np.ones_like(d)],
                        axis=1)

    i0 = int(np.argmax(values))
    p0 = [values.max() - values.min(), deltas[i0],
          0.25 * (deltas[-1] - deltas[0]), values.min()]
    popt, _ = curve_fit(model, deltas, values, p0=p0, jac=jacobian,
                        maxfev=20000)
    # Levenberg-Marquardt stops where the change of the squared residual
    # is lost to rounding, ~1e-10 from the minimum; Gauss-Newton steps
    # drive the gradient itself to rounding, while they contract
    last = 1e-6 * np.linalg.norm(popt)
    for _ in range(8):
        step = np.linalg.lstsq(jacobian(deltas, *popt),
                               values - model(deltas, *popt), rcond=None)[0]
        size = np.linalg.norm(step)
        if not size < last:
            break
        popt, last = popt + step, size
    popt[2] = abs(popt[2])
    return popt
