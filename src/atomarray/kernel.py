"""Dipole radiation kernel and the pairwise couplings it induces.

Units: k = 1 (lengths in 1/k), gamma = 1 (single-atom HWHM linewidth).
Every hbar/eps0/dipole-moment factor collapses into XI = 6*pi*gamma/k^3,
the only combination that enters the couplings.

The position-space kernel G is the curly-bracket part of the classical
dipole field (the contact delta term is dropped: distinct atoms never
coincide).  For a unit dipole e at the origin and rho = k*r,

    G(r) e = (k^3/4pi) e^{i rho} [ (1 - rr)/rho + (3rr - 1)(1/rho^3 - i/rho^2) ] e.

Pairwise couplings: Omega + i*gamma_pair = XI * e_nu^* . G(r_j - r_l) . e_mu.
`coupling_matrix` assembles them for a whole array `Geometry`; every model
(coupled dipoles, optical Bloch equations, master equation) takes its
couplings from there.  The geometry picks the path: on a lattice
(`geometry.Lattice`) a coupling depends only on the offset of the two
sites' indices and the pair of layers, so the kernel is evaluated once per
offset, (2 nx - 1)(2 ny - 1) times per distinct layer separation, and the
matrix is gathered from that table (the block-Toeplitz structure of the
discrete-dipole FFT method, Goodman, Draine & Flatau, Opt. Lett. 16, 1198
(1991)); any other set of positions is evaluated pair by pair.

Far-field geometry: a direction n is `direction(theta, phi)`, theta the
polar angle from the array normal (+x) and phi the azimuth of its in-plane
(y, z) part from the y axis (`direction_angles` inverts it).  Light leaving
along n carries the transverse part `transverse(n, v)` = v - n (n.v) of a
dipole and the phase `farfield_phase(n, r_j)` = e^{-i k n.r_j} of its
position; every far-field observable is built from these three (on the
product quadrature grid from the phase factors of
`observables.grid_phases`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NearFieldRequestError, OnLightConeError, SingularSeparationError

K = 1.0
GAMMA = 1.0
XI = 6.0 * np.pi * GAMMA / K**3

# below this separation the 1/r^3 terms are considered unusable
SINGULAR_SEPARATION = 1e-9

# far-field radiation-zone threshold (k*r > this)
FAR_FIELD_KR = 100.0

# guard width around the light circle for momentum kernels
LIGHT_CONE_EPS = 1e-9


def direction(theta, phi) -> np.ndarray:
    """Unit vector(s) (..., 3) at polar angle theta from the array normal
    (+x) and azimuth phi of the in-plane part from the y axis; theta and
    phi have the same shape."""
    st = np.sin(theta)
    return np.stack([np.cos(theta), st * np.cos(phi), st * np.sin(phi)],
                    axis=-1)


def direction_angles(nhat):
    """(theta, phi) of unit vector(s) nhat (..., 3); inverts `direction`,
    with phi in (-pi, pi]."""
    return (np.arccos(np.clip(nhat[..., 0], -1.0, 1.0)),
            np.arctan2(nhat[..., 2], nhat[..., 1]))


def transverse(nhat, v):
    """v - n (n.v): the part of the vector(s) v (..., 3) transverse to the
    unit vector(s) nhat (..., 3); leading axes broadcast."""
    return v - nhat * np.einsum("...i,...i->...", nhat, v)[..., None]


def farfield_phase(nhat, positions):
    """Far-field phases e^{-i k n.r_j}: (M, N) for directions (M, 3) and
    positions (N, 3).  The argument is real (a complex one costs a complex
    product and a complex exp).  For direction sets that are not a product
    grid: `observables.farfield_amplitude`, the directional jump operators
    and the g2 detection operator (`quantum.farfield_coefficients`) and
    `far_field_kernel`; a product grid factors its phases
    (`observables.grid_phases`)."""
    return np.exp(-1j * (K * nhat @ np.asarray(positions, dtype=float).T))


def circular_basis(quantization_axis=(0.0, 0.0, 1.0)) -> np.ndarray:
    """Columns (e_-1, e_0, e_+1) of the circular polarization basis for the
    given quantization axis: e_pm = mp(x' pm i y')/sqrt(2), e_0 = z'."""
    z = np.asarray(quantization_axis, dtype=float)
    z = z / np.linalg.norm(z)
    # any unit vector not parallel to z seeds the transverse pair
    seed = np.array([1.0, 0.0, 0.0]) if abs(z[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    x = transverse(z, seed)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    em = (x - 1j * y) / np.sqrt(2.0)
    ep = -(x + 1j * y) / np.sqrt(2.0)
    return np.column_stack([em, z.astype(complex), ep])


@dataclass(frozen=True)
class PairCoupling:
    """Coherent shift Omega and dissipative rate gamma_pair of one dipole
    pair, both in units of gamma."""
    omega: float
    gamma_pair: float

    @property
    def complex_coupling(self) -> complex:
        return self.omega + 1j * self.gamma_pair


def green_tensor(rvec) -> np.ndarray:
    """Position-space kernel as a complex symmetric 3x3 matrix; G(r)=G(-r).

    Broadcasts over leading axes: rvec may be (..., 3).
    """
    rvec = np.asarray(rvec, dtype=float)
    r = np.sqrt(np.sum(rvec * rvec, axis=-1))
    if np.any(r < SINGULAR_SEPARATION):
        raise SingularSeparationError("kernel requested at |r| below 1e-9/k")
    rho = K * r
    rhat = rvec / r[..., None]
    rr = rhat[..., :, None] * rhat[..., None, :]
    eye = np.eye(3)
    phase = np.exp(1j * rho)[..., None, None]
    rho = rho[..., None, None]
    return (K**3 / (4 * np.pi)) * phase * (
        (eye - rr) / rho + (3 * rr - eye) * (1 / rho**3 - 1j / rho**2))


def pair_coupling(r_j, r_l, e_nu, e_mu) -> PairCoupling:
    """Omega + i*gamma_pair = XI * e_nu^* . G(r_j - r_l) . e_mu."""
    g = XI * kernel_matrix_element(np.asarray(r_j) - np.asarray(r_l), e_nu, e_mu)
    return PairCoupling(float(g.real), float(g.imag))


def coupling_matrix(geometry, basis) -> np.ndarray:
    """(M, M) complex coupling matrix of the N atoms of `geometry` whose
    dipole components are the columns of `basis` (3, m); M = N m and row
    j*m + c is component c of atom j.  Off-diagonal atom blocks are
    XI * basis^H G(r_j - r_l) basis, the diagonal is i*gamma.  Complex
    symmetric for a real basis; the real part holds the coherent shifts
    Omega, the imaginary part the dissipative rates (gamma on the
    diagonal).  A geometry with a lattice is assembled from its offset
    table (`_lattice_couplings`), any other pair by pair."""
    if geometry.lattice is not None:
        return _lattice_couplings(geometry.lattice, basis)
    pos = geometry.positions
    n, m = len(pos), basis.shape[1]
    C = np.zeros((n, m, n, m), dtype=complex)
    if n > 1:
        iu, il = np.triu_indices(n, 1)
        G = XI * green_tensor(pos[iu] - pos[il])       # (npairs, 3, 3)
        blocks = np.einsum("in,pij,jm->pnm", basis.conj(), G, basis)
        C[iu, :, il, :] = blocks
        C[il, :, iu, :] = blocks
    C = C.reshape(n * m, n * m)
    C[np.diag_indices(n * m)] = 1j * GAMMA
    return C


def _lattice_couplings(lattice, basis) -> np.ndarray:
    """`coupling_matrix` on a lattice.  The blocks between a site of layer
    p and one of layer q depend on x_p - x_q and the index offsets (dm, dn)
    alone; G(r) = G(-r) makes the table of -(x_p - x_q) the table of
    x_p - x_q read backwards, so there is one table per distinct |x_p - x_q|.
    Its zero offset (a site with itself) holds the diagonal block i*gamma."""
    nx, ny, a, m = lattice.nx, lattice.ny, lattice.spacing, basis.shape[1]
    x = np.asarray(lattice.layers)
    sep = x[:, None] - x[None, :]
    dist, which = np.unique(np.abs(sep), return_inverse=True)
    grid = np.zeros((len(dist), 2 * nx - 1, 2 * ny - 1, 3))
    grid[..., 0] = dist[:, None, None]
    grid[..., 1] = (np.arange(2 * nx - 1) - (nx - 1))[:, None] * a
    grid[..., 2] = (np.arange(2 * ny - 1) - (ny - 1)) * a
    grid = grid.reshape(len(dist), -1, 3)
    self_term = ~grid.any(axis=-1)
    table = np.empty(grid.shape[:2] + (m, m), dtype=complex)
    G = XI * green_tensor(grid[~self_term])
    table[~self_term] = np.einsum("in,pij,jm->pnm", basis.conj(), G, basis)
    table[self_term] = 1j * GAMMA * np.eye(m)
    # index of the offset of site j from site l in the flattened table
    im, jn = np.divmod(np.arange(nx * ny), ny)
    offset = ((im[:, None] - im + nx - 1) * (2 * ny - 1)
              + jn[:, None] - jn + ny - 1)
    n_layers, n_sites = len(x), nx * ny
    C = np.empty((n_layers, n_sites, m, n_layers, n_sites, m), dtype=complex)
    for p in range(n_layers):
        for q in range(n_layers):
            tab = table[which.reshape(sep.shape)[p, q]]
            if sep[p, q] < 0:
                tab = tab[::-1]
            for c in range(m):
                for c2 in range(m):
                    C[p, :, c, q, :, c2] = tab[:, c, c2][offset]
    return C.reshape(n_layers * n_sites * m, -1)


def kernel_matrix_element(rvec, e_nu, e_mu) -> complex:
    """e_nu^* . G(r) . e_mu for (possibly complex) unit vectors."""
    G = green_tensor(rvec)
    return complex(np.conj(np.asarray(e_nu)) @ G @ np.asarray(e_mu))


def far_field_kernel(rhat, r, r_j, dipole) -> np.ndarray:
    """Radiation-zone field of a unit-amplitude dipole at r_j observed at
    distance r along direction rhat:

        (k^2 / 4 pi r) e^{i(kr - k rhat.r_j)} (rhat x d) x rhat
    """
    if K * r <= FAR_FIELD_KR:
        raise NearFieldRequestError(
            f"far-field kernel needs k*r > {FAR_FIELD_KR}; got {K * r}")
    rhat = np.asarray(rhat, dtype=float)
    rhat = rhat / np.linalg.norm(rhat)
    phase = np.exp(1j * K * r) * farfield_phase(rhat, r_j)
    return (K**2 / (4 * np.pi * r)) * phase * transverse(
        rhat, np.asarray(dipole, dtype=complex))


def green_1d(x) -> complex:
    """1D kernel (i k / 2) e^{i k |x|}; |value| independent of x."""
    return 0.5j * K * np.exp(1j * K * np.abs(x))


def momentum_kernel_3d(p, eta: float = 0.0) -> np.ndarray:
    """3D momentum representation (k^2 I - p p^T) / (p^2 - k^2), the Fourier
    transform of the full position kernel (contact term included), times the
    Gaussian regulator exp(-p^2 eta^2 / 4).

    Only defined off the resonant shell |p| = k.
    """
    p = np.asarray(p, dtype=float)
    p2 = p @ p
    if abs(p2 - K**2) < LIGHT_CONE_EPS * K**2:
        raise OnLightConeError("3D momentum kernel evaluated on |p| = k")
    if eta < 0:
        raise ValueError("regulator width must be >= 0")
    reg = np.exp(-p2 * eta**2 / 4.0)
    return reg * (K**2 * np.eye(3) - np.outer(p, p)) / (p2 - K**2)


def momentum_kernel_2d(q_par, x: float = 0.0) -> np.ndarray:
    """2D (in-plane) Fourier transform of the kernel at out-of-plane offset x:

        (i/2) (k^2 delta - q_nu q_mu) / k_perp * e^{i k_perp |x|},
        q = (sgn(x) k_perp, q_par),  k_perp = sqrt(k^2 - |q_par|^2).

    Outside the light circle k_perp is +i sqrt(|q_par|^2 - k^2) so the
    field decays away from the plane.
    Components ordered (x, y, z) with q_par = (q_y, q_z).
    """
    qy, qz = np.asarray(q_par, dtype=float)
    q2 = qy**2 + qz**2
    if abs(q2 - K**2) < (LIGHT_CONE_EPS * K) ** 2:
        raise OnLightConeError("2D momentum kernel on the light circle |q| = k")
    if q2 < K**2:
        k_perp = np.sqrt(K**2 - q2)
    else:
        k_perp = 1j * np.sqrt(q2 - K**2)
    sgn = 1.0 if x >= 0 else -1.0
    q = np.array([sgn * k_perp, qy, qz], dtype=complex)
    mat = (K**2 * np.eye(3) - np.outer(q, q)).astype(complex)
    return 0.5j * mat / k_perp * np.exp(1j * k_perp * abs(x))
