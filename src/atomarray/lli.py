"""Low-light-intensity coupled-dipole model.

Amplitudes b obey  db/dt = i (H + dH) b + f  with H = kernel.coupling_matrix
in the dipole basis of the transition (`TransitionSpec.basis`): diagonal
i*gamma, off-diagonal XI * e.G(r_j - r_l).e' between dipole components.
Two level structures are supported:

* two-level: one real dipole orientation per atom, H is N x N;
* J=0 -> J'=1: three dipole components per atom.  Components are stored in
  the CARTESIAN basis (x, y, z), component c of atom j at index 3j + c,
  which keeps H exactly complex symmetric (in the circular basis it is
  not).  Zeeman shifts of the m = nu sublevels, entering as detunings
  Delta - nu*delta_nu, make the per-atom level block of dH
  (`TransitionSpec.level_block`) a 3x3 Hermitian matrix in this basis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ResonantSingularityError
from .geometry import Geometry
from .kernel import circular_basis, coupling_matrix

COND_LIMIT = 1e12


@dataclass(frozen=True)
class TransitionSpec:
    """Level structure of the optical transition.

    levels=2: a two-level transition with fixed real dipole `orientation`.
    levels=4 (J=0 -> J'=1): isotropic transition; optional Zeeman shift
    parameters (delta_m, delta_0, delta_p), uniform over atoms, producing
    level shifts mu * delta_mu.

    The transition fixes the dipole basis every model works in (`basis`),
    the per-atom level block (`level_block`) and the drive projection
    (`rabi`).
    """
    levels: int = 2
    orientation: tuple = (0.0, 1.0, 0.0)
    zeeman: tuple = (0.0, 0.0, 0.0)
    detuning: float = 0.0

    def __post_init__(self):
        if self.levels not in (2, 4):
            raise ValueError("levels must be 2 (two-level) or 4 (J=0->J'=1)")

    @property
    def components(self) -> int:
        return 1 if self.levels == 2 else 3

    def unit_orientation(self) -> np.ndarray:
        e = np.asarray(self.orientation, dtype=float)
        return e / np.linalg.norm(e)

    @property
    def basis(self) -> np.ndarray:
        """(3, m) columns spanning the dipole components in use: the unit
        orientation (two-level) or Cartesian x, y, z (J=0 -> J'=1)."""
        if self.levels == 2:
            return self.unit_orientation()[:, None].astype(complex)
        return np.eye(3, dtype=complex)

    @property
    def level_block(self) -> np.ndarray:
        """(m, m) Hermitian per-atom level block: detuning minus the Zeeman
        shifts, delta*1 - zeeman_block."""
        if self.levels == 2:
            return np.array([[self.detuning]], dtype=complex)
        return self.detuning * np.eye(3) - zeeman_block(self.zeeman)

    def rabi(self, field) -> np.ndarray:
        """(N, m) Rabi frequencies of the dipole components from (N, 3)
        Cartesian drive fields: R = E . basis^*."""
        return field @ self.basis.conj()


@dataclass
class CouplingSystem:
    """H (complex symmetric), diagonal-in-atom detuning matrix dH, drive
    vector f, plus the geometry/transition they came from."""
    H: np.ndarray
    dH: np.ndarray
    f: np.ndarray
    geometry: Geometry
    transition: TransitionSpec

    @property
    def size(self) -> int:
        return self.H.shape[0]


def zeeman_block(zeeman) -> np.ndarray:
    """Cartesian 3x3 level-shift operator U diag(mu*delta_mu) U^dag for
    quantization along z."""
    dm, d0, dp = zeeman
    U = circular_basis()
    return U @ np.diag([-dm, 0.0 * d0, dp]).astype(complex) @ U.conj().T


def block_diagonal(n: int, block) -> np.ndarray:
    """(n m, n m) matrix with the (m, m) block repeated on the atom
    diagonal."""
    m = block.shape[0]
    out = np.zeros((n, m, n, m), dtype=complex)
    j = np.arange(n)
    out[j, :, j, :] = block
    return out.reshape(n * m, n * m)


def assemble(geometry: Geometry, transition: TransitionSpec,
             drive=None) -> CouplingSystem:
    """Build H, dH and f for the given geometry, transition and drive."""
    pos = geometry.positions
    H = coupling_matrix(pos, transition.basis)
    dH = block_diagonal(len(pos), transition.level_block)
    f = np.zeros(len(H), dtype=complex)
    if drive is not None:
        f = 1j * transition.rabi(drive.field(pos)).reshape(-1)
    return CouplingSystem(H, dH, f, geometry, transition)


def with_detuning(system: CouplingSystem, delta: float) -> np.ndarray:
    """H + dH with the common laser detuning set to `delta` (the zeeman
    part of dH is kept)."""
    base = system.dH - system.transition.detuning * np.eye(system.size)
    return system.H + base + delta * np.eye(system.size)


def steady_state(system: CouplingSystem, delta: float = None) -> np.ndarray:
    """Solve 0 = i(H + dH) b + f, i.e. b = i (H + dH)^{-1} f."""
    A = system.H + system.dH if delta is None else with_detuning(system, delta)
    lu, piv = scipy.linalg.lu_factor(A)
    anorm = np.linalg.norm(A, 1)
    rcond = scipy.linalg.lapack.zgecon(lu, anorm)[0]
    if rcond < 1.0 / COND_LIMIT:
        lam = np.linalg.eigvals(A)
        nearest = lam[np.argmin(np.abs(lam))]
        raise ResonantSingularityError(
            f"steady state ill-conditioned (rcond={rcond:.2e}); "
            f"nearest eigenvalue of H+dH is {nearest:.3e}",
            nearest_eigenvalue=nearest)
    return scipy.linalg.lu_solve((lu, piv), 1j * system.f)


def evolve(system: CouplingSystem, b0, t_grid, delta: float = None,
           rtol: float = 1e-10, atol: float = 1e-12) -> np.ndarray:
    """Integrate db/dt = i(H+dH)b + f on t_grid (returns (nt, M))."""
    from .integrate import integrate_complex

    A = 1j * (system.H + system.dH if delta is None else with_detuning(system, delta))
    f = np.asarray(system.f, dtype=complex)

    def rhs(t, b):
        return A @ b + f

    return integrate_complex(rhs, np.asarray(b0, dtype=complex), t_grid,
                             rtol=rtol, atol=atol)


@dataclass
class EigenSystem:
    """Eigenvalues lambda_j = delta_j + i*ups_j of H and right eigenvectors
    normalized to v^T v = 1 where possible (complex symmetric H makes the
    left eigenvectors the plain transposes)."""
    eigenvalues: np.ndarray
    vectors: np.ndarray          # columns v_j
    anomalous: np.ndarray        # modes where v^T v ~ 0 (renormalized by max)

    @property
    def shifts(self) -> np.ndarray:
        return self.eigenvalues.real

    @property
    def linewidths(self) -> np.ndarray:
        return self.eigenvalues.imag


def eigenmodes(system: CouplingSystem) -> EigenSystem:
    """Full eigendecomposition of the coupling matrix H."""
    evals, vecs = scipy.linalg.eig(system.H)
    norms = np.einsum("ij,ij->j", vecs, vecs)
    anomalous = np.abs(norms) < 1e-12
    scale = np.where(anomalous, np.max(np.abs(vecs), axis=0).astype(complex),
                     np.sqrt(norms + 0j))
    vecs = vecs / scale
    order = np.argsort(evals.imag)
    return EigenSystem(evals[order], vecs[:, order], anomalous[order])


def mode_occupation(b, eigensystem: EigenSystem) -> np.ndarray:
    """Occupation measure L_j = |v_j^T b|^2 / sum_l |v_l^T b|^2."""
    overlaps = np.abs(eigensystem.vectors.T @ np.asarray(b)) ** 2
    total = overlaps.sum()
    if total <= 0:
        raise ValueError("zero state has no mode occupation")
    return overlaps / total


def match_mode(eigensystem: EigenSystem, target) -> int:
    """Index of the eigenmode with the largest occupation measure for the
    target amplitude vector (used to select named uniform modes)."""
    return int(np.argmax(mode_occupation(np.asarray(target, dtype=complex),
                                         eigensystem)))


def uniform_target(n_atoms: int, component: int) -> np.ndarray:
    """Uniform phase-coherent target vector of three-component atoms,
    polarized along one Cartesian component (0=x out of plane, 1=y, 2=z)."""
    t = np.zeros(n_atoms * 3)
    t[component::3] = 1.0
    return t


def eigen_table(system: CouplingSystem):
    """Rows (index, shift, linewidth, occupation) for CSV export; the
    occupation column refers to the steady state."""
    es = eigenmodes(system)
    b = steady_state(system)
    occ = mode_occupation(b, es) if np.linalg.norm(b) > 0 else np.zeros(system.size)
    return [(j, es.shifts[j], es.linewidths[j], occ[j]) for j in range(system.size)]
