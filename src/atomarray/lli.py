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

`eigenmodes` diagonalises H in blocks: the coordinate mirrors of a
symmetric array that act on every atom's dipole components as +-1 and
leave H invariant are diagonal in a real orthogonal orbit-sum basis
(`mirror_basis`), which splits a centred square J=0 -> J'=1 lattice into
eight blocks.  An array without such a mirror is one block.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ResonantSingularityError
from .geometry import Geometry, coordinate_mirrors
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
    blocks: tuple                # sizes of the blocks H was solved in

    @property
    def shifts(self) -> np.ndarray:
        return self.eigenvalues.real

    @property
    def linewidths(self) -> np.ndarray:
        return self.eigenvalues.imag


MIRROR_TOL = 1e-12
DEGENERATE_TOL = 1e-9


@dataclass(frozen=True)
class MirrorBasis:
    """Real orthogonal basis Q of the amplitudes adapted to the coordinate
    mirrors that leave H invariant.  Column a of Q is the orbit sum
    sum_g coefs[g, a] e_rows[g, a] over the |G| elements of the mirror
    group (a site that several elements reach is summed as often), with
    entries +-1/sqrt(|orbit|) and one parity under every kept mirror;
    columns offsets[s]:offsets[s+1] share theirs, so Q^T H Q is block
    diagonal with blocks of `sizes`."""
    mirrors: tuple               # kept mirror axes (0, 1, 2 = x, y, z)
    rows: np.ndarray             # (|G|, M) amplitude indices
    coefs: np.ndarray            # (|G|, M) their coefficients
    offsets: np.ndarray

    @property
    def sizes(self) -> list:
        return np.diff(self.offsets).tolist()


def _project(X: np.ndarray, rows, coefs) -> np.ndarray:
    """Q^T X for the columns (rows, coefs) of Q."""
    out = coefs[0][:, None] * X[rows[0]]
    for r, c in zip(rows[1:], coefs[1:]):
        out += c[:, None] * X[r]
    return out


def _expand(v: np.ndarray, rows, coefs, size: int) -> np.ndarray:
    """Q v for the columns (rows, coefs) of Q; one group element's rows
    are distinct, so each += touches a site once."""
    out = np.zeros((size, v.shape[1]), dtype=complex)
    for r, c in zip(rows, coefs):
        out[r] += c[:, None] * v
    return out


def _signed_permutation(system: CouplingSystem, axis: int, perm):
    """(idx, sign) of the mirror on the amplitudes, U e_i = sign_i e_idx_i,
    or None where its per-atom action basis^H R basis is not diagonal +-1
    (a dipole tilted off the mirror's axis and plane)."""
    basis = system.transition.basis
    R = np.ones(3)
    R[axis] = -1.0
    action = basis.conj().T @ (R[:, None] * basis)
    sign = np.sign(action.diagonal().real)
    if np.abs(action - np.diag(sign)).max() > MIRROR_TOL:
        return None
    m = len(sign)
    return ((perm[:, None] * m + np.arange(m)).ravel(),
            np.tile(sign, len(perm)))


def _invariant(H: np.ndarray, idx, sign) -> bool:
    """U H U^T == H to MIRROR_TOL relative, one slab of rows at a time."""
    tol = MIRROR_TOL * np.abs(H).max()
    rows = 128
    for lo in range(0, len(H), rows):
        sl = slice(lo, lo + rows)
        image = np.take(H[idx[sl]], idx, axis=1)
        image *= sign[sl, None]
        image *= sign
        image -= H[sl]
        if np.abs(image).max() > tol:
            return False
    return True


def mirror_basis(system: CouplingSystem) -> MirrorBasis:
    """Orbit-sum basis of the mirrors that `geometry.coordinate_mirrors`
    proposes and that leave H invariant.  With none kept, Q = 1 and the
    whole of H is one block."""
    M = system.size
    mirrors, idx, sign = [], [np.arange(M)], [np.ones(M)]
    for axis, perm in coordinate_mirrors(system.geometry.positions).items():
        op = _signed_permutation(system, axis, perm)
        if op is None or not _invariant(system.H, *op):
            continue
        mirrors.append(axis)
        # the group grows by the new mirror's products with every element
        # so far: U_a U_g e_i = sign_g[i] sign_a[idx_g[i]] e_idx_a[idx_g[i]]
        a_idx, a_sign = op
        idx, sign = (idx + [a_idx[i] for i in idx],
                     sign + [s * a_sign[i] for i, s in zip(idx, sign)])
    img, sgn = np.array(idx), np.array(sign)          # (|G|, M) each
    n_group = len(img)
    reps = np.flatnonzero(img.min(axis=0) == np.arange(M))
    img, sgn = img[:, reps], sgn[:, reps]
    stab = img == reps                                # (|G|, orbits)
    # each site of an orbit is reached by |stabilizer| group elements
    scale = 1.0 / np.sqrt(n_group * stab.sum(axis=0))
    rows, coefs, offsets = [], [], [0]
    for sector in range(n_group):
        parity = [(-1) ** bin(sector & g).count("1") for g in range(n_group)]
        coef = np.array(parity)[:, None] * sgn
        # an orbit carries this sector unless its stabilizer flips it
        live = np.flatnonzero(~(stab & (coef < 0)).any(axis=0))
        if len(live) == 0:
            continue
        rows.append(img[:, live])
        coefs.append(coef[:, live] * scale[live])
        offsets.append(offsets[-1] + len(live))
    return MirrorBasis(tuple(mirrors), np.hstack(rows), np.hstack(coefs),
                       np.array(offsets))


def _runs(idx: np.ndarray, key: np.ndarray, tol: float) -> list:
    """The runs of two or more of idx, sorted by key, whose consecutive
    keys differ by less than tol."""
    idx = idx[np.argsort(key[idx])]
    cut = np.flatnonzero(np.diff(key[idx]) >= tol) + 1
    return [idx[lo:hi] for lo, hi in zip(np.r_[0, cut], np.r_[cut, len(idx)])
            if hi - lo > 1]


def _orthonormalise_clusters(w: np.ndarray, v: np.ndarray) -> None:
    """Re-base, in place, the vectors of every cluster of eigenvalues
    within DEGENERATE_TOL (relative) to v^T v = 1 by the symmetric
    orthogonalisation V (V^T V)^(-1/2); `scipy.linalg.eig` returns a
    basis of a degenerate eigenspace that is not v^T v-orthogonal.  A
    cluster whose Gram matrix is singular (v^T v ~ 0) is left as it is."""
    tol = DEGENERATE_TOL * max(np.abs(w).max(), 1.0)
    for run in _runs(np.arange(len(w)), w.real, tol):
        for c in _runs(run, w.imag, tol):
            gram = v[:, c].T @ v[:, c]
            if np.linalg.cond(gram) < 1e8:
                v[:, c] = v[:, c] @ np.linalg.inv(scipy.linalg.sqrtm(gram))


def eigenmodes(system: CouplingSystem) -> EigenSystem:
    """Eigendecomposition of the coupling matrix H, block by block.

    A coordinate mirror x -> -x, y -> -y or z -> -z is used if it permutes
    the atoms (`geometry.coordinate_mirrors`), acts on each atom's dipole
    components as +-1 (basis^H R basis diagonal +-1, which a tilted
    two-level dipole fails) and leaves H invariant to MIRROR_TOL (which
    disorder, or a Zeeman term added to H, fails).  The kept mirrors split
    H into blocks Q_s^T H Q_s (`mirror_basis`), complex symmetric like H;
    each is solved by `scipy.linalg.eig` and its vectors are mapped back
    by Q_s.  Q is applied through its index and coefficient tables, never
    as a dense matrix.  With no mirror kept, H is one block.  Q is real
    orthogonal, so v^T v = 1 and the `anomalous` rule mean what they mean
    for a full eigensolve.

    The eigenvalues do not depend on the blocks.  The modes of a
    degenerate eigenvalue do: they are a basis of its eigenspace, here
    one whose vectors each have one parity under every mirror.  Modes of
    one cluster that lie in different blocks are v^T v-orthogonal; a
    cluster inside one block (no mirror splits it) is re-based to
    v^T v = 1 (`_orthonormalise_clusters`), because `scipy.linalg.eig`
    returns an arbitrary, in general not orthogonal, basis.  Which basis
    that is still sets the per-mode occupations of `mode_occupation` in
    such a cluster, and their sum where the state reaches several of its
    modes.
    """
    basis = mirror_basis(system)
    vecs = np.empty((system.size, system.size), dtype=complex)
    sectors = [(basis.rows[:, lo:hi], basis.coefs[:, lo:hi])
               for lo, hi in zip(basis.offsets[:-1], basis.offsets[1:])]
    solved = [scipy.linalg.eig(_project(_project(system.H, *q).T, *q).T,
                               overwrite_a=True) for q in sectors]
    for w, v in solved:
        _orthonormalise_clusters(w, v)
    evals = np.concatenate([w for w, _ in solved])
    order = np.argsort(evals.imag)
    # each block's vectors go straight to their columns in `order`
    column = np.empty_like(order)
    column[order] = np.arange(len(order))
    for lo, q, (_, v) in zip(basis.offsets, sectors, solved):
        vecs[:, column[lo:lo + v.shape[1]]] = _expand(v, *q, system.size)
    norms = np.einsum("ij,ij->j", vecs, vecs)
    anomalous = np.abs(norms) < 1e-12
    scale = np.sqrt(norms + 0j)
    scale[anomalous] = np.abs(vecs[:, anomalous]).max(axis=0)
    vecs /= scale
    return EigenSystem(evals[order], vecs, anomalous, tuple(basis.sizes))


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


def eigen_table(system: CouplingSystem, es: EigenSystem):
    """Rows (index, shift, linewidth, occupation) of the eigenmodes `es`
    of `system` for CSV export; the occupation column refers to the
    steady state."""
    b = steady_state(system)
    occ = mode_occupation(b, es) if np.linalg.norm(b) > 0 else np.zeros(system.size)
    return [(j, es.shifts[j], es.linewidths[j], occ[j]) for j in range(system.size)]
