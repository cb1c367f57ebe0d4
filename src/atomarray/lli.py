"""Low-light-intensity coupled-dipole model.

Amplitudes b obey  db/dt = i (H + L) b + f  with H = kernel.coupling_matrix
in the dipole basis of the transition (`TransitionSpec.basis`): diagonal
i*gamma, off-diagonal XI * e.G(r_j - r_l).e' between dipole components;
L is the level block of the transition (`TransitionSpec.level_block`) on
every atom, the laser detuning times 1 plus its Zeeman part Z
(`TransitionSpec.zeeman_part`).  `evolve` is exact
(`integrate.affine_evolve`).  Two level structures:

* two-level: one real dipole orientation per atom, H is N x N, Z = 0;
* J=0 -> J'=1: three dipole components per atom.  Components are stored in
  the CARTESIAN basis (x, y, z), component c of atom j at index 3j + c,
  which keeps H exactly complex symmetric (in the circular basis it is
  not).  Zeeman shifts of the m = nu sublevels, entering as detunings
  Delta - nu*delta_nu, make Z a 3x3 Hermitian matrix in this basis.

`assemble` takes H from `kernel.coupling_matrix`, which gathers it from a
table of offsets on a lattice geometry and evaluates every pair otherwise.
Its `CouplingSystem` is the one assembled system of every model: the OBEs
(`semiclassical`) and the master equation (`quantum`) read it too.

`eigenmodes` and `steady_state` work in blocks: the coordinate mirrors of
a symmetric array that act on every atom's dipole components as +-1 and
leave H invariant (`invariant_mirrors`, the one mirror search, which the
master equation's parity sectors use too) are diagonal in a real
orthogonal orbit-sum basis Q (`geometry.OrbitBasis`, which builds and
applies Q for both layers).  Q splits a centred square J=0 -> J'=1 lattice
into eight blocks; an array without such a mirror is one block, Q = 1.
The eigenmodes project H in the basis of all its mirrors
(`CouplingSystem.mode_sectors`); the steady state keeps those whose signs
s on an atom's components keep Z, s Z s = Z (`level_mirrors`, the filter
of the parity sectors too), projects H + Z once (`CouplingSystem.sectors`,
the same blocks where Z = 0), and at every detuning, which only shifts
the diagonal of each block, solves the blocks that Q^T f reaches; the
others are zero.  `eigen_table` passes that steady state to `eigenmodes`
in the sector coordinates it was solved in (`sector_steady_state`, a
`SectorState`), and `eigenmodes` solves a block with vectors only where
it is not exactly zero, and keeps the vectors in sector coordinates
(`EigenSystem`); `mode_occupation` works sector by sector, so an
unreached sector's occupations are exactly 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import UnsolvedEigenvectorsError
from .geometry import Geometry, OrbitBasis, coordinate_mirrors, orbit_basis
from .integrate import affine_evolve, solve_checked
from .kernel import circular_basis, coupling_matrix


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

    @cached_property
    def level_block(self) -> np.ndarray:
        """(m, m) Hermitian per-atom level block: detuning minus the Zeeman
        shifts, delta*1 - zeeman_block; made on first read and kept,
        read-only (the OBE right-hand side reads it at every call)."""
        block = (np.array([[self.detuning]], dtype=complex) if self.levels == 2
                 else self.detuning * np.eye(3) - zeeman_block(self.zeeman))
        block.setflags(write=False)
        return block

    @property
    def zeeman_part(self) -> np.ndarray:
        """Z = level_block - detuning*1, the (m, m) part of the level block
        that the laser detuning does not set."""
        return self.level_block - self.detuning * np.eye(self.components)

    def rabi(self, field) -> np.ndarray:
        """(N, m) Rabi frequencies of the dipole components from (N, 3)
        Cartesian drive fields: R = E . basis^*."""
        return field @ self.basis.conj()


@dataclass
class CouplingSystem:
    """H (complex symmetric) and the drive vector f, plus the geometry and
    the transition they came from; the transition holds the level block.
    The mirror search and the projections onto its sectors are made on
    first use and kept, so H is not to be changed in place after that."""
    H: np.ndarray
    f: np.ndarray
    geometry: Geometry
    transition: TransitionSpec

    @property
    def size(self) -> int:
        return self.H.shape[0]

    @cached_property
    def mirrors(self) -> dict:
        """The mirrors that leave H invariant (`invariant_mirrors`)."""
        return invariant_mirrors(self.geometry, self.transition, self.H)

    @cached_property
    def mode_sectors(self) -> tuple:
        """(Q, blocks): the orbit basis of all mirrors of H and the diagonal
        blocks Q_s^T H Q_s (`eigenmodes`)."""
        basis = orbit_basis([op for _, op in self.mirrors.values()],
                            self.size)
        return basis, basis.blocks(self.H)

    @cached_property
    def sectors(self) -> tuple:
        """(Q, blocks): the orbit basis of the mirrors of H that keep the
        Zeeman part Z too (`level_mirrors`), and the diagonal blocks
        Q_s^T (H + Z) Q_s (`steady_state`); `mode_sectors` where Z = 0."""
        if not self.transition.zeeman_part.any():
            return self.mode_sectors
        mirrors = level_mirrors(self.transition, self.mirrors)
        basis = orbit_basis([op for _, op in mirrors.values()], self.size)
        return basis, basis.blocks(with_detuning(self, 0.0))


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
    """Build H and f for the given geometry, transition and drive."""
    pos = geometry.positions
    H = coupling_matrix(geometry, transition.basis)
    f = np.zeros(len(H), dtype=complex)
    if drive is not None:
        f = 1j * transition.rabi(drive.field(pos)).reshape(-1)
    return CouplingSystem(H, f, geometry, transition)


def with_detuning(system: CouplingSystem, delta: float) -> np.ndarray:
    """H + L at laser detuning `delta`: H + Z + delta*1, Z on every atom."""
    Z = system.transition.zeeman_part
    return (system.H + block_diagonal(system.size // len(Z), Z)
            + delta * np.eye(system.size))


@dataclass(frozen=True)
class SectorState:
    """A state y = Q^T b in the coordinates of the sectors of the orbit
    basis Q (`basis`)."""
    basis: OrbitBasis
    y: np.ndarray

    def sites(self) -> np.ndarray:
        """b = Q y."""
        return self.basis.to_site_vectors(self.y)


def steady_state(system: CouplingSystem, delta: float = None) -> np.ndarray:
    """Solve 0 = i(H + L) b + f, i.e. b = i (H + L)^{-1} f, with the laser
    detuning set to `delta` if given (`sector_steady_state`, mapped to the
    sites)."""
    return sector_steady_state(system, delta).sites()


def sector_steady_state(system: CouplingSystem,
                        delta: float = None) -> SectorState:
    """The steady state of `steady_state` in the sectors of the system's
    mirrors that keep its Zeeman part (`CouplingSystem.sectors`): each
    block that Q^T f reaches is solved on its own, its diagonal shifted by
    the detuning, and the others are exactly zero; a singular block raises
    ResonantSingularityError with its own nearest eigenvalue."""
    basis, blocks = system.sectors
    shift = system.transition.detuning if delta is None else delta
    g = basis.to_sector_vector(1j * system.f)
    y = np.zeros(system.size, dtype=complex)
    for (lo, hi), block in zip(basis.spans, blocks):
        if g[lo:hi].any():
            y[lo:hi] = solve_checked(block + shift * np.eye(hi - lo),
                                     g[lo:hi])
    return SectorState(basis, y)


def evolve(system: CouplingSystem, b0, t_grid, delta: float = None) -> np.ndarray:
    """Exact evolution of db/dt = i(H + L)b + f on t_grid, with the laser
    detuning set to `delta` if given (returns (nt, M))."""
    A = 1j * with_detuning(system, system.transition.detuning
                           if delta is None else delta)
    return affine_evolve(A, system.f, b0, t_grid)


@dataclass
class EigenSystem:
    """Eigenvalues lambda_j = delta_j + i*ups_j of H, sorted by linewidth,
    and right eigenvectors normalized to v^T v = 1 where possible (complex
    symmetric H makes the left eigenvectors the plain transposes).

    The vectors are kept in the coordinates of the sectors of the orbit
    basis Q that H was solved in: sector s (the columns lo:hi of
    `basis.spans[s]`) holds `sector_vectors[s]`, or None where it was solved
    without vectors, and its modes are those numbered `columns[lo:hi]`.
    The site-basis `vectors` and `anomalous` are built on first read; a
    sector without vectors makes that read raise
    UnsolvedEigenvectorsError."""
    eigenvalues: np.ndarray
    basis: OrbitBasis
    columns: np.ndarray          # mode index of each sector coordinate
    sector_vectors: list         # (size, size) per sector, or None
    sector_anomalous: list       # modes where v^T v ~ 0 (renormalized by max)

    @property
    def blocks(self) -> tuple:
        """Sizes of the blocks H was solved in."""
        return tuple(self.basis.sizes)

    @property
    def shifts(self) -> np.ndarray:
        return self.eigenvalues.real

    @property
    def linewidths(self) -> np.ndarray:
        return self.eigenvalues.imag

    def sectors(self):
        """(lo, hi, vectors) of each sector."""
        return ((lo, hi, v) for (lo, hi), v in
                zip(self.basis.spans, self.sector_vectors))

    @cached_property
    def vectors(self) -> np.ndarray:
        """(M, M) columns v_j in the site basis."""
        _solved(self.sector_vectors)
        out = np.empty((len(self.columns),) * 2, dtype=complex)
        for lo, hi, v in self.sectors():
            out[:, self.columns[lo:hi]] = self.basis.to_site_vectors(v, lo, hi)
        return out

    @cached_property
    def anomalous(self) -> np.ndarray:
        out = np.empty(len(self.columns), dtype=bool)
        out[self.columns] = np.concatenate(_solved(self.sector_anomalous))
        return out


def _solved(parts: list) -> list:
    """parts, where every sector has them."""
    if any(p is None for p in parts):
        raise UnsolvedEigenvectorsError(
            "eigenvectors were solved only in the sectors that the state "
            "given to eigenmodes reaches")
    return parts


def _to_sectors(basis: OrbitBasis, b) -> np.ndarray:
    """Q^T b: a site-basis state, or a `SectorState`, in the coordinates of
    the sectors; a SectorState of the same basis is taken as it is, so that
    its exact zeros stay zeros."""
    if isinstance(b, SectorState):
        if b.basis is basis:
            return b.y
        b = b.sites()
    return basis.to_sector_vector(np.asarray(b))


MIRROR_TOL = 1e-12
DEGENERATE_TOL = 1e-9


def mirror_action(transition: TransitionSpec, axis: int, perm):
    """(idx, sign) of the mirror on the amplitudes, U e_i = sign_i e_idx_i,
    or None where its per-atom action basis^H R basis is not diagonal +-1
    (a dipole tilted off the mirror's axis and plane)."""
    basis = transition.basis
    R = np.ones(3)
    R[axis] = -1.0
    action = basis.conj().T @ (R[:, None] * basis)
    sign = np.sign(action.diagonal().real)
    if np.abs(action - np.diag(sign)).max() > MIRROR_TOL:
        return None
    m = len(sign)
    return ((perm[:, None] * m + np.arange(m)).ravel(),
            np.tile(sign, len(perm)))


def mirror_tol(H: np.ndarray) -> float:
    """The tolerance of `invariant` for H: MIRROR_TOL relative to max |H|."""
    return MIRROR_TOL * np.abs(H).max()


def invariant(H: np.ndarray, idx, sign, tol: float) -> bool:
    """U H U^T == H to `tol` (`mirror_tol(H)`), one slab of rows at a
    time."""
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


def invariant_mirrors(geometry: Geometry, transition: TransitionSpec,
                      H: np.ndarray) -> dict:
    """{axis: (perm, (idx, sign))} of the coordinate mirrors that
    `geometry.coordinate_mirrors` proposes, whose action on the amplitudes
    (`mirror_action`) exists and leaves the couplings H invariant."""
    ops = {axis: (perm, op) for axis, perm in
           coordinate_mirrors(geometry.positions).items()
           if (op := mirror_action(transition, axis, perm)) is not None}
    tol = mirror_tol(H) if ops else 0.0
    return {axis: (perm, op) for axis, (perm, op) in ops.items()
            if invariant(H, *op, tol)}


def level_mirrors(transition: TransitionSpec, mirrors: dict) -> dict:
    """Those of `mirrors` (`invariant_mirrors`) that keep the Zeeman part
    Z of the level block on every atom: s Z s == Z to `mirror_tol(Z)`, s
    the mirror's signs on one atom's components."""
    Z = transition.zeeman_part
    tol, m = mirror_tol(Z), len(Z)
    return {axis: (perm, op) for axis, (perm, op) in mirrors.items()
            if np.abs((s := op[1][:m])[:, None] * Z * s - Z).max() <= tol}


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


def eigenmodes(system: CouplingSystem, state=None) -> EigenSystem:
    """Eigendecomposition of the coupling matrix H, block by block.

    A coordinate mirror x -> -x, y -> -y or z -> -z is used if it permutes
    the atoms, acts on each atom's dipole components as +-1 (which a tilted
    two-level dipole fails) and leaves H invariant to MIRROR_TOL (which
    disorder, or a Zeeman term added to H, fails): `invariant_mirrors`.
    The kept mirrors split H into blocks Q_s^T H Q_s, complex symmetric
    like H (`CouplingSystem.mode_sectors`, the steady state's where the
    transition has no Zeeman part), each solved by one `scipy.linalg.eig`
    call; with no mirror kept, H is one block.  Q is real orthogonal, so
    v^T v = 1 and the `anomalous` rule mean what they mean for a full
    eigensolve.

    Given the `state` whose occupations are wanted, a block is solved with
    vectors only where Q_s^T state is not exactly zero, and for its
    eigenvalues alone elsewhere; each block's eigenvalues come from the
    same call as its vectors.  A `SectorState` in the same basis (the
    steady state where the transition has no Zeeman part) is read as it is,
    so its exact zeros decide; a site-basis state is mapped in, which can
    leave rounding in a block the state does not reach.  Without a state
    every block has vectors.
    The vectors stay in sector coordinates (`EigenSystem`).

    Modes are sorted by linewidth.  Linewidths within DEGENERATE_TOL
    (relative) of each other count as tied and keep block order and
    in-block index, so the order does not follow last-bit rounding.

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
    basis, blocks = system.mode_sectors
    if state is not None:
        g = _to_sectors(basis, state)
    evals, vecs, anomalous = [], [], []
    for (lo, hi), block in zip(basis.spans, blocks):
        want = state is None or bool(g[lo:hi].any())
        out = scipy.linalg.eig(block, right=want)
        w, v = out if want else (out, None)
        anom = None
        if want:
            _orthonormalise_clusters(w, v)
            norms = np.einsum("ij,ij->j", v, v)
            anom = np.abs(norms) < 1e-12
            scale = np.sqrt(norms + 0j)
            scale[anom] = np.abs(basis.to_site_vectors(
                v[:, anom], lo, hi)).max(axis=0)
            v /= scale
        evals.append(w)
        vecs.append(v)
        anomalous.append(anom)
    evals = np.concatenate(evals)
    order = np.argsort(evals.imag)
    rank = np.argsort(order)
    tol = DEGENERATE_TOL * max(np.abs(evals).max(), 1.0)
    for run in _runs(np.arange(len(evals)), evals.imag, tol):
        order[np.sort(rank[run])] = np.sort(run)
    columns = np.empty_like(order)
    columns[order] = np.arange(len(order))
    return EigenSystem(evals[order], basis, columns, vecs, anomalous)


def mode_occupation(b, eigensystem: EigenSystem) -> np.ndarray:
    """Occupation measure L_j = |v_j^T b|^2 / sum_l |v_l^T b|^2, taken
    sector by sector as |v^T (Q^T b)_s|^2: exactly 0 for the modes of a
    sector that Q^T b does not reach.  b is a site-basis state or a
    `SectorState`, read as `eigenmodes` reads it.  Raises
    UnsolvedEigenvectorsError where b reaches a sector solved without
    vectors."""
    es = eigensystem
    g = _to_sectors(es.basis, b)
    overlaps = np.zeros(len(g))
    for lo, hi, v in es.sectors():
        if g[lo:hi].any():
            _solved([v])
            overlaps[es.columns[lo:hi]] = np.abs(v.T @ g[lo:hi]) ** 2
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
    """(es, rows): the eigenmodes of `system`, solved with vectors in the
    sectors its steady state reaches, and their rows (index, shift,
    linewidth, occupation) for CSV export; the occupation column refers
    to the steady state, handed over in its sector coordinates."""
    state = sector_steady_state(system)
    es = eigenmodes(system, state)
    occ = (mode_occupation(state, es) if state.y.any()
           else np.zeros(system.size))
    return es, [(j, es.shifts[j], es.linewidths[j], occ[j])
                for j in range(system.size)]
