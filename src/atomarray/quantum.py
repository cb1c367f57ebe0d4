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
as in the coupled-dipole module.

Each s-_i is a partial permutation (a row holds at most one 1), held only
as its row move (`lowering_moves`, which states the product-space layout):
s-_i X is X[src_i] placed at the rows dst_i.  Every operator and observable
reads these moves: sum_i c_i s-_i is one assignment (`lowering`), the pair
sum sum c_il s+_i s-_l one row move per i (`pair_sum`).  The one generator
(`QuantumSystem.generator`) is the pairwise form above,

  drho/dt = -i (Hnh rho - rho Hnh^dag) + J vec rho,
  Hnh = H - i sum B_{il} s+_i s-_l,   J = sum_il 2 B_{il} s-_i (x) s-_l,

J, the jump term sum 2 B_il s-_i rho s+_l on row-major vec rho, a CSR
matrix whose entries come from the row moves by index arithmetic
(`jump_superoperator`).  It runs block by block in mirror-parity sectors
(`parity_sectors`): a coordinate mirror that leaves the couplings, the
level block and the drive invariant is a signed permutation U of the
product space that commutes with the generator, so Hnh is block diagonal
in the orbit-sum basis P of the group of such mirrors, and J maps the
block (s, t) of P^T rho P only to blocks of its charge, the character
product of s and t.  The mirror search (`lli.invariant_mirrors`), its
level-block filter (`lli.level_mirrors`) and P, which applies itself
(`geometry.OrbitBasis`), are those of the coupled-dipole steady state.
The generator holds the blocks of Hnh and the jump term of each charge it
is asked for (`QmeGenerator`), two small dense products per block and one
sparse one per charge.  |G><G| occupies charge 0, and so does the steady
state.  An array without a kept mirror is one sector, on the same path.

Trajectory jumps J_k = sum_i a_{ki} s-_i are the rows of a (K, M) amplitude
matrix A (`JumpBasis`).  The collective decay channels a_m = sqrt(beta_m)
w_m^T of B = sum_m beta_m w_m w_m^T (real orthonormal w_m) reproduce the
dissipator exactly; when the coherent and dissipative coupling matrices
commute, the w_m are coupled-dipole eigenmodes and beta_m their linewidths.
A trajectory jumps when its norm under the no-jump evolution, exact in the
eigenbasis of Hnh, falls to a drawn threshold (`run_trajectories`).

The steady state solves drho/dt + |G><G| Tr rho = |G><G| (so drho/dt = 0
and Tr rho = 1) in charge 0 by GMRES, preconditioned with the inverse of
the no-jump part, one Sylvester equation per sector in the Schur basis of
its block of Hnh (`steady_state_qme`), solved by recursive blocking
(`triangular_sylvester`).

Light leaves the array through the far field: `farfield_coefficients`
gives the amplitude rows (pol^* . e_c) e^{-i k n.r_j} of
E(n, pol) = sum_{jc} (pol^* . e_c) e^{-i k n.r_j} s-_{jc} for a stack of
directions and polarizations, from the far-field primitives of `kernel`.
The g2 detection operator is one of them summed over the lowering
operators, and the directional jump operators J(theta, phi; pol) are all of
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

from .errors import (DimensionCapError, NonConvergenceError, PropagatorError,
                     UndefinedG2Error)
from .geometry import Geometry, OrbitBasis, orbit_basis
from .integrate import integrate_complex
from .kernel import (GAMMA, coupling_matrix, direction, direction_angles,
                     farfield_phase, transverse)
from .lli import (MIRROR_TOL, TransitionSpec, block_diagonal,
                  invariant_mirrors, level_mirrors)
from .observables import sphere_grid

TRAJ_CHUNK = 4096           # trajectories per RNG stream
TRAJ_JUMP_BLOCK = 16        # jumps per table of pre-drawn uniforms
PROPAGATOR_TOL = 1e-6       # max-abs error of the trajectory propagator
SYLVESTER_BLOCK = 32        # largest side that ztrsyl solves directly


def _check_memory(what, dim, need):
    """DimensionCapError if an estimate of `need` bytes exceeds the RAM."""
    import os
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise DimensionCapError(
            f"{what} at dimension {dim} needs an estimated {need / 2**20:.1f}"
            f" MiB, more than the {have / 2**20:.1f} MiB of physical memory")


def lowering_moves(natoms: int, levels: int) -> tuple:
    """(dst, src), each (M, D/L), of the lowering operators sigma^-_{jc} =
    1^{(x)j} (x) |g><e_c| (x) 1^{(x)(n-j-1)}, the one statement of the
    product-space layout: atom 0 the most significant factor, each atom's
    basis the ground state and then its excited components (Cartesian x, y,
    z for J=0 -> J'=1), row j*m + c holding sigma^-_{jc} (L = levels, m =
    L - 1, M = n m, D = L^n).  sigma^-_{jc} maps each s (src, ascending)
    whose base-L digit j is c+1 to s - (c+1) L^(n-1-j) (dst)."""
    place = levels ** np.arange(natoms - 1, -1, -1)
    s = np.arange(levels**natoms)
    digits = s // place[:, None] % levels                   # (n, D)
    src = np.array([s[d == c] for d in digits for c in range(1, levels)])
    return src - np.outer(place, np.arange(1, levels)).reshape(-1, 1), src


def lowering(coefficients, moves, dim) -> np.ndarray:
    """sum_i c_i s-_i, dense (..., D, D), from (..., M) coefficients by one
    assignment: no two s-_i share a nonzero.  Moves (src, dst) give s+."""
    out = np.zeros(coefficients.shape[:-1] + (dim, dim), dtype=complex)
    out[..., moves[0], moves[1]] = coefficients[..., None]
    return out


def pair_sum(coefficients, moves, dim) -> np.ndarray:
    """sum_{il} c_il s+_i s-_l; s+_i Y is Y[dst_i] placed at the rows src_i."""
    out = np.zeros((dim, dim), dtype=complex)
    for c, d, s in zip(coefficients, *moves):
        out[s] += lowering(c, moves, dim)[d]
    return out


@dataclass
class QuantumSystem:
    """Operator tables for one geometry + transition + drive."""
    geometry: Geometry
    transition: TransitionSpec
    moves: tuple                 # (dst, src) from lowering_moves
    dim: int
    hamiltonian: np.ndarray      # drive + detuning/Zeeman + coherent couplings
    bmatrix: np.ndarray          # dissipative matrix, M x M real symmetric
    sectors: OrbitBasis          # mirror-parity sectors (`parity_sectors`)

    def ground_state(self) -> np.ndarray:
        psi = np.zeros(self.dim, dtype=complex)
        psi[0] = 1.0
        return psi

    def single_excitation(self, amplitudes) -> np.ndarray:
        """Normalized state sum_{jc} b_{jc} s+_{jc} |G> from a component
        amplitude vector; s+_i |G> is the src of s-_i whose dst is 0."""
        dst, src = self.moves
        psi = np.zeros(self.dim, dtype=complex)
        psi[src[dst == 0]] = np.asarray(amplitudes).reshape(-1)
        return psi / np.linalg.norm(psi)

    def population_operator(self) -> np.ndarray:
        return pair_sum(np.eye(len(self.bmatrix)), self.moves, self.dim)

    def jump_entries(self, charge) -> int:
        """A bound on the entries of the jump term of one charge: entry
        ((a, b), (c, d)) needs c raised from the orbit of a and d from that
        of b, so row (a, b) has at most sum_v cnt[a, v] cnt[b, v ^ q]
        entries, cnt[a, v] the orbits one raising away from a's that carry
        sector v, and q = charge."""
        basis, (dst, src) = self.sectors, self.moves
        n_group = len(basis.rows)
        orbits, column_orbit = np.unique(basis.rows[0], return_inverse=True)
        rep = np.empty(self.dim, dtype=int)
        rep[basis.rows] = basis.rows[0]
        state_orbit = np.searchsorted(orbits, rep)
        carries = np.zeros((len(orbits), n_group))
        carries[column_orbit, np.repeat(basis.labels, basis.sizes)] = 1.0
        pairs = np.unique(state_orbit[dst].ravel() * len(orbits)
                          + state_orbit[src].ravel())
        A = (carries[pairs // len(orbits)].T
             @ carries[pairs % len(orbits)])        # (sector u, sector v)
        g = np.arange(n_group)
        return int((A * A[np.ix_(g ^ charge, g ^ charge)]).sum())

    def generator_bytes(self, charges) -> int:
        """Bytes of the generator with the jump term of `charges` built: the
        sector blocks of Hnh and of -i Hnh and i Hnh^dag (48 B per entry of
        sum d_s^2), P and P^T (24 B per entry of P, one per orbit site of
        each column) and each charge's CSR jump term (20 B per entry, bounded
        by `jump_entries`, and its row pointers); plus what a build holds
        besides: the full J (20 B per entry, one per nonzero B_il and pair
        of row moves, and D^2 + 1 row pointers) and, for one charge at a
        time, the selectors S_q and T_q (40 B per entry, as COO and CSR)
        and J T_q^T, which has at most as many entries as J: a column
        (rep, r') of J enters it once for each of the |orbit| sectors on the
        orbit of rep, and J's columns on one orbit have equally many
        entries."""
        basis, D = self.sectors, self.dim
        orbit = len(basis.rows) // (basis.rows == basis.rows[0]).sum(axis=0)
        per_sector = [orbit[lo:hi].sum() for lo, hi in basis.spans]
        nnz_j = np.count_nonzero(self.bmatrix) * self.moves[0].shape[1]**2
        held = 48 * sum(d * d for d in basis.sizes) + 24 * sum(per_sector)
        build = 0
        for q in charges:
            blocks = sector_blocks(basis, q)
            rows = sum(basis.sizes[s] * basis.sizes[t] for s, t in blocks)
            selectors = sum((basis.sizes[s] + per_sector[s]) * per_sector[t]
                            for s, t in blocks)
            held += 20 * self.jump_entries(q) + 4 * (rows + 1)
            build = max(build, 40 * selectors + 20 * nnz_j)
        return held + 20 * nnz_j + 4 * (D * D + 1) + build

    @cached_property
    def generator(self) -> "QmeGenerator":
        """The master-equation generator, built once per system."""
        D = self.dim
        # Hnh and its sector form, each with the projection's temporaries
        _check_memory("QME generator", D, 16 * 6 * D**2)
        hnh = self.hamiltonian - 1j * pair_sum(self.bmatrix, self.moves, D)
        return QmeGenerator(self.sectors, hnh, 2.0 * self.bmatrix, self.moves)


def parity_sectors(geometry: Geometry, transition: TransitionSpec,
                   couplings, rabi) -> OrbitBasis:
    """Sectors of the product space under the coordinate mirrors that leave
    the master equation invariant.  A mirror that leaves the complex
    `couplings` C = Omega + iB invariant (`lli.invariant_mirrors`), with a
    +-1 action s_c on the dipole components that keeps the Zeeman part of
    the level block (`lli.level_mirrors`), is kept if it leaves the Rabi
    vector invariant too with the component signs s or, failing that, -s;
    the two differ by the global sign e^{i pi N_e}, so both are unitaries.
    On the product space it moves digit j of a basis state to digit
    perm[j], with the product of the component signs of the excited atoms
    as its sign.  The kept mirrors and their products are a group of signed
    permutations (`geometry.orbit_basis`), a weak symmetry of the Lindblad
    generator (Buca & Prosen, New J. Phys. 14, 073007 (2012)): the block
    (s, t) of rho couples only to blocks of the same charge, the character
    product of s and t."""
    n, L = geometry.natoms, transition.levels
    place = L ** np.arange(n - 1, -1, -1)
    digits = np.arange(L**n) // place[:, None] % L              # (n, D)
    tol = MIRROR_TOL * np.abs(rabi).max(initial=0.0)
    actions = []
    mirrors = level_mirrors(transition,
                            invariant_mirrors(geometry, transition, couplings))
    for perm, (idx, sign) in mirrors.values():
        for flip in (1.0, -1.0):
            if np.abs(flip * sign * rabi[idx] - rabi).max() <= tol:
                ext = np.concatenate([[1.0], flip * sign[:L - 1]])
                actions.append((place[perm] @ digits,
                                ext[digits].prod(axis=0)))
                break
    return orbit_basis(actions, L**n)


def sector_blocks(basis: OrbitBasis, charge) -> list:
    """The blocks (s, t) of one charge: labels[s] ^ labels[t] = charge."""
    sector = {label: s for s, label in enumerate(basis.labels)}
    return [(s, sector[label ^ charge]) for s, label in enumerate(basis.labels)
            if label ^ charge in sector]


def jump_superoperator(coefficients, moves, dim):
    """J = sum_il c_il s-_i (x) s-_l, the map X -> sum_il c_il s-_i X s+_l on
    row-major vec X, as a CSR matrix with int32 indices: entry
    [dst_i[a] D + dst_l[b], src_i[a] D + src_l[b]] = c_il for every nonzero
    c_il.  No two (i, a) share a (dst, src) pair, so no entry repeats; the
    rows are counted first and each pair's entries placed at the next free
    slots of their rows.  DimensionCapError beyond 2^31 - 1 entries, which
    int32 row pointers cannot address."""
    dst, src = moves
    hits = np.zeros((len(dst), dim))                # hits[i, p]: p in dst_i
    hits[np.arange(len(dst))[:, None], dst] = 1.0
    ends = np.cumsum(hits.T @ (coefficients != 0) @ hits)
    if ends[-1] >= 2**31:
        raise DimensionCapError(f"the jump superoperator at dimension {dim} "
                                f"has {ends[-1]:.0f} entries, more than "
                                f"int32 indices address")
    indptr = np.zeros(dim * dim + 1, dtype=np.int32)
    indptr[1:] = ends
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1], dtype=complex)
    free = indptr[:-1].copy()
    for i, l in np.argwhere(coefficients):
        rows = (dst[i][:, None] * dim + dst[l]).ravel()
        slots = free[rows]
        free[rows] += 1
        indices[slots] = (src[i][:, None] * dim + src[l]).ravel()
        data[slots] = coefficients[i, l]
    return scipy.sparse.csr_array((data, indices, indptr),
                                  shape=(dim * dim, dim * dim))


class QmeGenerator:
    """drho/dt = -i (Hnh rho - rho Hnh^dag) + J vec rho, block by block in
    the mirror-parity sectors: rho = P Y P^T with P the orbit-sum basis of
    the sectors, which applies itself (`OrbitBasis.to_sectors`,
    `from_sectors`; the build reads the rows of its sparse P^T, `qt`).
    Hnh is block diagonal, held as its blocks P_s^T Hnh P_s; the jump term
    of a charge q is J_q = S_q J S_q^T on the row-major blocks (s, t) of q,
    one after the other (S_q stacks P_s^T (x) P_t^T).  It is built, once,
    when a charge is first asked for: from the full J of
    `jump_superoperator`, which is then dropped, as S_q J T_q^T, where T_q
    stacks sqrt|orbit| e_rep^T (x) P_t^T and has up to |G| times fewer
    entries than S_q; since J commutes with every U (x) U, the two agree.
    A state is the concatenated blocks of the charges it occupies (`split`,
    `merge`), and a D x D call maps its argument in and out."""

    def __init__(self, basis: OrbitBasis, hnh, coefficients, moves):
        self.basis = basis
        self.dim = len(hnh)
        self.hnh = basis.blocks(hnh)
        self._left = [-1j * h for h in self.hnh]
        self._right = [1j * h.conj().T for h in self.hnh]
        self._coefficients, self._moves = coefficients, moves
        self.jumps, self._rhs = {}, {}
        labels = np.array(basis.labels)
        self._charge = labels[:, None] ^ labels        # of block (s, t)
        self.charges = np.unique(self._charge).tolist()

    def layout(self, charges) -> list:
        """(s, t, lo, hi) of every block of `charges` in a state vector."""
        out, lo, sizes = [], 0, self.basis.sizes
        for q in charges:
            for s, t in sector_blocks(self.basis, q):
                out.append((s, t, lo, lo + sizes[s] * sizes[t]))
                lo += sizes[s] * sizes[t]
        return out

    def occupied(self, Y) -> list:
        """The charges with a nonzero block in the sector form Y."""
        lo = self.basis.offsets[:-1]
        nonzero = np.logical_or.reduceat(np.logical_or.reduceat(
            Y != 0, lo, axis=0), lo, axis=1)
        return np.unique(self._charge[nonzero]).tolist()

    def split(self, Y, charges) -> np.ndarray:
        off = self.basis.offsets
        return np.concatenate([np.zeros(0, dtype=complex)] + [
            Y[off[s]:off[s + 1], off[t]:off[t + 1]].ravel()
            for s, t, _, _ in self.layout(charges)])

    def merge(self, y, charges) -> np.ndarray:
        off = self.basis.offsets
        Y = np.zeros((self.dim, self.dim), dtype=complex)
        for s, t, lo, hi in self.layout(charges):
            Y[off[s]:off[s + 1], off[t]:off[t + 1]] = y[lo:hi].reshape(
                off[s + 1] - off[s], off[t + 1] - off[t])
        return Y

    def _build(self, charges):
        missing = [q for q in charges if q not in self.jumps]
        if not missing:
            return
        basis, D = self.basis, self.dim
        J = jump_superoperator(self._coefficients, self._moves, D)
        n_group = len(basis.rows)
        P = [basis.qt[lo:hi] for lo, hi in basis.spans]
        rep = [scipy.sparse.csr_array((n_group * basis.coefs[0, lo:hi], (
            np.arange(hi - lo), basis.rows[0, lo:hi])), shape=(hi - lo, D))
            for lo, hi in basis.spans]
        for q in missing:
            blocks = sector_blocks(basis, q)
            S = scipy.sparse.vstack([scipy.sparse.kron(P[s], P[t])
                                     for s, t in blocks], format="csr")
            T = scipy.sparse.vstack([scipy.sparse.kron(rep[s], P[t])
                                     for s, t in blocks], format="csr")
            self.jumps[q] = scipy.sparse.csr_array(S @ (J @ T.T))

    def block_rhs(self, charges):
        """drho/dt on the state vector of `charges`, made once per list."""
        key = tuple(charges)
        if key not in self._rhs:
            self._rhs[key] = self._block_rhs(charges)
        return self._rhs[key]

    def _block_rhs(self, charges):
        self._build(charges)
        layout = self.layout(charges)
        jumps, lo = [], 0
        for q in charges:
            J = self.jumps[q]
            jumps.append((J, lo, lo + J.shape[0]))
            lo += J.shape[0]
        sizes = self.basis.sizes
        blocks = [(self._left[s], self._right[t], lo, hi, (sizes[s], sizes[t]))
                  for s, t, lo, hi in layout]

        def rhs(y):
            out = np.empty_like(y)
            for J, lo, hi in jumps:
                out[lo:hi] = J @ y[lo:hi]
            for left, right, lo, hi, shape in blocks:
                x, o = y[lo:hi].reshape(shape), out[lo:hi].reshape(shape)
                o += left @ x
                o += x @ right
            return out
        return rhs

    def __call__(self, rho) -> np.ndarray:
        Y = self.basis.to_sectors(rho)
        charges = self.occupied(Y)
        y = self.block_rhs(charges)(self.split(Y, charges))
        return self.basis.from_sectors(self.merge(y, charges))


def build_quantum_system(geometry: Geometry, transition: TransitionSpec,
                         drive=None) -> QuantumSystem:
    n, D = geometry.natoms, transition.levels**geometry.natoms
    _check_memory("build_quantum_system", D, 64 * D**2)  # H, pair_sum's rows
    moves = lowering_moves(n, transition.levels)

    C = coupling_matrix(geometry, transition.basis)
    B = C.imag
    # coherent couplings (zero diagonal) plus the per-atom level blocks
    omega = C.real + block_diagonal(n, transition.level_block)
    H = -pair_sum(omega, moves, D)
    R = np.zeros(len(B), dtype=complex)
    if drive is not None:
        R = transition.rabi(drive.field(geometry.positions)).reshape(-1)
        pump = lowering(R.conj(), moves, D)
        H -= pump + pump.conj().T                  # sum R* s- + R s+
    return QuantumSystem(geometry, transition, moves, D, H, B,
                         parity_sectors(geometry, transition, C, R))


def qme_rhs(rho, system: QuantumSystem) -> np.ndarray:
    """drho/dt of the master equation (only D x D objects ever appear)."""
    return system.generator(np.asarray(rho, dtype=complex))


def evolve_qme(rho0, system: QuantumSystem, t_grid, rtol=1e-9, atol=1e-11):
    """Integrate the master equation on the blocks of the charges that rho0
    occupies; returns (nt, D, D)."""
    D, nt = system.dim, len(t_grid)
    generator, basis = system.generator, system.sectors
    Y0 = basis.to_sectors(np.asarray(rho0, dtype=complex))
    charges = generator.occupied(Y0)
    n = sum(hi - lo for _, _, lo, hi in generator.layout(charges))
    # the generator; DOP853's 16 stages, 7 interpolant rows and step
    # temporaries (36 measured) and its output, n entries each; the
    # expanded output and the expansion's temporaries, D x D each
    _check_memory("evolve_qme", D, system.generator_bytes(charges)
                  + 16 * (38 + nt) * n + 16 * (nt + 6) * D**2)
    rhs = generator.block_rhs(charges)
    out = integrate_complex(lambda t, y: rhs(y), generator.split(Y0, charges),
                            t_grid, rtol=rtol, atol=atol)
    rhos = np.empty((nt, D, D), dtype=complex)
    for k, y in enumerate(out):
        rhos[k] = basis.from_sectors(generator.merge(y, charges))
    return rhos


def steady_state_qme(system: QuantumSystem, residual_tol=1e-9, rho0=None):
    """Solve (L + w Tr) rho = w, L the generator and w = |G><G|, by GMRES
    from `rho0` (default w) in charge 0, where the steady state lives;
    Tr(L X) = 0 for all X, so L rho = 0 and Tr rho = 1.  The right
    preconditioner is S^-1, S X = -i (Hnh X - X Hnh^dag) - sigma X, block
    by block: with one Schur form per sector, Hnh_s = Q T Q^dag, the block
    (s, s) of S^-1 Y is Q Z Q^dag where T Z - Z T^dag = i Q^dag Y_ss Q
    (`triangular_sylvester`).  sigma = 1e-3 gamma keeps S invertible where
    Hnh has a real eigenvalue (undriven, |G> never decays).  Returns
    (rho, ||L rho||_1), the residual that was checked: the entrywise 1-norm
    of the D x D L rho, with L applied to the charge-0 blocks of rho (L
    keeps the charge, and the others hold only the rounding of mapping rho
    out and in); raises NonConvergenceError unless it is below
    residual_tol.  Only the jump term of charge 0 is built."""
    D = system.dim
    generator, basis = system.generator, system.sectors
    layout = generator.layout([0])
    n = layout[-1][3]
    # the generator of charge 0; the 51 GMRES vectors, the Schur forms and
    # iterates; rho and the residual's temporaries
    _check_memory("steady_state_qme", D, system.generator_bytes([0])
                  + 16 * 63 * n + 16 * 8 * D**2)
    rhs = generator.block_rhs([0])
    schur = [scipy.linalg.schur(h - 0.5e-3j * GAMMA * np.eye(len(h)),
                                output="complex") for h in generator.hnh]
    w = generator.split(basis.to_sectors(np.diag(system.ground_state())), [0])

    def precondition(y):
        out = np.empty_like(y)
        for (s, _, lo, hi), (T, Q) in zip(layout, schur):
            Qh = Q.conj().T
            Z, scale = triangular_sylvester(
                T, T, Qh @ y[lo:hi].reshape(len(T), len(T)) @ Q)
            out[lo:hi] = ((1j / scale) * (Q @ Z @ Qh)).ravel()
        return out

    def augmented(x):
        trace = sum(np.trace(x[lo:hi].reshape(len(T), len(T)))
                    for (_, _, lo, hi), (T, _) in zip(layout, schur))
        return rhs(x) + trace * w

    x = w if rho0 is None else generator.split(
        basis.to_sectors(np.asarray(rho0, dtype=complex)), [0])
    A = scipy.sparse.linalg.LinearOperator(
        (n, n), dtype=complex, matvec=lambda y: augmented(precondition(y)))
    y, _ = scipy.sparse.linalg.gmres(A, w - augmented(x), rtol=0.0,
                                     atol=1e-13, restart=50, maxiter=10)
    rho = basis.from_sectors(generator.merge(x + precondition(y), [0]))
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    l_rho = rhs(generator.split(basis.to_sectors(rho), [0]))
    resid = float(np.abs(basis.from_sectors(generator.merge(l_rho, [0])))
                  .sum())
    if resid >= residual_tol:
        raise NonConvergenceError(
            f"QME steady state residual {resid:.2e} after GMRES",
            residual=resid)
    return rho, resid


def triangular_sylvester(A, B, C) -> tuple:
    """(X, scale) with A X - X B^dag = scale C for upper triangular A (m x m)
    and B (n x n), the scaled solution of LAPACK ztrsyl, by the recursive
    blocked algorithm of Jonsson & Kagstrom (ACM TOMS 28, 392 (2002)).  It
    halves the larger side, solves the bottom rows (or the right columns)
    first, moves them into the other half's right-hand side with one
    product against the off-diagonal block of A (or B^dag), and recurses;
    ztrsyl solves sides <= SYLVESTER_BLOCK.  Each half's scale (1 unless X
    would overflow) multiplies the part solved before it.  Unlike ztrsyl's
    own updates, the block products are not guarded against overflow, so C
    must stay well below the largest float (the preconditioner's C is
    O(1))."""
    m, n = C.shape
    if max(m, n) <= SYLVESTER_BLOCK:
        X, scale, _ = ztrsyl(A, B, C, trana="N", tranb="C", isgn=-1)
        return X, scale
    if m >= n:
        h = m // 2
        X2, s2 = triangular_sylvester(A[h:, h:], B, C[h:])
        X1, s1 = triangular_sylvester(A[:h, :h], B,
                                      s2 * C[:h] - A[:h, h:] @ X2)
        return np.vstack([X1, s1 * X2]), s1 * s2
    h = n // 2
    X2, s2 = triangular_sylvester(A, B[h:, h:], C[:, h:])
    X1, s1 = triangular_sylvester(A, B[:h, :h],
                                  s2 * C[:, :h] + X2 @ B[:h, h:].conj().T)
    return np.hstack([X1, s1 * X2]), s1 * s2


def correlation_table(rho, system: QuantumSystem) -> np.ndarray:
    """C[(jc),(lc')] = <s+_{jc} s-_{lc'}> = sum (s-_l rho)[dst_i, src_i], row
    r of s-_l rho being rho[moved[l, r]] (zero where moved is -1)."""
    dst, src = system.moves
    moved = np.full((len(dst), system.dim), -1)
    moved[np.arange(len(dst))[:, None], dst] = src
    rows = moved[:, dst]                                # (M_l, M_i, D/L)
    return np.where(rows >= 0, rho[rows, src], 0.0).sum(axis=2).T


def mean_lowering(rho, system: QuantumSystem) -> np.ndarray:
    """<sigma^-_{jc}> table (component basis), sum rho[src, dst]."""
    return rho[system.moves[::-1]].sum(axis=1)


def single_excitation_block(rho, system: QuantumSystem) -> np.ndarray:
    """rho-bar[(jc),(lc')] = <G| s-_{jc} rho s+_{lc'} |G>: rho on the states
    s+_i |G>, the src of s-_i whose dst is 0."""
    dst, src = system.moves
    return rho[np.ix_(src[dst == 0], src[dst == 0])]


# ---------------------------------------------------------------------------
# jump bases

@dataclass
class JumpBasis:
    """Jump operators J_k = sum_i a_{ki} s-_i as the rows of a (K, M)
    amplitude matrix over the lowering operators; directional bases carry
    the (theta, phi) of each channel so clicks double as photon detection
    records.  sum_k J_k^dag J_k is the pair sum of A^H A."""
    amplitudes: np.ndarray
    directions: np.ndarray = None


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


def directional_basis(system: QuantumSystem, n_theta, n_phi) -> JumpBasis:
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
    dev = pair_sum(A.conj().T @ A - system.bmatrix, system.moves, system.dim)
    return float(np.linalg.norm(dev, 2))


# ---------------------------------------------------------------------------
# trajectories

@dataclass
class TrajectoryResult:
    t_grid: np.ndarray
    rho: np.ndarray              # ensemble density matrices (nt, D, D)
    clicks: list                 # (trajectory index, time, channel), by time
    n_traj: int
    populations: np.ndarray      # ensemble mean total excited population
    n_jumps: int                 # jumps of all trajectories
    propagator_error: float      # max-abs error of the eigenbasis propagator
    eigvec_cond: float           # 2-norm condition number of V
    clicks_are_detections: bool = False   # only directional jumps qualify


def run_trajectories(psi0, system: QuantumSystem, jump_basis: JumpBasis,
                     t_grid, n_traj, seed) -> TrajectoryResult:
    """Monte Carlo wave-function unraveling by waiting times (Dalibard,
    Castin & Molmer, PRL 68, 580 (1992)), vectorized over trajectories.

    A trajectory draws r and evolves under Hnh = H - i sum_k J_k^dag J_k
    until ||psi||^2 = r, then jumps.  With Hnh = V Lam V^-1 it is held as
    coordinates c at its last jump or output time t0, psi(t) = V (e^{-i Lam
    (t - t0)} c), its norm taken of psi (c^H V^H V c would square cond V).
    The norm falls monotonically, so the crossings within an output interval
    are bracketed; Newton on log ||psi||^2 - log r finds them together from
    the log-norm interpolation, bisecting where it leaves the bracket.
    PropagatorError if V e^{-i Lam dt} V^-1 differs from scipy.linalg.expm
    by more than PROPAGATOR_TOL over one interval dt of the uniform `t_grid`
    (which starts at 0).  A jump draws channel k with weight ||J_k psi||^2 =
    a_k^H G a_k, G the Gram matrix of the row moves s-_i psi, and keeps J_k
    psi = sum_i a_ki s-_i psi.  Each chunk of TRAJ_CHUNK trajectories draws
    full-width tables of uniforms, TRAJ_JUMP_BLOCK jumps each, from the
    stream keyed (chunk, block): column 2j is the threshold of jump j, 2j + 1
    its channel draw, so a trajectory's draws depend only on (seed, index,
    jump number).  Clicks, at the exact jump times, are recorded if and only
    if the basis has detection directions (source modes are not detections).
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

    _check_memory("run_trajectories", D,    # rho_acc, Hnh, V, 8 (chunk, D)
                  16 * D * ((len(t_grid) + 10) * D
                            + 8 * min(n_traj, TRAJ_CHUNK)))
    A = jump_basis.amplitudes
    dst, src = system.moves
    M = len(dst)
    pairs = (A.conj()[:, :, None] * A[:, None, :]).reshape(len(A), -1).T
    per_round = max(1, 2**16 // max(M * D, len(A)))  # jump arrays ~1 MB
    dt = interval[0]
    Hnh = system.hamiltonian - 1j * pair_sum(A.conj().T @ A, system.moves, D)
    lam, V = np.linalg.eig(Hnh)
    Vinv = np.linalg.inv(V)
    error = float(np.max(np.abs((V * np.exp(-1j * dt * lam)) @ Vinv
                                - scipy.linalg.expm(-1j * dt * Hnh))))
    if not error <= PROPAGATOR_TOL:
        raise PropagatorError(f"eigenbasis propagator differs from expm by "
                              f"{error:.2e} over one output interval")

    def rows(B, *blocks):   # padded: numpy hands one row to gemv, whose sums
        # run in another order than gemm's; a trajectory must not see its batch
        return (np.concatenate([*blocks, blocks[0][:1]]) @ B)[:-1]

    entropy = np.random.SeedSequence(seed).entropy

    def draws(chunk, block):
        ss = np.random.SeedSequence(entropy, spawn_key=(chunk, block))
        return np.random.default_rng(ss).random((TRAJ_CHUNK,
                                                 2 * TRAJ_JUMP_BLOCK))

    def gap(w, log_r):              # log ||psi||^2 - log r and psi = V w
        psi = rows(V.T, w)
        return np.log((psi.conj() * psi).real.sum(axis=1)) - log_r, psi

    psi0 = np.asarray(psi0, dtype=complex)
    psi0 = psi0 / np.linalg.norm(psi0)
    rho_acc = np.zeros((len(t_grid), D, D), dtype=complex)
    rho_acc[0] = n_traj * np.outer(psi0, psi0.conj())
    clicks, n_jumps = [], 0
    for chunk, done in enumerate(range(0, n_traj, TRAJ_CHUNK)):
        bsz = min(TRAJ_CHUNK, n_traj - done)
        table = draws(chunk, 0)
        c = np.tile(psi0 @ Vinv.T, (bsz, 1))      # coordinates at t0
        t0, jumps = np.zeros(bsz), np.zeros(bsz, dtype=int)
        log_r = np.log(table[:bsz, 0])
        g0 = -log_r                     # g = log ||psi||^2 - log r at t0
        for k, t_out in enumerate(t_grid[1:], 1):
            w = c * np.exp(-1j * dt * lam)          # coordinates at t_out
            g, psi = gap(w, log_r)
            while len(cross := np.flatnonzero(g < 0)[:per_round]):
                act, tj = np.arange(len(cross)), np.empty(len(cross))
                lo, hi = t0[cross], np.full(len(cross), t_out)
                t = lo + (hi - lo) * g0[cross] / (g0[cross] - g[cross])
                for _ in range(100):    # Newton takes ~5, bisection ~45
                    i = cross[act]
                    wt = c[i] * np.exp(-1j * np.outer(t - t0[i], lam))
                    P = rows(V.T, wt, -1j * lam * wt).reshape(2, -1, D)
                    n2, dn2 = (P[0].conj() * P).real.sum(axis=2)  # and d/dt
                    gt, slope = np.log(n2) - log_r[i], 2.0 * dn2 / n2
                    lo, hi = np.where(gt >= 0, t, lo), np.where(gt < 0, t, hi)
                    new = t - gt / slope
                    new = np.where((lo <= new) & (new <= hi), new,
                                   0.5 * (lo + hi))
                    keep = np.abs(new - t) > 1e-12 * (1.0 + new)
                    tj[act] = new
                    act, lo, hi, t = act[keep], lo[keep], hi[keep], new[keep]
                    if not len(act):
                        break
                psi_j = rows(V.T, c[cross] * np.exp(
                    -1j * np.outer(tj - t0[cross], lam)))
                low = np.zeros((len(cross), M, D), dtype=complex)  # s-_i psi
                low[:, np.arange(M)[:, None], dst] = psi_j[:, src]
                # ||J_k psi||^2 = a_k^H G a_k, G_il = <s-_i psi|s-_l psi>
                gram = low.conj() @ low.transpose(0, 2, 1)
                cum = np.cumsum((gram.reshape(len(cross), -1) @ pairs).real,
                                axis=1)
                j = jumps[cross]
                while table.shape[1] < 2 * j.max() + 3:  # to next threshold
                    table = np.hstack([table, draws(
                        chunk, table.shape[1] // (2 * TRAJ_JUMP_BLOCK))])
                pick = (table[cross, 2 * j + 1][:, None] * cum[:, -1:]
                        > cum).sum(axis=1)
                chosen = np.einsum("bi,bid->bd", A[pick], low)
                chosen /= np.linalg.norm(chosen, axis=1, keepdims=True)
                c[cross], t0[cross] = rows(Vinv.T, chosen), tj
                jumps[cross] = j + 1
                log_r[cross] = np.log(table[cross, 2 * j + 2])
                g0[cross] = -log_r[cross]
                if record_clicks:
                    clicks.extend(zip((done + cross).tolist(), tj.tolist(),
                                      pick.tolist()))
                w[cross] = c[cross] * np.exp(-1j * np.outer(t_out - tj, lam))
                g[cross], psi[cross] = gap(w[cross], log_r[cross])
            c, t0[:], g0 = w, t_out, g
            psi /= np.linalg.norm(psi, axis=1, keepdims=True)
            rho_acc[k] += psi.T @ psi.conj()
        n_jumps += int(jumps.sum())
    rho_acc /= n_traj
    clicks.sort(key=lambda click: (click[1], click[0]))
    populations = np.einsum("ij,tji->t", system.population_operator(),
                            rho_acc).real
    return TrajectoryResult(t_grid, rho_acc, clicks, n_traj, populations,
                            n_jumps, error, float(np.linalg.cond(V)),
                            clicks_are_detections=record_clicks)


def trace_distance(rho_a, rho_b) -> float:
    dev = np.asarray(rho_a) - np.asarray(rho_b)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(dev))))


# ---------------------------------------------------------------------------
# photon statistics

def detection_operator(system: QuantumSystem, theta, phi,
                       polarization=None) -> np.ndarray:
    """Far-field detection operator E(n, pol) along n = (theta, phi), its
    `farfield_coefficients` row over the lowering operators, normalization-free
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
    return lowering(row, system.moves, system.dim)


def g2_regression(system: QuantumSystem, tau_grid, theta=0.0, phi=0.0,
                  rho_ss=None):
    """g2(tau) by quantum regression: evolve the conditional state
    E rho_ss E^dag under the QME generator and read out <E^dag E>."""
    if rho_ss is None:
        rho_ss, _ = steady_state_qme(system)
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
