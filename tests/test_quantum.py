import os
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import ztrsyl

from atomarray import lli, quantum as qt
from atomarray.drives import PlaneWave, no_drive
from atomarray.errors import (DimensionCapError, NonConvergenceError,
                              PropagatorError, UndefinedG2Error)
from atomarray.geometry import (LAMBDA, Geometry, build_ring,
                                build_square_lattice, coordinate_mirrors,
                                orbit_basis, sample_positions)
from atomarray.kernel import GAMMA, K, XI, coupling_matrix, green_tensor
from atomarray.lli import TransitionSpec

EY = TransitionSpec(levels=2, orientation=(0.0, 1.0, 0.0))
J01 = TransitionSpec(levels=4)


def single_atom():
    return Geometry(np.zeros((1, 3)))


def pair(d):
    return Geometry([[0, 0, 0], [0, 0, d]])


def lowering_table(natoms, levels):
    """Reference: the (M, D, D) stacked lowering operators as Kronecker
    products, sigma^-_{jc} = 1^{(x)j} (x) |g><e_c| (x) 1^{(x)(n-j-1)} in
    row j*m + c (m = levels - 1)."""
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


def table(system):
    return lowering_table(system.geometry.natoms, system.transition.levels)


def dense_jumps(basis, lower):
    """The (K, D, D) stack of the jump operators J_k = sum_i a_ki s-_i."""
    return np.tensordot(basis.amplitudes, lower, axes=1)


# (levels, natoms) with product dimension levels**natoms <= 256
layouts = st.one_of(st.tuples(st.just(2), st.integers(1, 8)),
                    st.tuples(st.just(4), st.integers(1, 4)))


@settings(max_examples=30, deadline=None)
@given(layouts)
def test_lowering_operators_index_oracle(layout):
    """sigma^-_{jc} maps basis index s to s - (c+1) L^(n-1-j) exactly when
    base-L digit j of s (atom 0 most significant) is c+1, and has no other
    nonzero entry: the moves and the reference table both."""
    L, n = layout
    dst, src = qt.lowering_moves(n, L)
    S = lowering_table(n, L)
    D, m = L**n, L - 1
    assert dst.shape == src.shape == (n * m, D // L)
    assert S.shape == (n * m, D, D)
    s = np.arange(D)
    for j in range(n):
        place = L ** (n - 1 - j)
        digit = (s // place) % L
        for c in range(m):
            want_src = s[digit == c + 1]
            assert np.array_equal(src[j * m + c], want_src)
            assert np.array_equal(dst[j * m + c], want_src - (c + 1) * place)
            want = np.zeros((D, D))
            want[want_src - (c + 1) * place, want_src] = 1.0
            assert np.array_equal(S[j * m + c], want)


@pytest.mark.parametrize("geo, tr", [
    (build_ring(4, 0.4 * LAMBDA), EY),
    (Geometry([[0, 0, 0], [0, 0.1, 0.35 * LAMBDA]]),
     TransitionSpec(levels=4, zeeman=(0.3, 0.0, 0.5)))])
def test_observables_equal_per_operator_loops(geo, tr):
    """The contracted observables against explicit per-operator traces, and
    the Hamiltonian against its construction from the dense table."""
    drive = PlaneWave(amplitude=0.6)
    qs = qt.build_quantum_system(geo, tr, drive)
    rng = np.random.default_rng(8)
    A = rng.normal(size=(qs.dim, qs.dim)) + 1j * rng.normal(size=(qs.dim, qs.dim))
    rho = A @ A.conj().T
    rho /= np.trace(rho).real
    S = list(table(qs))
    M = len(S)
    g = qs.ground_state()
    corr = np.array([[np.trace(S[i].conj().T @ S[l] @ rho) for l in range(M)]
                     for i in range(M)])
    mean = np.array([np.trace(s @ rho) for s in S])
    block = np.array([[g.conj() @ S[i] @ rho @ S[l].conj().T @ g
                       for l in range(M)] for i in range(M)])
    b = rng.normal(size=M) + 1j * rng.normal(size=M)
    psi = sum(b[i] * S[i].conj().T @ g for i in range(M))
    psi /= np.linalg.norm(psi)
    assert np.max(np.abs(qt.correlation_table(rho, qs) - corr)) < 1e-14
    assert np.max(np.abs(qt.mean_lowering(rho, qs) - mean)) < 1e-14
    assert np.max(np.abs(qt.single_excitation_block(rho, qs) - block)) < 1e-14
    assert np.max(np.abs(qs.single_excitation(b) - psi)) < 1e-14
    omega = (coupling_matrix(geo, tr.basis).real
             + lli.block_diagonal(geo.natoms, tr.level_block))
    R = tr.rabi(drive.field(geo.positions)).reshape(-1)
    H = -sum(omega[i, l] * S[i].conj().T @ S[l]
             for i in range(M) for l in range(M))
    H -= sum(R[i] * S[i].conj().T + np.conj(R[i]) * S[i] for i in range(M))
    assert np.max(np.abs(qs.hamiltonian - H)) < 1e-14


def test_single_atom_spontaneous_decay():
    qs = qt.build_quantum_system(single_atom(), EY)
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    t = np.linspace(0, 2.5, 6)
    rhos = qt.evolve_qme(rho0, qs, t)
    pops = rhos[:, 1, 1].real
    assert np.allclose(pops, np.exp(-2 * GAMMA * t), atol=1e-8)


def test_dicke_pair_superradiant_population_decay():
    d = 0.05
    qs = qt.build_quantum_system(pair(d), EY)
    ey = np.array([0.0, 1.0, 0.0])
    g12 = XI * np.imag(ey @ green_tensor([0, 0, d]) @ ey)
    psi = qs.single_excitation([1.0, 1.0])
    rho0 = np.outer(psi, psi.conj())
    t = np.linspace(0, 1.0, 5)
    rhos = qt.evolve_qme(rho0, qs, t)
    pop_op = qs.population_operator()
    pops = np.einsum("tij,ji->t", rhos, pop_op).real
    rate = 2 * (GAMMA + g12)        # population decays at twice the linewidth
    assert abs(rate - 4 * GAMMA) < 5e-3
    assert np.allclose(pops, np.exp(-rate * t), rtol=1e-6)


def test_qme_trace_and_hermiticity_preservation():
    rng = np.random.default_rng(0)
    qs = qt.build_quantum_system(pair(0.4 * LAMBDA), EY,
                                 PlaneWave(amplitude=0.8))
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = A @ A.conj().T
    rho /= np.trace(rho).real
    drho = qt.qme_rhs(rho, qs)
    assert abs(np.trace(drho)) < 1e-12
    assert np.max(np.abs(drho - drho.conj().T)) < 1e-12
    t = np.linspace(0, 3, 4)
    rhos = qt.evolve_qme(rho, qs, t)
    for r in rhos:
        assert abs(np.trace(r) - 1.0) < 1e-9
        assert np.max(np.abs(r - r.conj().T)) < 1e-9
        assert np.real(np.trace(r @ r)) <= 1.0 + 1e-9
        assert np.linalg.eigvalsh(0.5 * (r + r.conj().T)).min() > -1e-8


TILTED = TransitionSpec(levels=2, orientation=(0.3, 1.0, -0.2), detuning=0.4)
ZEEMAN = TransitionSpec(levels=4, zeeman=(0.3, 0.0, 0.5), detuning=-0.2)
SKEW_PAIR = [[0, 0, 0], [0.2, 0.5, 0.35 * LAMBDA]]


@pytest.mark.parametrize("tr, positions", [
    (TILTED, SKEW_PAIR), (ZEEMAN, SKEW_PAIR),
    # more atoms, so more of the row moves of different s-_i overlap
    (TILTED, build_ring(4, 0.3 * LAMBDA).positions),
    (ZEEMAN, SKEW_PAIR + [[0.4 * LAMBDA, -0.1, 0.2]])],
    ids=["tr0", "tr1", "ring4", "zeeman3"])
def test_qme_rhs_equals_pairwise_lindblad_sum(tr, positions):
    """qme_rhs against the pairwise double sum of the module docstring,
    with Omega from pair_coupling and B from the system's bmatrix."""
    from atomarray.kernel import pair_coupling
    geo = Geometry(positions)
    drive = PlaneWave(amplitude=0.7, polarization=(0, 0.6, 0.8))
    qs = qt.build_quantum_system(geo, tr, drive)
    S = list(table(qs))
    Sd = [s.conj().T for s in S]
    m = tr.basis.shape[1]
    R = (drive.field(geo.positions) @ tr.basis.conj()).ravel()
    B = qs.bmatrix
    H = np.zeros((qs.dim, qs.dim), dtype=complex)
    for i in range(len(S)):
        H -= R[i] * Sd[i] + np.conj(R[i]) * S[i]
        for l in range(len(S)):
            j, a, k, b = i // m, i % m, l // m, l % m
            if j == k:
                coef = tr.level_block[a, b]
            else:
                coef = pair_coupling(geo.positions[j], geo.positions[k],
                                     tr.basis[:, a], tr.basis[:, b]).omega
            H -= coef * Sd[i] @ S[l]
    rng = np.random.default_rng(12)
    A = rng.normal(size=(qs.dim, qs.dim)) + 1j * rng.normal(size=(qs.dim, qs.dim))
    rho = A @ A.conj().T
    rho /= np.trace(rho).real
    want = -1j * (H @ rho - rho @ H)
    for i in range(len(S)):
        for l in range(len(S)):
            want += B[i, l] * (2 * S[l] @ rho @ Sd[i] - Sd[i] @ S[l] @ rho
                               - rho @ Sd[i] @ S[l])
    got = qt.qme_rhs(rho, qs)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def generator_by_row_moves(system, rho):
    """Reference: the generator with each jump applied as a row move of rho
    times a dense 2 L_i^dag = sum_l 2 B_il s+_l, the form before the sparse
    superoperator J."""
    B, (dst, src), D = system.bmatrix, system.moves, system.dim
    hnh = system.hamiltonian - 1j * qt.pair_sum(B, system.moves, D)
    out = -1j * (hnh @ rho - rho @ hnh.conj().T)
    for d, s, l_dag in zip(dst, src, qt.lowering(2.0 * B, (src, dst), D)):
        out[d] += rho[s] @ l_dag
    return out


@st.composite
def generator_systems(draw):
    """2-4 two-level atoms with a random tilted dipole, or 2-4 Zeeman-split
    J=0->1 atoms, at random positions at least 0.05 lambda apart, driven by
    a plane wave; and a random non-Hermitian D x D matrix."""
    natoms = draw(st.integers(2, 4))
    shift = st.floats(-1.0, 1.0)
    if draw(st.booleans()):
        tr = TransitionSpec(levels=4, zeeman=tuple(draw(shift)
                                                   for _ in range(3)),
                            detuning=draw(shift))
    else:
        axis = np.array([draw(shift) for _ in range(3)])
        assume(np.linalg.norm(axis) > 0.1)
        tr = TransitionSpec(levels=2, orientation=tuple(axis),
                            detuning=draw(shift))
    coord = st.floats(-0.6, 0.6)
    pos = LAMBDA * np.array([[draw(coord) for _ in range(3)]
                             for _ in range(natoms)])
    for i in range(natoms):
        for j in range(i):
            assume(np.linalg.norm(pos[i] - pos[j]) > 0.05 * LAMBDA)
    qs = qt.build_quantum_system(Geometry(pos), tr,
                                 PlaneWave(amplitude=0.7,
                                           polarization=(0, 0.6, 0.8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(qs.dim, qs.dim)) + 1j * rng.normal(size=(qs.dim,
                                                                  qs.dim))
    return qs, X


@settings(max_examples=25, deadline=None)
@given(generator_systems())
def test_generator_equals_row_move_form(case):
    qs, X = case
    want = generator_by_row_moves(qs, X)
    got = qs.generator(X)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@st.composite
def symmetric_systems(draw):
    """Mirror-symmetric arrays in the yz plane: rings of 2-4 atoms, pairs
    along y or z and 2x2 squares, of two-level y or z dipoles or J=0->1
    atoms, driven by a plane wave along x polarized along y or z; and a
    random non-Hermitian D x D matrix."""
    spacing = draw(st.floats(0.2, 0.6)) * LAMBDA
    shape = draw(st.sampled_from(["ring", "pair", "square"]))
    if shape == "ring":
        geo = build_ring(draw(st.integers(2, 4)), spacing)
    elif shape == "pair":
        geo = pair(spacing) if draw(st.booleans()) else Geometry(
            [[0, 0, 0], [0, spacing, 0]])
    else:
        geo = build_square_lattice(2, 2, spacing)
    tr = draw(st.sampled_from([
        TransitionSpec(levels=2, orientation=(0, 1, 0), detuning=0.3),
        TransitionSpec(levels=2, orientation=(0, 0, 1)), J01]))
    drive = PlaneWave(amplitude=draw(st.floats(0.1, 2.0)),
                      polarization=draw(st.sampled_from([(0, 1, 0),
                                                         (0, 0, 1)])))
    qs = qt.build_quantum_system(geo, tr, drive)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(qs.dim, qs.dim)) + 1j * rng.normal(size=(qs.dim,
                                                                  qs.dim))
    return qs, X


@settings(max_examples=40, deadline=None)
@given(symmetric_systems())
def test_sector_generator_equals_row_move_form(case):
    """The block generator, every charge of X mapped in and out, against
    the row-move form on systems that split into several sectors."""
    qs, X = case
    assert len(qs.sectors.sizes) > 1
    assert sum(qs.sectors.sizes) == qs.dim
    want = generator_by_row_moves(qs, X)
    got = qs.generator(X)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("natoms, sizes", [(6, [24, 16, 12, 12]),
                                           (7, [72, 56])])
def test_ring_sector_sizes(natoms, sizes):
    """The qme ring keeps z -> -z and, unsigned (the drive is even under
    it, the y dipoles odd), y -> -y: four sectors; an odd ring has no
    y -> -y.  x -> -x fixes every atom and y dipole, the identity."""
    qs = qt.build_quantum_system(build_ring(natoms, 0.4 * LAMBDA), EY,
                                 PlaneWave(amplitude=0.8))
    assert qs.sectors.sizes == sizes


def test_asymmetric_systems_are_one_sector():
    drive = PlaneWave(amplitude=0.8)
    rng = np.random.default_rng(4)
    sampled = Geometry(rng.uniform(-0.6, 0.6, size=(4, 3)) * LAMBDA)
    tilted = qt.build_quantum_system(build_ring(4, 0.3 * LAMBDA), TILTED,
                                     drive)
    for qs in (qt.build_quantum_system(sampled, EY, drive),
               qt.build_quantum_system(sampled, J01, drive), tilted):
        assert qs.sectors.sizes == [qs.dim]
    atom = qt.build_quantum_system(single_atom(), EY, drive)
    assert atom.sectors.kept == () and atom.sectors.sizes == [2]


def separate_parity_sectors(geometry, transition, drive):
    """Oracle: the parity sectors from couplings, a Rabi vector and a
    mirror search of the master equation's own, as they were found before
    it read the assembled coupled-dipole system."""
    C = coupling_matrix(geometry, transition.basis)
    R = np.zeros(len(C), dtype=complex)
    if drive is not None:
        R = transition.rabi(drive.field(geometry.positions)).reshape(-1)
    n, L = geometry.natoms, transition.levels
    place = L ** np.arange(n - 1, -1, -1)
    digits = np.arange(L**n) // place[:, None] % L
    tol = lli.MIRROR_TOL * np.abs(R).max(initial=0.0)
    actions = []
    mirrors = lli.level_mirrors(
        transition, lli.invariant_mirrors(geometry, transition, C))
    for perm, (idx, sign) in mirrors.values():
        for flip in (1.0, -1.0):
            if np.abs(flip * sign * R[idx] - R).max() <= tol:
                ext = np.concatenate([[1.0], flip * sign[:L - 1]])
                actions.append((place[perm] @ digits,
                                ext[digits].prod(axis=0)))
                break
    return orbit_basis(actions, L**n)


@st.composite
def sector_cases(draw):
    """Rings of 2-5 atoms, 1x2 and 2x2 squares and sampled positions; y,
    tilted, J=0->1 and Zeeman-split J=0->1 atoms (at most 4 of those);
    plane drives polarized along y, (y + z)/sqrt2 or (y + iz)/sqrt2, or no
    drive."""
    tr = draw(st.sampled_from([
        EY, TILTED, J01, TransitionSpec(levels=4, zeeman=(0.3, 0.0, 0.3)),
        TransitionSpec(levels=4, zeeman=(0.2, 0.1, -0.4), detuning=0.3)]))
    spacing = draw(st.floats(0.2, 0.6)) * LAMBDA
    shape = draw(st.sampled_from(["ring", "1x2", "2x2", "sampled"]))
    if shape == "ring":
        geo = build_ring(draw(st.integers(2, 5 if tr.levels == 2 else 4)),
                         spacing)
    elif shape == "sampled":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        geo = sample_positions(build_square_lattice(2, 2, spacing), rng,
                               0.05 * LAMBDA)
    else:
        geo = build_square_lattice(int(shape[0]), 2, spacing)
    pol = draw(st.sampled_from([(0, 1, 0), (0, 1, 1), (0, 1, 1j), None]))
    drive = None if pol is None else PlaneWave(
        amplitude=draw(st.floats(0.1, 2.0)),
        polarization=tuple(np.array(pol) / np.linalg.norm(pol)))
    return geo, tr, drive


@settings(max_examples=60, deadline=None)
@given(sector_cases())
def test_parity_sectors_equal_a_separate_search(case):
    """The sectors of build_quantum_system, found from the assembled
    system's cached mirrors and its drive f = i R, equal those of the
    master equation's own search, entry for entry."""
    want = separate_parity_sectors(*case)
    got = qt.build_quantum_system(*case).sectors
    assert got.kept == want.kept and got.labels == want.labels
    for name in ("rows", "coefs", "offsets"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("geo, tr", [
    (build_square_lattice(2, 2, 0.3 * LAMBDA), J01),
    (build_ring(5, 0.4 * LAMBDA), EY),
    (build_ring(3, 0.3 * LAMBDA), TILTED)],
    ids=["square-J01", "ring5", "tilted"])
def test_build_assembles_once_and_checks_each_mirror_once(geo, tr,
                                                          monkeypatch):
    calls = {"coupling_matrix": 0, "invariant": 0}

    def counted(name):
        original = getattr(lli, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call
    for name in calls:
        monkeypatch.setattr(lli, name, counted(name))
    qt.build_quantum_system(geo, tr, PlaneWave(amplitude=0.5))
    proposed = [axis for axis, perm in coordinate_mirrors(geo.positions)
                .items() if lli.mirror_action(tr, axis, perm) is not None]
    assert calls == {"coupling_matrix": 1, "invariant": len(proposed)}


@settings(max_examples=25, deadline=None)
@given(st.one_of(generator_systems(), symmetric_systems()))
def test_generator_keeps_trace_and_adjoint(case):
    """Tr L(X) = 0 and L(X^dag) = L(X)^dag for non-Hermitian X, which the
    GMRES steady state relies on."""
    qs, X = case
    LX = qs.generator(X)
    scale = np.max(np.abs(LX))
    assert abs(np.trace(LX)) <= 1e-13 * qs.dim * scale
    assert np.max(np.abs(qs.generator(X.conj().T) - LX.conj().T)) <= (
        1e-14 * scale)


def _triangle(rng, n):
    """Random upper triangular, its diagonal in (1, 2) - i (1, 2), so that
    A_kk - conj(B_ll) has modulus > 2 for two of them."""
    off = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (np.triu(off, 1) / np.sqrt(n)
            + np.diag(rng.uniform(1, 2, n) - 1j * rng.uniform(1, 2, n)))


@pytest.mark.parametrize("m, n", [(1, 1), (31, 31), (33, 33), (64, 64),
                                  (100, 100), (1, 64), (33, 100), (100, 31)])
def test_triangular_sylvester_equals_ztrsyl(m, n):
    """The recursive blocked solve against one ztrsyl call, on triangles
    whose sides split unevenly (33 -> 16 + 17) or not at all (<= 32)."""
    rng = np.random.default_rng(m * 1000 + n)
    A, B = _triangle(rng, m), _triangle(rng, n)
    C = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    want, want_scale, _ = ztrsyl(A, B, C, trana="N", tranb="C", isgn=-1)
    got, scale = qt.triangular_sylvester(A, B, C)
    assert scale == want_scale == 1.0
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_triangular_sylvester_carries_the_scale():
    """A near-singular pair A_00 - conj(B_00) = 1e-9 with a right-hand side
    of 1e282: LAPACK scales the solution down to avoid overflow there, and
    only there, every other A_kk - conj(B_ll) being far from zero.  Row 0
    and column 0 are solved last, so the recursion must rescale every
    block solved before them, below and to the right."""
    rng = np.random.default_rng(0)
    A, B = _triangle(rng, 100), _triangle(rng, 33)
    A[0, 0] = B[0, 0].conj() + 1e-9
    C = 1e282 * (rng.normal(size=(100, 33)) + 1j * rng.normal(size=(100, 33)))
    want, want_scale, _ = ztrsyl(A, B, C, trana="N", tranb="C", isgn=-1)
    got, scale = qt.triangular_sylvester(A, B, C)
    assert 0.0 < want_scale < 1e-280
    assert scale == pytest.approx(want_scale, rel=1e-12)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_undriven_steady_state_is_ground():
    qs = qt.build_quantum_system(pair(0.6 * LAMBDA), EY, no_drive())
    rng = np.random.default_rng(1)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho0 = A @ A.conj().T
    rho0 /= np.trace(rho0).real
    rho, _ = qt.steady_state_qme(qs, rho0=rho0)
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    assert np.max(np.abs(rho - want)) < 1e-7


def test_driven_single_atom_matches_obe_saturation():
    R = 0.9
    qs = qt.build_quantum_system(single_atom(), EY, PlaneWave(amplitude=R))
    rho, _ = qt.steady_state_qme(qs)
    want = R**2 / (GAMMA**2 + 2 * R**2)
    assert abs(rho[1, 1].real - want) < 1e-9


@st.composite
def driven_small_systems(draw):
    """Two-level atoms (1-3, random dipole orientation) or J=0->1 atoms
    (1-2, random Zeeman shifts; D <= 16 keeps the reference evolution
    short) at least 0.3 lambda apart, driven by a plane wave of random
    transverse polarization and Rabi frequency in [0.1, 2]."""
    if draw(st.booleans()):
        natoms = draw(st.integers(1, 2))
        shift = st.floats(-1.0, 1.0)
        tr = TransitionSpec(levels=4, zeeman=tuple(draw(shift)
                                                   for _ in range(3)))
    else:
        natoms = draw(st.integers(1, 3))
        axis = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
        assume(np.linalg.norm(axis) > 0.1)
        tr = TransitionSpec(levels=2, orientation=tuple(axis))
    coord = st.floats(-0.6, 0.6)
    pos = LAMBDA * np.array([[draw(coord) for _ in range(3)]
                             for _ in range(natoms)])
    for i in range(natoms):
        for j in range(i):
            assume(np.linalg.norm(pos[i] - pos[j]) > 0.3 * LAMBDA)
    mix = draw(st.floats(0.0, np.pi))
    phase = draw(st.floats(0.0, 2 * np.pi))
    pol = (0.0, np.cos(mix), np.exp(1j * phase) * np.sin(mix))
    drive = PlaneWave(amplitude=draw(st.floats(0.1, 2.0)), polarization=pol)
    return qt.build_quantum_system(Geometry(pos), tr, drive)


@settings(max_examples=40, deadline=None)
@given(driven_small_systems())
def test_steady_state_equals_long_time_evolution(qs):
    rho, _ = qt.steady_state_qme(qs)
    g = qs.ground_state()
    late = qt.evolve_qme(np.outer(g, g.conj()), qs, [0.0, 200.0],
                         rtol=1e-11, atol=1e-13)[-1]
    assert np.max(np.abs(rho - late)) < 1e-8
    assert np.abs(qt.qme_rhs(rho, qs)).sum() < 1e-9


def check_residual_in_charge_zero(qs):
    """steady_state_qme builds the jump term of charge 0 alone, and the
    residual it reports equals the D x D one, which builds every charge
    that rho's off-charge rounding occupies, to rounding."""
    rho, resid = qt.steady_state_qme(qs)
    assert list(qs.generator.jumps) == [0]
    full = np.abs(qt.qme_rhs(rho, qs)).sum()
    scale = np.abs(qs.hamiltonian).max() + np.abs(qs.bmatrix).max()
    assert abs(resid - full) <= 1e-16 * qs.dim * scale


@pytest.mark.parametrize("natoms", [6, 7, 8])
def test_ring_steady_state_residual_in_charge_zero(natoms):
    check_residual_in_charge_zero(qt.build_quantum_system(
        build_ring(natoms, 0.4 * LAMBDA), EY, PlaneWave(amplitude=0.8)))


@settings(max_examples=25, deadline=None)
@given(st.one_of(symmetric_systems().map(lambda case: case[0]),
                 driven_small_systems()))
def test_steady_state_residual_in_charge_zero(qs):
    check_residual_in_charge_zero(qs)


def test_steady_state_reports_unreachable_residual():
    qs = qt.build_quantum_system(pair(0.5 * LAMBDA), EY, PlaneWave(0.8))
    with pytest.raises(NonConvergenceError) as err:
        qt.steady_state_qme(qs, residual_tol=1e-30)
    assert 0.0 < err.value.residual < 1e-9


@pytest.mark.parametrize("sep, axis", [(1e-3, (0, 1, 0)), (1e-3, (1, 1, 1)),
                                       (1e-2, (1, 1, 1))])
def test_close_pair_steady_state_equals_dense_solve(sep, axis):
    # couplings up to ~1e6 gamma; reference: the dense Liouvillian (row-major
    # vec, pairwise jump term 2 B_il s-_i rho s+_l) with the rho_00 equation
    # replaced by Tr rho = 1
    qs = qt.build_quantum_system(
        pair(sep * LAMBDA), TransitionSpec(levels=2, orientation=axis),
        PlaneWave(amplitude=2.0))
    assert np.max(np.abs(qt.steady_state_qme(qs)[0] - dense_steady_state(qs))
                  ) < 1e-10


def dense_liouvillian(qs):
    """Reference: the dense Liouvillian on row-major vec rho, the no-jump
    part from Hnh and the pairwise jump term 2 B_il s-_i rho s+_l."""
    B, eye = qs.bmatrix, np.eye(qs.dim)
    hnh = qs.hamiltonian - 1j * qt.pair_sum(B, qs.moves, qs.dim)
    L = -1j * (np.kron(hnh, eye) - np.kron(eye, hnh.conj()))
    S = table(qs)
    L += 2 * sum(B[i, l] * np.kron(S[i], S[l].conj())
                 for i in range(len(S)) for l in range(len(S)))
    return L


def dense_steady_state(qs):
    """Reference: the dense Liouvillian with the rho_00 equation replaced
    by Tr rho = 1, solved by LU."""
    L = dense_liouvillian(qs)
    L[0] = np.eye(qs.dim).ravel()
    rhs = np.zeros(qs.dim**2)
    rhs[0] = 1.0
    return np.linalg.solve(L, rhs).reshape(qs.dim, qs.dim)


def test_steady_state_of_seven_atom_ring():
    qs = qt.build_quantum_system(build_ring(7, 0.4 * LAMBDA), EY,
                                 PlaneWave(amplitude=0.8))
    rho, _ = qt.steady_state_qme(qs)
    assert qs.dim == 128
    assert np.abs(qt.qme_rhs(rho, qs)).sum() < 1e-9
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) == 0.0


def test_single_excitation_sector_equals_coupled_dipoles():
    """The one-excitation QME block evolves exactly like the LLI amplitudes."""
    rng = np.random.default_rng(7)
    pos = rng.uniform(-0.6 * LAMBDA, 0.6 * LAMBDA, size=(3, 3))
    geo = Geometry(pos)
    qs = qt.build_quantum_system(geo, EY, no_drive())
    lsys = lli.assemble(geo, EY, no_drive())
    b0 = rng.normal(size=3) + 1j * rng.normal(size=3)
    b0 /= np.linalg.norm(b0)
    psi0 = qs.single_excitation(b0)
    rho0 = np.outer(psi0, psi0.conj())
    t = np.array([0.0, 0.8, 1.6])
    rhos = qt.evolve_qme(rho0, qs, t, rtol=1e-11, atol=1e-13)
    amps = lli.evolve(lsys, b0, t)
    for i in range(len(t)):
        block = qt.single_excitation_block(rhos[i], qs)
        want = np.outer(amps[i], amps[i].conj())
        assert np.max(np.abs(block - want)) < 1e-8


def test_single_excitation_sector_j01():
    rng = np.random.default_rng(3)
    geo = Geometry(rng.uniform(-0.4 * LAMBDA, 0.4 * LAMBDA, size=(2, 3)))
    qs = qt.build_quantum_system(geo, J01, no_drive())
    lsys = lli.assemble(geo, J01, no_drive())
    b0 = rng.normal(size=6) + 1j * rng.normal(size=6)
    b0 /= np.linalg.norm(b0)
    psi0 = qs.single_excitation(b0)
    rho0 = np.outer(psi0, psi0.conj())
    t = np.array([0.0, 1.0])
    rhos = qt.evolve_qme(rho0, qs, t, rtol=1e-11, atol=1e-13)
    amps = lli.evolve(lsys, b0, t)
    block = qt.single_excitation_block(rhos[-1], qs)
    want = np.outer(amps[-1], amps[-1].conj())
    assert np.max(np.abs(block - want)) < 1e-8


def test_many_body_deviation_peaks_at_intermediate_intensity():
    # coherent field of a 3-atom chain: QME vs semiclassical deviation is
    # largest around I ~ I_sat and fades in both limits
    from atomarray import semiclassical as sc
    d = 0.4 * LAMBDA
    geo = Geometry([[0, 0, -d], [0, 0, 0], [0, 0, d]])
    devs = []
    for I in (1e-3, 1.0, 300.0):
        R = np.sqrt(I / 2)
        drive = PlaneWave(amplitude=R)
        qs = qt.build_quantum_system(geo, EY, drive)
        rho, _ = qt.steady_state_qme(qs)
        means_q = qt.mean_lowering(rho, qs)
        system = lli.assemble(geo, EY, drive)
        st, _ = sc.steady_state_obe(system, horizon=300.0)
        num = np.linalg.norm(means_q - st.coherences[:, 0])
        den = max(np.linalg.norm(means_q), 1e-12)
        devs.append(num / den)
    assert devs[1] > devs[0]
    assert devs[1] > devs[2]


def test_source_mode_completeness():
    for tr, geo in ((EY, pair(0.3 * LAMBDA)),
                    (J01, pair(0.45 * LAMBDA))):
        qs = qt.build_quantum_system(geo, tr)
        basis = qt.source_mode_basis(qs)
        assert qt.dissipator_completeness(qs, basis) < 1e-10


def test_directional_basis_converges_to_dissipator():
    qs = qt.build_quantum_system(pair(0.5 * LAMBDA), EY)
    errs = []
    for n in (8, 16, 32):
        basis = qt.directional_basis(qs, n_theta=n, n_phi=2 * n)
        errs.append(qt.dissipator_completeness(qs, basis))
    assert errs[-1] < 1e-8
    assert errs[0] > errs[-1]


@settings(max_examples=25, deadline=None)
@given(driven_small_systems(), st.integers(0, 2**32 - 1))
def test_decay_operator_equals_sum_of_dense_jumps(qs, seed):
    """sum_k J_k^dag J_k as the pair sum of A^H A equals the sum over the
    materialised (K, D, D) jump operators: source modes, a directional
    grid and random complex amplitudes."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(5, len(qs.bmatrix), 2)) @ [1.0, 1j]
    bases = [qt.source_mode_basis(qs), qt.directional_basis(qs, 3, 6),
             qt.JumpBasis(amps)]
    for basis in bases:
        ops = dense_jumps(basis, table(qs))
        want = np.einsum("kji,kjl->il", ops.conj(), ops)
        A = basis.amplitudes
        dev = np.max(np.abs(qt.pair_sum(A.conj().T @ A, qs.moves, qs.dim)
                            - want))
        assert dev <= 1e-14 * np.max(np.abs(want))


def directional_basis_loop(system, n_theta, n_phi):
    """Reference: one direction at a time, a transverse pair (e1 from a
    seed axis, e2 = n x e1) per direction, a channel per polarization that
    some dipole component radiates into."""
    from atomarray.observables import sphere_grid
    nhat, w = sphere_grid(n_theta, n_phi)
    basis = system.transition.basis
    pos = system.geometry.positions
    ops, dirs = [], []
    amp0 = 3.0 * GAMMA / (8.0 * np.pi)
    for i, nh in enumerate(nhat):
        seed = (np.array([0.0, 1.0, 0.0]) if abs(nh[0]) > 0.5
                else np.array([1.0, 0.0, 0.0]))
        e1 = seed - nh * (seed @ nh)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(nh, e1)
        phases = np.exp(-1j * K * pos @ nh)
        theta = float(np.arccos(np.clip(nh[0], -1.0, 1.0)))
        phi = float(np.arctan2(nh[2], nh[1]))
        for pol in (e1, e2):
            coef = pol.astype(complex) @ basis
            if np.max(np.abs(coef)) < 1e-14:
                continue
            J = np.tensordot(np.outer(phases, coef).ravel(), table(system),
                             axes=1)
            ops.append(np.sqrt(amp0 * w[i]) * J)
            dirs.append((theta, phi))
    return np.array(ops), np.asarray(dirs)


FARFIELD_SYSTEMS = {
    "tilted_ring": (build_ring(3, 0.4 * LAMBDA),
                    TransitionSpec(levels=2, orientation=(0.3, 0.8, -0.5))),
    "zeeman_pair": (pair(0.3 * LAMBDA),
                    TransitionSpec(levels=4, zeeman=(0.3, 0.0, 0.5))),
}


@pytest.mark.parametrize("name", sorted(FARFIELD_SYSTEMS))
@pytest.mark.parametrize("grid", [(4, 8), (7, 11)])
def test_directional_basis_equals_direction_loop(name, grid):
    geo, tr = FARFIELD_SYSTEMS[name]
    qs = qt.build_quantum_system(geo, tr, PlaneWave(amplitude=0.5))
    want_ops, want_dirs = directional_basis_loop(qs, *grid)
    basis = qt.directional_basis(qs, *grid)
    assert dense_jumps(basis, table(qs)).shape == want_ops.shape
    assert np.array_equal(basis.directions, want_dirs)
    dev = np.max(np.abs(dense_jumps(basis, table(qs)) - want_ops))
    assert dev <= 1e-14 * np.max(np.abs(want_ops))


def test_detection_operator_is_a_directional_channel():
    from atomarray.observables import sphere_grid
    geo, tr = FARFIELD_SYSTEMS["zeeman_pair"]
    qs = qt.build_quantum_system(geo, tr)
    nhat, w = sphere_grid(3, 5)
    basis = qt.directional_basis(qs, 3, 5)
    # J=0 -> J'=1 radiates into every polarization: two channels each
    assert len(dense_jumps(basis, table(qs))) == 2 * len(nhat)
    for i, nh in enumerate(nhat):
        seed = [0.0, 1.0, 0.0] if abs(nh[0]) > 0.5 else [1.0, 0.0, 0.0]
        e1 = seed - nh * (nh @ seed)
        e1 /= np.linalg.norm(e1)
        theta, phi = basis.directions[2 * i]
        for p, pol in enumerate((e1, np.cross(nh, e1))):
            J = dense_jumps(basis, table(qs))[2 * i + p]
            E = qt.detection_operator(qs, theta, phi, pol)
            scale = np.sqrt(3.0 * GAMMA / (8.0 * np.pi) * w[i])
            assert np.max(np.abs(E - J / scale)) < 1e-12 * np.max(np.abs(E))


def test_directional_click_rate_matches_rate_formula():
    """Total directional click rate in steady state equals the rate formula
    evaluated on the QME correlations (within Monte-Carlo error)."""
    from atomarray.observables import total_scattering_rate
    geo = pair(0.5 * LAMBDA)
    drive = PlaneWave(amplitude=0.6)
    qs = qt.build_quantum_system(geo, EY, drive)
    rho_ss, _ = qt.steady_state_qme(qs)
    C = qt.correlation_table(rho_ss, qs)
    n_s = total_scattering_rate(C, geo, EY)

    basis = qt.directional_basis(qs, n_theta=10, n_phi=20)
    t_relax = 8.0
    T = 28.0
    res = qt.run_trajectories(qs.ground_state(), qs, basis,
                              np.linspace(0, T, 15), n_traj=600, seed=5)
    late = [c for c in res.clicks if c[1] > t_relax]
    rate = len(late) / (res.n_traj * (T - t_relax))
    sigma = np.sqrt(len(late)) / (res.n_traj * (T - t_relax))
    assert abs(rate - n_s) < 4 * sigma + 0.02 * n_s


def test_directional_channel_draw_matches_channel_rates():
    """Clicks of a driven atom fall into each polar ring of directions with
    the ring's share of the steady-state rates sum_m Tr(J_m^dag J_m rho)."""
    qs = qt.build_quantum_system(single_atom(), EY, PlaneWave(amplitude=0.6))
    rho_ss, _ = qt.steady_state_qme(qs)
    basis = qt.directional_basis(qs, n_theta=6, n_phi=12)
    ops = dense_jumps(basis, table(qs))
    rates = np.einsum("mji,mjk,ki->m", ops.conj(), ops, rho_ss).real
    rings, ring = np.unique(basis.directions[:, 0], return_inverse=True)
    want = np.bincount(ring, weights=rates) / rates.sum()

    t_relax, T = 4.0, 24.0
    res = qt.run_trajectories(qs.ground_state(), qs, basis,
                              np.linspace(0, T, 7), n_traj=300, seed=2)
    late = np.array([ch for _, t, ch in res.clicks if t > t_relax])
    got = np.bincount(ring[late], minlength=len(rings)) / len(late)
    sigma = np.sqrt(want * (1 - want) / len(late))
    assert np.all(np.abs(got - want) < 4 * sigma + 5e-3)


def run_trajectories_dense(psi0, system, basis, t_grid, n_traj, seed):
    """Reference: the waiting-time unraveling of `run_trajectories` (one
    chunk), one trajectory at a time, with the jump operators stored
    densely, the no-jump evolution by scipy.linalg.expm and each norm
    crossing ||e^{-i Hnh t} psi||^2 = r found by scalar bisection; the
    same uniform tables (column 2j the threshold of jump j, 2j + 1 its
    channel draw, TRAJ_JUMP_BLOCK jumps per table)."""
    ops = dense_jumps(basis, table(system))
    K, D, _ = ops.shape
    rows = ops.reshape(K * D, D)
    hnh = system.hamiltonian - 1j * rows.conj().T @ rows
    entropy = np.random.SeedSequence(seed).entropy
    width = 2 * qt.TRAJ_JUMP_BLOCK
    tables = {}

    def uniform(b, col):
        block = col // width
        if block not in tables:
            ss = np.random.SeedSequence(entropy, spawn_key=(0, block))
            tables[block] = np.random.default_rng(ss).random(
                (qt.TRAJ_CHUNK, width))
        return tables[block][b, col % width]

    def evolve(psi, t):
        return scipy.linalg.expm(-1j * hnh * t) @ psi

    rho, clicks = np.zeros((len(t_grid), D, D), dtype=complex), []
    for b in range(n_traj):
        psi, t0, jumps = psi0 / np.linalg.norm(psi0), 0.0, 0
        rho[0] += np.outer(psi, psi.conj())
        for k in range(1, len(t_grid)):
            r = uniform(b, 2 * jumps)
            while np.linalg.norm(evolve(psi, t_grid[k] - t0)) ** 2 < r:
                lo, hi = max(t0, t_grid[k - 1]), t_grid[k]
                while hi - lo > 1e-13:
                    mid = 0.5 * (lo + hi)
                    if np.linalg.norm(evolve(psi, mid - t0)) ** 2 < r:
                        hi = mid
                    else:
                        lo = mid
                jumped = ops @ evolve(psi, hi - t0)
                cum = np.cumsum(np.sum(np.abs(jumped) ** 2, axis=1))
                ch = int(np.sum(uniform(b, 2 * jumps + 1) * cum[-1] > cum))
                psi = jumped[ch] / np.linalg.norm(jumped[ch])
                clicks.append((b, hi, ch))
                t0, jumps = hi, jumps + 1
                r = uniform(b, 2 * jumps)
            phi = evolve(psi, t_grid[k] - t0)
            rho[k] += np.outer(phi, phi.conj()) / np.linalg.norm(phi) ** 2
    return rho / n_traj, clicks


@pytest.mark.parametrize("name", sorted(FARFIELD_SYSTEMS))
def test_jump_step_equals_dense_reference(name):
    geo, tr = FARFIELD_SYSTEMS[name]
    qs = qt.build_quantum_system(geo, tr, PlaneWave(amplitude=0.8))
    basis = qt.directional_basis(qs, 4, 8)
    t = np.linspace(0.0, 3.0, 4)
    res = qt.run_trajectories(qs.ground_state(), qs, basis, t, 50, seed=13)
    rho, clicks = run_trajectories_dense(qs.ground_state(), qs, basis, t,
                                         50, seed=13)
    assert len(clicks) > 50
    got = sorted(res.clicks)
    assert [(b, ch) for b, _, ch in got] == [(b, ch) for b, _, ch in clicks]
    assert np.max(np.abs(np.array([c[1] for c in got])
                         - [c[1] for c in clicks])) < 1e-9
    assert np.max(np.abs(res.rho - rho)) < 1e-10


def test_trajectories_single_atom_decay():
    qs = qt.build_quantum_system(single_atom(), EY)
    psi0 = np.array([0.0, 1.0], dtype=complex)
    t = np.linspace(0, 2, 5)
    res = qt.run_trajectories(psi0, qs, qt.source_mode_basis(qs), t,
                              n_traj=10_000, seed=11)
    want = np.exp(-2 * GAMMA * t)
    sigma = np.sqrt(want * (1 - want) / res.n_traj) + 1e-4
    assert np.all(np.abs(res.populations - want) < 4 * sigma + 2e-3)


def test_trajectories_match_qme_pair():
    d = 0.5 * LAMBDA
    drive = PlaneWave(amplitude=0.8)
    tr = TransitionSpec(levels=2, orientation=(0, 1, 0), detuning=0.3)
    qs = qt.build_quantum_system(pair(d), tr, drive)
    t = np.linspace(0, 5, 6)
    psi0 = qs.ground_state()
    res = qt.run_trajectories(psi0, qs, qt.source_mode_basis(qs), t,
                              n_traj=20_000, seed=21)
    ref = qt.evolve_qme(np.outer(psi0, psi0.conj()), qs, t)
    dists = [qt.trace_distance(res.rho[i], ref[i]) for i in range(len(t))]
    assert max(dists) < 0.03


def test_trajectory_determinism_per_seed():
    qs = qt.build_quantum_system(single_atom(), EY, PlaneWave(amplitude=1.0))
    t = np.linspace(0, 1, 3)
    psi0 = qs.ground_state()
    a = qt.run_trajectories(psi0, qs, qt.source_mode_basis(qs), t, 500, seed=9)
    b = qt.run_trajectories(psi0, qs, qt.source_mode_basis(qs), t, 500, seed=9)
    assert np.array_equal(a.rho, b.rho)
    assert a.clicks == b.clicks


def test_trajectory_index_reproducible_across_ensemble_sizes():
    # trajectory i is a fixed function of (seed, i): growing the ensemble
    # must not change the records of earlier trajectories
    qs = qt.build_quantum_system(single_atom(), EY, PlaneWave(amplitude=1.0))
    basis = qt.directional_basis(qs, n_theta=4, n_phi=8)
    t = np.linspace(0, 3, 4)
    psi0 = qs.ground_state()
    small = qt.run_trajectories(psi0, qs, basis, t, 120, seed=17)
    large = qt.run_trajectories(psi0, qs, basis, t, 260, seed=17)
    early = [c for c in large.clicks if c[0] < 120]
    assert early == small.clicks


def test_trajectory_draws_past_one_table_reproduce():
    # more than TRAJ_JUMP_BLOCK jumps take a trajectory into the next table
    # of uniforms; its records still depend only on (seed, index), also
    # when it runs alone
    geo, tr = FARFIELD_SYSTEMS["tilted_ring"]
    qs = qt.build_quantum_system(geo, tr, PlaneWave(amplitude=0.8))
    basis = qt.directional_basis(qs, 4, 8)
    t = np.linspace(0, 12, 5)
    psi0 = qs.ground_state()
    small = qt.run_trajectories(psi0, qs, basis, t, 10, seed=23)
    large = qt.run_trajectories(psi0, qs, basis, t, 20, seed=23)
    single = qt.run_trajectories(psi0, qs, basis, t, 1, seed=23)
    per_traj = np.bincount([c[0] for c in small.clicks])
    assert per_traj.max() > qt.TRAJ_JUMP_BLOCK
    assert [c for c in large.clicks if c[0] < 10] == small.clicks
    assert [c for c in small.clicks if c[0] == 0] == single.clicks
    # the later tables are the dense reference's (chunk, block) streams
    _, clicks = run_trajectories_dense(psi0, qs, basis, t, 10, seed=23)
    got = sorted(small.clicks)
    assert [(b, ch) for b, _, ch in got] == [(b, ch) for b, _, ch in clicks]
    assert np.allclose([c[1] for c in got], [c[1] for c in clicks],
                       rtol=0.0, atol=1e-9)


def test_trajectories_at_exceptional_point():
    # a single atom driven at Rabi amplitude 0.5: Hnh is defective and its
    # numerical eigenvectors nearly parallel (cond V ~ 1e8)
    qs = qt.build_quantum_system(single_atom(), EY, PlaneWave(amplitude=0.5))
    t = np.linspace(0, 4, 9)
    psi0 = qs.ground_state()
    n = 4000
    res = qt.run_trajectories(psi0, qs, qt.source_mode_basis(qs), t, n,
                              seed=7)
    ref = qt.evolve_qme(np.outer(psi0, psi0.conj()), qs, t)
    dists = [qt.trace_distance(res.rho[i], ref[i]) for i in range(len(t))]
    assert max(dists) < 3 / np.sqrt(n)
    assert res.propagator_error < 1e-6
    assert res.eigvec_cond > 1e6


def test_trajectory_propagator_guard(monkeypatch):
    qs = qt.build_quantum_system(single_atom(), EY, PlaneWave(amplitude=0.8))
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda a: expm(a) + 2e-6)
    with pytest.raises(PropagatorError, match="2.00e-06"):
        qt.run_trajectories(qs.ground_state(), qs, qt.source_mode_basis(qs),
                            np.linspace(0, 1, 3), 10, seed=0)


@pytest.mark.parametrize("theta, phi", [(0.0, 0.0), (np.pi / 3, np.pi / 4),
                                        (2.5, 0.3)],
                         ids=["forward", "oblique", "backward"])
def test_g2_antibunching_and_closed_form(theta, phi):
    # one atom radiates the same g2 into every direction
    R = 0.35
    qs = qt.build_quantum_system(single_atom(), EY, PlaneWave(amplitude=R))
    tau = np.linspace(0, 10, 81)
    g2 = qt.g2_regression(qs, tau, theta, phi)
    assert abs(g2[0]) < 1e-10                   # two-level antibunching
    want = qt.g2_analytic(tau, 2 * R**2)
    assert np.max(np.abs(g2 - want)) < 1e-6
    assert abs(g2[-1] - 1.0) < 1e-3


def test_g2_off_charge_equals_dense_liouvillian():
    """At an oblique direction the detection operator of a symmetric ring
    is no mirror eigenoperator, so the conditional state E rho_ss E^dag
    occupies charges other than 0: g2 against the exact propagator
    expm(L tau) of the dense Liouvillian."""
    qs = qt.build_quantum_system(build_ring(4, 0.3 * LAMBDA), EY,
                                 PlaneWave(amplitude=0.7))
    theta, phi = np.pi / 3, np.pi / 5
    tau = np.linspace(0, 3, 7)
    got = qt.g2_regression(qs, tau, theta, phi)
    E = qt.detection_operator(qs, theta, phi)
    rho_ss = dense_steady_state(qs)
    cond = E @ rho_ss @ E.conj().T
    generator = qs.generator
    assert len(qs.sectors.sizes) == 4
    assert len(generator.occupied(qs.sectors.to_sectors(cond))) > 1
    L, EdE = dense_liouvillian(qs), E.conj().T @ E
    rate = np.trace(EdE @ rho_ss).real
    want = [np.trace(EdE @ (scipy.linalg.expm(L * t) @ cond.ravel()).reshape(
        qs.dim, qs.dim)).real / rate**2 for t in tau]
    assert np.max(np.abs(got - want)) < 1e-8


def test_g2_analytic_limits():
    tau = np.linspace(0, 10, 101)
    # kappa = 0 limit: I/I_s = 1/8
    got = qt.g2_analytic(tau, 1.0 / 8.0)
    want = 1.0 - np.exp(-1.5 * tau) * (1.0 + 1.5 * tau)
    assert np.allclose(got, want, atol=1e-9)
    # continuity across kappa = 0
    eps = qt.g2_analytic(tau, 1.0 / 8.0 + 1e-9)
    assert np.max(np.abs(eps - want)) < 1e-6
    assert qt.g2_analytic(0.0, 0.7) == 0.0
    assert abs(qt.g2_analytic(200.0, 0.7) - 1.0) < 1e-12


def test_g2_collective_substitution_is_rescaling():
    # replacing gamma -> ups rescales time: g2^{(ups)}(tau) = g2^{(1)}(ups tau)
    tau = np.linspace(0, 12, 50)
    ups = 0.5
    a = qt.g2_analytic(tau, 0.05, linewidth=ups)
    b = qt.g2_analytic(ups * tau, 0.05, linewidth=GAMMA)
    assert np.allclose(a, b, atol=1e-12)


def test_g2_from_trajectory_clicks():
    R = 0.5
    qs = qt.build_quantum_system(single_atom(), EY, PlaneWave(amplitude=R))
    basis = qt.directional_basis(qs, n_theta=8, n_phi=16)
    T = 60.0
    res = qt.run_trajectories(qs.ground_state(), qs, basis,
                              np.linspace(0, T, 7), n_traj=1200, seed=3)
    edges = np.linspace(0.0, 4.0, 9)
    centers, g2, err = qt.g2_from_clicks(res, edges, t_min=5.0)
    want = qt.g2_analytic(centers, 2 * R**2)
    assert np.all(np.abs(g2 - want) < 4 * err + 0.15)
    # antibunching at short delays
    assert g2[0] < 0.5


def test_g2_undefined_without_rate():
    qs = qt.build_quantum_system(single_atom(), EY, no_drive())
    rho = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(UndefinedG2Error):
        qt.g2_regression(qs, np.linspace(0, 1, 3), rho_ss=rho)


def test_detection_operator_without_transverse_light_is_undefined():
    """A polarization along n, and the default along a dipole's own axis
    (whose transverse part is rounding), reach no detector: an error, not
    a NaN operator."""
    import warnings
    qs = qt.build_quantum_system(pair(0.3 * LAMBDA), EY,
                                 PlaneWave(amplitude=0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(UndefinedG2Error):
            qt.detection_operator(qs, 0.0, 0.0, (1.0, 0.0, 0.0))
        with pytest.raises(UndefinedG2Error):
            qt.detection_operator(qs, np.pi / 2, 0.0)   # n along y
        E = qt.detection_operator(qs, np.pi / 2, 1e-3)
    assert np.isfinite(E).all() and np.abs(E).max() > 0


def test_g2_along_a_dipole_axis_is_undefined():
    qs = qt.build_quantum_system(single_atom(), EY, PlaneWave(amplitude=0.35))
    with pytest.raises(UndefinedG2Error):
        qt.g2_regression(qs, np.linspace(0, 1, 3), np.pi / 2, 0.0)


def test_dimension_caps():
    with pytest.raises(DimensionCapError):
        qt.build_quantum_system(build_square_lattice(4, 4, 0.5 * LAMBDA), EY)


def test_caps_compare_estimates_with_physical_memory(monkeypatch):
    # the N = 6 ring: a 0.25 MiB build, but a GMRES basis of 51 x 64 KiB
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}      # 1 MiB
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    qs = qt.build_quantum_system(build_ring(6, 0.4 * LAMBDA), EY,
                                 PlaneWave(amplitude=0.8))
    with pytest.raises(DimensionCapError) as err:
        qt.steady_state_qme(qs)
    msg = str(err.value)
    need = re.search(r"^steady_state_qme at dimension 64 needs an estimated "
                     r"([\d.]+) MiB", msg)
    assert need and float(need.group(1)) > 3.2
    assert "1.0 MiB of physical memory" in msg


def test_build_memory_is_a_few_dense_matrices():
    """The 10-atom ring (D = 1024) builds within 8 D x D complex arrays of
    traced memory; a stacked (M, D, D) lowering table alone is 10."""
    geo = build_ring(10, 0.4 * LAMBDA)
    tracemalloc.start()
    try:
        qs = qt.build_quantum_system(geo, EY, PlaneWave(amplitude=0.8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert qs.dim == 1024
    assert peak < 8 * qs.dim**2 * 16


def test_evolve_qme_holds_its_output_once():
    """On the 8-atom ring (D = 256, charge 0 of 16960 entries) the traced
    peak of evolve_qme, its jump term built before, stays within the
    integration's part of its cap estimate: 38 + nt state vectors (DOP853
    and its output) and nt + 6 complex D x D arrays (the expanded output
    and the expansion's temporaries), 42.3 MiB at nt = 21 (measured 37.4
    MiB); holding the expanded output twice needs nt D x D arrays (21 MiB)
    more."""
    import scipy.integrate  # noqa: F401  (its import is not the evolution's)
    qs = qt.build_quantum_system(build_ring(8, 0.4 * LAMBDA), EY,
                                 PlaneWave(amplitude=0.8))
    psi = qs.ground_state()
    t = np.linspace(0.0, 0.1, 21)
    qs.generator.block_rhs([0])
    n = qs.generator.layout([0])[-1][3]
    tracemalloc.start()
    try:
        rhos = qt.evolve_qme(np.outer(psi, psi), qs, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rhos.shape == (21, 256, 256) and n == 16960
    assert peak < 16 * ((38 + len(t)) * n + (len(t) + 6) * qs.dim**2)


@pytest.mark.parametrize("natoms", [6, 7])
def test_memory_estimates_bound_the_traced_peaks(natoms, monkeypatch):
    """Each cap estimate, from the sector sizes and the bound on the sector
    jump term's entries, against the tracemalloc peak of the call it
    guards on a fresh ring, the build of the generator and of its jump
    term (with the transient full J) included."""
    import scipy.integrate  # noqa: F401  (its import is not the evolution's)
    needs, check = {}, qt._check_memory

    def record(what, dim, need):
        needs[what] = need
        check(what, dim, need)
    monkeypatch.setattr(qt, "_check_memory", record)
    psi = np.zeros(2**natoms)
    psi[0] = 1.0
    calls = {
        "evolve_qme": lambda qs: qt.evolve_qme(np.outer(psi, psi), qs,
                                               np.linspace(0, 20, 41)),
        "steady_state_qme": qt.steady_state_qme,
        "QME generator": lambda qs: qs.generator,
    }
    for name, call in calls.items():
        qs = qt.build_quantum_system(build_ring(natoms, 0.4 * LAMBDA), EY,
                                     PlaneWave(amplitude=0.8))
        tracemalloc.start()
        try:
            call(qs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= needs[name], name
    generator = qs.generator
    for q in generator.charges:
        assert generator.block_rhs([q]) and generator.jumps[q].nnz <= (
            qs.jump_entries(q))


def test_trajectory_rejects_nonzero_start():
    qs = qt.build_quantum_system(single_atom(), EY)
    with pytest.raises(ValueError):
        qt.run_trajectories(qs.ground_state(), qs,
                            qt.source_mode_basis(qs),
                            np.array([1.0, 2.0]), 10, seed=0)


def test_trajectory_rejects_nonuniform_grid():
    qs = qt.build_quantum_system(single_atom(), EY)
    for t in ([0.0, 0.5, 2.0], [0.0], [0.0, 0.0]):
        with pytest.raises(ValueError, match="uniform"):
            qt.run_trajectories(qs.ground_state(), qs,
                                qt.source_mode_basis(qs), np.array(t), 10,
                                seed=0)
