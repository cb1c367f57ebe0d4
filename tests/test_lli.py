import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from atomarray import lli
from atomarray.drives import GaussianBeam, PlaneWave, no_drive
from atomarray.errors import ResonantSingularityError
from atomarray.geometry import (LAMBDA, Geometry, build_bilayer, build_ring,
                                build_square_lattice, build_stack,
                                sample_positions)
from atomarray.kernel import GAMMA, XI, green_tensor
from atomarray.lli import (CouplingSystem, TransitionSpec, assemble,
                           eigenmodes, evolve, match_mode, mode_occupation,
                           steady_state, uniform_target)

EY = TransitionSpec(levels=2, orientation=(0.0, 1.0, 0.0))
J01 = TransitionSpec(levels=4)


def single_atom():
    return Geometry(np.zeros((1, 3)))


def test_assemble_single_atom():
    tr = TransitionSpec(levels=2, orientation=(0, 1, 0), detuning=0.7)
    sys_ = assemble(single_atom(), tr, PlaneWave(amplitude=0.3))
    assert sys_.H.shape == (1, 1)
    assert sys_.H[0, 0] == 1j * GAMMA
    assert sys_.dH[0, 0] == 0.7
    assert np.isclose(sys_.f[0], 0.3j)


def test_assemble_distant_pair_decouples():
    geo = Geometry([[0, 0, 0], [0, 0, 2e4 * LAMBDA]])
    sys_ = assemble(geo, EY)
    assert abs(sys_.H[0, 1]) < 1e-4
    assert sys_.H[0, 0] == 1j * GAMMA


def test_assembled_H_is_complex_symmetric_and_diag():
    geo = build_square_lattice(3, 4, 0.6 * LAMBDA)
    for tr in (EY, J01):
        sys_ = assemble(geo, tr)
        assert np.max(np.abs(sys_.H - sys_.H.T)) == 0.0
        m = sys_.size
        assert np.allclose(np.diag(sys_.H), 1j * GAMMA)
        assert np.isclose(np.trace(sys_.H), 1j * m * GAMMA)


def test_zeeman_blocks_match_two_mode_expectations():
    # with delta_+ = delta_- = dbar, the Cartesian block must couple x and y
    # with strength dbar and shift both by dtilde = 0
    blk = lli.zeeman_block((1.3, 0.0, 1.3))
    assert np.isclose(blk[0, 1], -1.3j)
    assert np.isclose(blk[1, 0], +1.3j)
    assert abs(blk[0, 0]) < 1e-14 and abs(blk[1, 1]) < 1e-14
    # opposite shifts produce a common diagonal and no coupling
    blk = lli.zeeman_block((-0.5, 0.0, 0.5))
    assert np.isclose(blk[0, 0], 0.5) and np.isclose(blk[1, 1], 0.5)
    assert abs(blk[0, 1]) < 1e-14


def test_steady_state_single_atom_lorentzian():
    tr = TransitionSpec(levels=2, orientation=(0, 1, 0), detuning=0.0)
    sys_ = assemble(single_atom(), tr, PlaneWave(amplitude=0.05))
    for delta in (-1.0, 0.0, 2.5):
        b = steady_state(sys_, delta)
        assert np.isclose(b[0], -0.05 / (delta + 1j * GAMMA), rtol=1e-12)


def test_steady_state_no_drive_is_zero():
    geo = build_square_lattice(3, 3, 0.7 * LAMBDA)
    sys_ = assemble(geo, EY, no_drive())
    assert np.allclose(steady_state(sys_, 0.4), 0.0)


def test_steady_state_residual_invariant():
    geo = build_square_lattice(4, 4, 0.55 * LAMBDA)
    sys_ = assemble(geo, EY, GaussianBeam(waist=2 * LAMBDA))
    delta = 0.3
    b = steady_state(sys_, delta)
    A = lli.with_detuning(sys_, delta)
    resid = np.linalg.norm(1j * A @ b + sys_.f)
    assert resid <= 1e-10 * np.linalg.norm(sys_.f)


def test_steady_state_center_site_matches_infinite_lattice():
    from atomarray.infinite import lattice_sums
    a = 0.68 * LAMBDA
    geo = build_square_lattice(30, 30, a)
    sys_ = assemble(geo, EY, PlaneWave(amplitude=1.0))
    om, gt = lattice_sums(a).uniform_mode(1)
    # the 30x30 lattice has no on-axis site; average the innermost four.
    # compare around the collective resonance where the response is strong
    inner = np.argsort(np.linalg.norm(geo.positions, axis=1))[:4]
    for delta in (-om, 0.5, 1.0):
        b = steady_state(sys_, delta)
        center = b[inner].mean()
        want = -1.0 / (delta + om + 1j * (GAMMA + gt))
        assert abs(center - want) / abs(want) < 0.05


def test_steady_state_singularity_error():
    # near-defective system: eigenvalue 13 orders below the norm
    H = np.diag([1e-13j, 1j])
    geo = Geometry([[0, 0, 0], [0, 0, LAMBDA]])
    sys_ = CouplingSystem(H, np.zeros((2, 2)), np.array([1j, 1j]), geo, EY)
    with pytest.raises(ResonantSingularityError) as err:
        steady_state(sys_)
    assert abs(err.value.nearest_eigenvalue) < 1e-12


def test_evolve_single_atom_decay():
    sys_ = assemble(single_atom(), EY, no_drive())
    t = np.linspace(0, 3, 7)
    traj = evolve(sys_, [1.0], t)
    assert np.allclose(np.abs(traj[:, 0]), np.exp(-GAMMA * t), rtol=1e-9)


def test_evolve_dicke_pair_superradiance():
    d = 0.05 / 1.0  # k d = 0.05
    geo = Geometry([[0, 0, 0], [0, 0, d]])
    sys_ = assemble(geo, EY, no_drive())
    g12 = XI * np.imag(np.array([0, 1, 0]) @ green_tensor([0, 0, d])
                       @ np.array([0, 1, 0]))
    b0 = np.array([1.0, 1.0]) / np.sqrt(2)
    t = np.linspace(0, 1.0, 5)
    traj = evolve(sys_, b0, t)
    rate = GAMMA + g12          # -> 2 gamma as d -> 0
    assert abs(rate - 2 * GAMMA) < 2e-3
    norms = np.linalg.norm(traj, axis=1)
    assert np.allclose(norms, np.exp(-rate * t), rtol=1e-6)


def test_evolve_matches_matrix_exponential():
    rng = np.random.default_rng(12)
    pos = rng.uniform(-LAMBDA, LAMBDA, size=(10, 3))
    geo = Geometry(pos)
    sys_ = assemble(geo, EY, PlaneWave(amplitude=0.4))
    b0 = rng.normal(size=10) + 1j * rng.normal(size=10)
    t_final = 2.0
    traj = evolve(sys_, b0, np.array([0.0, t_final]), delta=0.2)
    A = 1j * lli.with_detuning(sys_, 0.2)
    U = scipy.linalg.expm(A * t_final)
    # particular + homogeneous solution of the driven linear system
    pinv = np.linalg.solve(A, sys_.f)
    want = U @ (b0 + pinv) - pinv
    assert np.max(np.abs(traj[-1] - want)) < 1e-8 * np.max(np.abs(want))


def test_eigenmodes_single_atom_and_trace():
    es = eigenmodes(assemble(single_atom(), EY))
    assert np.isclose(es.eigenvalues[0], 1j * GAMMA)
    geo = build_square_lattice(3, 3, 0.8 * LAMBDA)
    es = eigenmodes(assemble(geo, J01))
    assert np.isclose(np.sum(es.eigenvalues), 1j * 27 * GAMMA, atol=1e-10)


def test_eigenmodes_residual_biorthogonality_passivity():
    geo = build_square_lattice(4, 4, 0.55 * LAMBDA)
    sys_ = assemble(geo, EY)
    es = eigenmodes(sys_)
    for j in range(sys_.size):
        v = es.vectors[:, j]
        resid = np.linalg.norm(sys_.H @ v - es.eigenvalues[j] * v)
        assert resid <= 1e-8 * np.linalg.norm(v)
    overlap = es.vectors.T @ es.vectors
    assert np.max(np.abs(overlap - np.eye(sys_.size))) < 1e-7
    assert es.linewidths.min() > -1e-9 * GAMMA


def test_subradiant_tail_tilted_dipoles():
    # 32x32 with dipoles tilted from the normal: long subradiant tail
    tr = TransitionSpec(levels=2, orientation=(1.0, 0.1, 0.0))
    geo = build_square_lattice(32, 32, 0.55 * LAMBDA)
    es = eigenmodes(assemble(geo, tr))
    ups = es.linewidths
    assert ups.min() < 1e-3 * GAMMA
    assert np.mean(ups < 0.5 * GAMMA) > 0.3


def test_perpendicular_mode_linewidth_20x20():
    geo = build_square_lattice(20, 20, 0.55 * LAMBDA)
    es = eigenmodes(assemble(geo, J01))
    iP = match_mode(es, uniform_target(400, 0))
    upsP = es.linewidths[iP]
    assert abs(upsP - 0.0031 * GAMMA) < 0.0005 * GAMMA


def test_mode_occupation_basics():
    geo = build_square_lattice(3, 3, 0.6 * LAMBDA)
    sys_ = assemble(geo, EY)
    es = eigenmodes(sys_)
    L = mode_occupation(es.vectors[:, 2], es)
    assert np.isclose(L[2], 1.0, atol=1e-9)
    with pytest.raises(ValueError):
        mode_occupation(np.zeros(9), es)


def test_mode_occupation_equal_split():
    # orthogonal target built from two eigenvectors of a symmetric system
    geo = build_square_lattice(2, 2, 0.7 * LAMBDA)
    sys_ = assemble(geo, EY)
    es = eigenmodes(sys_)
    v1, v2 = es.vectors[:, 0], es.vectors[:, 1]
    b = v1 + v2
    L = mode_occupation(b, es)
    assert np.isclose(L[0], L[1], rtol=1e-8)
    assert np.isclose(L[0] + L[1], 1.0, atol=1e-9)


def test_two_mode_protocol_occupation():
    # driving a Zeeman-coupled array at the perpendicular-mode resonance with
    # a beam matched to the array puts >= 98% of the excitation into one
    # collective mode
    dbar = 0.15
    tr = TransitionSpec(levels=4, zeeman=(dbar, 0.0, dbar))
    geo = build_square_lattice(20, 20, 0.55 * LAMBDA)
    sys_ = assemble(geo, tr, GaussianBeam(waist=4 * LAMBDA, amplitude=1e-3))
    es = eigenmodes(sys_)
    iP = match_mode(es, uniform_target(400, 0))
    delta0 = -es.eigenvalues[iP].real
    b = steady_state(sys_, delta0)
    L = mode_occupation(b, es)
    assert L[iP] >= 0.98


def test_ring_modes_carry_angular_momentum():
    n = 8
    geo = build_ring(n, LAMBDA)
    tr = TransitionSpec(levels=2, orientation=(1.0, 0.0, 0.0))  # out of plane
    es = eigenmodes(assemble(geo, tr))
    phis = 2 * np.pi * np.arange(n) / n
    # eigenmodes live in definite-|m| angular momentum sectors (+m and -m
    # are degenerate, so a numerical eigenvector may mix the pair)
    for j in range(n):
        v = es.vectors[:, j]
        sector = {}
        for m in range(-n // 2 + 1, n // 2 + 1):
            sector[abs(m)] = sector.get(abs(m), 0.0) \
                + abs(np.exp(1j * m * phis) @ v) ** 2 / n
        total = sum(sector.values())
        assert max(sector.values()) / total > 0.99


def test_gaussian_drive_profile():
    geo = build_square_lattice(5, 5, 0.6 * LAMBDA)
    beam = GaussianBeam(waist=1.5 * LAMBDA)
    sys_ = assemble(geo, EY, beam)
    f = sys_.f / 1j
    center = np.argmin(np.linalg.norm(geo.positions, axis=1))
    assert np.argmax(np.abs(f)) == center
    rho2 = np.sum(geo.positions[:, 1:] ** 2, axis=1)
    assert np.allclose(np.abs(f), np.exp(-rho2 / (1.5 * LAMBDA) ** 2),
                       rtol=1e-12)


# --- block eigensolve against a full eigensolve -----------------------------

EX = TransitionSpec(levels=2, orientation=(1.0, 0.0, 0.0))  # out of plane
TILTED = TransitionSpec(levels=2, orientation=(1.0, 0.1, 0.0))
ZEEMAN = TransitionSpec(levels=4, zeeman=(0.3, 0.0, -0.1))


def with_level_block(system):
    """The system with its Zeeman level block dH moved into H, which then
    is not complex symmetric: its circular modes have v^T v = 0."""
    return CouplingSystem(system.H + system.dH, system.dH, system.f,
                          system.geometry, system.transition)


@st.composite
def symmetric_systems(draw):
    """Small arrays of every kind the block eigensolve must handle: the
    mirrors each keeps differ, and the last three break some or all."""
    kind = draw(st.sampled_from(["square", "bilayer", "stack", "ring",
                                 "tilted", "zeeman", "disordered"]))
    a = draw(st.floats(0.2, 0.8)) * LAMBDA
    nx = draw(st.integers(1, 4))
    ny = draw(st.integers(1, 4))
    tr = draw(st.sampled_from([EY, J01, EX]))
    if kind == "bilayer":
        geo = build_bilayer(nx, ny, a, draw(st.floats(0.1, 0.7)) * LAMBDA)
    elif kind == "stack":
        geo = build_stack(nx, ny, a, [0.3 * LAMBDA, 0.45 * LAMBDA])
    elif kind == "ring":
        geo = build_ring(draw(st.integers(2, 9)),
                         draw(st.floats(0.15, 1.0)) * LAMBDA)
    else:
        geo = build_square_lattice(nx, ny, a)
    if kind == "tilted":
        tr = TILTED
    if kind == "disordered":
        geo = sample_positions(geo, np.random.default_rng(draw(
            st.integers(0, 2**32 - 1))), 0.05 * LAMBDA)
    if kind == "zeeman":
        return kind, with_level_block(assemble(geo, ZEEMAN))
    return kind, assemble(geo, tr)


def uniform_state(system):
    """Every atom's amplitude along one dipole component: a state with one
    parity under every mirror that permutes the atoms."""
    m = system.transition.components
    return uniform_target(system.size // m, m - 1) if m == 3 else np.ones(
        system.size)


def assert_matches_full_eigensolve(system, symmetric=True):
    H = system.H
    es = eigenmodes(system)
    w, V = scipy.linalg.eig(H)
    # eigenvalues, paired by distance
    rows, cols = linear_sum_assignment(
        np.abs(w[:, None] - es.eigenvalues[None, :]))
    assert np.max(np.abs(w[rows] - es.eigenvalues[cols])) < 1e-12
    assert np.all(np.diff(es.linewidths) >= 0)
    norm = np.linalg.norm(H, 2)
    for j in range(system.size):
        v = es.vectors[:, j]
        assert (np.linalg.norm(H @ v - es.eigenvalues[j] * v)
                <= 1e-10 * norm * np.linalg.norm(v))
    if not symmetric:
        return
    assert not es.anomalous.any()
    assert np.max(np.abs(es.vectors.T @ es.vectors
                         - np.eye(system.size))) < 1e-8
    # occupations summed over each degenerate cluster: a cluster's
    # spectral projector P does not depend on the basis of its modes, and
    # where the state reaches one mode of the cluster, (P b)^T (P b) is its
    # |v^T b|^2.  Where it reaches several (a cluster that no mirror splits,
    # as the transverse pair of two atoms), their summed |v^T b|^2 depends
    # on the v^T v-orthonormal basis chosen, so that cluster is not compared
    b = uniform_state(system)
    occ = mode_occupation(b, es)
    reached = np.abs(es.vectors.T @ b) > 1e-10 * np.linalg.norm(b)
    tol = 1e-9 * norm
    want, got, seen = [], [], np.zeros(len(w), bool)
    for i in range(len(w)):
        if seen[i]:
            continue
        cluster = np.abs(w - w[i]) < tol
        seen |= cluster
        Vc = V[:, cluster]
        pb = Vc @ np.linalg.solve(Vc.T @ Vc, Vc.T @ b)
        want.append(abs(pb @ pb))
        mine = np.abs(es.eigenvalues - w[i]) < tol
        got.append(occ[mine].sum() if reached[mine].sum() <= 1 else np.nan)
    compared = ~np.isnan(got)
    want = np.array(want)[compared] / np.sum(np.array(want)[compared])
    got = np.array(got)[compared] / np.sum(np.array(got)[compared])
    assert np.max(np.abs(want - got)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(symmetric_systems())
def test_block_eigenmodes_match_full_eigensolve(case):
    kind, system = case
    assert_matches_full_eigensolve(system, symmetric=kind != "zeeman")


@pytest.mark.parametrize("tr", [EX, J01], ids=["two_level", "j01"])
def test_block_eigenmodes_split_square_pairs(tr):
    # a square array of out-of-plane or isotropic dipoles is C4v-symmetric:
    # its 2-D irreps are degenerate pairs, which the two in-plane mirrors
    # split into v^T v-orthogonal modes
    system = assemble(build_square_lattice(4, 4, 0.6 * LAMBDA), tr)
    w = np.sort_complex(scipy.linalg.eigvals(system.H))
    assert np.sum(np.abs(np.diff(w)) < 1e-9) >= 4
    assert_matches_full_eigensolve(system)


def dense_q(basis, size):
    """The orbit-sum basis of `lli.mirror_basis` as a dense matrix."""
    Q = np.zeros((size, size))
    for rows, coefs in zip(basis.rows, basis.coefs):
        Q[rows, np.arange(size)] += coefs
    return Q


def test_block_eigenmodes_orthonormal_in_unsplit_cluster():
    # a 2x2 bilayer at separation = spacing is a cube: its O_h pairs of
    # type E have one parity under every coordinate mirror, so each such
    # pair is a degenerate cluster inside one block
    system = assemble(build_bilayer(2, 2, 0.5 * LAMBDA, 0.5 * LAMBDA), J01)
    basis = lli.mirror_basis(system)
    Q = dense_q(basis, system.size)
    gaps = [np.abs(np.diff(np.sort_complex(np.linalg.eigvals(
        Q[:, lo:hi].T @ system.H @ Q[:, lo:hi])))).min()
        for lo, hi in zip(basis.offsets[:-1], basis.offsets[1:])]
    assert min(gaps) < 1e-12
    assert_matches_full_eigensolve(system)


@pytest.mark.parametrize("geo, tr, mirrors", [
    (build_square_lattice(3, 4, 0.6 * LAMBDA), J01, (0, 1, 2)),
    (build_square_lattice(4, 3, 0.6 * LAMBDA), EX, (0, 1, 2)),
    (build_square_lattice(4, 3, 0.6 * LAMBDA), TILTED, (2,)),
    (build_ring(7, LAMBDA), J01, (0, 2)),
    (sample_positions(build_square_lattice(4, 3, 0.6 * LAMBDA),
                      np.random.default_rng(3), 0.05 * LAMBDA), J01, ()),
])
def test_mirrors_kept(geo, tr, mirrors):
    assert lli.mirror_basis(assemble(geo, tr)).mirrors == mirrors


def test_mirrors_kept_zeeman_in_H():
    # the Zeeman block couples x and y components, which the x and y
    # mirrors flip one at a time; the z mirror flips neither
    sys_ = with_level_block(assemble(build_square_lattice(3, 4, 0.6 * LAMBDA),
                                     ZEEMAN))
    assert lli.mirror_basis(sys_).mirrors == (2,)
    assert lli.mirror_basis(assemble(sys_.geometry, ZEEMAN)).mirrors == (
        0, 1, 2)


def test_mirror_basis_is_orthogonal_orbit_sums():
    sys_ = assemble(build_square_lattice(16, 16, 0.55 * LAMBDA), J01)
    basis = lli.mirror_basis(sys_)
    assert sorted(basis.sizes) == [64] * 4 + [128] * 4
    Q = dense_q(basis, sys_.size)
    assert np.max(np.abs(Q.T @ Q - np.eye(sys_.size))) < 1e-15
    # entries +-1/sqrt(|orbit|); x -> -x fixes the atoms of the planar
    # array, so an orbit has at most 4 sites
    counts = np.count_nonzero(Q, axis=0)
    assert np.allclose(np.abs(Q).max(axis=0), 1 / np.sqrt(counts))
    assert np.allclose(np.abs(Q).sum(axis=0), np.sqrt(counts))
    assert counts.max() == 4
