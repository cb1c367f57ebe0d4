import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from atomarray import lli
from atomarray.drives import GaussianBeam, PlaneWave, no_drive
from atomarray.errors import ResonantSingularityError, UnsolvedEigenvectorsError
from atomarray.integrate import solve_checked
from atomarray.geometry import (LAMBDA, Geometry, build_bilayer, build_ring,
                                build_square_lattice, build_stack,
                                sample_positions)
from atomarray.kernel import GAMMA, XI, green_tensor
from atomarray.lli import (CouplingSystem, TransitionSpec, assemble,
                           eigen_table, eigenmodes, evolve, match_mode,
                           mode_occupation, steady_state, uniform_target)

EY = TransitionSpec(levels=2, orientation=(0.0, 1.0, 0.0))
J01 = TransitionSpec(levels=4)


def single_atom():
    return Geometry(np.zeros((1, 3)))


def test_assemble_single_atom():
    tr = TransitionSpec(levels=2, orientation=(0, 1, 0), detuning=0.7)
    sys_ = assemble(single_atom(), tr, PlaneWave(amplitude=0.3))
    assert sys_.H.shape == (1, 1)
    assert sys_.H[0, 0] == 1j * GAMMA
    assert lli.with_detuning(sys_, 0.7)[0, 0] == 0.7 + 1j * GAMMA
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
    sys_ = CouplingSystem(H, np.array([1j, 1j]), geo, EY)
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
    """The system with the Zeeman part of its level block moved into H,
    which then is not complex symmetric: its circular modes have
    v^T v = 0."""
    return CouplingSystem(lli.with_detuning(system, 0.0), system.f,
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
    # sorted by linewidth; ties within DEGENERATE_TOL keep block order
    tol = lli.DEGENERATE_TOL * max(np.abs(es.eigenvalues).max(), 1.0)
    assert np.all(np.diff(es.linewidths) >= -tol)
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
    # the blocks are sliced from Q^T H Q, whose other entries vanish; the
    # x mirror fixes every atom of a planar array and odd rings have atoms
    # on a mirror axis, so Q sums stabilizer repeats
    basis = system.mode_sectors[0]
    off_sector = basis.to_sectors(system.H)
    for lo, hi in zip(basis.offsets[:-1], basis.offsets[1:]):
        off_sector[lo:hi, lo:hi] = 0.0
    assert np.abs(off_sector).max() <= 1e-13 * np.abs(system.H).max()


@pytest.mark.parametrize("tr", [EX, J01], ids=["two_level", "j01"])
def test_block_eigenmodes_split_square_pairs(tr):
    # a square array of out-of-plane or isotropic dipoles is C4v-symmetric:
    # its 2-D irreps are degenerate pairs, which the two in-plane mirrors
    # split into v^T v-orthogonal modes
    system = assemble(build_square_lattice(4, 4, 0.6 * LAMBDA), tr)
    w = np.sort_complex(scipy.linalg.eigvals(system.H))
    assert np.sum(np.abs(np.diff(w)) < 1e-9) >= 4
    assert_matches_full_eigensolve(system)


@pytest.mark.parametrize("sign", [1, -1])
def test_eigenmode_order_survives_last_bit_rounding(monkeypatch, sign):
    # the C4v pairs of a centred square are exactly degenerate and come
    # from two mirror blocks, so a last-bit change of the eigenvalues (as
    # another BLAS thread count gives) must not swap their rows
    system = assemble(build_square_lattice(6, 6, 0.6 * LAMBDA), J01)
    es = eigenmodes(system)
    eig = scipy.linalg.eig

    def nudged(a, **kwargs):
        w, v = eig(a, **kwargs)
        ulp = np.spacing(np.abs(w.imag)) * sign
        ulp[1::2] *= -1
        return w + 1j * ulp, v

    monkeypatch.setattr(scipy.linalg, "eig", nudged)
    again = eigenmodes(system)
    assert not np.array_equal(again.eigenvalues, es.eigenvalues)
    assert np.array_equal(again.vectors, es.vectors)


def dense_q(basis, size):
    """The orbit-sum basis of `CouplingSystem.mode_sectors` as a dense matrix, built
    from its tables: the reference for the sparse `OrbitBasis.q`."""
    Q = np.zeros((size, size))
    for rows, coefs in zip(basis.rows, basis.coefs):
        Q[rows, np.arange(size)] += coefs
    return Q


def test_block_eigenmodes_orthonormal_in_unsplit_cluster():
    # a 2x2 bilayer at separation = spacing is a cube: its O_h pairs of
    # type E have one parity under every coordinate mirror, so each such
    # pair is a degenerate cluster inside one block
    system = assemble(build_bilayer(2, 2, 0.5 * LAMBDA, 0.5 * LAMBDA), J01)
    basis = system.mode_sectors[0]
    Q = dense_q(basis, system.size)
    gaps = [np.abs(np.diff(np.sort_complex(np.linalg.eigvals(
        Q[:, lo:hi].T @ system.H @ Q[:, lo:hi])))).min()
        for lo, hi in zip(basis.offsets[:-1], basis.offsets[1:])]
    assert min(gaps) < 1e-12
    assert_matches_full_eigensolve(system)


def kept_axes(system):
    """The axes of the mirrors that generate the group of the block
    eigensolve: those the mirror search finds, less the ones already in
    the group."""
    found = list(lli.invariant_mirrors(system.geometry, system.transition,
                                       system.H))
    return tuple(found[k] for k in system.mode_sectors[0].kept)


@pytest.mark.parametrize("geo, tr, mirrors", [
    (build_square_lattice(3, 4, 0.6 * LAMBDA), J01, (0, 1, 2)),
    (build_square_lattice(4, 3, 0.6 * LAMBDA), EX, (0, 1, 2)),
    (build_square_lattice(4, 3, 0.6 * LAMBDA), TILTED, (2,)),
    (build_ring(7, LAMBDA), J01, (0, 2)),
    (sample_positions(build_square_lattice(4, 3, 0.6 * LAMBDA),
                      np.random.default_rng(3), 0.05 * LAMBDA), J01, ()),
])
def test_mirrors_kept(geo, tr, mirrors):
    assert kept_axes(assemble(geo, tr)) == mirrors


def test_mirrors_kept_zeeman_in_H():
    # the Zeeman block couples x and y components, which the x and y
    # mirrors flip one at a time; the z mirror flips neither
    sys_ = with_level_block(assemble(build_square_lattice(3, 4, 0.6 * LAMBDA),
                                     ZEEMAN))
    assert kept_axes(sys_) == (2,)
    assert kept_axes(assemble(sys_.geometry, ZEEMAN)) == (0, 1, 2)


def test_mirror_basis_is_orthogonal_orbit_sums():
    sys_ = assemble(build_square_lattice(16, 16, 0.55 * LAMBDA), J01)
    basis = sys_.mode_sectors[0]
    assert sorted(basis.sizes) == [64] * 4 + [128] * 4
    Q = dense_q(basis, sys_.size)
    assert np.max(np.abs(Q.T @ Q - np.eye(sys_.size))) < 1e-15
    # the sparse Q that the basis applies equals the reference entry for entry
    assert np.array_equal(basis.q.toarray(), Q)
    assert np.array_equal(basis.qt.toarray(), Q.T)
    # entries +-1/sqrt(|orbit|); x -> -x fixes the atoms of the planar
    # array, so an orbit has at most 4 sites
    counts = np.count_nonzero(Q, axis=0)
    assert np.allclose(np.abs(Q).max(axis=0), 1 / np.sqrt(counts))
    assert np.allclose(np.abs(Q).sum(axis=0), np.sqrt(counts))
    assert counts.max() == 4


@pytest.mark.parametrize("tr", [EX, J01], ids=["two_level", "j01"])
def test_shifted_square_keeps_its_mirror_blocks(tr):
    # H depends only on position differences, so the mirrors through the
    # centroid of a shifted array split H as those of the centred one
    square = build_square_lattice(4, 4, 0.55 * LAMBDA)
    shifted = Geometry(square.positions + [0.3, 1.0, -2.0])
    centred = eigenmodes(assemble(square, tr))
    moved = eigenmodes(assemble(shifted, tr))
    assert moved.blocks == centred.blocks
    assert len(moved.blocks) == (4 if tr is EX else 8)
    rows, cols = linear_sum_assignment(np.abs(
        centred.eigenvalues[:, None] - moved.eigenvalues[None, :]))
    assert np.max(np.abs(centred.eigenvalues[rows]
                         - moved.eigenvalues[cols])) < 1e-12


# --- block steady state against the full solve ------------------------------

def full_steady_state(system, delta):
    return solve_checked(lli.with_detuning(system, delta), 1j * system.f)


@st.composite
def driven_systems(draw):
    """Driven arrays whose drive reaches one sector (a centred beam) or
    several (an off-centre beam, an oblique plane wave), with a Zeeman
    term that breaks mirrors of H, or with no mirror at all."""
    kind = draw(st.sampled_from(["square", "bilayer", "off_centre",
                                 "oblique", "zeeman", "random"]))
    a = draw(st.floats(0.2, 0.8)) * LAMBDA
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    tr = draw(st.sampled_from([EY, J01, EX]))
    beam = GaussianBeam(waist=draw(st.floats(0.5, 3.0)) * LAMBDA)
    geo = build_square_lattice(nx, ny, a)
    if kind == "bilayer":
        geo = build_bilayer(nx, ny, a, draw(st.floats(0.1, 0.7)) * LAMBDA)
    elif kind == "off_centre":
        geo = Geometry(geo.positions + [0.0, draw(st.floats(0.1, 1.0)) * a,
                                        draw(st.floats(-1.0, 1.0)) * a])
    elif kind == "oblique":
        t = draw(st.floats(0.1, 1.2))
        beam = PlaneWave(direction=(np.cos(t), 0.0, np.sin(t)))
    elif kind == "zeeman":
        tr = ZEEMAN
    elif kind == "random":
        # two or more atoms: a single one is kept by every mirror
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        geo = Geometry(rng.uniform(-LAMBDA, LAMBDA, size=(nx * ny + 1, 3)))
    delta = draw(st.floats(-3.0, 3.0))
    return kind, assemble(geo, tr, beam), delta


@settings(max_examples=60, deadline=None)
@given(driven_systems())
def test_block_steady_state_matches_full_solve(case):
    kind, system, delta = case
    try:
        want = full_steady_state(system, delta)
    except ResonantSingularityError:
        return
    got = steady_state(system, delta)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    if kind == "random":
        assert len(system.sectors[1]) == 1
        assert np.array_equal(got, want)
    # the laser detuning of the transition is the default
    assert np.array_equal(steady_state(system),
                          steady_state(system, system.transition.detuning))


def test_block_steady_state_solves_only_reached_sectors(monkeypatch):
    # a plane wave at normal incidence on a centred square drives the
    # sector of even y and z parity only: one block of nine is solved, and
    # the others are exactly zero, so b has its parity exactly
    system = assemble(build_square_lattice(6, 6, 0.6 * LAMBDA), J01,
                      PlaneWave(polarization=(0.0, 1.0, 0.0)))
    solved = []

    def record(A, rhs):
        solved.append(len(A))
        return solve_checked(A, rhs)
    monkeypatch.setattr(lli, "solve_checked", record)
    b = steady_state(system, 0.3)
    assert solved == [18]
    assert len(system.sectors[1]) == 8
    for _, (idx, sign) in system.mirrors.values():
        image = np.empty_like(b)
        image[idx] = sign * b
        assert np.array_equal(image, b) or np.array_equal(image, -b)
    assert np.abs(b - full_steady_state(system, 0.3)).max() <= (
        1e-13 * np.abs(b).max())


def test_zeeman_term_drops_the_mirrors_it_breaks():
    # H keeps all three coordinate mirrors, H + dH only z -> -z
    system = assemble(build_square_lattice(3, 4, 0.6 * LAMBDA), ZEEMAN,
                      GaussianBeam(waist=LAMBDA))
    assert sorted(system.mirrors) == [0, 1, 2]
    basis, blocks = system.sectors
    assert len(system.mode_sectors[0].sizes) == 8
    assert len(basis.sizes) == len(blocks) == 2
    assert np.abs(steady_state(system, 0.2)
                  - full_steady_state(system, 0.2)).max() < 1e-13


def test_mirror_search_takes_one_tolerance_per_matrix(monkeypatch):
    # three mirrors of H are checked against one tolerance, and the two
    # that the Zeeman term breaks are dropped by the 3x3 Zeeman part alone:
    # no M x M level matrix is formed or checked
    system = assemble(build_square_lattice(3, 4, 0.6 * LAMBDA), ZEEMAN,
                      GaussianBeam(waist=LAMBDA))
    mirror_tol, invariant, seen, checked = lli.mirror_tol, lli.invariant, \
        [], []

    def record(X):
        seen.append(X)
        return mirror_tol(X)

    def record_invariant(X, *args):
        checked.append(X)
        return invariant(X, *args)
    monkeypatch.setattr(lli, "mirror_tol", record)
    monkeypatch.setattr(lli, "invariant", record_invariant)
    assert sorted(system.mirrors) == [0, 1, 2]
    assert len(seen) == 1 and seen[0] is system.H
    assert len(system.sectors[0].sizes) == 2
    assert len(seen) == 2 and seen[1].shape == (3, 3)
    assert len(checked) == 3 and all(X is system.H for X in checked)


@pytest.mark.parametrize("tr", [EY, J01, ZEEMAN],
                         ids=["two_level", "j01", "zeeman"])
def test_steady_state_without_mirror_is_the_full_solve(tr):
    # an array without a mirror is one sector, Q = 1: its steady state is
    # the plain solve of H + delta, or of the full matrix with the Zeeman
    # part on every atom, bit for bit
    geo = Geometry(np.random.default_rng(5).uniform(-LAMBDA, LAMBDA,
                                                    size=(7, 3)))
    system = assemble(geo, tr, GaussianBeam(waist=LAMBDA))
    assert system.sectors[0].sizes == [system.size]
    for delta in (-0.4, 0.0, 1.3):
        got = steady_state(system, delta)
        assert np.array_equal(got, full_steady_state(system, delta))
        if tr is not ZEEMAN:
            assert np.array_equal(got, solve_checked(
                system.H + delta * np.eye(system.size), 1j * system.f))


zeeman_shifts = st.one_of(st.sampled_from([0.0, 0.4, -0.4]),
                          st.floats(-2.0, 2.0))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["square", "bilayer", "ring"]), st.integers(1, 4),
       st.integers(1, 4), st.tuples(zeeman_shifts, zeeman_shifts,
                                    zeeman_shifts), st.floats(-3.0, 3.0))
def test_level_filter_keeps_the_mirrors_of_the_dense_level_matrix(
        kind, nx, ny, zeeman, detuning):
    # the 3x3 sign check s Z s = Z keeps exactly the mirrors of H that
    # leave the dense Zeeman part, Z on every atom, invariant
    a = 0.6 * LAMBDA
    geo = {"square": lambda: build_square_lattice(nx, ny, a),
           "bilayer": lambda: build_bilayer(nx, ny, a, 0.4 * LAMBDA),
           "ring": lambda: build_ring(nx + ny, a)}[kind]()
    tr = TransitionSpec(levels=4, zeeman=zeeman, detuning=detuning)
    system = assemble(geo, tr)
    dense = lli.block_diagonal(geo.natoms, tr.zeeman_part)
    tol = lli.mirror_tol(dense)
    want = [axis for axis, (_, op) in system.mirrors.items()
            if lli.invariant(dense, *op, tol)]
    assert list(lli.level_mirrors(tr, system.mirrors)) == want


def test_singular_block_raises_with_its_own_eigenvalue():
    # four atoms on a line: the z mirror splits the y dipoles into two
    # blocks of two.  Both are near-singular; the drive reaches only the
    # odd one, whose nearest eigenvalue the error carries, not the even
    # block's smaller one that a full solve would report
    geo = Geometry([[0.0, 0.0, z * LAMBDA] for z in range(4)])
    probe = CouplingSystem(assemble(geo, EY).H, np.zeros(4), geo, EY)
    basis = probe.sectors[0]
    assert basis.sizes == [2, 2]
    Q = dense_q(basis, 4)
    H = Q @ np.diag([1j, 1e-15j, 1j, 1e-13j]) @ Q.T
    f = Q[:, 2:] @ [1.0, 1.0]
    system = CouplingSystem(H, f, geo, EY)
    with pytest.raises(ResonantSingularityError) as err:
        steady_state(system)
    assert abs(err.value.nearest_eigenvalue - 1e-13j) < 1e-15
    with pytest.raises(ResonantSingularityError) as err:
        full_steady_state(system, 0.0)
    assert abs(err.value.nearest_eigenvalue) < 1e-14


# --- eigenvectors only in the sectors the state reaches ---------------------

def sector_reach(basis, state):
    """Whether Q_s^T state is not exactly zero, for each sector s."""
    g = basis.qt @ state
    off = basis.offsets
    return [bool(g[lo:hi].any()) for lo, hi in zip(off[:-1], off[1:])]


@settings(max_examples=60, deadline=None)
@given(driven_systems())
def test_reached_sector_eigenmodes_match_full_eigenmodes(case):
    kind, system, delta = case
    try:
        b = steady_state(system, delta)
    except ResonantSingularityError:
        return
    assume(b.any())
    es = eigenmodes(system, b)
    full = eigenmodes(system)
    assert (np.abs(es.eigenvalues - full.eigenvalues).max()
            <= 1e-12 * np.abs(full.eigenvalues).max())
    # the occupations equal the site-basis |v^T b|^2 of every vector
    occ = mode_occupation(b, es)
    want = np.abs(full.vectors.T @ b) ** 2
    assert np.abs(occ - want / want.sum()).max() <= 1e-12
    # a sector has vectors exactly where Q^T b is not zero, and the
    # occupations of the others are exactly zero
    solved = [v is not None for _, _, v in es.sectors()]
    assert solved == sector_reach(es.basis, b)
    for lo, hi, v in es.sectors():
        if v is None:
            assert not occ[es.columns[lo:hi]].any()
    if not system.transition.zeeman_part.any():
        # every block the steady state solves has vectors; where it solves
        # one, b = Q y has no rounding in the others, which have none
        steady = sector_reach(system.sectors[0], system.f)
        assert all(v for v, s in zip(solved, steady) if s)
        if sum(steady) == 1:
            assert solved == steady
    if all(solved):
        assert np.array_equal(es.vectors, full.vectors)
        assert np.array_equal(es.anomalous, full.anomalous)
    else:
        with pytest.raises(UnsolvedEigenvectorsError):
            es.vectors
        with pytest.raises(UnsolvedEigenvectorsError):
            es.anomalous


@st.composite
def oblique_systems(draw):
    """Square arrays and bilayers under an oblique plane wave, which
    reaches two or more of their mirror blocks."""
    a = draw(st.floats(0.2, 0.8)) * LAMBDA
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    geo = build_square_lattice(nx, ny, a)
    if draw(st.booleans()):
        geo = build_bilayer(nx, ny, a, draw(st.floats(0.1, 0.7)) * LAMBDA)
    t = draw(st.floats(0.1, 1.4))
    tr = draw(st.sampled_from([EY, J01, EX]))
    # tilted towards z with y polarization, or towards y with z
    beam = draw(st.sampled_from([
        PlaneWave(direction=(np.cos(t), 0.0, np.sin(t))),
        PlaneWave(direction=(np.cos(t), np.sin(t), 0.0),
                  polarization=(0.0, 0.0, 1.0))]))
    return assemble(geo, tr, beam)


@settings(max_examples=60, deadline=None)
@given(oblique_systems())
def test_eigen_table_solves_vectors_exactly_where_the_state_was_solved(
        system):
    # the steady state is handed over in its sector coordinates: a block
    # has vectors exactly where the steady state solved it, and every
    # other occupation is exactly 0, with no rounding of b = Q y mapped back
    steady = sector_reach(system.sectors[0], system.f)
    assume(sum(steady) >= 2)
    try:
        es, rows = eigen_table(system)
    except ResonantSingularityError:
        return
    assert [v is not None for _, _, v in es.sectors()] == steady
    occ = np.array([row[3] for row in rows])
    for (lo, hi, v), reached in zip(es.sectors(), steady):
        if not reached:
            assert not occ[es.columns[lo:hi]].any()
    b = steady_state(system)
    want = np.abs(eigenmodes(system).vectors.T @ b) ** 2
    assert np.abs(occ - want / want.sum()).max() <= 1e-12


def test_eigen_table_solves_vectors_in_the_driven_sector_only(monkeypatch):
    # a centred Gaussian beam polarized along y reaches one of the eight
    # J=0->1 sectors of a square: one block is solved with vectors, the
    # other seven for their eigenvalues alone
    system = assemble(build_square_lattice(6, 6, 0.6 * LAMBDA), J01,
                      GaussianBeam(waist=1.5 * LAMBDA))
    eig, calls = scipy.linalg.eig, []

    def record(a, **kwargs):
        calls.append(kwargs["right"])
        return eig(a, **kwargs)
    monkeypatch.setattr(scipy.linalg, "eig", record)
    es, rows = eigen_table(system)
    assert len(calls) == len(es.blocks) == 8
    assert sum(calls) == 1
    occ = np.array([row[3] for row in rows])
    assert np.count_nonzero(occ) == es.blocks[calls.index(True)]
    assert np.isclose(occ.sum(), 1.0, atol=1e-12)
    # the out-of-plane uniform state lies in a sector without vectors
    with pytest.raises(UnsolvedEigenvectorsError):
        mode_occupation(uniform_target(36, 0), es)
    with pytest.raises(UnsolvedEigenvectorsError):
        match_mode(es, uniform_target(36, 0))
