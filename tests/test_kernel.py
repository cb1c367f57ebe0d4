import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from atomarray.errors import (NearFieldRequestError, OnLightConeError,
                              SingularSeparationError)
from atomarray.geometry import LAMBDA, Geometry, min_pair_distance
from atomarray.kernel import (GAMMA, K, XI, circular_basis, coupling_matrix,
                              direction_angles, far_field_kernel,
                              green_1d, green_tensor, kernel_matrix_element,
                              momentum_kernel_2d, momentum_kernel_3d,
                              pair_coupling, transverse)
from atomarray.kernel import direction as polar_direction


def green_term_by_term(rvec):
    """Independent oracle: the three radial terms of the kernel assembled
    literally (transverse 1/rho, and the (3rr-1) near-field pair)."""
    r = np.linalg.norm(rvec)
    rhat = np.asarray(rvec) / r
    rr = np.outer(rhat, rhat)
    eye = np.eye(3)
    rho = K * r
    t1 = (eye - rr) * np.exp(1j * rho) / rho
    t2 = -(3 * rr - eye) * 1j * np.exp(1j * rho) / rho**2
    t3 = (3 * rr - eye) * np.exp(1j * rho) / rho**3
    return K**3 / (4 * np.pi) * (t1 + t2 + t3)


def test_green_tensor_halfwave_perpendicular():
    # d perpendicular to r at kr = pi: (k^3/4pi)(-1/pi - i/pi^2 + 1/pi^3)
    r = np.array([0.0, 0.0, np.pi])
    e = np.array([1.0, 0.0, 0.0])
    got = e @ green_tensor(r) @ e
    want = K**3 / (4 * np.pi) * (-1 / np.pi - 1j / np.pi**2 + 1 / np.pi**3)
    assert np.isclose(got, want, rtol=1e-13)
    assert np.allclose(green_tensor(r), green_term_by_term(r), rtol=1e-13)


def test_green_tensor_matches_term_oracle_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        r = rng.normal(size=3) * 3.0
        assert np.allclose(green_tensor(r), green_term_by_term(r), rtol=1e-12)


def test_dicke_limit():
    # xi * Im[e.G.e] -> gamma as r -> 0 for any unit vector
    rng = np.random.default_rng(1)
    for _ in range(5):
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        val = XI * np.imag(e @ green_tensor(rng.normal(size=3) * 1e-3) @ e)
        assert abs(val - GAMMA) < 1e-5


def test_green_tensor_even_and_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(10):
        r = rng.normal(size=3) * 2.0
        G = green_tensor(r)
        assert np.allclose(G, G.T, atol=1e-15)
        assert np.allclose(G, green_tensor(-r), atol=1e-15)


def test_green_tensor_singular_separation():
    with pytest.raises(SingularSeparationError):
        green_tensor(np.zeros(3))


def test_far_field_agreement():
    # kr >> 1: full kernel approaches the radiation-zone form to O(1/(kr)^2)
    r = 1e3 / K
    rhat = np.array([0.0, 0.6, 0.8])
    d = np.array([1.0, 0.0, 0.0])
    full = green_tensor(rhat * r) @ d * np.exp(0j)
    far = far_field_kernel(rhat, r, np.zeros(3), d)
    lead = K**2 / (4 * np.pi * r)
    assert np.max(np.abs(full - far)) < 1e-2 * lead


def test_far_field_zero_along_dipole():
    out = far_field_kernel([0, 0, 1.0], 1e3, np.zeros(3), [0, 0, 2.0])
    assert np.allclose(out, 0.0)


def test_far_field_transverse_magnitude():
    r = 5e2
    out = far_field_kernel([1.0, 0, 0], r, np.zeros(3), [0, 3.0, 0])
    assert np.isclose(np.linalg.norm(out), K**2 * 3.0 / (4 * np.pi * r))


def test_far_field_near_request_error():
    with pytest.raises(NearFieldRequestError):
        far_field_kernel([1, 0, 0], 1.0, np.zeros(3), [0, 1, 0])


def test_pair_coupling_halfwave():
    r1 = np.zeros(3)
    r2 = np.array([0.0, 0.0, 0.5 * LAMBDA])
    ex = np.array([1.0, 0.0, 0.0])
    pc = pair_coupling(r1, r2, ex, ex)
    # closed forms from the kernel at kr = pi (Appendix-B quadrature below
    # cross-checks the same numbers)
    assert np.isclose(pc.gamma_pair, -3 * GAMMA / (2 * np.pi**2), rtol=1e-12)
    assert np.isclose(pc.omega, 1.5 * GAMMA * (-1 / np.pi + 1 / np.pi**3),
                      rtol=1e-12)


def test_pair_coupling_dicke_and_swap():
    e = np.array([0.0, 1.0, 0.0])
    pc = pair_coupling(np.zeros(3), [1e-3, 0, 0], e, e)
    assert abs(pc.gamma_pair - GAMMA) < 1e-5
    a = pair_coupling([0.1, 0.2, 0.3], [1.0, -0.4, 0.2], e, e)
    b = pair_coupling([1.0, -0.4, 0.2], [0.1, 0.2, 0.3], e, e)
    assert np.isclose(a.complex_coupling, b.complex_coupling, rtol=1e-14)


def gamma_pair_quadrature(rvec, e_nu, e_mu, n_theta=80, n_phi=160):
    """Appendix-B oracle: Gamma = (3 gamma/4 pi) int dOmega
    [e_nu*.P(n).e_mu] e^{i k n.r} equals 2 gamma_pair."""
    x, w = np.polynomial.legendre.leggauss(n_theta)
    phi = (np.arange(n_phi) + 0.5) * 2 * np.pi / n_phi
    wphi = 2 * np.pi / n_phi
    ct, ph = np.meshgrid(x, phi, indexing="ij")
    st_ = np.sqrt(1 - ct**2)
    nhat = np.stack([st_ * np.cos(ph), st_ * np.sin(ph), ct], axis=-1)
    e_nu = np.asarray(e_nu, dtype=complex)
    e_mu = np.asarray(e_mu, dtype=complex)
    bracket = (np.vdot(e_nu, e_mu)
               - (nhat @ e_nu.conj()) * (nhat @ e_mu))
    phase = np.exp(1j * K * nhat @ np.asarray(rvec))
    integrand = bracket * phase
    total = np.einsum("t,tp->", w, integrand) * wphi
    return 3 * GAMMA / (4 * np.pi) * total


def test_appendix_quadrature_equals_twice_gamma_pair():
    # real orientation pairs: the identity Gamma = 2 Im(XI G_numu) holds
    # elementwise (taking the imaginary part commutes with a real basis)
    rng = np.random.default_rng(9)
    for _ in range(10):
        rvec = rng.normal(size=3)
        rvec *= (0.3 + 2.0 * rng.random()) * LAMBDA / np.linalg.norm(rvec)
        e_nu = rng.normal(size=3)
        e_nu /= np.linalg.norm(e_nu)
        e_mu = rng.normal(size=3)
        e_mu /= np.linalg.norm(e_mu)
        g = XI * kernel_matrix_element(rvec, e_nu, e_mu)
        quad = gamma_pair_quadrature(rvec, e_nu, e_mu)
        assert abs(quad - 2 * g.imag) <= 1e-8 * max(1.0, abs(2 * g.imag))


def test_appendix_quadrature_circular_diagonal():
    # same-index circular pairs are also exact (diagonal elements are real)
    rng = np.random.default_rng(19)
    U = circular_basis()
    for _ in range(6):
        rvec = rng.normal(size=3)
        rvec *= (0.4 + 1.5 * rng.random()) * LAMBDA / np.linalg.norm(rvec)
        i = int(rng.integers(0, 3))
        e = U[:, i]
        g = XI * kernel_matrix_element(rvec, e, e)
        quad = gamma_pair_quadrature(rvec, e, e)
        assert abs(quad.imag) < 1e-10
        assert abs(quad.real - 2 * g.imag) <= 1e-8 * max(1.0, abs(2 * g.imag))


def test_far_field_sphere_integral_gives_single_atom_rate():
    # photon rate from the radiation-zone field of one excited atom:
    # (2/XI) * int r^2 |XI G_far d|^2 dOmega = 2 gamma rho_ee
    rho_ee = 0.37
    b2 = rho_ee                       # |<sigma^->|^2 for a coherent state
    e = np.array([0.0, 1.0, 0.0])
    r = 1e4
    x, w = np.polynomial.legendre.leggauss(40)
    phi = (np.arange(80) + 0.5) * 2 * np.pi / 80
    wphi = 2 * np.pi / 80
    total = 0.0
    for ct, wt in zip(x, w):
        st_ = np.sqrt(1 - ct**2)
        for p in phi:
            nhat = np.array([st_ * np.cos(p), st_ * np.sin(p), ct])
            F = far_field_kernel(nhat, r, np.zeros(3), e)
            total += wt * wphi * np.sum(np.abs(XI * F) ** 2) * r**2
    rate = 2.0 / XI * b2 * total
    assert np.isclose(rate, 2 * GAMMA * rho_ee, rtol=1e-10)


coordinate = st.floats(-1.5 * LAMBDA, 1.5 * LAMBDA)
direction = st.tuples(st.floats(-1, 1), st.floats(-1, 1),
                      st.floats(-1, 1)).filter(lambda v: np.linalg.norm(v) > 0.1)


@st.composite
def dipole_bases(draw):
    """(kind, (3, m) basis): a random real orientation, the Cartesian
    basis, or the circular basis of a random quantization axis."""
    kind = draw(st.sampled_from(["orientation", "cartesian", "circular"]))
    if kind == "cartesian":
        return kind, np.eye(3, dtype=complex)
    v = np.asarray(draw(direction))
    if kind == "orientation":
        return kind, (v / np.linalg.norm(v))[:, None]
    return kind, circular_basis(v)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coordinate, coordinate, coordinate),
                min_size=1, max_size=5), dipole_bases())
def test_coupling_matrix_matches_pair_coupling(points, kind_basis):
    kind, basis = kind_basis
    pos = np.asarray(points)
    assume(min_pair_distance(pos) > 0.05)
    n, m = len(pos), basis.shape[1]
    C = coupling_matrix(Geometry(pos), basis)
    assert C.shape == (n * m, n * m)
    blocks = C.reshape(n, m, n, m)
    for j in range(n):
        assert np.array_equal(blocks[j, :, j, :], 1j * GAMMA * np.eye(m))
        for l in range(n):
            if l == j:
                continue
            want = np.array([[pair_coupling(pos[j], pos[l], basis[:, a],
                                            basis[:, b]).complex_coupling
                              for b in range(m)] for a in range(m)])
            dev = np.max(np.abs(blocks[j, :, l, :] - want))
            assert dev <= 1e-13 * np.max(np.abs(want))
    if kind != "circular":
        assert np.array_equal(C, C.T)       # complex symmetric


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coordinate, coordinate, coordinate),
                min_size=2, max_size=6), direction, st.booleans())
def test_dissipation_matrix_positive_semidefinite(points, e, cartesian):
    """B = Im of the coupling matrix is PSD for a real orientation and for
    the Cartesian J=0 -> J'=1 basis, the two bases of the quantum model."""
    pos = np.asarray(points)
    assume(min_pair_distance(pos) > 0.05)
    e = np.asarray(e) / np.linalg.norm(e)
    basis = np.eye(3) if cartesian else e[:, None]
    B = coupling_matrix(Geometry(pos), basis).imag
    assert np.linalg.eigvalsh(B).min() > -1e-9 * GAMMA


def test_circular_basis_orthonormal():
    rng = np.random.default_rng(6)
    for _ in range(5):
        axis = rng.normal(size=3)
        U = circular_basis(axis)
        assert np.allclose(U.conj().T @ U, np.eye(3), atol=1e-14)
    # default quantization axis is z
    U = circular_basis()
    assert np.allclose(U[:, 1], [0, 0, 1])


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-3, np.pi - 1e-3), st.floats(-np.pi + 1e-3, np.pi))
def test_direction_angles_round_trip(theta, phi):
    n = polar_direction(theta, phi)
    assert abs(np.linalg.norm(n) - 1.0) < 1e-15
    th, ph = direction_angles(n)
    assert abs(th - theta) < 1e-12
    assert abs(ph - phi) < 1e-12 / np.sin(theta)
    # grids broadcast: one (3,) row per angle pair
    grid = polar_direction(np.array([theta, 0.5]), np.array([phi, -1.0]))
    assert np.array_equal(grid[0], n)


component = st.floats(-5, 5)


@settings(max_examples=100, deadline=None)
@given(st.lists(direction, min_size=1, max_size=4),
       st.lists(st.tuples(*[component] * 6), min_size=1, max_size=4))
def test_transverse_idempotent_and_orthogonal(dirs, comps):
    n = np.array(dirs[:len(comps)])
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    c = np.array(comps[:len(n)])
    v = c[:, :3] + 1j * c[:, 3:]
    p = transverse(n, v)
    scale = max(1.0, np.max(np.abs(v)))
    assert np.max(np.abs(np.einsum("mi,mi->m", n, p))) < 1e-14 * scale
    assert np.max(np.abs(transverse(n, p) - p)) < 1e-14 * scale
    # a single direction broadcasts over many vectors and vice versa
    assert np.allclose(transverse(n[0], v), [transverse(n[0], x) for x in v],
                       rtol=0, atol=1e-15 * scale)


def test_source_clicks_are_not_detections():
    from atomarray.errors import UndefinedG2Error
    from atomarray.geometry import Geometry
    from atomarray.lli import TransitionSpec
    from atomarray import quantum as qt
    from atomarray.drives import PlaneWave
    tr = TransitionSpec(levels=2, orientation=(0, 1, 0))
    qs = qt.build_quantum_system(Geometry(np.zeros((1, 3))), tr,
                                 PlaneWave(amplitude=1.0))
    res = qt.run_trajectories(qs.ground_state(), qs,
                              qt.source_mode_basis(qs),
                              np.linspace(0, 2, 3), 50, seed=0)
    assert not res.clicks_are_detections
    with pytest.raises(UndefinedG2Error):
        qt.g2_from_clicks(res, np.linspace(0, 1, 5))


def test_green_1d():
    assert np.isclose(green_1d(0.0), 0.5j * K)
    xs = np.linspace(-10, 10, 7)
    mags = [abs(green_1d(x)) for x in xs]
    assert np.allclose(mags, K / 2)
    # downstream gamma_1d: xi * Im[G_1d(0)] / A' with A' = a^2
    a = 0.7 * LAMBDA
    assert np.isclose(XI * np.imag(green_1d(0.0)) / a**2,
                      3 * np.pi * GAMMA / (K * a) ** 2, rtol=1e-14)


def test_momentum_kernel_2d_transversality():
    M = momentum_kernel_2d((0.0, 0.0), x=0.0)
    want = np.diag([0.0, 0.5j * K, 0.5j * K])
    assert np.allclose(M, want, atol=1e-14)


def test_momentum_kernel_2d_evanescent_decay():
    q = (1.8 * K, 0.0)
    near = np.abs(momentum_kernel_2d(q, x=0.1)).max()
    far = np.abs(momentum_kernel_2d(q, x=30.0)).max()
    assert far < 1e-15 * near


def test_momentum_kernel_2d_light_cone_guard():
    with pytest.raises(OnLightConeError):
        momentum_kernel_2d((K, 0.0), x=0.0)


def test_momentum_kernel_2d_inverse_fourier_oracle():
    """Polar-quadrature inverse transform reproduces the position kernel."""
    x = 0.6 * LAMBDA
    rho_vec = np.array([0.31, -0.22])

    n_chi, n_phi = 160, 160
    # inside the light circle: q = k sin(chi) removes the 1/k_perp edge
    chi, wchi = np.polynomial.legendre.leggauss(n_chi)
    chi = 0.25 * np.pi * (chi + 1)
    wchi = 0.25 * np.pi * wchi
    # outside: q = k cosh(u)
    u, wu = np.polynomial.legendre.leggauss(n_chi)
    umax = np.arccosh(12.0)
    u = 0.5 * umax * (u + 1)
    wu = 0.5 * umax * wu
    phi = (np.arange(n_phi) + 0.5) * 2 * np.pi / n_phi
    wphi = 2 * np.pi / n_phi

    def accumulate(qs, jacobian, weights):
        total = np.zeros((3, 3), dtype=complex)
        for qv, jac, wq in zip(qs, jacobian, weights):
            for p in phi:
                qpar = qv * np.array([np.cos(p), np.sin(p)])
                Mq = momentum_kernel_2d(qpar, x=x)
                ph = np.exp(1j * qpar @ rho_vec)
                total += Mq * ph * jac * wq * wphi
        return total / (2 * np.pi) ** 2

    q_in = K * np.sin(chi)
    jac_in = K**2 * np.sin(chi) * np.cos(chi)      # q dq = k^2 sin cos dchi
    q_out = K * np.cosh(u)
    jac_out = K**2 * np.cosh(u) * np.sinh(u)
    got = accumulate(q_in, jac_in, wchi) + accumulate(q_out, jac_out, wu)

    want = green_tensor(np.array([x, rho_vec[0], rho_vec[1]]))
    assert np.max(np.abs(got - want)) < 1e-3 * np.max(np.abs(want))


def test_momentum_kernel_3d_values_and_guard():
    p = np.array([0.3, -0.2, 0.5])
    M = momentum_kernel_3d(p)
    want = (K**2 * np.eye(3) - np.outer(p, p)) / (p @ p - K**2)
    assert np.allclose(M, want)
    eta = 0.4
    assert np.allclose(momentum_kernel_3d(p, eta),
                       want * np.exp(-(p @ p) * eta**2 / 4))
    with pytest.raises(OnLightConeError):
        momentum_kernel_3d(np.array([K, 0.0, 0.0]))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 4.0), st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi))
def test_kernel_symmetry_property(r, theta, phi):
    rvec = r * LAMBDA * np.array([np.sin(theta) * np.cos(phi),
                                  np.sin(theta) * np.sin(phi), np.cos(theta)])
    if np.linalg.norm(rvec) < 1e-3:
        return
    G = green_tensor(rvec)
    assert np.allclose(G, G.T, atol=1e-14)
    assert np.allclose(G, green_tensor(-rvec), atol=1e-14)


@st.composite
def lattices(draw):
    """Squares with nx != ny allowed, bilayers and stacks of unequal
    separations."""
    from atomarray.geometry import (build_bilayer, build_square_lattice,
                                    build_stack)
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    a = draw(st.floats(0.1, 1.5)) * LAMBDA
    kind = draw(st.sampled_from(["square", "bilayer", "stack"]))
    if kind == "square":
        return build_square_lattice(nx, ny, a)
    if kind == "bilayer":
        return build_bilayer(nx, ny, a, draw(st.floats(0.05, 1.0)) * LAMBDA)
    seps = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4))
    return build_stack(nx, ny, a, [s * LAMBDA for s in seps])


@settings(max_examples=60, deadline=None)
@given(lattices(), st.sampled_from(["y", "tilted", "j01"]))
def test_lattice_table_equals_pair_couplings(geo, kind):
    basis = {"y": np.array([[0.0], [1.0], [0.0]]),
             "tilted": np.array([[1.0], [0.1], [0.3]]) / np.sqrt(1.1),
             "j01": np.eye(3)}[kind].astype(complex)
    table = coupling_matrix(geo, basis)
    pairs = coupling_matrix(Geometry(geo.positions, geo.site_labels), basis)
    assert np.abs(table - pairs).max() <= 1e-14 * np.abs(pairs).max()
    assert np.array_equal(np.diagonal(table), np.diagonal(pairs))


def test_lattice_table_evaluates_the_kernel_once_per_offset(monkeypatch):
    # a bilayer has two distinct layer separations, 0 and d: (2 nx - 1)
    # (2 ny - 1) offsets each, less the zero offset of a site with itself
    from atomarray import kernel
    from atomarray.geometry import build_bilayer
    shapes = []

    def counted(rvec):
        shapes.append(np.shape(rvec)[:-1])
        return green_tensor(rvec)
    monkeypatch.setattr(kernel, "green_tensor", counted)
    coupling_matrix(build_bilayer(4, 3, 0.6 * LAMBDA, 0.4 * LAMBDA),
                    np.eye(3, dtype=complex))
    assert shapes == [(2 * 7 * 5 - 1,)]
