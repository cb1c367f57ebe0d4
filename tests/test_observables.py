import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atomarray import lli, observables as obs
from atomarray.drives import GaussianBeam, PlaneWave
from atomarray.errors import (DegenerateConfigurationError,
                              ResonantSingularityError)
from atomarray.geometry import (LAMBDA, Geometry, build_square_lattice,
                                sample_positions)
from atomarray.kernel import (GAMMA, K, XI, far_field_kernel, farfield_phase,
                              green_tensor)
from atomarray.lli import TransitionSpec
from atomarray.streams import seed_streams

EY = TransitionSpec(levels=2, orientation=(0.0, 1.0, 0.0))


def test_coherent_field_single_atom_far_zone():
    geo = Geometry(np.zeros((1, 3)))
    b = 0.3 + 0.1j
    dip = obs.dipole_table(EY, [b])
    r = 500.0
    rhat = np.array([1.0, 0.0, 0.0])
    got = obs.coherent_field(dip, geo, rhat * r)
    want = XI * b * far_field_kernel(rhat, r, np.zeros(3), [0, 1, 0])
    # the radiation-zone form drops the i/(kr)^2 kernel term: O(1/kr)
    assert np.max(np.abs(got - want)) < 3.0 / (K * r) * np.max(np.abs(want))


def test_two_in_phase_atoms_double_forward():
    d = 0.2 * LAMBDA
    geo = Geometry([[0, 0, -d / 2], [0, 0, d / 2]])
    one = Geometry(np.zeros((1, 3)))
    point = np.array([800.0, 0.0, 0.0])
    E2 = obs.coherent_field(obs.dipole_table(EY, [1.0, 1.0]), geo, point)
    E1 = obs.coherent_field(obs.dipole_table(EY, [1.0]), one, point)
    assert np.isclose(np.linalg.norm(E2), 2 * np.linalg.norm(E1), rtol=1e-4)


def test_farfield_amplitude_consistent_with_kernel():
    rng = np.random.default_rng(2)
    geo = Geometry(rng.uniform(-LAMBDA, LAMBDA, size=(4, 3)))
    b = rng.normal(size=4) + 1j * rng.normal(size=4)
    dip = obs.dipole_table(EY, b)
    nhat = np.array([[0.0, 0.6, 0.8]])
    F = obs.farfield_amplitude(dip, geo, nhat)[0]
    r = 1e6            # far enough that the Fresnel phase k r_j^2 / r is tiny
    E = obs.coherent_field(dip, geo, nhat[0] * r)
    assert np.max(np.abs(E - F * np.exp(1j * K * r) / r)) \
        < 1e-3 * np.max(np.abs(E))


def test_uniform_mode_forward_backward_lobes():
    # steady uniform in-plane mode of a 20x20 array: >= 90% of the coherent
    # power inside the zeroth-order cones around +-x
    a = 0.55 * LAMBDA
    geo = build_square_lattice(20, 20, a)
    beam = GaussianBeam(waist=3 * LAMBDA)
    system = lli.assemble(geo, EY, beam)
    b = lli.steady_state(system, 0.678)
    dip = obs.dipole_table(system, b)
    nhat, w = obs.sphere_grid(64, 128)
    I = np.sum(np.abs(obs.farfield_amplitude(dip, geo, nhat)) ** 2, axis=1)
    total = np.sum(w * I)
    cone = np.abs(nhat[:, 0]) > np.cos(0.35)
    assert np.sum(w[cone] * I[cone]) / total >= 0.90


def test_transmission_no_atoms():
    geo = Geometry(np.zeros((1, 3)))
    beam = GaussianBeam(waist=2 * LAMBDA)
    t, r = obs.transmission_reflection(obs.dipole_table(EY, [0.0]), geo, beam)
    assert np.isclose(t, 1.0, atol=1e-14)
    assert np.isclose(r, 0.0, atol=1e-14)


def test_t_equals_one_plus_r_uniform_mode():
    a = 0.6 * LAMBDA
    geo = build_square_lattice(10, 10, a)
    beam = GaussianBeam(waist=2 * LAMBDA)
    system = lli.assemble(geo, EY, beam)
    for delta in (-0.5, 0.3, 1.0):
        b = lli.steady_state(system, delta)
        t, r = obs.transmission_reflection(obs.dipole_table(system, b),
                                           geo, beam)
        assert abs(t - (1.0 + r)) < 1e-8


def test_finite_collection_cone_reduces_r_plus_t():
    a = 0.68 * LAMBDA
    geo = build_square_lattice(12, 12, a)
    beam = GaussianBeam(waist=2.5 * LAMBDA)
    system = lli.assemble(geo, EY, beam)
    b = lli.steady_state(system, 0.36)
    dip = obs.dipole_table(system, b)
    t_full, r_full = obs.transmission_reflection(dip, geo, beam)
    t_cone, r_cone = obs.transmission_reflection(
        dip, geo, beam, collection_half_angle=0.25)
    assert abs(r_cone) <= abs(r_full) + 1e-12
    assert abs(r_cone - r_full) > 1e-4      # some power falls outside


def _cone_grid(n_theta, n_phi, half_angle, forward=True):
    """Product grid over the cone theta <= half_angle about +-x:
    Gauss-Legendre in cos(theta) on [cos(half_angle), 1], whose edge is
    then an endpoint, times the uniform phi grid."""
    x, w = np.polynomial.legendre.leggauss(n_theta)
    c0 = np.cos(half_angle)
    ct = c0 + 0.5 * (1.0 - c0) * (x + 1.0)
    CT, PH = np.meshgrid(ct, (np.arange(n_phi) + 0.5) * 2 * np.pi / n_phi,
                         indexing="ij")
    st = np.sqrt(1.0 - CT**2)
    nhat = np.column_stack([(1.0 if forward else -1.0) * CT.ravel(),
                            (st * np.cos(PH)).ravel(),
                            (st * np.sin(PH)).ravel()])
    return nhat, np.repeat(0.5 * (1.0 - c0) * w * 2 * np.pi / n_phi, n_phi)


def _direct_rt(dip, geo, beam, half_angle, n_theta=96, n_phi=64):
    """Reference t and r: quadrature of the beam-mode overlaps of the
    scattered far field, one direction at a time, on product grids that
    are converged for atoms within two wavelengths of the origin.  Also
    the sums sum |w f^*.F| / |denom| of the terms of each overlap, which
    set the rounding of the reference where t - 1 and r are far smaller
    than the terms they are summed from."""
    nf, wf = _cone_grid(n_theta, n_phi, np.pi / 2)
    fin = beam.farfield_mode(nf)
    denom = (-1j * K * beam.waist**2 / 2.0 * beam.amplitude
             * np.sum(wf * np.einsum("mi,mi->m", fin.conj(), fin)).real)

    def overlap(forward):
        nhat, w = _cone_grid(n_theta, n_phi, half_angle, forward)
        F = obs.farfield_amplitude(dip, geo, nhat)
        terms = w * np.einsum("mi,mi->m", beam.farfield_mode(nhat).conj(), F)
        return np.sum(terms) / denom, np.sum(np.abs(terms)) / abs(denom)
    (t, t_terms), (r, r_terms) = overlap(True), overlap(False)
    return 1.0 + t, r, t_terms, r_terms


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.sampled_from([2, 4]),
       st.floats(0.5, 3.0), st.sampled_from([np.pi / 2, 1.2, 0.3]),
       st.sampled_from([(0, 1, 0), (0, 1, 1j), (0.3, 0.5, -0.2j)]))
@example(0, 3, 2, 1.0, np.pi / 2, (0, 1, 0))
# draws where |t - 1| is 3e-3 of the summed terms, whose rounding in the
# reference then exceeds 1e-12 |t - 1|
@example(812172, 1, 2, 0.5, np.pi / 2, (0, 1, 0))
@example(22170, 1, 2, 0.5625, 1.2, (0, 1, 0))
def test_detector_equals_direct_projection(seed, n, levels, waist_wl,
                                           half_angle, polarization):
    rng = np.random.default_rng(seed)
    geo = Geometry(rng.uniform(-LAMBDA, LAMBDA, size=(n, 3)))
    tr = TransitionSpec(levels=levels)
    b = rng.normal(size=n * tr.components) \
        + 1j * rng.normal(size=n * tr.components)
    dip = obs.dipole_table(tr, b)
    beam = GaussianBeam(waist=waist_wl * LAMBDA, polarization=polarization)
    t, r = obs.farfield_detector(geo, beam, half_angle).project(dip)
    t0, r0, t_terms, r_terms = _direct_rt(dip, geo, beam, half_angle)
    scale = max(abs(t0 - 1.0), abs(r0))
    assert abs(t - t0) <= 1e-12 * scale + 1e-13 * t_terms
    assert abs(r - r0) <= 1e-12 * scale + 1e-13 * r_terms


@pytest.mark.parametrize("half_angle", [0.0, -0.3])
def test_detector_rejects_empty_cone(half_angle):
    geo = build_square_lattice(2, 2, 0.6 * LAMBDA)
    with pytest.raises(ValueError, match="positive"):
        obs.farfield_detector(geo, GaussianBeam(waist=LAMBDA), half_angle)


@pytest.mark.parametrize("n_phi", [1, 31, 95])
def test_detector_rejects_odd_n_phi(n_phi):
    # the phi + pi pairing of the factored phases needs an even phi grid
    geo = build_square_lattice(2, 2, 0.6 * LAMBDA)
    with pytest.raises(ValueError, match="even"):
        obs.grid_phases(geo.positions, 8, n_phi)
    with pytest.raises(ValueError, match="even"):
        obs.farfield_map(np.ones((4, 3)), geo, 8, n_phi)


# distinct uniform positions within two wavelengths of the origin
positions = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 12)).map(
    lambda s: np.random.default_rng(s[0]).uniform(-2 * LAMBDA, 2 * LAMBDA,
                                                  size=(s[1], 3)))


@settings(max_examples=40, deadline=None)
@given(positions, st.integers(1, 12).map(lambda h: 2 * h),
       st.integers(1, 24).map(lambda h: 2 * h))
def test_grid_phases_reproduce_the_sphere_grid_phases(pos, n_theta, n_phi):
    # phase(a, b) = X E forward; conj(X) backward; conj(E) at phi + pi
    X, E = obs.grid_phases(pos, n_theta, n_phi)
    half = n_phi // 2
    assert X.shape == (n_theta, len(pos))
    assert E.shape == (n_theta, len(pos), half)
    E = E.transpose(0, 2, 1)
    fwd = np.concatenate([X[:, None] * E, X[:, None] * E.conj()], axis=1)
    bwd = np.concatenate([X.conj()[:, None] * E, (X[:, None] * E).conj()],
                         axis=1)
    table = np.concatenate([fwd, bwd]).reshape(-1, len(pos))
    want = farfield_phase(obs.sphere_grid(n_theta, n_phi)[0], pos)
    assert np.abs(table - want).max() <= 1e-13


@settings(max_examples=40, deadline=None)
@given(positions, st.sampled_from([2, 4]), st.integers(0, 2**32 - 1),
       st.integers(1, 12).map(lambda h: 2 * h),
       st.integers(1, 24).map(lambda h: 2 * h))
def test_farfield_map_equals_direct_projection(pos, levels, seed, n_theta,
                                               n_phi):
    geo = Geometry(pos)
    tr = TransitionSpec(levels=levels)
    rng = np.random.default_rng(seed)
    b = rng.normal(size=len(pos) * tr.components) \
        + 1j * rng.normal(size=len(pos) * tr.components)
    dip = obs.dipole_table(tr, b)
    want = obs.farfield_amplitude(dip, geo,
                                  obs.sphere_grid(n_theta, n_phi)[0])
    got = obs.farfield_map(dip, geo, n_theta, n_phi)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_hemisphere_grid_returns_fresh_arrays():
    # the Gauss-Legendre nodes are cached read-only; the grids are not
    x, w = obs._gauss_legendre(6)
    assert not x.flags.writeable and not w.flags.writeable
    nhat, wts = obs.hemisphere_grid(6, 8)
    ref = (nhat.copy(), wts.copy())
    nhat[:] = 0.0
    wts[:] = 0.0
    again = obs.hemisphere_grid(6, 8)
    assert np.array_equal(again[0], ref[0]) and np.array_equal(again[1], ref[1])
    x0, w0 = np.polynomial.legendre.leggauss(6)
    assert np.array_equal(x, x0) and np.array_equal(w, w0)


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 4), st.sampled_from([2, 4]),
       st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
def test_spectrum_equals_per_point_solve(n, levels, deltas):
    geo = build_square_lattice(n, n, 0.6 * LAMBDA)
    tr = TransitionSpec(levels=levels, zeeman=(0.4, 0.0, 0.4))
    beam = GaussianBeam(waist=1.5 * LAMBDA)
    system = lli.assemble(geo, tr, beam)
    t, r = obs.spectrum(system, obs.farfield_detector(geo, beam), deltas)
    for i, d in enumerate(deltas):
        b = lli.steady_state(system, d)
        assert (t[i], r[i]) == obs.transmission_reflection(
            obs.dipole_table(system, b), geo, beam)


def test_scattering_rates_single_atom():
    geo = Geometry(np.zeros((1, 3)))
    ree, rge = 0.2, 0.3 + 0.1j
    C = np.array([[ree]], dtype=complex)
    rates = obs.scattering_rates(C, [rge], geo, EY)
    assert np.isclose(rates["n_s"], 2 * GAMMA * ree)
    assert np.isclose(rates["n_c"], 2 * GAMMA * abs(rge) ** 2)
    assert np.isclose(rates["n_inc_saq"],
                      2 * GAMMA * (ree - abs(rge) ** 2))


def test_scattering_rate_dicke_pair_doubles():
    d = 0.02
    geo = Geometry([[0, 0, 0], [0, 0, d]])
    # symmetric single-excitation state: <s+_j s-_l> = 1/2 for all j, l
    C = 0.5 * np.ones((2, 2), dtype=complex)
    n_s = obs.total_scattering_rate(C, geo, EY)
    assert abs(n_s - 4 * GAMMA) / (4 * GAMMA) < 1e-3, \
        "superradiant pair should emit at twice the independent-atom rate"


def test_rate_formula_equals_quadrature_random_configs():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        pos = rng.uniform(-1.5 * LAMBDA, 1.5 * LAMBDA, size=(n, 3))
        geo = Geometry(pos)
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        C = A @ A.conj().T
        C /= np.trace(C).real
        n_s = obs.total_scattering_rate(C, geo, EY)
        n_q = obs.farfield_rate_quadrature(C, geo, EY, n_theta=72, n_phi=144)
        assert abs(n_s - n_q) <= 1e-6 * abs(n_s)


@pytest.mark.parametrize("levels", [2, 4])
def test_rate_quadrature_of_an_indefinite_table(levels):
    # both rates are linear in C, so they agree on Hermitian tables with
    # eigenvalues of either sign, where sum_k lambda_k |P u_k|^2 mixes signs
    rng = np.random.default_rng(5)
    tr = TransitionSpec(levels=levels)
    geo = Geometry(rng.uniform(-1.5 * LAMBDA, 1.5 * LAMBDA, size=(4, 3)))
    m = 4 * tr.components
    A = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    C = A + A.conj().T
    assert np.linalg.eigvalsh(C).min() < 0 < np.linalg.eigvalsh(C).max()
    n_s = obs.total_scattering_rate(C, geo, tr)
    n_q = obs.farfield_rate_quadrature(C, geo, tr, n_theta=72, n_phi=144)
    assert abs(n_s - n_q) <= 1e-6 * np.abs(np.linalg.eigvalsh(C)).sum()


def test_intensity_decomposition_semiclassical_incoherent_zero():
    geo = build_square_lattice(2, 2, 0.5 * LAMBDA)
    drive = PlaneWave(amplitude=0.4)
    system = lli.assemble(geo, EY, drive)
    b = lli.steady_state(system, 0.0)
    out = obs.intensity_decomposition(np.array([40.0, 1.0, -2.0]), geo,
                                      drive, b, EY, corr=None)
    assert out["incoherent"] == 0.0
    assert out["total"] == pytest.approx(out["incident"] + out["interference"]
                                         + out["coherent"])


def test_intensity_decomposition_single_atom_quantum():
    from atomarray.quantum import (build_quantum_system, correlation_table,
                                   mean_lowering, steady_state_qme)
    geo = Geometry(np.zeros((1, 3)))
    drive = PlaneWave(amplitude=0.7)
    qs = build_quantum_system(geo, EY, drive)
    rho, _ = steady_state_qme(qs)
    C = correlation_table(rho, qs)
    means = mean_lowering(rho, qs)
    point = np.array([25.0, 3.0, -1.0])
    out = obs.intensity_decomposition(point, geo, drive, means, EY, corr=C)
    # incoherent ~ |A|^2 (rho_ee - |rho_ge|^2) with A the propagation factor
    amp = XI * green_tensor(point - geo.positions[0]) @ np.array([0, 1, 0])
    factor = np.sum(np.abs(amp) ** 2)
    want = factor * (C[0, 0].real - abs(means[0]) ** 2)
    assert np.isclose(out["incoherent"], want, rtol=1e-10)


def test_ensemble_incoherent_two_estimators():
    rng = np.random.default_rng(8)
    F = rng.normal(size=(50, 7, 3)) + 1j * rng.normal(size=(50, 7, 3))
    got = obs.ensemble_incoherent_intensity(F)
    manual = (np.mean(np.abs(F) ** 2, axis=0).sum(-1)
              - np.sum(np.abs(F.mean(axis=0)) ** 2, axis=-1))
    assert np.allclose(got, manual)
    assert np.all(got > -1e-12)


def test_rt_beyond_lli_closure_and_limits():
    om, gt = -0.45, -0.35
    # LLI limit: F_inc -> 0, R+T -> 1
    rep = obs.rt_beyond_lli(0.3, om, gt, 1e-6)[0]
    assert rep.incoherent_flux < 1e-10
    assert abs(rep.reflectance + rep.transmittance - 1.0) < 1e-9
    # saturation transparency
    rep = obs.rt_beyond_lli(0.0, om, gt, 200.0)[-1]
    assert rep.transmittance > 0.99
    # closure across a grid
    worst = 0.0
    for d in np.linspace(-3, 3, 13):
        for I in np.geomspace(1e-2, 1e2, 13):
            for rep in obs.rt_beyond_lli(d, om, gt, np.sqrt(I / 2)):
                worst = max(worst, abs(rep.residual))
    assert worst < 1e-10


@settings(max_examples=200, deadline=None)
@given(st.floats(-80, 80), st.floats(-60, 60), st.floats(-0.99, 60),
       st.floats(0.1, 0.9), st.floats(1e-3, 300))
@example(0.0, 0.0, 8.0, 0.5, 1.0)        # the cusp: a window of zero width
def test_rt_beyond_lli_energy_closure_every_branch(delta, omega_t, gamma_t,
                                                   frac, rabi):
    """R + T + F_inc = 1 on every steady branch; where a bistable window
    exists the drive is placed inside it, away from the folds where two
    branches merge, so that all three branches appear."""
    from atomarray.semiclassical import bistable_intensity_window
    window = bistable_intensity_window(delta, omega_t, gamma_t)
    if window is not None:
        intensity = window[0] + frac * (window[1] - window[0])
        rabi = np.sqrt(intensity / 2.0) * GAMMA
    reps = obs.rt_beyond_lli(delta, omega_t, gamma_t, rabi)
    assert len(reps) == (1 if window is None else 3)
    for rep in reps:
        assert abs(rep.residual) < 1e-10


def test_disorder_zero_widths_equals_fixed():
    geo = build_square_lattice(3, 3, 0.7 * LAMBDA)
    beam = GaussianBeam(waist=1.5 * LAMBDA)
    streams = seed_streams(0, 4)
    rep, = obs.disorder_average(geo, EY, beam, 4, streams, [0.4])
    system = lli.assemble(geo, EY, beam)
    b = lli.steady_state(system, 0.4)
    t, r = obs.transmission_reflection(obs.dipole_table(system, b), geo, beam)
    assert rep.stderr_t < 1e-14
    assert np.isclose(rep.mean_t, t)
    assert np.isclose(rep.mean_r, r)


def test_disorder_average_with_fields():
    geo = build_square_lattice(3, 3, 0.7 * LAMBDA).with_fluctuation(0.1, 0.05)
    beam = GaussianBeam(waist=1.5 * LAMBDA)
    streams = seed_streams(42, 6)
    pts = np.array([[30.0, 0.0, 0.0], [-30.0, 0.0, 0.0]])
    rep, = obs.disorder_average(geo, EY, beam, 6, streams, [0.0],
                                field_points=pts)
    assert rep.n_realizations == 6
    assert rep.incoherent_intensity.shape == (2,)
    assert np.all(rep.incoherent_intensity > -1e-12)
    assert rep.stderr_t > 0


def test_disorder_determinism():
    geo = build_square_lattice(3, 3, 0.68 * LAMBDA).with_fluctuation(0.15, 0.0)
    beam = GaussianBeam(waist=1.5 * LAMBDA)
    a, = obs.disorder_average(geo, EY, beam, 5, seed_streams(7, 5), [0.2])
    b, = obs.disorder_average(geo, EY, beam, 5, seed_streams(7, 5), [0.2])
    assert a.mean_t == b.mean_t
    assert a.mean_r == b.mean_r


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4),
       st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3))
def test_disorder_grid_equals_per_detuning_ensembles(seed, n, deltas):
    geo = build_square_lattice(3, 3, 0.68 * LAMBDA).with_fluctuation(0.15, 0.05)
    beam = GaussianBeam(waist=1.5 * LAMBDA)
    streams = seed_streams(seed, n)
    reps = obs.disorder_average(geo, EY, beam, n, streams, deltas)
    assert len(reps) == len(deltas)
    for d, rep in zip(deltas, reps):
        # reference: every realization re-sampled and re-solved at d
        t, r = [], []
        for s in streams:
            g = sample_positions(geo, np.random.default_rng(s))
            system = lli.assemble(g, EY, beam)
            b = lli.steady_state(system, d)
            ti, ri = obs.transmission_reflection(obs.dipole_table(system, b),
                                                 g, beam)
            t.append(ti)
            r.append(ri)
        t, r = np.array(t), np.array(r)
        assert rep.n_realizations == n and rep.failures == 0
        assert rep.mean_t == t.mean() and rep.mean_r == r.mean()
        assert rep.stderr_t == np.std(t) / np.sqrt(n)
        assert rep.stderr_r == np.std(r) / np.sqrt(n)


def test_disorder_failures_dropped_counted_and_bugs_raise(monkeypatch):
    geo = build_square_lattice(2, 2, 0.7 * LAMBDA).with_fluctuation(0.1, 0.0)
    beam = GaussianBeam(waist=1.5 * LAMBDA)
    deltas = [-0.5, 0.0, 0.5]
    sample, solve = obs.sample_positions, lli.steady_state
    n_samples, n_solves = [0], [0]

    def failing_sample(g, rng):
        n_samples[0] += 1
        if n_samples[0] == 2:            # realization 1
            raise DegenerateConfigurationError("overlap")
        return sample(g, rng)

    def failing_solve(system, d):
        n_solves[0] += 1
        if n_solves[0] == 3:             # realization 0 at delta = 0.5
            raise ResonantSingularityError("resonance")
        return solve(system, d)

    monkeypatch.setattr(obs, "sample_positions", failing_sample)
    monkeypatch.setattr(lli, "steady_state", failing_solve)
    reps = obs.disorder_average(geo, EY, beam, 4, seed_streams(3, 4), deltas,
                                max_failure_fraction=0.5)
    assert [rep.failures for rep in reps] == [1, 1, 2]
    assert [rep.n_realizations for rep in reps] == [3, 3, 2]

    # the second drop at delta = 0.5 exceeds the default allowance of one
    n_samples[0], n_solves[0] = 0, 0
    with pytest.raises(DegenerateConfigurationError):
        obs.disorder_average(geo, EY, beam, 4, seed_streams(3, 4), deltas)

    def buggy_solve(system, d):
        raise TypeError("bug")
    monkeypatch.setattr(lli, "steady_state", buggy_solve)
    with pytest.raises(TypeError):
        obs.disorder_average(geo, EY, beam, 4, seed_streams(3, 4), deltas,
                             max_failure_fraction=1.0)


def test_reflectivity_degrades_with_fluctuations():
    # resonance reflectivity decreases monotonically with in-plane width
    a = 0.68 * LAMBDA
    geo0 = build_square_lattice(8, 8, a)
    beam = GaussianBeam(waist=1.6 * LAMBDA)
    widths = [0.0, 0.06 * a, 0.12 * a, 0.2 * a]
    refl = []
    for i, ell in enumerate(widths):
        geo = geo0.with_fluctuation(ell, 0.0)
        if ell == 0.0:
            system = lli.assemble(geo, EY, beam)
            b = lli.steady_state(system, 0.36)
            _, r = obs.transmission_reflection(obs.dipole_table(system, b),
                                               geo, beam)
            refl.append(abs(r) ** 2)
        else:
            rep, = obs.disorder_average(geo, EY, beam, 24,
                                        seed_streams(100 + i, 24), [0.36])
            refl.append(abs(rep.mean_r) ** 2)
    assert all(refl[i] > refl[i + 1] for i in range(len(refl) - 1))


def test_many_body_signature_diagnostic():
    from atomarray import semiclassical as sc
    from atomarray.quantum import (build_quantum_system, correlation_table,
                                   mean_lowering, steady_state_qme)
    geo = Geometry([[0, 0, 0], [0, 0, 0.25 * LAMBDA]])
    drive = PlaneWave(amplitude=1.2)
    qs = build_quantum_system(geo, EY, drive)
    rho, _ = steady_state_qme(qs)
    C = correlation_table(rho, qs)
    means_q = mean_lowering(rho, qs)
    system = sc.build_obe_system(geo, EY, drive)
    st, _ = sc.steady_state_obe(system)
    rep = obs.many_body_signature(C, means_q, st.populations(),
                                  st.coherences[:, 0], geo, EY)
    # strongly driven close pair: many-body correlations are visible
    assert abs(rep["many_body_signature"]) > 1e-3
    # a single atom has no many-body part: quantum and SAQ coincide
    geo1 = Geometry(np.zeros((1, 3)))
    qs1 = build_quantum_system(geo1, EY, drive)
    rho1, _ = steady_state_qme(qs1)
    rep1 = obs.many_body_signature(
        correlation_table(rho1, qs1), mean_lowering(rho1, qs1),
        [rho1[1, 1].real], [rho1[0, 1]], geo1, EY)
    assert abs(rep1["many_body_signature"]) < 1e-9


def test_lorentzian_fit_recovers_width():
    deltas = np.linspace(-3, 3, 61)
    vals = 0.8 * 0.45**2 / ((deltas - 0.2) ** 2 + 0.45**2) + 0.05
    A, d0, w, c = obs.lorentzian_fit(deltas, vals)
    assert np.isclose(w, 0.45, rtol=1e-6)
    assert np.isclose(d0, 0.2, atol=1e-8)


def test_lorentzian_fit_is_converged_to_rounding():
    # a reflectance that is not exactly Lorentzian: last-bit changes of the
    # data must not move the fitted width beyond rounding
    deltas = np.linspace(-1.2, 1.9, 33)
    vals = (0.9 * 0.5**2 / ((deltas - 0.3) ** 2 + 0.5**2)
            + 0.03 * np.sin(2 * deltas))
    w = obs.lorentzian_fit(deltas, vals)[2]
    rng = np.random.default_rng(4)
    for _ in range(10):
        bumped = vals * (1 + 1e-15 * rng.choice([-1.0, 1.0], size=vals.shape))
        assert abs(obs.lorentzian_fit(deltas, bumped)[2] - w) < 1e-10
