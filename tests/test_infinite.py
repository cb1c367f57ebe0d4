import numpy as np
import pytest

from atomarray import infinite
from atomarray.errors import BraggResonanceError
from atomarray.geometry import LAMBDA
from atomarray.kernel import GAMMA, K, XI, direction
from atomarray.infinite import (TwoModeParams, band_structure, lattice_sums,
                                magnetic_mirror_rt, nonnormal_response,
                                rydberg_eit_rt, single_mode_rt,
                                two_mode_exceptional_point,
                                two_mode_finite_size_reflection,
                                two_mode_perfect_reflection_detunings,
                                two_mode_rt, two_mode_steady_state,
                                two_mode_transparency_detuning,
                                uniform_linewidth_analytic,
                                zero_shift_spacings)


def test_analytic_linewidth_values():
    assert np.isclose(uniform_linewidth_analytic(0.68 * LAMBDA), 0.51629,
                      atol=1e-5)
    assert np.isclose(uniform_linewidth_analytic(0.5 * LAMBDA), 3 / np.pi,
                      rtol=1e-12)
    assert np.isclose(uniform_linewidth_analytic(0.999 * LAMBDA),
                      3 * GAMMA / (4 * np.pi), rtol=3e-3)
    with pytest.raises(ValueError):
        uniform_linewidth_analytic(1.2 * LAMBDA)


def test_lattice_sums_match_analytic_linewidth():
    for frac in (0.3, 0.5, 0.68, 0.9):
        a = frac * LAMBDA
        got = GAMMA + lattice_sums(a).uniform_mode(1)[1]
        want = uniform_linewidth_analytic(a)
        assert abs(got - want) / want < 1e-4


def test_lattice_sums_perpendicular_mode_dark():
    for frac in (0.3, 0.55, 0.9):
        s = lattice_sums(frac * LAMBDA)
        assert abs(GAMMA + s.coupling[0, 0].imag) < 1e-6


def test_lattice_sums_real_space_oracle():
    """Brute-force window-summed real-space lattice sum (Gaussian window
    against the conditional convergence) vs the momentum-space result."""
    a = 0.68 * LAMBDA
    L = 500
    n = np.arange(-L, L + 1)
    Y, Z = np.meshgrid(n * a, n * a, indexing="ij")
    mask = ~((Y == 0) & (Z == 0))
    y, z = Y[mask], Z[mask]
    r = np.sqrt(y**2 + z**2)
    rho = K * r
    ryy = y**2 / r**2
    gyy = (K**3 / (4 * np.pi)) * np.exp(1j * rho) * (
        (1 - ryy) / rho + (3 * ryy - 1) * (1 / rho**3 - 1j / rho**2))
    window = np.exp(-(r / (0.3 * L * a)) ** 2)
    brute = XI * np.sum(gyy * window)
    got = lattice_sums(a).coupling[1, 1]
    assert abs(got - brute) < 1e-3 * GAMMA


def test_lattice_sums_symmetry_and_eta_stability():
    a = 0.62 * LAMBDA
    q = np.array([0.31 * K, 0.17 * K])
    s = lattice_sums(a, q)
    assert np.allclose(s.omega, s.omega.T, atol=1e-10)
    assert np.allclose(s.gamma, s.gamma.T, atol=1e-10)
    # halving the ladder scale moves the extrapolation by < 1e-6 gamma
    s2 = lattice_sums(a, q, eta_ladder=(0.025 * a, 0.02 * a, 0.015 * a))
    assert np.max(np.abs(s.coupling - s2.coupling)) < 1e-6 * GAMMA


def test_lattice_sums_linewidth_bounded_inside_light_cone():
    a = 0.55 * LAMBDA
    rng = np.random.default_rng(5)
    for _ in range(6):
        q = rng.uniform(-0.8, 0.8, size=2) * K
        if np.linalg.norm(q) >= 0.95 * K:
            continue
        gam = lattice_sums(a, q).gamma
        assert np.linalg.eigvalsh(gam).min() > -GAMMA - 1e-6


def test_lattice_sums_bragg_error():
    # at a = lambda the first reciprocal vector sits exactly on the cone
    with pytest.raises(BraggResonanceError):
        lattice_sums(1.0 * LAMBDA)


def test_single_mode_rt():
    om, gt = -0.35, -0.48
    r, t = single_mode_rt(-om, om, gt)
    assert np.isclose(r, -1.0, atol=1e-14)
    assert np.isclose(t, 0.0, atol=1e-14)
    # half reflectance one collective linewidth off resonance
    r, t = single_mode_rt(-om + (GAMMA + gt), om, gt)
    assert np.isclose(abs(r) ** 2, 0.5, rtol=1e-12)
    assert np.isclose(t, 1.0 + r, rtol=1e-14)


def test_zero_shift_spacings():
    roots = zero_shift_spacings()
    fr = sorted(r / LAMBDA for r in roots)
    assert len(fr) == 2
    assert abs(fr[0] - 0.2) < 0.02
    assert abs(fr[1] - 0.8) < 0.02


def test_two_mode_reduces_to_single_mode():
    om, gt = -0.68, -0.21
    p = TwoModeParams(delta_p=-0.65, ups_p=0.003, delta_i=om,
                      ups_i=GAMMA + gt, dbar=0.0)
    for d0 in (-1.0, 0.2, 1.5):
        r2, t2 = two_mode_rt(p, d0)
        r1, t1 = single_mode_rt(d0, om, gt)
        assert np.isclose(r2, r1, rtol=1e-12)
        assert np.isclose(t2, t1, rtol=1e-12)


def test_two_mode_perfect_reflection():
    p = TwoModeParams(delta_p=-0.6467, ups_p=0.0, delta_i=-0.6758,
                      ups_i=0.79, dbar=0.3, dtilde=0.05)
    d1, d2 = two_mode_perfect_reflection_detunings(p)
    for d in (d1, d2):
        r, _ = two_mode_rt(p, d)
        assert abs(abs(r) - 1.0) < 1e-10


def test_two_mode_transparency():
    p = TwoModeParams(delta_p=-0.64, ups_p=0.0, delta_i=-0.67, ups_i=0.79,
                      dbar=0.4)
    d0 = two_mode_transparency_detuning(p)
    r, t = two_mode_rt(p, d0)
    assert abs(r) < 1e-12
    assert np.isclose(t, 1.0)


def test_two_mode_finite_size_formula():
    # with delta_P = delta_I and small ups_P, |r| at the perpendicular
    # resonance equals the closed form -ups_I ups_P/(dbar^2 + ups_I ups_P)
    p = TwoModeParams(delta_p=-0.65, ups_p=0.0031, delta_i=-0.65, ups_i=0.79,
                      dbar=0.15)
    d0 = two_mode_transparency_detuning(p)
    r, _ = two_mode_rt(p, d0)
    want = two_mode_finite_size_reflection(p)
    assert np.isclose(r.real, want, rtol=1e-10)
    assert abs(r.imag) < 1e-12


def test_two_mode_exceptional_point_flag():
    p = TwoModeParams(delta_p=-0.6, ups_p=0.1, delta_i=-0.6, ups_i=0.9,
                      dbar=0.4)
    assert two_mode_exceptional_point(p)
    p2 = TwoModeParams(delta_p=-0.6, ups_p=0.1, delta_i=-0.6, ups_i=0.9,
                       dbar=0.3)
    assert not two_mode_exceptional_point(p2)


def test_two_mode_steady_state_satisfies_fixed_point():
    p = TwoModeParams(delta_p=-0.64, ups_p=0.003, delta_i=-0.67, ups_i=0.79,
                      dbar=0.3, dtilde=0.1, rabi=0.7)
    d0 = 0.4
    x, y = two_mode_steady_state(p, d0)
    # residuals of the two coupled equations
    r1 = 1j * p.z_p(d0) * x - p.dbar * y
    r2 = 1j * p.z_i(d0) * y + p.dbar * x + 1j * p.rabi
    assert abs(r1) < 1e-12 and abs(r2) < 1e-12


def test_two_mode_evolution_reaches_steady_state():
    p = TwoModeParams(delta_p=-0.6, ups_p=0.05, delta_i=-0.7, ups_i=0.8,
                      dbar=0.3, rabi=0.2)
    traj = infinite.two_mode_evolve(p, 0.3, np.linspace(0, 200, 5))
    x, y = two_mode_steady_state(p, 0.3)
    assert abs(traj[-1][0] - x) < 1e-8
    assert abs(traj[-1][1] - y) < 1e-8


def test_two_mode_evolution_at_exceptional_point_reaches_steady_state():
    # the coalesced eigenvectors make the mode matrix defective
    p = TwoModeParams(delta_p=-0.6, ups_p=0.1, delta_i=-0.6, ups_i=0.9,
                      dbar=0.4)
    assert two_mode_exceptional_point(p)
    traj = infinite.two_mode_evolve(p, 0.3, np.linspace(0, 100, 5))
    want = two_mode_steady_state(p, 0.3)
    assert np.max(np.abs(traj[-1] - want)) < 1e-12


def test_nonnormal_reduces_to_single_mode_at_normal_incidence():
    a = 0.55 * LAMBDA
    om, gt = lattice_sums(a).uniform_mode(1)
    for delta in (-1.0, 0.7):
        resp = nonnormal_response(a, 0.0, 0.0, delta)
        r1, t1 = single_mode_rt(delta, om, gt)
        r_resp = resp.r_vector[1]
        t_resp = resp.t_vector[1]
        assert abs(r_resp - r1) < 1e-6
        assert abs(t_resp - t1) < 1e-6


def test_nonnormal_continuity_in_theta():
    a = 0.5 * LAMBDA
    thetas = np.linspace(0.0, 0.2 * np.pi, 6)
    vals = [nonnormal_response(a, th, np.pi / 8, 0.5).reflectance
            for th in thetas]
    assert np.max(np.abs(np.diff(vals))) < 0.1


@pytest.mark.parametrize("p_polarized", [False, True], ids=["s", "p"])
def test_nonnormal_flux_closure_single_order(p_polarized):
    theta, phi = 0.4 * np.pi, np.pi / 8
    khat = direction(theta, phi)
    s = infinite.in_plane_polarization(khat)
    pol = np.cross(khat, s) if p_polarized else s
    resp = nonnormal_response(0.5 * LAMBDA, theta, phi, 0.3, pol)
    assert not resp.multi_order
    assert abs(resp.reflectance + resp.transmittance - 1.0) < 1e-5


def test_nonnormal_figure_eigenvalues():
    resp = nonnormal_response(0.5 * LAMBDA, 0.4 * np.pi, np.pi / 8, 0.0)
    ev = resp.resonance_eigenvalues
    inplane = sorted(ev[np.abs(ev.imag - 2.795) > 0.1], key=lambda z: z.imag)
    want = [-0.325 + 0.389j, 0.399 + 3.00j]
    for got, ref in zip(inplane, want):
        assert abs(got - ref) / abs(ref) < 0.02


def test_nonnormal_multi_order_flag():
    # at a = 0.9 lambda and steep incidence a higher Bragg order opens
    resp = nonnormal_response(0.9 * LAMBDA, 0.45 * np.pi, 0.0, 0.0)
    assert resp.multi_order


def test_rydberg_limits():
    ups_i, delta_i = 0.79, -0.67
    # no control field: plain single-mode Lorentzian
    for delta in (-1.0, 0.3):
        r = rydberg_eit_rt(delta, 0.2, 0.0, 0.0, ups_i, delta_i, 0.01)
        zi = delta + delta_i + 1j * ups_i
        assert np.isclose(r, -1j * ups_i / zi, rtol=1e-12)
    # blockade limit: U -> infinity restores the same reflection
    r_inf = rydberg_eit_rt(0.3, 0.2, 1e9, 1.0, ups_i, delta_i, 0.01)
    zi = 0.3 + delta_i + 1j * ups_i
    assert np.isclose(r_inf, -1j * ups_i / zi, rtol=1e-6)
    # two-photon resonance with a lossless Rydberg state: transparency
    r0 = rydberg_eit_rt(-delta_i, -5.0, 5.0, 1.0, ups_i, delta_i, 1e-12)
    assert abs(r0) < 1e-9


def test_magnetic_mirror():
    r, t = magnetic_mirror_rt(0.0, 0.8)
    assert np.isclose(r, 1.0)
    assert abs(t) < 1e-14
    for dm in (-2.0, 0.3, 5.0):
        r, t = magnetic_mirror_rt(dm, 0.8)
        assert np.isclose(t, 1.0 - r, rtol=1e-14)       # odd-parity identity
        assert np.isclose(abs(r) ** 2 + abs(t) ** 2, 1.0, rtol=1e-14)
    with pytest.raises(ValueError):
        magnetic_mirror_rt(0.0, -1.0)


def test_band_structure_rows():
    a = 0.5 * LAMBDA
    qs = [(0.0, 0.0), (0.4 * np.pi / a, 0.0), (2.0, 2.0)]
    rows = band_structure(a, qs)
    assert len(rows) == 3
    for q, ev in rows:
        assert ev is None or len(ev) == 3
    # the q=0 row reproduces the uniform-mode linewidth
    ev0 = rows[0][1]
    widths = np.sort(ev0.imag)
    assert np.isclose(widths[-1], uniform_linewidth_analytic(a), rtol=1e-4) \
        or np.isclose(widths[1], uniform_linewidth_analytic(a), rtol=1e-4)


def test_finite_eta_first_class_output():
    a = 0.6 * LAMBDA
    s = lattice_sums(a)
    assert len(s.raw) == 3
    for eta, mat in s.raw.items():
        assert mat.shape == (3, 3)
        assert eta > 0
