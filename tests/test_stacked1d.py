import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from atomarray import stacked1d as s1d
from atomarray.errors import PerfectReflectionError, ResonantSingularityError
from atomarray.geometry import LAMBDA
from atomarray.kernel import K


def two_layer(d, g1d=0.789, shift=0.0):
    return s1d.LayerStack([-d / 2, d / 2], g1d, shift)


def test_layer_transfer_identity_at_zero_reflection():
    assert np.allclose(s1d.layer_transfer(0.0), np.eye(2))


def test_layer_transfer_singular_at_perfect_reflection():
    with pytest.raises(PerfectReflectionError):
        s1d.layer_transfer(-1.0)


@settings(max_examples=50, deadline=None)
@given(st.complex_numbers(max_magnitude=0.95, allow_nan=False,
                          allow_infinity=False))
def test_layer_transfer_unit_determinant(r):
    if abs(1 + r) < 1e-6:
        return
    T = s1d.layer_transfer(r)
    assert abs(np.linalg.det(T) - 1.0) < 1e-12


def test_propagation_half_wave():
    assert np.allclose(s1d.propagation(0.5 * LAMBDA), -np.eye(2), atol=1e-12)


def test_single_layer_system_rt():
    g1d = 0.52
    stack = s1d.LayerStack([0.0], g1d, 0.0)
    for delta in (-1.0, 0.0, 0.8):
        t, r = s1d.system_rt(stack, delta)
        want_r = -1j * g1d / (delta + 1j * g1d)
        assert np.isclose(r, want_r, rtol=1e-12)
        assert np.isclose(t, 1.0 + want_r, rtol=1e-12)


def test_transfer_matrix_matches_direct_steady_state():
    for d in (0.5 * LAMBDA, 0.6 * LAMBDA, 0.75 * LAMBDA, 1.0 * LAMBDA):
        stack = two_layer(d)
        for delta in (-1.5, -0.05, 0.05, 0.4, 2.0):
            try:
                t_tm, r_tm = s1d.system_rt(stack, delta)
                t_di, r_di = s1d.system_rt_direct(stack, delta)
            except (ResonantSingularityError, PerfectReflectionError):
                continue
            assert abs(t_tm - t_di) < 1e-8
            assert abs(r_tm - r_di) < 1e-8


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.51, 1.5), min_size=1, max_size=4),
       st.floats(0.05, 1.0), st.floats(0.2, 2.0), st.floats(-1.0, 1.0),
       st.floats(-4.0, 4.0))
def test_system_rt_matches_direct_for_unequal_lossy_stacks(
        spacings_wl, loss, g1d, shift, delta):
    x = np.concatenate([[0.0], np.cumsum(spacings_wl)]) * LAMBDA
    stack = s1d.LayerStack(x, g1d, shift, loss_factor=loss)
    # the direct solve is the reference only where it is well conditioned
    # (a lossless stack has exact cavity resonances, e.g. d = lambda/2)
    assume(np.linalg.cond(s1d._coupling_matrix(stack, delta)) < 1e4)
    t, r = s1d.system_rt(stack, delta)
    t_di, r_di = s1d.system_rt_direct(stack, delta)
    assert abs(t - t_di) < 1e-10
    assert abs(r - r_di) < 1e-10


def test_half_wave_cavity_resonance_is_singular():
    # two layers at d = lambda/2 on the per-layer resonance host a dark
    # cavity mode: both solution routes flag the singularity
    stack = two_layer(0.5 * LAMBDA)
    with pytest.raises(ResonantSingularityError) as err:
        s1d.steady_state_1d(stack, 0.0)
    assert abs(err.value.nearest_eigenvalue) < 1e-12
    with pytest.raises(PerfectReflectionError):
        s1d.system_rt(stack, 0.0)


def test_lossless_unitarity():
    stack = s1d.LayerStack(
        np.array([0.0, 0.6, 1.35, 2.0]) * LAMBDA, 0.52, -0.1)
    for delta in np.linspace(-4, 4, 33):
        t, r = s1d.system_rt(stack, delta)
        assert abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) < 1e-10


def test_purcell_loss_breaks_unitarity():
    stack = s1d.LayerStack([0.0, 0.6 * LAMBDA], 0.52, 0.0, loss_factor=0.8)
    t, r = s1d.system_rt(stack, 0.3)
    assert abs(t) ** 2 + abs(r) ** 2 < 1.0 - 1e-3


def test_transfer_composition_associativity():
    rng = np.random.default_rng(4)
    mats = [s1d.layer_transfer(0.4 * rng.normal() + 0.3j * rng.normal())
            for _ in range(3)]
    mats.insert(1, s1d.propagation(0.7 * LAMBDA))
    a = (mats[0] @ mats[1]) @ (mats[2] @ mats[3])
    b = mats[0] @ ((mats[1] @ mats[2]) @ mats[3])
    assert np.max(np.abs(a - b)) < 1e-12


def test_redheffer_star_matches_transfer_route():
    d = 0.65 * LAMBDA
    g1d = 0.52
    stack = s1d.LayerStack([0.0, d], g1d, 0.0)
    for delta in (-0.7, 0.3, 1.1):
        r1 = s1d.layer_reflection(delta, g1d)
        sa = s1d.layer_scattering(r1, d_next=d)
        sb = s1d.layer_scattering(r1)
        S = s1d.redheffer_star(sa, sb)
        t_tm, r_tm = s1d.system_rt(stack, delta)
        # the star product composes local frames; map to the global frame
        assert abs(S[0, 0] * np.exp(-1j * K * d) - t_tm) < 1e-10
        assert abs(S[1, 0] - r_tm) < 1e-10


def test_validity_warning_below_half_wave():
    with pytest.warns(UserWarning):
        s1d.LayerStack([0.0, 0.25 * LAMBDA], 0.5, 0.0)


def test_stack_validation():
    with pytest.raises(ValueError):
        s1d.LayerStack([0.0, -1.0], 0.5, 0.0)
    with pytest.raises(ValueError):
        s1d.LayerStack([0.0, 1.0 * LAMBDA], -0.5, 0.0)


def test_evolution_reaches_steady_state():
    stack = two_layer(0.75 * LAMBDA)
    traj = s1d.evolve_1d(stack, 0.4, np.linspace(0, 60, 5))
    want = s1d.steady_state_1d(stack, 0.4)
    assert np.max(np.abs(traj[-1] - want)) < 1e-8


def test_transmission_peaks_accumulate_at_band_edge():
    # the unit-transmission comb of an N-layer stack piles against the
    # exact Bloch band edge delta = gamma_1d cot(kd/2)
    from scipy.signal import argrelmax
    g1d = 0.3
    for dfrac in (0.45, 0.55, 0.6):
        d = dfrac * LAMBDA
        stack = s1d.LayerStack(np.arange(8) * d, g1d, 0.0)
        deltas = np.linspace(-1.0, 1.0, 8001)
        T = np.array([abs(s1d.system_rt(stack, x)[0]) ** 2 for x in deltas])
        pk = argrelmax(T)[0]
        pk = pk[T[pk] > 0.5]
        edge = s1d.band_edge_shift(d, g1d)
        nearest = deltas[pk][np.argmin(np.abs(deltas[pk] - edge))]
        assert abs(nearest - edge) < 0.1 * abs(edge)


def test_resonance_shift_estimate_structure():
    # the literature estimate cot(2kd) gamma_1d/2 diverges as the spacing
    # approaches a half-wavelength multiple and flips sign across it
    g1d = 0.3
    below = s1d.resonance_shift_estimate(0.49 * LAMBDA, g1d)
    above = s1d.resonance_shift_estimate(0.51 * LAMBDA, g1d)
    assert below * above < 0
    assert abs(s1d.resonance_shift_estimate(0.499 * LAMBDA, g1d)) > \
        abs(s1d.resonance_shift_estimate(0.48 * LAMBDA, g1d))


def test_f_integrals_recursion_vs_quadrature():
    x = 2 * np.pi / K      # k|x| = 2 pi
    recur = s1d.f_integral_recursion(4, x)
    assert np.isclose(recur[0], 1j * np.exp(1j * K * x) / K, rtol=1e-14)
    for n in (1, 2, 3, 4):
        quad = s1d.f_integral_quadrature(n, x)
        assert abs(recur[n] - quad) <= 1e-8 * abs(quad)


def test_disk_integral_matches_1d_kernel():
    x = LAMBDA
    exact = 0.5j * K * np.exp(1j * K * x)
    got = s1d.disk_integrated_field(x, 1000 * LAMBDA)
    assert abs(got - exact) / abs(exact) < 1e-3


def test_appendix_checks_bundle():
    rep = s1d.appendix_checks()
    assert rep["field_rel_dev"] < 1e-3
    assert rep["recursion_rel_dev"] < 1e-8
    assert rep["linewidth_rel_dev"] < 1e-4
    assert np.isclose(rep["f0"], 1j * np.exp(1j * K * LAMBDA) / K)
