import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomarray import quantum as qt
from atomarray.drives import PlaneWave
from atomarray.errors import ResonantSingularityError, StiffnessError
from atomarray.geometry import LAMBDA, build_ring
from atomarray.integrate import affine_evolve, integrate_complex, solve_checked
from atomarray.lli import TransitionSpec

EPS = np.finfo(float).eps


def dop853(A, f, y0, t):
    """Tight adaptive reference for dy/dt = A y + f."""
    return integrate_complex(lambda _, y: A @ y + f, y0, t, rtol=1e-13,
                             atol=1e-15)


def grids():
    """Strictly increasing, generally non-uniform grids of 2-6 times in
    [-1, 6]."""
    steps = st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5)
    return st.tuples(st.floats(-1.0, 1.0), steps).map(
        lambda s: s[0] + np.concatenate([[0.0], np.cumsum(s[1])]))


def complex_vectors(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1), grids())
def test_affine_evolve_matches_dop853_on_random_matrices(n, seed, t):
    rng = np.random.default_rng(seed)
    A = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(n)
    A -= 1.5 * np.eye(n)            # keep the growth over the grid modest
    f, y0 = complex_vectors(n, seed + 1)
    got = affine_evolve(A, f, y0, t)
    want = dop853(A, f, y0, t)
    assert np.abs(got - want).max() <= 2e-12 * np.abs(want).max()


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1), grids())
def test_affine_evolve_matches_dop853_on_a_jordan_block(n, seed, t):
    # one eigenvalue of multiplicity n with a single eigenvector
    A = np.diag(np.full(n, -0.4 + 0.7j)) + np.diag(np.ones(n - 1), 1)
    f, y0 = complex_vectors(n, seed)
    got = affine_evolve(A, f, y0, t)
    want = dop853(A, f, y0, t)
    assert np.abs(got - want).max() <= 2e-12 * np.abs(want).max()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1), grids())
def test_affine_evolve_without_coupling_is_linear_in_time(n, seed, t):
    # A = 0: y = y0 + f (t - t0), to the rounding of expm's Pade solve
    f, y0 = complex_vectors(n, seed)
    got = affine_evolve(np.zeros((n, n)), f, y0, t)
    dt = (t - t[0])[:, None]
    want = y0 + f * dt
    assert np.array_equal(got[0], y0)
    assert np.all(np.abs(got - want) <= 4 * EPS * (np.abs(y0) + np.abs(f) * dt))


@pytest.mark.parametrize("t", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [[0.0, 1.0]]])
def test_affine_evolve_rejects_a_grid_that_is_not_increasing(t):
    with pytest.raises(ValueError):
        affine_evolve(np.eye(2), np.ones(2), np.zeros(2), t)


def test_integrate_complex_raises_stiffness_error_on_blow_up():
    # y' = y^2, y(0) = 1 has y = 1/(1 - t), which diverges at t = 1
    with pytest.raises(StiffnessError):
        integrate_complex(lambda t, y: y * y, [1.0], [0.0, 2.0])


def test_integrate_complex_steps_over_derivatives_that_underflow():
    """A drive of ~1e-159 (a dipole axis with a rounding-noise component)
    makes DOP853's squared error estimates underflow; the steps are taken
    and the solution is the linear one."""
    A = np.array([[0.0, 1e-159j], [1e-159j, 0.0]])
    y0 = np.array([1.0, 0.0], dtype=complex)
    y = integrate_complex(lambda t, y: A @ y, y0, [0.0, 200.0],
                          rtol=1e-11, atol=1e-13)
    assert np.allclose(y[-1], [1.0, 2e-157j], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("t", [
    [0.0, 0.01, 0.02, 0.03, 0.5, 0.51, 3.0],   # several times in one step
    [0.3, 1.7],
])
def test_integrate_complex_equals_solve_ivp_bit_for_bit(t):
    """Stepping DOP853 directly keeps the t_eval rule of solve_ivp: the same
    dense output of the same step at every grid time, on a driven 3-atom
    ring's master equation."""
    from scipy.integrate import solve_ivp
    qs = qt.build_quantum_system(build_ring(3, 0.4 * LAMBDA),
                                 TransitionSpec(levels=2),
                                 PlaneWave(amplitude=0.8))
    D, generator = qs.dim, qs.generator

    def rhs(_, y):
        return generator(y.reshape(D, D)).ravel()

    psi = qs.ground_state()
    y0 = np.outer(psi, psi).ravel()
    got = integrate_complex(rhs, y0, t, rtol=1e-9, atol=1e-11)
    sol = solve_ivp(lambda s, yr: rhs(s, yr.view(complex)).view(float),
                    (t[0], t[-1]), y0.view(float), t_eval=t, rtol=1e-9,
                    atol=1e-11, method="DOP853")
    assert sol.success
    assert np.array_equal(got, np.ascontiguousarray(sol.y.T).view(complex))


def test_solve_checked_raises_typed_error_with_warnings_as_errors():
    # lu_factor warns on an exactly singular matrix; the rcond test decides
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ResonantSingularityError):
            solve_checked(np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(2))
