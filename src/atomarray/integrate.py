"""Shared solvers: exact propagation (`affine_evolve`) and the checked
steady-state solve (`solve_checked`) of the linear amplitude models
dy/dt = A y + f; adaptive DOP853 (`integrate_complex`) only for the
nonlinear optical Bloch equations and the master equation."""
from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from .errors import ResonantSingularityError, StiffnessError


def _increasing(t_grid) -> np.ndarray:
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    return t_grid


def integrate_complex(rhs, y0, t_grid, rtol=1e-10, atol=1e-12):
    """solve_ivp (DOP853) wrapper for complex systems (packed into real
    views).

    Returns the solution at t_grid as a (nt, dim) complex array.
    """
    # lazy: at module level scipy.integrate adds ~0.3 s and 20 MB to lli users
    from scipy.integrate import solve_ivp

    t_grid = _increasing(t_grid)
    y0 = np.asarray(y0, dtype=complex)
    dim = y0.size

    def rhs_real(t, yr):
        y = yr.view(complex)
        return np.asarray(rhs(t, y), dtype=complex).view(float)

    t0 = t_grid[0]
    sol = solve_ivp(rhs_real, (t0, t_grid[-1]), y0.copy().view(float),
                    t_eval=t_grid, rtol=rtol, atol=atol, method="DOP853")
    if not sol.success:
        raise StiffnessError(f"integration failed: {sol.message}")
    return np.ascontiguousarray(sol.y.T).view(complex).reshape(len(t_grid), dim)


def affine_evolve(A, f, y0, t_grid) -> np.ndarray:
    """Exact y(t) of dy/dt = A y + f, y(t_0) = y0, on t_grid as (nt, n): the
    top n rows of expm([[A, f], [0, 0]] (t - t_0)) applied to (y0, 1)
    (Van Loan, IEEE TAC 23, 395 (1978)); exact for singular or defective A."""
    t_grid = _increasing(t_grid)
    n = len(y0)
    M = np.zeros((n + 1, n + 1), dtype=complex)
    M[:n, :n], M[:n, n] = A, f
    y = np.append(np.asarray(y0, dtype=complex), 1.0)
    return np.array([scipy.linalg.expm(M * (t - t_grid[0]))[:n] @ y
                     for t in t_grid])


def solve_checked(A, rhs) -> np.ndarray:
    """A^{-1} rhs by LU; ResonantSingularityError, carrying the eigenvalue of
    A nearest zero, where LAPACK's 1-norm rcond estimate (not scipy's
    singularity warning, silenced) is below 1e-12."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A)
    rcond = scipy.linalg.lapack.zgecon(lu, np.linalg.norm(A, 1))[0]
    if rcond < 1e-12:
        lam = np.linalg.eigvals(A)
        nearest = lam[np.argmin(np.abs(lam))]
        raise ResonantSingularityError(
            f"steady state ill-conditioned (rcond={rcond:.2e}); nearest "
            f"eigenvalue of the system matrix is {nearest:.3e}",
            nearest_eigenvalue=nearest)
    return scipy.linalg.lu_solve((lu, piv), rhs)
