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
    """Adaptive DOP853 for complex systems (packed into real views).

    Returns the solution at t_grid as a (nt, dim) complex array, the only
    copy of the output: after each step the step's dense output fills the
    grid times up to the step's end, the rule of `solve_ivp(t_eval=t_grid)`
    (whose values these are, bit for bit) without its per-step list, its
    stacked copy and a temporary as large as the times one step spans.
    """
    # lazy: at module level scipy.integrate adds ~0.3 s and 20 MB to lli users
    from scipy.integrate import DOP853

    t_grid = _increasing(t_grid)
    y0 = np.asarray(y0, dtype=complex)
    out = np.empty((len(t_grid), y0.size), dtype=complex)
    out_real = out.view(float)

    def rhs_real(t, yr):
        y = yr.view(complex)
        return np.asarray(rhs(t, y), dtype=complex).view(float)

    class Solver(DOP853):
        def _estimate_error_norm(self, K, h, scale):
            # scipy's ratio is 0/0 once both error estimates underflow, as
            # for derivatives of ~1e-159 (a drive of rounding noise); every
            # step is then rejected.  An error that underflows is zero.
            with np.errstate(invalid="ignore"):
                norm = super()._estimate_error_norm(K, h, scale)
            return 0.0 if np.isnan(norm) and np.isfinite(K).all() else norm

    solver = Solver(rhs_real, t_grid[0], y0.copy().view(float), t_grid[-1],
                    rtol=rtol, atol=atol)
    done = 0
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise StiffnessError(f"integration failed: {message}")
        reached = np.searchsorted(t_grid, solver.t, side="right")
        if reached > done:
            dense = solver.dense_output()
            for i in range(done, reached):      # one (dim,) temporary at a time
                out_real[i] = dense(t_grid[i])
            done = reached
            del dense          # its 7 interpolant rows, before the next step
    return out


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
