"""Shared adaptive integration helpers for complex-valued ODE systems."""
from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from .errors import StiffnessError


def integrate_complex(rhs, y0, t_grid, rtol=1e-10, atol=1e-12):
    """solve_ivp (DOP853) wrapper for complex systems (packed into real
    views).

    Returns the solution at t_grid as a (nt, dim) complex array.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
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
