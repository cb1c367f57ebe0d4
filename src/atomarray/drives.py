"""Driving fields, expressed directly as Rabi-frequency vectors.

A drive evaluates to the complex field vector R(r) (units of gamma) whose
Cartesian components are the effective Rabi frequencies of the three
dipole components at position r.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import K, transverse


@dataclass(frozen=True)
class PlaneWave:
    """Uniform plane wave: R(r) = amplitude * pol * exp(i k khat.r)."""
    amplitude: complex = 1.0
    direction: tuple = (1.0, 0.0, 0.0)
    polarization: tuple = (0.0, 1.0, 0.0)

    def field(self, positions) -> np.ndarray:
        pos = np.atleast_2d(positions)
        khat = np.asarray(self.direction, dtype=float)
        khat = khat / np.linalg.norm(khat)
        pol = np.asarray(self.polarization, dtype=complex)
        if abs(pol @ khat) > 1e-10:
            raise ValueError("polarization must be transverse to the direction")
        phase = np.exp(1j * K * pos @ khat)
        return self.amplitude * phase[:, None] * pol[None, :]


@dataclass(frozen=True)
class GaussianBeam:
    """Paraxial Gaussian beam propagating along +x, focused at x=0 with
    waist w0 and flat phase at the focus."""
    waist: float
    amplitude: complex = 1.0
    polarization: tuple = (0.0, 1.0, 0.0)

    def field(self, positions) -> np.ndarray:
        pos = np.atleast_2d(positions)
        x, y, z = pos[:, 0], pos[:, 1], pos[:, 2]
        zR = K * self.waist**2 / 2.0
        w = self.waist * np.sqrt(1.0 + (x / zR) ** 2)
        rho2 = y**2 + z**2
        inv_R = x / (x**2 + zR**2)
        gouy = np.arctan(x / zR)
        u = (self.waist / w) * np.exp(-rho2 / w**2
                                      + 1j * (K * x + K * rho2 * inv_R / 2 - gouy))
        pol = np.asarray(self.polarization, dtype=complex)
        return self.amplitude * u[:, None] * pol[None, :]

    def angular_profile(self, sin_theta):
        """Gaussian far-zone profile e^{-k_t^2 w0^2 / 4}, k_t = k sin(theta),
        at the angle theta to the beam axis (either hemisphere)."""
        return np.exp(-(K * self.waist * sin_theta) ** 2 / 4.0)

    def farfield_mode(self, nhat) -> np.ndarray:
        """Angular amplitude of the beam in the far zone (unnormalized):
        FT of the waist profile, transverse-projected.  nhat is (M, 3)."""
        nhat = np.atleast_2d(nhat)
        f = self.angular_profile(np.hypot(nhat[:, 1], nhat[:, 2]))
        pol = np.asarray(self.polarization, dtype=complex)
        return f[:, None] * transverse(nhat, pol)


def no_drive():
    return PlaneWave(amplitude=0.0)
