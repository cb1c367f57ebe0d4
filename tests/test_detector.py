"""Transmission and reflection of a beam through square arrays at the
paper's sizes: energy closure of the detector's t and r, and the
closed-form detector against a converged product quadrature."""
import numpy as np
import pytest

from atomarray import lli
from atomarray import observables as obs
from atomarray.drives import GaussianBeam
from atomarray.geometry import LAMBDA, build_square_lattice
from atomarray.kernel import K, XI
from atomarray.lli import TransitionSpec

EY = TransitionSpec(levels=2, orientation=(0, 1, 0))
J01 = TransitionSpec(levels=4)
# through the collective resonance of a = 0.68 lambda (-Omega~ = 0.354 gamma)
DELTAS = np.linspace(-0.65, 1.35, 9)


def _array(n):
    """n x n square lattice at a = 0.68 lambda, beam waist n a / 4."""
    a = 0.68 * LAMBDA
    return build_square_lattice(n, n, a), GaussianBeam(waist=n * a / 4)


@pytest.mark.parametrize("n, transition", [(10, EY), (20, EY), (40, EY),
                                           (10, J01), (20, J01)])
def test_energy_closure(n, transition):
    # a lossless array cannot send more than the incident power into the
    # two beam modes: |t|^2 + |r|^2 <= 1, up to the quadrature error
    geo, beam = _array(n)
    system = lli.assemble(geo, transition, beam)
    detector = obs.farfield_detector(geo, beam)
    t, r = obs.spectrum(system, detector, DELTAS)
    p_max = max(np.abs(obs.dipole_table(system, lli.steady_state(system, d)))
                .max() for d in DELTAS)
    err = detector.error * p_max          # bounds the error of each t and r
    low_t = np.maximum(np.abs(t) - err, 0.0)
    low_r = np.maximum(np.abs(r) - err, 0.0)
    assert np.all(low_t**2 + low_r**2 <= 1.0), np.abs(t)**2 + np.abs(r)**2


def _grid_detector(geo, beam, n_theta=192, n_phi=192):
    """Forward and backward weights of the detector from the product
    quadrature of `hemisphere_grid` (Gauss-Legendre cos(theta) x uniform
    phi), one theta row at a time."""
    nf, w = obs.hemisphere_grid(n_theta, n_phi)
    mode = beam.farfield_mode(nf)
    norm = np.sum(w * np.einsum("mi,mi->m", mode.conj(), mode)).real
    a_in = -1j * K * beam.waist**2 / 2.0 * beam.amplitude
    scale = XI * K**2 / (4 * np.pi) / (a_in * norm)
    pos = geo.positions
    fwd = bwd = 0.0
    for rows in np.split(np.arange(len(w)), n_theta):
        n = nf[rows]
        # e^{-i k n.r} = e^{-+i k |n_x| x} e^{-i k (n_y y + n_z z)}
        yz = np.exp(-1j * (K * n[:, 1:] @ pos[:, 1:].T))   # (n_phi, N)
        x = np.exp(-1j * K * n[0, 0] * pos[:, 0])
        q = w[rows, None] * mode[rows].conj()
        qb = w[rows, None] * beam.farfield_mode(n * [-1.0, 1.0, 1.0]).conj()
        fwd = fwd + x[:, None] * (yz.T @ q)
        bwd = bwd + x.conj()[:, None] * (yz.T @ qb)
    return scale * fwd, scale * bwd


@pytest.mark.parametrize("n", [10, 20, 40])
def test_detector_equals_converged_product_grid(n):
    geo, beam = _array(n)
    detector = obs.farfield_detector(geo, beam)
    fwd, bwd = _grid_detector(geo, beam)
    scale = np.abs(fwd).max()
    assert np.abs(detector.forward - fwd).max() <= 1e-10 * scale
    assert np.abs(detector.backward - bwd).max() <= 1e-10 * scale
    assert detector.error <= 1e-10
