"""Atom position sets: lattices, bilayers, stacks, rings, and stochastic
position sampling for zero-point motion in an optical lattice.

Internal units: lengths in 1/k (k = transition wavenumber), so one
wavelength is LAMBDA = 2*pi.  Helper constructors accept lattice constants
given as fractions of the wavelength.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfigurationError

LAMBDA = 2.0 * np.pi

# sampled configurations with two atoms closer than this are rejected
MIN_SEPARATION = 1e-6


@dataclass(frozen=True)
class Geometry:
    """Nominal atom positions (units 1/k) plus per-axis Gaussian widths.

    `fluctuation` holds 1/e half-widths (ell_x, ell_y, ell_z) of the on-site
    density distribution; the in-plane width is isotropic for a square
    lattice but the two in-plane axes are kept independent.
    """
    positions: np.ndarray                  # (N, 3)
    site_labels: np.ndarray = None         # (N,) integer layer/site index
    fluctuation: tuple = (0.0, 0.0, 0.0)   # (ell_x, ell_y, ell_z)

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.shape[1] != 3:
            raise ValueError("positions must be (N, 3)")
        object.__setattr__(self, "positions", pos)
        labels = self.site_labels
        if labels is None:
            labels = np.zeros(len(pos), dtype=int)
        object.__setattr__(self, "site_labels", np.asarray(labels, dtype=int))
        if len(pos) > 1:
            if min_pair_distance(pos) <= 0.0:
                raise ValueError("coincident nominal sites")

    @property
    def natoms(self) -> int:
        return len(self.positions)

    def with_fluctuation(self, ell, ell_x) -> "Geometry":
        return Geometry(self.positions, self.site_labels, (ell_x, ell, ell))

    def to_json(self) -> str:
        """Serialize with lengths in units of the wavelength."""
        return json.dumps({
            "positions": (self.positions / LAMBDA).tolist(),
            "labels": self.site_labels.tolist(),
            "fluctuation": [w / LAMBDA for w in self.fluctuation],
            "units": "wavelengths",
        })

    @staticmethod
    def from_json(text: str) -> "Geometry":
        doc = json.loads(text)
        if doc.get("units", "wavelengths") != "wavelengths":
            raise ValueError("unknown length unit in geometry document")
        fluct = tuple(w * LAMBDA for w in doc.get("fluctuation", (0, 0, 0)))
        return Geometry(np.asarray(doc["positions"]) * LAMBDA,
                        doc.get("labels"), fluct)


@dataclass(frozen=True)
class LatticeTrapSpec:
    """Square optical lattice trap: spacing a (1/k), depth s (units of the
    recoil energy), and out-of-plane 1/e half-width ell_x (1/k)."""
    spacing: float
    depth: float
    ell_x: float = 0.0

    def __post_init__(self):
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        if self.depth <= 0:
            raise ValueError("lattice depth must be positive")


def min_pair_distance(positions: np.ndarray) -> float:
    pos = np.asarray(positions)
    if len(pos) < 2:
        return np.inf
    diff = pos[:, None, :] - pos[None, :, :]
    d = np.sqrt(np.sum(diff * diff, axis=-1))
    d[np.diag_indices(len(pos))] = np.inf
    return float(d.min())


def build_square_lattice(nx: int, ny: int, a: float) -> Geometry:
    """nx-by-ny square lattice in the yz plane, spacing a, centered at the
    origin.  Site order is row-major in (m, n): site (m, n) sits at
    (0, m*a, n*a) up to the centering offset."""
    if nx < 1 or ny < 1:
        raise ValueError("lattice site counts must be >= 1")
    if a <= 0:
        raise ValueError("lattice spacing must be positive")
    m = np.arange(nx) - (nx - 1) / 2.0
    n = np.arange(ny) - (ny - 1) / 2.0
    Y, Z = np.meshgrid(m * a, n * a, indexing="ij")
    pos = np.column_stack([np.zeros(nx * ny), Y.ravel(), Z.ravel()])
    return Geometry(pos, np.arange(nx * ny))


def build_bilayer(nx: int, ny: int, a: float, d: float) -> Geometry:
    """Two identical nx-by-ny layers offset to x = -d/2 and x = +d/2."""
    if d <= 0:
        raise ValueError("layer separation must be positive")
    layer = build_square_lattice(nx, ny, a).positions
    lo = layer.copy()
    hi = layer.copy()
    lo[:, 0] = -d / 2.0
    hi[:, 0] = +d / 2.0
    labels = np.concatenate([np.zeros(len(layer), int), np.ones(len(layer), int)])
    return Geometry(np.vstack([lo, hi]), labels)


def build_stack(nx: int, ny: int, a: float, separations) -> Geometry:
    """len(separations)+1 layers at cumulative x offsets, centered on x=0.
    site_labels carry the layer index."""
    seps = np.asarray(separations, dtype=float)
    if np.any(seps <= 0):
        raise ValueError("layer separations must be positive")
    x = np.concatenate([[0.0], np.cumsum(seps)])
    x -= x.mean()
    layer = build_square_lattice(nx, ny, a).positions
    blocks, labels = [], []
    for i, xi in enumerate(x):
        blk = layer.copy()
        blk[:, 0] = xi
        blocks.append(blk)
        labels.append(np.full(len(layer), i, dtype=int))
    return Geometry(np.vstack(blocks), np.concatenate(labels))


def build_ring(n: int, radius: float) -> Geometry:
    """Regular n-gon of atoms on a circle of given radius in the yz plane,
    angular coordinate phi_l = 2*pi*l/n."""
    if n < 2:
        raise ValueError("a ring needs at least 2 atoms")
    if radius <= 0:
        raise ValueError("ring radius must be positive")
    phi = 2 * np.pi * np.arange(n) / n
    pos = np.column_stack([np.zeros(n), radius * np.cos(phi), radius * np.sin(phi)])
    return Geometry(pos, np.arange(n))


def coordinate_mirrors(positions) -> dict:
    """The coordinate mirrors x -> -x, y -> -y, z -> -z (axes 0, 1, 2)
    that map the positions onto themselves: {axis: perm}, where atom
    perm[j] sits at the mirror image of atom j.

    Positions are matched on a grid of 1e-9 times the array's extent, so
    a mirror that holds only to rounding (a ring's cosines) is proposed
    too; whatever uses a mirror decides whether it is a symmetry.
    """
    pos = np.asarray(positions, dtype=float)
    key = np.round(pos / (1e-9 * max(1.0, np.abs(pos).max()))).astype(np.int64)
    order = np.lexsort(key.T)
    mirrors = {}
    for axis in range(3):
        image = key.copy()
        image[:, axis] *= -1
        image_order = np.lexsort(image.T)
        if np.array_equal(image[image_order], key[order]):
            perm = np.empty(len(pos), dtype=int)
            perm[image_order] = order
            mirrors[axis] = perm
    return mirrors


def wannier_width(spec: LatticeTrapSpec) -> float:
    """In-plane 1/e half-width of the on-site ground-state density,
    ell = a * s**(-1/4) / pi."""
    return spec.spacing * spec.depth ** (-0.25) / np.pi


def lattice_geometry(nx: int, ny: int, spec: LatticeTrapSpec) -> Geometry:
    """Square lattice carrying the trap's Gaussian fluctuation widths."""
    ell = wannier_width(spec)
    return build_square_lattice(nx, ny, spec.spacing).with_fluctuation(ell, spec.ell_x)


def sample_positions(geometry: Geometry, rng: np.random.Generator,
                     widths=None,
                     min_separation: float = MIN_SEPARATION) -> Geometry:
    """One stochastic realization of the atom positions.

    Each site is displaced by independent Gaussians whose per-axis 1/e
    half-widths are `widths` (default: the geometry's own fluctuation);
    a half-width ell means std = ell/sqrt(2).  Configurations with a pair
    closer than `min_separation` are redrawn; after 100 failures a
    DegenerateConfigurationError is raised.
    """
    if widths is None:
        widths = geometry.fluctuation
    widths = np.asarray(widths, dtype=float)
    if widths.shape == ():
        widths = np.array([widths, widths, widths])
    if np.any(widths < 0):
        raise ValueError("fluctuation widths must be >= 0")
    if not np.any(widths > 0):
        return geometry
    sigma = widths / np.sqrt(2.0)
    for _ in range(100):
        jitter = rng.normal(0.0, 1.0, size=geometry.positions.shape) * sigma
        pos = geometry.positions + jitter
        if min_pair_distance(pos) >= min_separation:
            return Geometry(pos, geometry.site_labels, tuple(widths))
    raise DegenerateConfigurationError(
        "no valid configuration in 100 attempts "
        f"(min separation {min_separation}/k)")
