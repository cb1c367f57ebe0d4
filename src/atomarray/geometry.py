"""Atom position sets: lattices, bilayers, stacks, rings, and stochastic
position sampling for zero-point motion in an optical lattice.

The lattice builders record their lattice (`Lattice`: site counts, spacing
and the x offset of each layer) on the `Geometry`, so that couplings,
which on a lattice depend only on the offset of two sites' indices, can be
evaluated once per offset (`kernel.coupling_matrix`).  Displaced positions
(`sample_positions`) carry no lattice.

Internal units: lengths in 1/k (k = transition wavenumber), so one
wavelength is LAMBDA = 2*pi.  Helper constructors accept lattice constants
given as fractions of the wavelength.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateConfigurationError

LAMBDA = 2.0 * np.pi

# sampled configurations with two atoms closer than this are rejected
MIN_SEPARATION = 1e-6

# positions may differ from their lattice's sites by this much, relative to
# the array's extent (a JSON round trip moves them in the last bits)
LATTICE_TOL = 1e-12


@dataclass(frozen=True)
class Lattice:
    """An nx-by-ny square lattice of spacing a in the yz plane, centred on
    y = z = 0, repeated in layers at the x offsets `layers`.  Site (layer,
    m, n) sits at (layers[layer], (m - (nx-1)/2) a, (n - (ny-1)/2) a) and
    has index (layer nx + m) ny + n."""
    nx: int
    ny: int
    spacing: float
    layers: tuple = (0.0,)

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("lattice site counts must be >= 1")
        if self.spacing <= 0:
            raise ValueError("lattice spacing must be positive")
        object.__setattr__(self, "layers", tuple(map(float, self.layers)))
        if len(set(self.layers)) < len(self.layers):
            raise ValueError("coincident lattice layers")

    def sites(self) -> np.ndarray:
        """(N, 3) positions of the sites in index order."""
        m = np.arange(self.nx) - (self.nx - 1) / 2.0
        n = np.arange(self.ny) - (self.ny - 1) / 2.0
        Y, Z = np.meshgrid(m * self.spacing, n * self.spacing, indexing="ij")
        layer = np.column_stack([np.zeros(self.nx * self.ny), Y.ravel(),
                                 Z.ravel()])
        pos = np.tile(layer, (len(self.layers), 1))
        pos[:, 0] = np.repeat(self.layers, len(layer))
        return pos


@dataclass(frozen=True)
class Geometry:
    """Nominal atom positions (units 1/k) plus per-axis Gaussian widths.

    `fluctuation` holds 1/e half-widths (ell_x, ell_y, ell_z) of the on-site
    density distribution; the in-plane width is isotropic for a square
    lattice but the two in-plane axes are kept independent.  `lattice`,
    where set, is the lattice whose sites the positions are; positions
    that contradict it are rejected.  Without a lattice, coincident
    positions are rejected by their smallest pair distance, which is kept
    (`min_distance`).
    """
    positions: np.ndarray                  # (N, 3)
    fluctuation: tuple = (0.0, 0.0, 0.0)   # (ell_x, ell_y, ell_z)
    lattice: Lattice = None

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.shape[1] != 3:
            raise ValueError("positions must be (N, 3)")
        object.__setattr__(self, "positions", pos)
        if self.lattice is not None:
            # distinct lattice sites: O(N), and no pair search
            sites = self.lattice.sites()
            if (sites.shape != pos.shape or np.abs(pos - sites).max()
                    > LATTICE_TOL * max(1.0, np.abs(sites).max())):
                raise ValueError("positions contradict their lattice")
        elif self.min_distance <= 0.0:
            raise ValueError("coincident nominal sites")

    @cached_property
    def min_distance(self) -> float:
        """The smallest distance between two atoms (`min_pair_distance`)."""
        return min_pair_distance(self.positions)

    @property
    def natoms(self) -> int:
        return len(self.positions)

    def with_fluctuation(self, ell, ell_x) -> "Geometry":
        return Geometry(self.positions, (ell_x, ell, ell), self.lattice)

    def to_json(self) -> str:
        """Serialize with lengths in units of the wavelength."""
        doc = {
            "positions": (self.positions / LAMBDA).tolist(),
            "fluctuation": [w / LAMBDA for w in self.fluctuation],
            "units": "wavelengths",
        }
        if self.lattice is not None:
            lat = self.lattice
            doc["lattice"] = {"nx": lat.nx, "ny": lat.ny,
                              "spacing": lat.spacing / LAMBDA,
                              "layers": [x / LAMBDA for x in lat.layers]}
        return json.dumps(doc)

    @staticmethod
    def from_json(text: str) -> "Geometry":
        """The geometry of a `to_json` document; keys it does not read,
        such as the per-site "labels" that older documents carry, are
        ignored."""
        doc = json.loads(text)
        if doc.get("units", "wavelengths") != "wavelengths":
            raise ValueError("unknown length unit in geometry document")
        fluct = tuple(w * LAMBDA for w in doc.get("fluctuation", (0, 0, 0)))
        lat = doc.get("lattice")
        if lat is not None:
            lat = Lattice(lat["nx"], lat["ny"], lat["spacing"] * LAMBDA,
                          tuple(x * LAMBDA for x in lat["layers"]))
        return Geometry(np.asarray(doc["positions"]) * LAMBDA, fluct, lat)


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
    """The smallest distance between two of the positions, one slab of
    rows at a time (a (128, N, 3) temporary, not (N, N, 3)); the square
    root, being monotonic, is taken of the smallest square only."""
    pos = np.asarray(positions)
    if len(pos) < 2:
        return np.inf
    rows = 128
    best = np.inf
    for lo in range(0, len(pos), rows):
        diff = pos[lo:lo + rows, None, :] - pos[None, :, :]
        d2 = np.sum(diff * diff, axis=-1)
        d2[np.arange(len(d2)), lo + np.arange(len(d2))] = np.inf
        best = min(best, d2.min())
    return float(np.sqrt(best))


def build_square_lattice(nx: int, ny: int, a: float) -> Geometry:
    """nx-by-ny square lattice in the yz plane, spacing a, centered at the
    origin.  Site order is row-major in (m, n): site (m, n) sits at
    (0, m*a, n*a) up to the centering offset."""
    lattice = Lattice(nx, ny, a)
    return Geometry(lattice.sites(), lattice=lattice)


def _layers(nx: int, ny: int, a: float, x) -> Geometry:
    """Layers of an nx-by-ny lattice at the x offsets x."""
    lattice = Lattice(nx, ny, a, tuple(x))
    return Geometry(lattice.sites(), lattice=lattice)


def build_bilayer(nx: int, ny: int, a: float, d: float) -> Geometry:
    """Two identical nx-by-ny layers offset to x = -d/2 and x = +d/2."""
    if d <= 0:
        raise ValueError("layer separation must be positive")
    return _layers(nx, ny, a, [-d / 2.0, +d / 2.0])


def build_stack(nx: int, ny: int, a: float, separations) -> Geometry:
    """len(separations)+1 layers at cumulative x offsets, centered on x=0;
    the layer of a site is read from `geometry.lattice`."""
    seps = np.asarray(separations, dtype=float)
    if np.any(seps <= 0):
        raise ValueError("layer separations must be positive")
    x = np.concatenate([[0.0], np.cumsum(seps)])
    x -= x.mean()
    return _layers(nx, ny, a, x)


def build_ring(n: int, radius: float) -> Geometry:
    """Regular n-gon of atoms on a circle of given radius in the yz plane,
    angular coordinate phi_l = 2*pi*l/n."""
    if n < 2:
        raise ValueError("a ring needs at least 2 atoms")
    if radius <= 0:
        raise ValueError("ring radius must be positive")
    phi = 2 * np.pi * np.arange(n) / n
    pos = np.column_stack([np.zeros(n), radius * np.cos(phi), radius * np.sin(phi)])
    return Geometry(pos)


def coordinate_mirrors(positions) -> dict:
    """The coordinate mirrors x -> -x, y -> -y, z -> -z (axes 0, 1, 2)
    through the centroid (couplings see only differences) that map the
    positions onto themselves: {axis: perm}, where atom perm[j] sits at
    the mirror image of atom j.

    Positions are matched on a grid of 1e-9 times the array's extent, so
    a mirror that holds only to rounding (a ring's cosines) is proposed
    too; whatever uses a mirror decides whether it is a symmetry.
    """
    pos = np.asarray(positions, dtype=float)
    pos = pos - pos.mean(axis=0)
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


@dataclass(frozen=True)
class OrbitBasis:
    """Real orthogonal basis Q of a space of size n adapted to an abelian
    group of signed permutations U e_i = sign_i e_idx_i that are
    involutions.  Column a of Q is the orbit sum sum_g coefs[g, a]
    e_rows[g, a] over the |G| group elements (a site that several elements
    reach is summed as often), with entries +-1/sqrt(|orbit|); rows[0] is
    the identity's, so rows[0, a] is the orbit's smallest index.  Columns
    lo:hi of each of `spans` form a sector s, on which group element g
    acts as (-1)^popcount(labels[s] & g), g's bits naming the kept
    generators it is the product of.  Q is applied one way, as the sparse
    `q` and `qt` built on first use; with one sector every orbit is one
    site and Q = 1, which `blocks` and the vector maps apply as it is."""
    kept: tuple                  # indices of the actions that generate G
    rows: np.ndarray             # (|G|, n) indices
    coefs: np.ndarray            # (|G|, n) their coefficients
    offsets: np.ndarray
    labels: tuple                # character of each sector

    @property
    def sizes(self) -> list:
        return np.diff(self.offsets).tolist()

    @property
    def spans(self) -> list:
        """(lo, hi) of the columns of each sector."""
        off = self.offsets.tolist()
        return list(zip(off[:-1], off[1:]))

    @property
    def _identity(self) -> bool:
        return len(self.offsets) == 2

    @cached_property
    def q(self):
        """Q as a CSR matrix; a stabilizer's repeated entries are summed."""
        import scipy.sparse
        n_group, n = self.rows.shape
        return scipy.sparse.csr_array((self.coefs.ravel(), (
            self.rows.ravel(), np.tile(np.arange(n), n_group))), shape=(n, n))

    @cached_property
    def qt(self):
        """Q^T as a CSR matrix, whose row slices are the sectors."""
        return self.q.T.tocsr()

    def to_sectors(self, X) -> np.ndarray:
        """Q^T X Q, the sectors one after the other.  The sparse product
        reads its dense operand in C order, so the half product is copied
        to it here, where it is freed before the second product."""
        return (self.qt @ np.ascontiguousarray((self.qt @ X).T)).T

    def from_sectors(self, Y) -> np.ndarray:
        """Q Y Q^T, by the same two products."""
        return (self.q @ np.ascontiguousarray((self.q @ Y).T)).T

    def blocks(self, X) -> list:
        """The diagonal blocks Q_s^T X Q_s, sliced from `to_sectors`."""
        if self._identity:
            return [X]
        Y = self.to_sectors(X)
        return [Y[lo:hi, lo:hi].copy() for lo, hi in self.spans]

    def to_sector_vector(self, b) -> np.ndarray:
        """Q^T b."""
        return b if self._identity else self.qt @ b

    def to_site_vectors(self, v, lo=None, hi=None) -> np.ndarray:
        """Q v, or Q_s v for the vectors v of the sector of columns lo:hi."""
        if self._identity:
            return v
        return self.q @ v if lo is None else self.qt[lo:hi].T @ v


def orbit_basis(actions, size: int) -> OrbitBasis:
    """The group generated by the signed permutations `actions`, a list of
    (idx, sign) on a space of `size`, and its orbit-sum basis.  An action
    that is already in the group (a mirror that fixes every atom and every
    dipole component acts as the identity) is not added.  A sector whose
    character the stabilizer of every orbit flips is empty and left out."""
    idx, sign, kept = [np.arange(size)], [np.ones(size)], []
    for k, (a_idx, a_sign) in enumerate(actions):
        if any(np.array_equal(a_idx, i) and np.array_equal(a_sign, s)
               for i, s in zip(idx, sign)):
            continue
        kept.append(k)
        # the group grows by the new action's products with every element
        # so far: U_a U_g e_i = sign_g[i] sign_a[idx_g[i]] e_idx_a[idx_g[i]]
        idx, sign = (idx + [a_idx[i] for i in idx],
                     sign + [s * a_sign[i] for i, s in zip(idx, sign)])
    img, sgn = np.array(idx), np.array(sign)          # (|G|, n) each
    n_group = len(img)
    reps = np.flatnonzero(img.min(axis=0) == np.arange(size))
    img, sgn = img[:, reps], sgn[:, reps]
    stab = img == reps                                # (|G|, orbits)
    # each site of an orbit is reached by |stabilizer| group elements
    scale = 1.0 / np.sqrt(n_group * stab.sum(axis=0))
    rows, coefs, offsets, labels = [], [], [0], []
    for sector in range(n_group):
        parity = [(-1) ** bin(sector & g).count("1") for g in range(n_group)]
        coef = np.array(parity)[:, None] * sgn
        # an orbit carries this sector unless its stabilizer flips it
        live = np.flatnonzero(~(stab & (coef < 0)).any(axis=0))
        if len(live) == 0:
            continue
        rows.append(img[:, live])
        coefs.append(coef[:, live] * scale[live])
        offsets.append(offsets[-1] + len(live))
        labels.append(sector)
    return OrbitBasis(tuple(kept), np.hstack(rows), np.hstack(coefs),
                      np.array(offsets), tuple(labels))


def wannier_width(spec: LatticeTrapSpec) -> float:
    """In-plane 1/e half-width of the on-site ground-state density,
    ell = a * s**(-1/4) / pi."""
    return spec.spacing * spec.depth ** (-0.25) / np.pi


def sample_positions(geometry: Geometry, rng: np.random.Generator,
                     widths=None,
                     min_separation: float = MIN_SEPARATION) -> Geometry:
    """One stochastic realization of the atom positions.

    Each site is displaced by independent Gaussians whose per-axis 1/e
    half-widths are `widths` (default: the geometry's own fluctuation);
    a half-width ell means std = ell/sqrt(2).  Configurations with a pair
    closer than `min_separation`, or coincident, are redrawn; each draw's
    pair distance is computed once, by its `Geometry`.  After 100
    failures a DegenerateConfigurationError is raised.  The displaced
    positions carry no lattice; with all widths zero the geometry itself
    is returned.
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
        try:
            sample = Geometry(geometry.positions + jitter, tuple(widths))
        except ValueError:      # coincident sites
            continue
        if sample.min_distance >= min_separation:
            return sample
    raise DegenerateConfigurationError(
        "no valid configuration in 100 attempts "
        f"(min separation {min_separation}/k)")
