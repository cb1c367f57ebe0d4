"""Cooperative light scattering from planar arrays of cold atoms.

Internal units everywhere: k = 1 (lengths in 1/k, one wavelength = 2*pi)
and gamma = 1 (rates in units of the single-atom HWHM linewidth).
"""

__version__ = "0.1.0"

from .geometry import (LAMBDA, Geometry, Lattice, LatticeTrapSpec,
                       build_bilayer, build_ring, build_square_lattice,
                       build_stack, sample_positions, wannier_width)
from .kernel import (GAMMA, K, XI, PairCoupling, coupling_matrix,
                     far_field_kernel, green_1d, green_tensor,
                     momentum_kernel_2d, momentum_kernel_3d, pair_coupling)
from .lli import CouplingSystem, TransitionSpec, assemble, eigenmodes, evolve
from .lli import mode_occupation, steady_state
from .streams import generator_for, seed_streams

__all__ = [
    "LAMBDA", "GAMMA", "K", "XI", "__version__",
    "Geometry", "Lattice", "LatticeTrapSpec", "build_square_lattice", "build_bilayer",
    "build_stack", "build_ring", "sample_positions",
    "wannier_width",
    "PairCoupling", "green_tensor", "pair_coupling", "coupling_matrix",
    "far_field_kernel",
    "green_1d", "momentum_kernel_2d", "momentum_kernel_3d",
    "TransitionSpec", "CouplingSystem", "assemble", "steady_state", "evolve",
    "eigenmodes", "mode_occupation",
    "seed_streams", "generator_for",
]
