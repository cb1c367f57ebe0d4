"""Exception types shared across the package.

Every type derives from AtomarrayError (and from the builtin type it
refines), so callers can tell a numeric or physical failure from a bug.
"""


class AtomarrayError(Exception):
    """Base of the package's error types."""


class SingularSeparationError(AtomarrayError, ValueError):
    """Two dipoles closer than the allowed minimum separation."""


class DegenerateConfigurationError(AtomarrayError, RuntimeError):
    """Position sampling kept producing overlapping atoms."""


class NearFieldRequestError(AtomarrayError, ValueError):
    """Far-field evaluation requested below the radiation-zone threshold."""


class OnLightConeError(AtomarrayError, ValueError):
    """Momentum-space kernel evaluated on the light circle (k_perp ~ 0)."""


class BraggResonanceError(OnLightConeError):
    """A reciprocal-lattice order sits exactly on the light cone."""

    def __init__(self, gvec):
        self.gvec = tuple(gvec)
        super().__init__(f"Bragg order g={self.gvec} on the light cone")


class ResonantSingularityError(AtomarrayError, RuntimeError):
    """Steady-state solve at (or numerically near) a collective resonance."""

    def __init__(self, message, nearest_eigenvalue=None):
        self.nearest_eigenvalue = nearest_eigenvalue
        super().__init__(message)


class UnsolvedEigenvectorsError(AtomarrayError, LookupError):
    """Eigenvectors read in a mirror sector that was solved for its
    eigenvalues alone."""


class StiffnessError(AtomarrayError, RuntimeError):
    """Adaptive integrator step size underflowed."""


class DimensionCapError(AtomarrayError, ValueError):
    """Requested Hilbert-space dimension exceeds the configured cap."""


class PerfectReflectionError(AtomarrayError, RuntimeError):
    """Transfer matrix singular at r = -1; use scattering-matrix composition."""


class UndefinedG2Error(AtomarrayError, RuntimeError):
    """g2 undefined because the mean detection rate vanishes."""


class PropagatorError(AtomarrayError, RuntimeError):
    """Eigenbasis propagator of a non-Hermitian Hamiltonian disagrees with
    the matrix exponential (an eigenbasis too close to defective)."""


class NonConvergenceError(AtomarrayError, RuntimeError):
    """Iterative steady-state search did not reach the requested residual."""

    def __init__(self, message, residual=None, tail=None):
        self.residual = residual
        self.tail = tail
        super().__init__(message)
