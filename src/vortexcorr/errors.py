"""Exception types shared across the library.

Every failure mode that callers are expected to handle gets its own class so
the CLI can map them onto stable exit codes.
"""


class VortexError(Exception):
    """Base class for library-specific failures."""


class PauliViolationError(VortexError, ValueError):
    """Fermionic occupation outside {0, 1}."""


class AlgebraInconsistencyError(VortexError, RuntimeError):
    """A quantity that must be real or non-negative came out far from it."""


class NoPairsError(VortexError, ValueError):
    """State has no two-particle component, pair statistics are undefined."""


class AnisotropicStateError(VortexError, ValueError):
    """pairangle asked for the relative-angle law of an anisotropic state;
    the two-angle surface is the meaningful object."""


class EmptyFramesError(VortexError, ValueError):
    """Estimator called on an empty frame collection."""


class SamplerMethodError(VortexError, RuntimeError):
    """Rejection sampling left frames unresolved after MAX_ATTEMPT_ROUNDS
    rounds."""


class UnsupportedStateError(VortexError, ValueError):
    """Operation has no implementation for this state kind (for example a
    first-quantized wavefunction for an indefinite particle number)."""
