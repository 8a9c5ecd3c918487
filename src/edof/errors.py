"""Exception and warning types shared across the package."""


class GeometryError(ValueError):
    """Invalid surface, grid, or point geometry (bad frame, out of bounds,
    intersecting apertures)."""


class SingularKernelError(ValueError):
    """Kernel evaluated at coincident points, or apertures closer than the
    minimum separation the discretization can resolve."""


class DimensionError(ValueError):
    """Array argument has the wrong shape for the target operator or basis."""


class NumericalError(RuntimeError):
    """A numerical routine (SVD, eigensolver) failed to converge or received
    an empty problem."""


class ResourceError(RuntimeError):
    """A requested computation exceeds the configured size budget."""


class ConfigError(ValueError):
    """Experiment configuration failed to parse or validate."""


class DiagnosticWarning(UserWarning):
    """Non-fatal numerical diagnostic (coarse rasterization)."""
