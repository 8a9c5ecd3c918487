"""Effective degrees of freedom of line-of-sight links between planar apertures.

Three independent estimates of the mode count a link supports: the singular
value spectrum of the discretized radiation operator, the cut-set integral of
the local wavenumber bandwidth, and the Landau support-measure count. The
experiment harness runs them side by side and writes comparison tables.
"""

from .config import ExperimentConfig, config_from_mapping, load_config
from .cutset import (
    bandwidth_field,
    box_support,
    cutset_edof,
    filter_field,
    isotropic_bandwidth,
    jacobian_det,
    local_bandwidth,
    set_measure_bandwidth,
    wavenumber_component,
)
from .errors import (
    ConfigError,
    DiagnosticWarning,
    DimensionError,
    GeometryError,
    NumericalError,
    ResourceError,
    SingularKernelError,
)
from .experiment import ComparisonReport, SweepResult, run_experiment, run_sweep
from .geometry import (
    PlanarSurface,
    QuadratureGrid,
    discretize,
    make_surface,
    quadrature_rule,
    rotation_about,
)
from .kernel import (
    VACUUM_IMPEDANCE_OHM,
    DiscreteOperator,
    WaveConfig,
    adjoint_identity_residual,
    apply,
    assemble_operator,
    green_kernel,
    hilbert_schmidt_norm,
)
from .landau import (
    autocorrelation_kernel,
    landau_edof,
    polarization_study,
    stationarity_check,
    support_measure,
    wavenumber_response,
)
from .spectrum import (
    CouplingSpectrum,
    EdofReport,
    ModeBasis,
    count_edof,
    coupling_spectrum,
    expand_field,
    extract_modes,
    kolmogorov_width,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "ConfigError",
    "CouplingSpectrum",
    "DiagnosticWarning",
    "DimensionError",
    "DiscreteOperator",
    "EdofReport",
    "ExperimentConfig",
    "GeometryError",
    "ModeBasis",
    "NumericalError",
    "PlanarSurface",
    "QuadratureGrid",
    "ResourceError",
    "SingularKernelError",
    "SweepResult",
    "VACUUM_IMPEDANCE_OHM",
    "WaveConfig",
    "adjoint_identity_residual",
    "apply",
    "assemble_operator",
    "autocorrelation_kernel",
    "bandwidth_field",
    "box_support",
    "config_from_mapping",
    "count_edof",
    "coupling_spectrum",
    "cutset_edof",
    "discretize",
    "expand_field",
    "extract_modes",
    "filter_field",
    "green_kernel",
    "hilbert_schmidt_norm",
    "isotropic_bandwidth",
    "jacobian_det",
    "kolmogorov_width",
    "landau_edof",
    "load_config",
    "local_bandwidth",
    "make_surface",
    "polarization_study",
    "quadrature_rule",
    "rotation_about",
    "run_experiment",
    "run_sweep",
    "set_measure_bandwidth",
    "stationarity_check",
    "support_measure",
    "wavenumber_component",
    "wavenumber_response",
]
