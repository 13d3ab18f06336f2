"""licore: laser-induced collisional-redistribution cooling of a broadband bath.

Weak-drive rate model, exact Floquet-Lindblad solver, minimal-temperature
analysis and a cell-scale detuning-scan model, with a CLI front end.
"""

from .config import AtomDriveConfig
from .errors import (
    CalibrationError,
    ConfigError,
    DegenerateSteadyStateError,
    DomainError,
    LicoreError,
    NoSolutionError,
)
from .spectra import (
    BathSpectrum,
    CubicColdSpectrum,
    FlatHotSpectrum,
    TabulatedSpectrum,
    ZeroSpectrum,
    boltzmann_weight,
    kms_violation,
    load_tabulated_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "AtomDriveConfig",
    "BathSpectrum",
    "FlatHotSpectrum",
    "CubicColdSpectrum",
    "TabulatedSpectrum",
    "ZeroSpectrum",
    "boltzmann_weight",
    "kms_violation",
    "load_tabulated_spectrum",
    "LicoreError",
    "ConfigError",
    "DomainError",
    "NoSolutionError",
    "DegenerateSteadyStateError",
    "CalibrationError",
    "__version__",
]
