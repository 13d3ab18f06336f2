"""Parameter container for the driven two-level atom.

All frequencies and rates are internal angular frequencies (hbar = k_B = 1);
only ``laser_power`` stays in watts, carried through for cell-level output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .units import thz_to_internal


@dataclass(frozen=True)
class AtomDriveConfig:
    """Two-level atom plus drive: resonance omega0, spontaneous rate gamma,
    laser-atom coupling g and laser frequency nu."""

    omega0: float
    gamma: float
    g: float
    nu: float
    laser_power: float = 0.0

    def __post_init__(self):
        for name in ("omega0", "gamma", "g", "nu", "laser_power"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.omega0 <= 0:
            raise ValueError("omega0 must be positive")
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.g < 0:
            raise ValueError("g must be non-negative")
        if self.laser_power < 0:
            raise ValueError("laser_power must be non-negative")

    @property
    def detuning(self) -> float:
        """Signed detuning omega0 - nu; positive means red-detuned drive."""
        return self.omega0 - self.nu

    @property
    def rabi(self) -> float:
        """Dressed-state splitting sqrt(4 g^2 + detuning^2)."""
        return math.hypot(2.0 * self.g, self.detuning)

    # the two derived configs call the constructor, which runs
    # __post_init__'s checks as dataclasses.replace does, at half its cost
    def with_laser_frequency(self, nu: float) -> "AtomDriveConfig":
        return AtomDriveConfig(self.omega0, self.gamma, self.g, nu,
                               self.laser_power)

    def attenuated(self, power_fraction: float) -> "AtomDriveConfig":
        """Config at a point where the laser power is scaled by
        ``power_fraction``; the coupling scales as its square root."""
        if power_fraction < 0:
            raise ValueError("power_fraction must be non-negative")
        return AtomDriveConfig(self.omega0, self.gamma,
                               self.g * math.sqrt(power_fraction), self.nu,
                               self.laser_power)

    @classmethod
    def from_thz(cls, omega0_thz, gamma_thz, g_thz, nu_thz, laser_power_w=0.0):
        return cls(
            omega0=thz_to_internal(omega0_thz),
            gamma=thz_to_internal(gamma_thz),
            g=thz_to_internal(g_thz),
            nu=thz_to_internal(nu_thz),
            laser_power=laser_power_w,
        )
