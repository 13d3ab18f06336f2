"""Conversions between lab-facing units and the internal scaled units.

Internally hbar = k_B = 1 and every energy-like quantity (frequency,
temperature, rate) is an angular frequency in rad/s.  Lab-facing I/O uses
ordinary frequency in THz, temperature in kelvin, power in watts and
length in millimeters.  All conversions are linear, so round trips are
exact to floating-point rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# CODATA 2022, as scipy.constants gives them (c, hbar, k_B, atomic mass
# unit); literals, since importing scipy.constants costs ~0.3 s at start-up
C_LIGHT = 299792458.0                   # m/s
HBAR = 1.0545718176461565e-34           # J s
KB = 1.380649e-23                       # J/K
ATOMIC_MASS = 1.66053906892e-27         # kg

UNIT_TAGS = ("THz", "K", "W", "mm", "dimensionless")


@dataclass(frozen=True)
class UnitSystem:
    """Linear scale factors taking one lab unit to internal units."""

    angular_per_thz: float = 2.0 * math.pi * 1e12   # ordinary THz -> rad/s
    angular_per_kelvin: float = KB / HBAR           # k_B T / hbar
    internal_per_watt: float = 1.0 / HBAR           # J/s -> (rad/s)/s
    meters_per_mm: float = 1e-3

    def _factor(self, unit: str) -> float:
        try:
            return {
                "THz": self.angular_per_thz,
                "K": self.angular_per_kelvin,
                "W": self.internal_per_watt,
                "mm": self.meters_per_mm,
                "dimensionless": 1.0,
            }[unit]
        except KeyError:
            raise ValueError(
                f"unknown unit tag {unit!r}; expected one of {UNIT_TAGS}"
            ) from None

    def to_internal(self, value: float, unit: str) -> float:
        return value * self._factor(unit)

    def from_internal(self, value: float, unit: str) -> float:
        return value / self._factor(unit)


UNITS = UnitSystem()


def to_internal(value: float, unit: str) -> float:
    return UNITS.to_internal(value, unit)


def from_internal(value: float, unit: str) -> float:
    return UNITS.from_internal(value, unit)


def kelvin_to_internal(t_kelvin: float) -> float:
    return UNITS.to_internal(t_kelvin, "K")


def thz_to_internal(f_thz: float) -> float:
    return UNITS.to_internal(f_thz, "THz")


def internal_to_thz(omega: float) -> float:
    return UNITS.from_internal(omega, "THz")


def watts_to_internal(p_watt: float) -> float:
    return UNITS.to_internal(p_watt, "W")


def internal_to_watts(p_internal: float) -> float:
    return UNITS.from_internal(p_internal, "W")


def amu_to_kg(mass_amu: float) -> float:
    return mass_amu * ATOMIC_MASS


def round12(x: float) -> float:
    """x rounded to 12 significant digits, the precision of machine output."""
    return float(f"{x:.12g}")


__all__ = [
    "UNIT_TAGS",
    "UnitSystem",
    "UNITS",
    "C_LIGHT",
    "HBAR",
    "KB",
    "to_internal",
    "from_internal",
    "kelvin_to_internal",
    "thz_to_internal",
    "internal_to_thz",
    "watts_to_internal",
    "internal_to_watts",
    "amu_to_kg",
    "round12",
]
