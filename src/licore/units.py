"""Conversions between lab-facing units and the internal scaled units.

Internally hbar = k_B = 1 and every energy-like quantity (frequency,
temperature, rate) is an angular frequency in rad/s.  Lab-facing I/O uses
ordinary frequency in THz, temperature in kelvin and power in watts; each
converts by one constant factor, so round trips are exact to
floating-point rounding.  Cell lengths stay in millimeters throughout.
"""

from __future__ import annotations

import math

# CODATA 2022, as scipy.constants gives them (c, hbar, k_B, atomic mass
# unit); literals, since importing scipy.constants costs ~0.3 s at start-up
C_LIGHT = 299792458.0                   # m/s
HBAR = 1.0545718176461565e-34           # J s
KB = 1.380649e-23                       # J/K
ATOMIC_MASS = 1.66053906892e-27         # kg

ANGULAR_PER_THZ = 2.0 * math.pi * 1e12  # ordinary THz -> rad/s
ANGULAR_PER_KELVIN = KB / HBAR          # k_B T / hbar
INTERNAL_PER_WATT = 1.0 / HBAR          # J/s -> (rad/s)/s


def thz_to_internal(f_thz: float) -> float:
    return f_thz * ANGULAR_PER_THZ


def internal_to_thz(omega: float) -> float:
    return omega / ANGULAR_PER_THZ


def kelvin_to_internal(t_kelvin: float) -> float:
    return t_kelvin * ANGULAR_PER_KELVIN


def internal_to_kelvin(temperature: float) -> float:
    return temperature / ANGULAR_PER_KELVIN


def watts_to_internal(p_watt: float) -> float:
    return p_watt * INTERNAL_PER_WATT


def internal_to_watts(p_internal: float) -> float:
    return p_internal / INTERNAL_PER_WATT


def amu_to_kg(mass_amu: float) -> float:
    return mass_amu * ATOMIC_MASS


def round12(x: float) -> float:
    """x rounded to 12 significant digits, the precision of machine output."""
    return float(f"{x:.12g}")


__all__ = [
    "C_LIGHT",
    "HBAR",
    "KB",
    "ANGULAR_PER_THZ",
    "ANGULAR_PER_KELVIN",
    "INTERNAL_PER_WATT",
    "thz_to_internal",
    "internal_to_thz",
    "kelvin_to_internal",
    "internal_to_kelvin",
    "watts_to_internal",
    "internal_to_watts",
    "amu_to_kg",
    "round12",
]
