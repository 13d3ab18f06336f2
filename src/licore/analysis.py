"""Minimal attainable temperature and cross-method performance comparison.

Cooling stops when the exact hot-bath current vanishes; the balance
condition e^(-rabi/T_hot) = (d+ e^(-nu+/Tc) + d-) / (d+ + d- e^(-nu-/Tc))
solves for T_hot in closed form.  A numerical root of the exact current
(Brent's method) provides an independent cross-check of the same root.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import NamedTuple

from .config import AtomDriveConfig
from .errors import DomainError, NoSolutionError
from .floquet import _exact_current_in_t_hot, sideband_weights
from .numerics import brentq
from .spectra import boltzmann_weight
from .units import C_LIGHT, HBAR, internal_to_thz


def _balance_rhs(cfg: AtomDriveConfig, t_cold: float) -> float:
    if t_cold < 0:
        raise ValueError("t_cold must be non-negative")
    d_plus, d_minus = sideband_weights(cfg)
    bw_p = boltzmann_weight(cfg.nu + cfg.rabi, t_cold)
    bw_m = boltzmann_weight(cfg.nu - cfg.rabi, t_cold)
    return (d_plus * bw_p + d_minus) / (d_plus + d_minus * bw_m)


def min_temp_exact(cfg: AtomDriveConfig, t_cold: float) -> float:
    """Hot-bath temperature at which cooling stops, from the closed-form
    balance condition.  t_cold = 0 uses exact-zero cold Boltzmann factors."""
    if cfg.detuning <= 0:
        raise NoSolutionError(
            "no cooling fixed point: the balance condition requires a "
            "red-detuned drive (detuning > 0)"
        )
    if cfg.g == 0.0:
        return 0.0
    rhs = _balance_rhs(cfg, t_cold)
    if rhs >= 1.0:
        raise NoSolutionError(
            f"balance ratio {rhs:.6g} >= 1: no positive-temperature root"
        )
    if rhs == 0.0:
        return 0.0
    return -cfg.rabi / math.log(rhs)


def min_temp_residual(cfg: AtomDriveConfig, t_cold: float, t_hot: float) -> float:
    """Relative defect of the balance condition at t_hot."""
    rhs = _balance_rhs(cfg, t_cold)
    lhs = boltzmann_weight(cfg.rabi, t_hot)
    return abs(lhs - rhs) / max(rhs, 1e-300)


def min_temp_asymptotic(cfg: AtomDriveConfig) -> float:
    """Weak-drive limit rabi / (4 ln(detuning/g)); advisory validity
    g/detuning <= 0.05 and detuning/nu <= 0.1."""
    delta = cfg.detuning
    if delta <= 0:
        raise NoSolutionError("asymptotic minimum temperature needs red detuning")
    if cfg.g <= 0:
        raise DomainError("asymptotic form needs g > 0")
    if cfg.g >= delta:
        raise DomainError("asymptotic form needs g < detuning "
                          "(logarithm nonpositive otherwise)")
    if cfg.g / delta > 0.05 or delta / cfg.nu > 0.1:
        warnings.warn("outside the advisory validity range g/detuning <= 0.05, "
                      "detuning/nu <= 0.1", stacklevel=2)
    return cfg.rabi / (4.0 * math.log(delta / cfg.g))


def min_temp_bisect(cfg: AtomDriveConfig, t_cold: float) -> float:
    """Independent root of the exact heat current in T_hot by Brent's
    method, bracketing the closed-form value by a factor of ten each way.
    The current's sign, and so its root, does not depend on the pumping
    rate, taken as 1."""
    t_root = min_temp_exact(cfg, t_cold)
    if t_root == 0.0:
        return 0.0

    # memoized: brentq starts from the two ends the sign check just took
    current = functools.cache(_exact_current_in_t_hot(cfg, 1.0, t_cold))
    lo, hi = t_root / 10.0, t_root * 10.0
    if not current(lo) < 0.0 < current(hi):
        raise NoSolutionError("exact current does not change sign across the "
                              "expected bracket")
    return brentq(current, lo, hi, xtol=1e-300, rtol=1e-12,
                  error=NoSolutionError)


# ---------------------------------------------------------------------------
# Cross-method comparison (scaled minimal temperatures and efficiency bounds)
# ---------------------------------------------------------------------------

DOPPLER = "doppler"
SIDEBAND = "sideband"
LICORE = "licore"
UNRESOLVED = "unresolved"   # rabi << gamma
RESOLVED = "resolved"       # rabi >> gamma


def doppler_temperature_limit() -> float:
    """k_B T_min / (hbar gamma), independent of regime."""
    return 0.25


def sideband_temperature_limit(gamma: float, rabi: float, regime: str) -> float:
    """k_B T_min / (hbar rabi) for sideband cooling in the given regime."""
    if gamma <= 0 or rabi <= 0:
        raise ValueError("gamma and rabi must be positive")
    if regime == UNRESOLVED:
        r = gamma / (4.0 * rabi)
    elif regime == RESOLVED:
        r = gamma ** 2 / (16.0 * rabi ** 2)
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return 1.0 / math.log((1.0 + r) / r)


def licore_temperature_limit(detuning: float, g: float) -> float:
    """k_B T_min / (hbar rabi) = 1/(4 ln(detuning/g)), regime-independent."""
    if g <= 0 or detuning <= 0:
        raise ValueError("detuning and g must be positive")
    if g >= detuning:
        raise DomainError("limit formula needs g < detuning")
    return 1.0 / (4.0 * math.log(detuning / g))


def doppler_efficiency_bound(nu: float, mass_kg: float) -> float:
    """Recoil-limited bound hbar nu / (2 c^2 m); nu in internal rad/s."""
    if nu <= 0 or mass_kg <= 0:
        raise ValueError("nu and mass must be positive")
    return HBAR * nu / (2.0 * C_LIGHT ** 2 * mass_kg)


class MethodLimit(NamedTuple):
    method: str
    regime: str
    t_min_scaled: float
    reference: str          # rate the temperature is scaled by
    approximate: bool = True


class EfficiencyBound(NamedTuple):
    method: str
    value: float
    note: str


class MethodComparison(NamedTuple):
    limits: tuple
    efficiencies: tuple
    operating_regime: str   # resolved/unresolved from the actual rabi vs gamma

    def limit(self, method: str, regime: str) -> MethodLimit:
        for rec in self.limits:
            if rec.method == method and rec.regime == regime:
                return rec
        raise KeyError((method, regime))


def method_comparison(gamma: float, rabi: float, detuning: float, g: float,
                      nu: float, omega0: float, mass_kg: float) -> MethodComparison:
    """All six scaled minimal-temperature cells plus the three efficiency
    bounds, for a common (gamma, rabi) and the drive parameters of the
    collisional-redistribution method."""
    for name, val in (("gamma", gamma), ("rabi", rabi), ("detuning", detuning),
                      ("g", g), ("nu", nu), ("omega0", omega0), ("mass", mass_kg)):
        if val <= 0:
            raise ValueError(f"{name} must be positive")
    if rabi >= omega0:
        # the sideband laser sits at omega0 - rabi, which must be positive
        raise DomainError(
            f"sideband bound needs rabi < omega0: rabi "
            f"{internal_to_thz(rabi):.6g} THz, omega0 "
            f"{internal_to_thz(omega0):.6g} THz")
    licore_val = licore_temperature_limit(detuning, g)
    limits = (
        MethodLimit(DOPPLER, UNRESOLVED, doppler_temperature_limit(), "gamma"),
        MethodLimit(DOPPLER, RESOLVED, doppler_temperature_limit(), "gamma"),
        MethodLimit(SIDEBAND, UNRESOLVED,
                    sideband_temperature_limit(gamma, rabi, UNRESOLVED), "rabi"),
        MethodLimit(SIDEBAND, RESOLVED,
                    sideband_temperature_limit(gamma, rabi, RESOLVED), "rabi"),
        MethodLimit(LICORE, UNRESOLVED, licore_val, "rabi"),
        MethodLimit(LICORE, RESOLVED, licore_val, "rabi"),
    )
    efficiencies = (
        EfficiencyBound(DOPPLER, doppler_efficiency_bound(nu, mass_kg),
                        "recoil-limited, much below one"),
        EfficiencyBound(SIDEBAND, rabi / (omega0 - rabi),
                        "rabi/nu; requires resolved bands to stay near one"),
        EfficiencyBound(LICORE, detuning / nu,
                        "detuning/nu; bands need not be resolved"),
    )
    operating = RESOLVED if rabi > gamma else UNRESOLVED
    return MethodComparison(limits, efficiencies, operating)
