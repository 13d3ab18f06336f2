"""Minimal attainable temperature and cross-method performance comparison.

Cooling stops when the exact hot-bath current vanishes; the balance
condition e^(-rabi/T_hot) = (d+ e^(-nu+/Tc) + d-) / (d+ + d- e^(-nu-/Tc))
solves for T_hot in closed form.  A numerical root of the exact current
(Brent's method) provides an independent cross-check of the same root.
Both read one floquet._hot_balance, so a check takes its factors once;
a caller that reports both takes it once through _floor and
_bracketed_root.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import NamedTuple

from .config import AtomDriveConfig
from .errors import DomainError, NoSolutionError
from .floquet import _hot_balance
from .units import C_LIGHT, HBAR, internal_to_thz


def _floor(cfg: AtomDriveConfig, t_cold: float):
    """(min_temp_exact, its current t_hot -> J_hot at unit pumping rate),
    both from one _hot_balance; an undriven atom has no current, and a
    driven one whose balance ratio rounds to 0 is a DomainError."""
    if cfg.detuning <= 0:
        raise NoSolutionError(
            "no cooling fixed point: the balance condition requires a "
            "red-detuned drive (detuning > 0)"
        )
    if cfg.g == 0.0:
        return 0.0, None
    ratio, current = _hot_balance(cfg, 1.0, t_cold)
    if ratio >= 1.0:
        raise NoSolutionError(
            f"balance ratio {ratio:.6g} >= 1: no positive-temperature root"
        )
    if ratio == 0.0:    # the lower sideband's weight underflowed or cancelled
        raise DomainError("cooling floor not resolved: the balance ratio "
                          "rounds to 0 at g/detuning = "
                          f"{cfg.g / cfg.detuning:.4g}")
    return -cfg.rabi / math.log(ratio), current


def min_temp_exact(cfg: AtomDriveConfig, t_cold: float) -> float:
    """Hot-bath temperature at which cooling stops, from the closed-form
    balance condition.  t_cold = 0 uses exact-zero cold Boltzmann factors."""
    return _floor(cfg, t_cold)[0]


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
    return cfg.rabi / (4.0 * _log_ratio(delta, cfg.g))


def _log_ratio(delta: float, g: float) -> float:
    """ln(delta/g), as ln delta - ln g only where the quotient overflows."""
    q = delta / g
    return math.log(q) if q < math.inf else math.log(delta) - math.log(g)


def min_temp_bisect(cfg: AtomDriveConfig, t_cold: float) -> float:
    """Independent root of the exact heat current in T_hot by Brent's
    method, bracketing the closed-form value by a factor of ten each way.
    The current's sign, and so its root, does not depend on the pumping
    rate, taken as 1."""
    t_root, current = _floor(cfg, t_cold)
    if t_root == 0.0:
        return 0.0
    return _bracketed_root(t_root, current)


def _bracketed_root(t_root: float, current) -> float:
    """min_temp_bisect's root from _floor's (t_root > 0, current), so a
    caller that needs the floor too takes the balance once."""
    # memoized: brentq starts from the two ends the sign check just took
    current = functools.cache(current)
    lo, hi = t_root / 10.0, t_root * 10.0
    if not current(lo) < 0.0 < current(hi):
        raise NoSolutionError("exact current does not change sign across the "
                              "expected bracket")
    return _brentq()(current, lo, hi, xtol=1e-300, rtol=1e-12,
                     error=NoSolutionError)


@functools.cache
def _brentq():
    """numerics.brentq, imported on first use, so that compare, which roots
    nothing, does not load numerics; an import statement in
    _bracketed_root would cost each floor check a microsecond."""
    from .numerics import brentq
    return brentq


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
    """k_B T_min / (hbar rabi) for sideband cooling in the given regime:
    1 / ln((1 + r) / r) with r = gamma / (4 rabi) (unresolved) or its
    square (resolved), taken as 1 / log1p(1/r), which keeps its digits
    where r is large."""
    if gamma <= 0 or rabi <= 0:
        raise ValueError("gamma and rabi must be positive")
    if regime not in (UNRESOLVED, RESOLVED):
        raise ValueError(f"unknown regime {regime!r}")
    x = 4.0 * rabi / gamma      # 1/r, or its square root where resolved
    if x == math.inf:
        raise DomainError("sideband limit: rabi/gamma overflows")
    if regime == UNRESOLVED:
        log = math.log1p(x)
    elif x < 1e150:
        log = math.log1p(x * x)
    else:   # x^2 may overflow; ln(1 + x^2) is 2 ln x to the last bit here
        log = 2.0 * math.log(x)
    limit = 1.0 / log if log else math.inf
    if limit == math.inf:   # 1/r underflows or its inverse log overflows
        raise DomainError(f"sideband limit overflows at rabi/gamma = "
                          f"{rabi / gamma:.6g}")
    return limit


def licore_temperature_limit(detuning: float, g: float) -> float:
    """k_B T_min / (hbar rabi) = 1/(4 ln(detuning/g)), regime-independent."""
    if g <= 0 or detuning <= 0:
        raise ValueError("detuning and g must be positive")
    if g >= detuning:
        raise DomainError("limit formula needs g < detuning")
    return 1.0 / (4.0 * _log_ratio(detuning, g))


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
