"""Closed-form weak-drive model for the collisionally pumped two-level atom.

Valid for |detuning| >> g.  The cooling branch (detuning > 0) carries a
thermal suppression factor exp(-detuning/T_hot) that the heating branch
(detuning < 0) lacks; that asymmetry is what makes heating easier than
cooling.  Everything here is a pure function of scalar inputs in internal
units; the exact Floquet solver (licore.floquet) is the oracle these
formulas are checked against.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .config import AtomDriveConfig
from .errors import DomainError
from .spectra import BathSpectrum, boltzmann_weight


def check_weak_drive(cfg: AtomDriveConfig) -> None:
    """Reject inputs grossly outside the |detuning| >> g expansion.

    g/|detuning| up to ~0.1 is treated as advisory (validated against the
    exact solver); g >= |detuning| is rejected outright.
    """
    delta = cfg.detuning
    if delta == 0.0:
        raise DomainError(
            "weak-drive formulas are singular at zero detuning; "
            "use licore.floquet at resonance"
        )
    if cfg.g >= abs(delta):
        raise DomainError(
            f"coupling g = {cfg.g:.4g} is not small against the detuning "
            f"{delta:.4g}; the weak-drive expansion does not apply, "
            "use licore.floquet"
        )


def pumping_rate(cfg: AtomDriveConfig, hot: BathSpectrum) -> float:
    """Collision-induced pumping rate (2g/detuning)^2 G_hot(|detuning|)."""
    check_weak_drive(cfg)
    return (2.0 * cfg.g / cfg.detuning) ** 2 * hot.value(abs(cfg.detuning))


class RatePoint(NamedTuple):
    """Stationary point of the two-level rate equations."""

    boltzmann_factor: float     # rho_ee / rho_gg
    t_tla: float                # effective atom temperature; inf if inverted
    rho_ee: float
    rho_gg: float


def steady_state(cfg: AtomDriveConfig, gamma_p: float, t_hot: float) -> RatePoint:
    """Stationary populations and effective temperature.

    Cooling branch: rho_ee/rho_gg = gamma_p e^(-detuning/T) / (gamma_p + gamma),
    always below the bath Boltzmann factor.  Heating branch: the spontaneous
    channel feeds the ratio (gamma_p e^(-|detuning|/T) + gamma) / gamma_p,
    which may exceed one (population inversion; t_tla reported as inf).
    """
    if gamma_p < 0:
        raise ValueError("gamma_p must be non-negative")
    if t_hot <= 0:
        raise ValueError("t_hot must be positive")
    check_weak_drive(cfg)
    delta = cfg.detuning
    bw = boltzmann_weight(abs(delta), t_hot)
    if delta > 0:
        if gamma_p == 0.0:
            ratio = 0.0
            t_tla = 0.0
        else:
            ratio = gamma_p * bw / (gamma_p + cfg.gamma)
            # log1p form keeps t_tla stable for detuning/T << 1
            t_tla = delta / (delta / t_hot + math.log1p(cfg.gamma / gamma_p))
    else:
        if gamma_p == 0.0:
            raise DomainError(
                "population inversion undefined: no pumping on the heating "
                "branch leaves rho_ee/rho_gg divergent"
            )
        ratio = (gamma_p * bw + cfg.gamma) / gamma_p
        t_tla = math.inf if ratio >= 1.0 else -delta / (-math.log(ratio))
    rho_ee = ratio / (1.0 + ratio)
    rho_gg = 1.0 / (1.0 + ratio)
    return RatePoint(ratio, t_tla, rho_ee, rho_gg)


def weak_flows(cfg: AtomDriveConfig, gamma_p: float,
               t_hot: float) -> tuple[float, float]:
    """Weak-drive (J_hot, P_abs) per atom, on either branch.

    Both are one scattering rate gamma_p gamma w / (gamma + (1 + b) gamma_p),
    b = exp(-|detuning|/T_hot), times the energy each scattering event
    exchanges: detuning with the hot bath, nu with the laser.  The Boltzmann
    suppression w = b acts on the cooling branch only (w = 1 on the heating
    branch), and J_hot / P_abs = detuning / nu exactly.
    """
    if gamma_p < 0:
        raise ValueError("gamma_p must be non-negative")
    if t_hot <= 0:
        raise ValueError("t_hot must be positive")
    delta = cfg.detuning
    if delta == 0.0 or gamma_p == 0.0:
        return 0.0, 0.0
    check_weak_drive(cfg)
    bw = boltzmann_weight(abs(delta), t_hot)
    w = bw if delta > 0 else 1.0
    den = cfg.gamma + (1.0 + bw) * gamma_p
    # each product starts from the energy: the all-row calibration fit
    # moves with the last bit of P_abs
    return (delta * gamma_p * cfg.gamma * w / den,
            cfg.nu * gamma_p * cfg.gamma * w / den)


def asymmetry_ratio(cfg: AtomDriveConfig, gamma_p: float, t_hot: float) -> float:
    """-J(-detuning)/J(+detuning); equals exp(detuning/T) for a flat hot
    spectrum, where the pumping rates at +/- detuning coincide."""
    delta = cfg.detuning
    if delta <= 0:
        raise DomainError("asymmetry ratio is defined for positive detuning")
    if gamma_p <= 0:
        raise ValueError("gamma_p must be positive")
    # swapping omega0 and nu negates the detuning bit-exactly
    mirrored = AtomDriveConfig(omega0=cfg.nu, gamma=cfg.gamma, g=cfg.g,
                               nu=cfg.omega0, laser_power=cfg.laser_power)
    j_red, _ = weak_flows(cfg, gamma_p, t_hot)
    j_blue, _ = weak_flows(mirrored, gamma_p, t_hot)
    return -j_blue / j_red


def regime_of(cfg: AtomDriveConfig) -> str:
    if cfg.detuning == 0.0 or cfg.g == 0.0:
        return "neutral"
    return "cooling" if cfg.detuning > 0 else "heating"


class EnergyFlowReport(NamedTuple):
    """Heat currents, absorbed power and efficiency at one parameter point."""

    j_hot: float
    j_cold: float
    p_abs: float
    eta: float
    regime: str


def energy_flow(cfg: AtomDriveConfig, hot: BathSpectrum,
                laser_power: float | None = None) -> EnergyFlowReport:
    """Weak-drive energy bookkeeping: the cold bath receives everything,
    J_cold = -(J_hot + P_abs).  eta = J_hot / laser_power is the cooling
    efficiency; it reads 0 without a laser power."""
    regime = regime_of(cfg)
    if cfg.g == 0.0 or cfg.detuning == 0.0:
        return EnergyFlowReport(0.0, 0.0, 0.0, 0.0, regime)
    j_hot, p_abs = weak_flows(cfg, pumping_rate(cfg, hot), hot.temperature)
    eta = j_hot / laser_power if laser_power else 0.0
    return EnergyFlowReport(j_hot, -(j_hot + p_abs), p_abs, eta, regime)
