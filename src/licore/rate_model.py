"""Closed-form weak-drive model for the collisionally pumped two-level atom.

Valid for |detuning| >> g.  One rate balance, weak_balance, holds it: the
hot bath's Boltzmann factor exp(-|detuning|/T_hot) weights the excitation
on the cooling branch (detuning > 0) and the return to the ground state on
the heating branch (detuning < 0); that asymmetry is what makes heating
easier than cooling.  Everything here is a pure function of scalar inputs
in internal units; the exact Floquet solver (licore.floquet) is the oracle
these formulas are checked against.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .config import AtomDriveConfig
from .errors import DomainError
from .spectra import BathSpectrum, boltzmann_weight


def weak_drive_defect(g: float, delta: float) -> str | None:
    """Why the |detuning| >> g expansion fails at coupling g and detuning
    delta, or None: zero detuning and g >= |detuning| are out, g/|detuning|
    up to ~0.1 is advisory (validated against the exact solver)."""
    if delta == 0.0:
        return ("weak-drive formulas are singular at zero detuning; "
                "use licore.floquet at resonance")
    if g >= abs(delta):
        return (f"coupling g = {g:.4g} is not small against the detuning "
                f"{delta:.4g}; the weak-drive expansion does not apply, "
                "use licore.floquet")
    return None


def check_weak_drive(cfg: AtomDriveConfig) -> float:
    """The detuning, or DomainError with weak_drive_defect's reason."""
    delta = cfg.detuning
    defect = weak_drive_defect(cfg.g, delta)
    if defect is not None:
        raise DomainError(defect)
    return delta


def pumping_rate(cfg: AtomDriveConfig, hot: BathSpectrum) -> float:
    """Collision-induced pumping rate (2g/detuning)^2 G_hot(|detuning|)."""
    delta = check_weak_drive(cfg)
    return (2.0 * cfg.g / delta) ** 2 * hot.value(abs(delta))


def weak_balance(delta: float, gamma: float, gamma_p: float,
                 t_hot: float) -> tuple[float, float, float]:
    """The weak-drive two-level rate balance at detuning delta, as (w, B, C).

    Collisions lift the atom at gamma_p w; decay and collisions bring it
    down at B + C - gamma_p w, with B = gamma, C = (1 + b) gamma_p and
    b = exp(-|detuning|/T_hot).  b weights the step that draws |detuning|
    from the hot bath: the lift on the cooling branch (w = b), the return
    on the heating branch (w = 1).  So rho_ee = gamma_p w / (B + C).  The
    detuning is the caller's to check (weak_drive_defect).
    """
    if gamma_p < 0:
        raise ValueError("gamma_p must be non-negative")
    if t_hot <= 0:
        raise ValueError("t_hot must be positive")
    b = boltzmann_weight(abs(delta), t_hot)
    return (b if delta > 0 else 1.0), gamma, (1.0 + b) * gamma_p


class RatePoint(NamedTuple):
    """Stationary point of the two-level rate equations."""

    boltzmann_factor: float     # rho_ee / rho_gg
    t_tla: float                # effective atom temperature; inf if inverted
    rho_ee: float
    rho_gg: float


def steady_state(cfg: AtomDriveConfig, gamma_p: float, t_hot: float) -> RatePoint:
    """Stationary populations and effective temperature, from weak_balance.

    rho_ee/rho_gg is gamma_p b / (gamma + gamma_p) on the cooling branch,
    below the bath factor b, and gamma_p / (gamma + gamma_p b), always the
    larger, on the heating branch.  The heating ratio exceeds one, a
    population inversion with t_tla reported as inf, when pumping outruns
    decay, (1 - b) gamma_p > gamma.  t_tla = |detuning| / ln(rho_gg/rho_ee);
    without pumping the atom sits in its ground state at t_tla = 0.
    """
    delta = check_weak_drive(cfg)
    w, big_b, big_c = weak_balance(delta, cfg.gamma, gamma_p, t_hot)
    up, total = gamma_p * w, big_b + big_c
    down = total - up
    return RatePoint(up / down, atom_temperature(delta, up, down),
                     up / total, down / total)


def atom_temperature(delta: float, upper: float, lower: float) -> float:
    """The two-level atom's temperature |delta| / ln(lower/upper), from its
    populations or any pair in their ratio: inf where the upper level holds
    at least as much as the lower, 0 where it is empty."""
    if upper >= lower:
        return math.inf
    if upper <= 0.0:
        return 0.0
    return abs(delta) / math.log(lower / upper)


def weak_flows(cfg: AtomDriveConfig, gamma_p: float,
               t_hot: float) -> tuple[float, float]:
    """Weak-drive (J_hot, P_abs) per atom, on either branch.  Both are one
    scattering rate gamma rho_ee (weak_balance) times the energy each
    scattering event exchanges: detuning with the hot bath, nu with the
    laser.  So J_hot / P_abs = detuning / nu exactly.  Zero detuning is a
    DomainError, as in pumping_rate and steady_state.
    """
    delta = check_weak_drive(cfg)
    return _flows(delta, cfg.nu, gamma_p,
                  *weak_balance(delta, cfg.gamma, gamma_p, t_hot))


def _flows(delta: float, nu: float, gamma_p: float, w: float, big_b: float,
           big_c: float) -> tuple[float, float]:
    """weak_flows at detuning delta and laser frequency nu, from the
    balance (w, B, C)."""
    den = big_b + big_c
    # each product starts from the energy: the all-row calibration fit
    # moves with the last bit of P_abs
    return (delta * gamma_p * big_b * w / den,
            nu * gamma_p * big_b * w / den)


def regime_of(delta: float, g: float) -> str:
    if delta == 0.0 or g == 0.0:
        return "neutral"
    return "cooling" if delta > 0 else "heating"


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
    regime = regime_of(cfg.detuning, cfg.g)
    if cfg.g == 0.0 or cfg.detuning == 0.0:
        return EnergyFlowReport(0.0, 0.0, 0.0, 0.0, regime)
    j_hot, p_abs = weak_flows(cfg, pumping_rate(cfg, hot), hot.temperature)
    eta = j_hot / laser_power if laser_power else 0.0
    return EnergyFlowReport(j_hot, -(j_hot + p_abs), p_abs, eta, regime)
