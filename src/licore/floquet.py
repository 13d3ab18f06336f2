"""Exact open-system model: dressed-basis Lindblad generator and heat currents.

The driven atom is treated in the rotating frame, where the averaged
Hamiltonian (detuning/2) sigma_z + g sigma_x has dressed splitting Omega.
The system-bath couplings decompose into five harmonics (q, wbar): three
cold-bath entries at drive harmonics q = 1 with wbar in {-Omega, 0, +Omega}
and two hot-bath entries at q = 0 with wbar in {0, Omega}.  Each harmonic
sees the bath at its effective frequency wbar + q nu, giving a sum of
Lindblad dissipators with detailed-balanced rate pairs.

Heat bookkeeping per channel: a quantum exchanged with the bath carries the
effective frequency, the system energy changes by wbar, and the drive
supplies the difference q nu.  For wbar != 0 this reproduces the entropy-
production (Spohn) expression (w_eff/wbar) Tr[(L rho) H]; the dephasing-type
wbar = 0 channels are handled by the same quantum-counting rule directly,
which assigns zero heat to the static hot channel and nu times the net
scattering rate to the elastic cold channel.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import AtomDriveConfig
from .errors import DegenerateSteadyStateError, DomainError
from .operators import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    dissipator,
    hermitize,
    unvec,
    vec,
)
from .spectra import BathSpectrum, boltzmann_weight

HOT = "hot"
COLD = "cold"


def rotating_frame_hamiltonian(cfg: AtomDriveConfig) -> np.ndarray:
    """(detuning/2) sigma_z + g sigma_x in the bare basis; eigenvalues are
    +/- rabi/2."""
    return 0.5 * cfg.detuning * SIGMA_Z + cfg.g * SIGMA_X


def dressing_rotation(cfg: AtomDriveConfig) -> np.ndarray:
    """Unitary whose columns are the (upper, lower) dressed states in the
    bare basis, with a deterministic sign convention."""
    evals, evecs = np.linalg.eigh(rotating_frame_hamiltonian(cfg))
    order = np.argsort(evals)[::-1]     # upper first
    u = evecs[:, order]
    for k in range(2):
        col = u[:, k]
        lead = col[np.argmax(np.abs(col))]
        if lead.real < 0 or (lead.real == 0 and lead.imag < 0):
            u[:, k] = -col
    return u


@dataclass(frozen=True)
class HarmonicCoupling:
    bath: str
    harmonic: int           # q, multiplying the drive frequency
    dressed_freq: float     # wbar, the dressed-basis Bohr frequency
    operator: np.ndarray    # 2x2 in the dressed basis, prefactor included

    def effective_frequency(self, drive_freq: float) -> float:
        return self.dressed_freq + self.harmonic * drive_freq


@dataclass(frozen=True)
class HarmonicCouplingSet:
    drive_frequency: float
    rabi: float
    entries: tuple


def dressed_coupling_set(cfg: AtomDriveConfig) -> HarmonicCouplingSet:
    """The five coupling harmonics of the driven atom.

    Cold entries sit at effective frequencies nu - rabi, nu, nu + rabi;
    hot entries at 0 and rabi.  Configurations with rabi >= nu (lower
    sideband at negative frequency) are outside the model and rejected.
    """
    delta, rabi = cfg.detuning, cfg.rabi
    if rabi == 0.0:
        raise DomainError("degenerate config: g = detuning = 0 leaves the "
                          "coupling prefactors undefined")
    if cfg.nu <= rabi:
        raise DomainError(
            f"lower sideband frequency nu - rabi = {cfg.nu - rabi:.6g} <= 0; "
            "ultra-strong drive is outside this model"
        )
    if cfg.nu - rabi < 1e-3 * rabi:
        warnings.warn("nu - rabi nearly vanishes; Floquet channels are "
                      "almost degenerate", stacklevel=2)
    entries = (
        HarmonicCoupling(COLD, 1, -rabi, (delta - rabi) / (2 * rabi) * SIGMA_PLUS),
        HarmonicCoupling(COLD, 1, 0.0, (cfg.g / rabi) * SIGMA_Z),
        HarmonicCoupling(COLD, 1, +rabi, (delta + rabi) / (2 * rabi) * SIGMA_MINUS),
        HarmonicCoupling(HOT, 0, 0.0, (delta / rabi) * SIGMA_Z),
        HarmonicCoupling(HOT, 0, +rabi, -(2 * cfg.g / rabi) * SIGMA_MINUS),
    )
    return HarmonicCouplingSet(cfg.nu, rabi, entries)


@dataclass(frozen=True)
class LiouvillianComponent:
    coupling: HarmonicCoupling
    omega_eff: float
    rate_down: float        # G(omega_eff), multiplies D[S]
    rate_up: float          # G(-omega_eff), multiplies D[S+]
    matrix: np.ndarray      # 4x4 sub-generator


@dataclass(frozen=True)
class LiouvillianOperator:
    matrix: np.ndarray
    components: tuple
    drive_frequency: float
    rabi: float
    hot_temperature: float
    cold_temperature: float

    @property
    def dressed_hamiltonian(self) -> np.ndarray:
        return np.diag([0.5 * self.rabi, -0.5 * self.rabi]).astype(complex)

    def trace_defect(self) -> float:
        """Norm of the adjoint generator applied to the identity; zero for
        a trace-preserving generator."""
        return float(np.linalg.norm(self.matrix.conj().T @ vec(np.eye(2))))


def build_liouvillian(couplings: HarmonicCouplingSet, hot: BathSpectrum,
                      cold: BathSpectrum) -> LiouvillianOperator:
    """Assemble the generator: each harmonic contributes
    G(w_eff) D[S] + G(-w_eff) D[S+], kept separately for current bookkeeping."""
    components = []
    total = np.zeros((4, 4), dtype=complex)
    for entry in couplings.entries:
        spectrum = hot if entry.bath == HOT else cold
        w_eff = entry.effective_frequency(couplings.drive_frequency)
        rate_down = spectrum.value(w_eff)
        rate_up = spectrum.value(-w_eff)
        if not (math.isfinite(rate_down) and math.isfinite(rate_up)):
            raise DomainError(f"non-finite spectrum value at {w_eff:.6g}")
        if rate_down < 0 or rate_up < 0:
            raise DomainError(f"negative spectrum value at {w_eff:.6g}")
        mat = rate_down * dissipator(entry.operator) \
            + rate_up * dissipator(entry.operator.conj().T)
        components.append(LiouvillianComponent(entry, w_eff, rate_down, rate_up, mat))
        total = total + mat
    return LiouvillianOperator(total, tuple(components), couplings.drive_frequency,
                               couplings.rabi, hot.temperature, cold.temperature)


@dataclass(frozen=True)
class SteadyStateReport:
    rho: np.ndarray             # dressed basis
    residual: float             # ||L vec(rho)||
    populations: tuple          # (upper, lower)
    coherence: complex

    @property
    def rho_upper(self) -> float:
        return self.populations[0]

    @property
    def rho_lower(self) -> float:
        return self.populations[1]


def steady_state(liouv: LiouvillianOperator,
                 degeneracy_tol: float = 1e-6) -> SteadyStateReport:
    """Kernel of the 4x4 generator via SVD, hermitized and trace-normalized.

    Raises DegenerateSteadyStateError when the second-smallest singular
    value falls below degeneracy_tol times the generator norm.
    """
    try:
        _, s, vh = np.linalg.svd(liouv.matrix)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSteadyStateError(f"generator has no usable kernel: "
                                         f"{exc}") from exc
    norm = s[0]
    if norm == 0.0:
        raise DegenerateSteadyStateError("zero generator has no unique steady state")
    if s[-2] <= degeneracy_tol * norm:
        raise DegenerateSteadyStateError(
            f"Liouvillian kernel not one-dimensional (singular values "
            f"{s[-2]:.3e}, {s[-1]:.3e} vs norm {norm:.3e})"
        )
    candidate = unvec(vh[-1].conj())
    tr = np.trace(candidate)
    if abs(tr) < 1e-12:
        raise DegenerateSteadyStateError("steady-state candidate is traceless")
    rho = hermitize(candidate / tr)
    rho = rho / np.trace(rho).real
    residual = float(np.linalg.norm(liouv.matrix @ vec(rho)))
    return SteadyStateReport(
        rho=rho,
        residual=residual,
        populations=(rho[0, 0].real, rho[1, 1].real),
        coherence=complex(rho[0, 1]),
    )


def bare_populations(cfg: AtomDriveConfig, rho_dressed: np.ndarray) -> tuple[float, float]:
    """(rho_ee, rho_gg) in the bare atomic basis."""
    u = dressing_rotation(cfg)
    rho_bare = u @ rho_dressed @ u.conj().T
    return rho_bare[0, 0].real, rho_bare[1, 1].real


@dataclass(frozen=True)
class ChannelCurrent:
    bath: str
    harmonic: int
    dressed_freq: float
    omega_eff: float
    heat: float         # out of the bath, into atom + drive
    drive_power: float  # supplied by the laser through this channel


@dataclass(frozen=True)
class CurrentReport:
    j_hot: float
    j_cold: float
    p_abs: float                  # -(j_hot + j_cold), the defining identity
    p_abs_direct: float           # independent per-channel drive bookkeeping
    conservation_residual: float  # |p_abs_direct + j_hot + j_cold|
    channels: tuple
    stationary: bool


def heat_currents(liouv: LiouvillianOperator, rho: np.ndarray,
                  stationarity_tol: float = 1e-8) -> CurrentReport:
    """Per-bath heat currents and absorbed power at (or near) steady state.

    Currents are exact at the steady state; a non-stationary rho is flagged
    via ``stationary=False``.
    """
    h_dressed = liouv.dressed_hamiltonian
    drift = np.linalg.norm(liouv.matrix @ vec(rho))
    norm = np.linalg.norm(liouv.matrix)
    stationary = bool(drift <= stationarity_tol * max(norm, 1.0))
    if not stationary:
        warnings.warn("heat currents evaluated on a non-stationary state",
                      stacklevel=2)
    channels = []
    totals = {HOT: 0.0, COLD: 0.0}
    p_direct = 0.0
    for comp in liouv.components:
        entry = comp.coupling
        s = entry.operator
        sd = s.conj().T
        n_down = comp.rate_down * np.trace(rho @ sd @ s).real
        n_up = comp.rate_up * np.trace(rho @ s @ sd).real
        if entry.dressed_freq != 0.0:
            change = unvec(comp.matrix @ vec(rho))
            heat = (comp.omega_eff / entry.dressed_freq) \
                * np.trace(change @ h_dressed).real
        else:
            # quantum counting; zero for the static hot channel (w_eff = 0)
            heat = comp.omega_eff * (n_up - n_down)
        drive = entry.harmonic * liouv.drive_frequency * (n_down - n_up)
        totals[entry.bath] += heat
        p_direct += drive
        channels.append(ChannelCurrent(entry.bath, entry.harmonic,
                                       entry.dressed_freq, comp.omega_eff,
                                       heat, drive))
    j_hot, j_cold = totals[HOT], totals[COLD]
    residual = abs(p_direct + j_hot + j_cold)
    return CurrentReport(j_hot, j_cold, -(j_hot + j_cold), p_direct,
                         residual, tuple(channels), stationary)


def hot_channel_rate(cfg: AtomDriveConfig, hot: BathSpectrum) -> float:
    """Pumping rate of the dressed hot channel, (2g/rabi)^2 G_hot(rabi).

    Coincides with the weak-drive pumping rate to O((g/detuning)^2) and is
    the rate entering the exact closed-form current.
    """
    rabi = cfg.rabi
    if rabi == 0.0:
        raise DomainError("degenerate config: g = detuning = 0")
    return (2.0 * cfg.g / rabi) ** 2 * hot.value(rabi)


def sideband_weights(cfg: AtomDriveConfig) -> tuple[float, float]:
    """(delta_plus, delta_minus): cold-bath rates of the upper/lower dressed
    sidebands, ((rabi +/- detuning)/2 rabi)^2 (nu +/- rabi)^3 gamma / omega0^3."""
    delta, rabi = cfg.detuning, cfg.rabi
    if rabi == 0.0:
        raise DomainError("degenerate config: g = detuning = 0")
    nu_p, nu_m = cfg.nu + rabi, cfg.nu - rabi
    if nu_m <= 0:
        raise DomainError("lower sideband frequency nu - rabi <= 0")
    d_plus = ((rabi + delta) / (2 * rabi)) ** 2 * (nu_p / cfg.omega0) ** 3 * cfg.gamma
    d_minus = ((rabi - delta) / (2 * rabi)) ** 2 * (nu_m / cfg.omega0) ** 3 * cfg.gamma
    return d_plus, d_minus


def heat_current_exact(cfg: AtomDriveConfig, gamma_p: float, t_hot: float,
                       t_cold: float, n_atoms: float = 1.0) -> float:
    """Closed-form hot-bath current of the five-channel model.

    gamma_p is the hot-channel pumping rate; pass hot_channel_rate(...) for
    exact agreement with the numerical solver.  t_cold = 0 takes the vacuum
    limit of the cold Boltzmann factors exactly.
    """
    if gamma_p < 0:
        raise ValueError("gamma_p must be non-negative")
    if t_hot <= 0:
        raise ValueError("t_hot must be positive")
    if t_cold < 0:
        raise ValueError("t_cold must be non-negative")
    rabi = cfg.rabi
    d_plus, d_minus = sideband_weights(cfg)
    bw_hot = boltzmann_weight(rabi, t_hot)
    bw_p = boltzmann_weight(cfg.nu + rabi, t_cold)
    bw_m = boltzmann_weight(cfg.nu - rabi, t_cold)
    num = bw_hot * (d_plus + d_minus * bw_m) - (d_plus * bw_p + d_minus)
    den = d_minus * (1.0 + bw_m) + d_plus * (1.0 + bw_p) + (1.0 + bw_hot) * gamma_p
    return n_atoms * rabi * gamma_p * num / den


def transient_populations(cfg: AtomDriveConfig, gamma_p: float, t_hot: float,
                          rho_ee0: float, t: float) -> tuple[float, float]:
    """Closed-form relaxation of the excited population toward the rate-model
    fixed point, at rate gamma_p (1 + e^(-|detuning|/T)) + gamma."""
    if cfg.detuning == 0.0:
        raise DomainError("transient rate equations need nonzero detuning")
    if t < 0:
        raise ValueError("t must be non-negative")
    if not 0.0 <= rho_ee0 <= 1.0:
        raise ValueError("rho_ee0 must be a population")
    bw = boltzmann_weight(abs(cfg.detuning), t_hot)
    rate = gamma_p * (1.0 + bw) + cfg.gamma
    source = gamma_p * bw if cfg.detuning > 0 else gamma_p * bw + cfg.gamma
    ee_inf = source / rate
    ee = ee_inf + (rho_ee0 - ee_inf) * math.exp(-rate * t)
    return ee, 1.0 - ee


def solve_pipeline(cfg: AtomDriveConfig, hot: BathSpectrum, cold: BathSpectrum):
    """Convenience: build generator, solve, compute currents."""
    liouv = build_liouvillian(dressed_coupling_set(cfg), hot, cold)
    report = steady_state(liouv)
    currents = heat_currents(liouv, report.rho)
    return liouv, report, currents
