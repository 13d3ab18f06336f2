"""From single-atom currents to the laboratory cell.

The beam attenuates as exp(-alpha z) along the cell, the local coupling
scales as g^2(z) = g^2 exp(-alpha z), and the cell's cooling power and
absorbed power are attenuation-weighted integrals of the local per-atom
(J_hot, P_abs) times the linear atom density.  On the weak-drive branch
that integral is elementary and taken in closed form; exact-solver rows
integrate the closed-form dressed steady state (floquet.dressed_flows) by
adaptive quadrature.  The flat hot-spectrum
amplitude is calibrated so the modeled absorbed-power fraction reproduces
measured absorption data.

This module is the lab-facing boundary: cell geometry in mm, power in
watts, frequencies in THz, temperatures in kelvin.  Atom/drive configs it
consumes are in internal units as everywhere else.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import AtomDriveConfig
from .errors import CalibrationError, ConfigError, DomainError
from .floquet import dressed_flows
from .numerics import brentq, gauss_newton, integrate
from .rate_model import pumping_rate, regime_of, weak_flows
from .spectra import CubicColdSpectrum, FlatHotSpectrum, boltzmann_weight
from .units import (
    internal_to_thz,
    internal_to_watts,
    kelvin_to_internal,
    round12,
    thz_to_internal,
)

WEAK_DRIVE_SWITCH = 0.1     # rate model below g/|detuning| <= 0.1, exact solver above
QUAD_EPSREL = 1e-8          # relative tolerance of the exact-solver cell integral


@dataclass(frozen=True)
class CellConfig:
    """Cell geometry and operating point, in lab units."""

    length_mm: float
    absorption_coeff_per_mm: float
    linear_atom_density_per_mm: float
    laser_power_w: float
    bath_temperature_k: float

    def __post_init__(self):
        if self.length_mm <= 0:
            raise ValueError("length_mm must be positive")
        if self.absorption_coeff_per_mm < 0:
            raise ValueError("absorption coefficient must be non-negative")
        if self.linear_atom_density_per_mm < 0:
            raise ValueError("atom density must be non-negative")
        if self.laser_power_w <= 0:
            raise ValueError("laser power must be positive")
        if self.bath_temperature_k <= 0:
            raise ValueError("bath temperature must be positive")

    @property
    def total_absorption(self) -> float:
        """Beam fraction absorbed over the full cell, 1 - exp(-alpha L)."""
        return -math.expm1(-self.absorption_coeff_per_mm * self.length_mm)


@dataclass(frozen=True)
class AbsorptionDataset:
    """Measured photon absorption probability a(nu) on an increasing
    frequency grid (THz)."""

    nu_thz: tuple
    absorption: tuple
    metadata: tuple = ()

    def __post_init__(self):
        nu = np.asarray(self.nu_thz, dtype=float)
        a = np.asarray(self.absorption, dtype=float)
        if nu.size == 0 or nu.size != a.size:
            raise ConfigError("dataset needs matching nu/absorption columns")
        if not np.all(np.diff(nu) > 0):
            raise ConfigError("dataset frequencies must be strictly increasing")
        if np.any((a < 0) | (a > 1)):
            raise ConfigError("absorption probabilities must lie in [0, 1]")

    def covers(self, nu_thz: float) -> bool:
        return self.nu_thz[0] <= nu_thz <= self.nu_thz[-1]

    def absorption_at(self, nu_thz: float) -> float:
        """Linear interpolation, clamped to the endpoint values outside."""
        return float(np.interp(nu_thz, self.nu_thz, self.absorption))

    def alpha_at(self, nu_thz: float, length_mm: float) -> float:
        """Attenuation coefficient implied by a(nu) via 1 - exp(-alpha L)."""
        a = min(self.absorption_at(nu_thz), 1.0 - 1e-15)
        return -math.log1p(-a) / length_mm


def load_absorption_csv(path) -> AbsorptionDataset:
    """Read ``nu_thz,absorption`` rows; '#'-prefixed lines become metadata."""
    path = Path(path)
    nus, absorptions, meta = [], [], []
    with path.open(newline="") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                meta.append(line.lstrip("# ").rstrip())
                continue
            row = next(csv.reader([line]))
            if row[0].strip().lower() == "nu_thz":
                continue
            try:
                nus.append(float(row[0]))
                absorptions.append(float(row[1]))
            except (ValueError, IndexError) as exc:
                raise ConfigError(f"bad dataset row {line!r} in {path}") from exc
    return AbsorptionDataset(tuple(nus), tuple(absorptions), tuple(meta))


def experimental_heat_current(p_l_watt: float, a_nu: float, delta: float,
                              nu: float) -> float:
    """Measured-absorption estimate P_L a(nu) detuning/nu, in watts; signed
    (negative for blue detuning).  detuning and nu in any common unit."""
    if not 0.0 <= a_nu <= 1.0:
        raise ValueError("absorption probability must lie in [0, 1]")
    if nu <= 0:
        raise ValueError("nu must be positive")
    return p_l_watt * a_nu * delta / nu


# ---------------------------------------------------------------------------
# Local per-atom currents and their integral over the cell
# ---------------------------------------------------------------------------


def _local_flows(cfg_local: AtomDriveConfig, hot: FlatHotSpectrum,
                 t_cold: float) -> tuple[float, float]:
    """Exact-solver (J_hot, P_abs) per atom at one depth of the cell, from
    the closed-form five-channel steady state."""
    cold = CubicColdSpectrum(cfg_local.gamma, cfg_local.omega0, t_cold)
    flows = dressed_flows(cfg_local, hot, cold)
    return flows.j_hot, flows.p_abs


def pick_solver(cfg: AtomDriveConfig) -> str:
    """'rate' in the weak-drive regime g/|detuning| <= 0.1, 'floquet' else."""
    delta = abs(cfg.detuning)
    if delta > 0.0 and cfg.g <= WEAK_DRIVE_SWITCH * delta:
        return "rate"
    return "floquet"


def _integrate_over_cell(cell: CellConfig, alpha_per_mm: float, local_fn) -> float:
    """(N_a/L) integral of exp(-alpha z) local_fn(attenuation(z)) dz, where
    local_fn returns an internal per-atom power; result in watts.

    Raises DomainError when the error estimate misses QUAD_EPSREL."""
    length = cell.length_mm

    def integrand(z: float) -> float:
        att = math.exp(-alpha_per_mm * z)
        return att * local_fn(att)

    value, err = integrate(integrand, 0.0, length, QUAD_EPSREL)
    if not err <= QUAD_EPSREL * abs(value):
        raise DomainError(f"cell integral did not converge: error estimate "
                          f"{err:.3g} against value {value:.6g}")
    return internal_to_watts(cell.linear_atom_density_per_mm * value)


def _x_minus_log1p_over_x2(x: float) -> float:
    """(x - log1p(x)) / x^2 for x >= 0, free of cancellation: below 1e-2
    the direct form would lose digits, and the Taylor series, cut after
    x^7, is exact to rounding there."""
    if x < 1e-2:
        return 0.5 - x * (1 / 3 - x * (1 / 4 - x * (1 / 5 - x * (
            1 / 6 - x * (1 / 7 - x * (1 / 8 - x / 9))))))
    return (x - math.log1p(x)) / (x * x)


def _weak_cell_flows(cfg_row: AtomDriveConfig, hot: FlatHotSpectrum,
                     cell: CellConfig, alpha_per_mm: float) -> tuple[float, float]:
    """Cell (J_hot, P_abs) in watts on the weak-drive branch, in closed form.

    The pumping rate follows the beam, gamma_p(u) = u gamma_p(1) at the
    attenuation u = exp(-alpha z), so weak_flows gives
    P(u) = P(1) u (B + C) / (B + C u), with B = gamma and
    C = (1 + b) gamma_p(1), and J(u) / P(u) = detuning / nu.  The cell
    integral of u P(u) dz is then elementary,

        P(1) (B + C) D / (alpha E) [B D h(x) / E + u_L],

    with D = -expm1(-alpha L), u_L = 1 - D, E = B + C u_L, x = C D / E and
    h(x) = (x - log1p x) / x^2; both bracketed terms are positive.  It is
    L P(1) without attenuation and reaches _saturated_absorption's cap as
    C -> infinity.  The weak-drive check runs at full beam, the strictest
    depth (g sqrt(u) <= g).
    """
    gamma_p = pumping_rate(cfg_row, hot)
    j_1, p_1 = weak_flows(cfg_row, gamma_p, hot.temperature)
    d = -math.expm1(-alpha_per_mm * cell.length_mm)
    if d == 0.0:
        weight = cell.length_mm
    else:
        b = boltzmann_weight(abs(cfg_row.detuning), hot.temperature)
        big_b, big_c = cfg_row.gamma, (1.0 + b) * gamma_p
        u_l = 1.0 - d
        e = big_b + big_c * u_l
        weight = ((big_b + big_c) * d / (alpha_per_mm * e)
                  * (big_b * d * _x_minus_log1p_over_x2(big_c * d / e) / e + u_l))
    atoms = cell.linear_atom_density_per_mm * weight
    j_w, p_w = internal_to_watts(atoms * j_1), internal_to_watts(atoms * p_1)
    if not (math.isfinite(j_w) and math.isfinite(p_w)):
        raise DomainError("weak-drive cell integral is not finite for these "
                          "parameters")
    return j_w, p_w


# ---------------------------------------------------------------------------
# Calibration of the flat hot-spectrum amplitude
# ---------------------------------------------------------------------------


def _modeled_absorption(cfg: AtomDriveConfig, cell: CellConfig, g0: float,
                        alpha_per_mm: float) -> float:
    """Absorbed-power fraction of the cell predicted by the weak-drive model
    with a flat hot spectrum of amplitude g0."""
    if g0 <= 0:
        return 0.0
    hot = FlatHotSpectrum(g0, kelvin_to_internal(cell.bath_temperature_k))
    return _weak_cell_flows(cfg, hot, cell, alpha_per_mm)[1] / cell.laser_power_w


def _saturated_absorption(cfg: AtomDriveConfig, cell: CellConfig,
                          alpha_per_mm: float) -> float:
    """Fraction reached as g0 -> infinity (pumping saturates everywhere)."""
    t_hot = kelvin_to_internal(cell.bath_temperature_k)
    bw = boltzmann_weight(abs(cfg.detuning), t_hot)
    cap = cfg.nu * cfg.gamma * (bw if cfg.detuning > 0 else 1.0) / (1.0 + bw)
    # integral of exp(-alpha z) over the cell
    weight = (-math.expm1(-alpha_per_mm * cell.length_mm) / alpha_per_mm
              if alpha_per_mm > 0 else cell.length_mm)
    return internal_to_watts(cell.linear_atom_density_per_mm * weight * cap) \
        / cell.laser_power_w


@dataclass(frozen=True)
class CalibrationResult:
    g0: float               # internal rate units
    residual_rms: float     # rms absorption misfit over the rows used
    rows_used: tuple        # (nu_thz, measured absorption) pairs


def _row_root(cfg_row: AtomDriveConfig, cell: CellConfig, alpha: float,
              target: float, g0_seed: float) -> float:
    cap = _saturated_absorption(cfg_row, cell, alpha)
    if target >= cap:
        raise CalibrationError(
            f"absorption {target:.4g} exceeds the saturated model bound "
            f"{cap:.4g}; no spectrum amplitude can reach it"
        )
    hi = g0_seed
    for _ in range(400):
        if _modeled_absorption(cfg_row, cell, hi, alpha) > target:
            break
        hi *= 2.0
    else:
        raise CalibrationError("failed to bracket the calibration root")
    return brentq(
        lambda g0: _modeled_absorption(cfg_row, cell, g0, alpha) - target,
        0.0, hi, xtol=1e-300, rtol=1e-14, error=CalibrationError,
    )


def calibrate_g0(dataset: AbsorptionDataset, cfg_template: AtomDriveConfig,
                 cell: CellConfig, reference_nu_thz: float | None = None,
                 min_absorption: float = 1e-6) -> CalibrationResult:
    """Fit the flat hot-spectrum amplitude to measured absorption.

    With ``reference_nu_thz`` the single nearest row is matched exactly;
    otherwise all rows with usable absorption enter an equally weighted
    least-squares fit.  The attenuation profile per row is taken from the
    measured absorption itself.
    """
    rows = []
    for nu_thz, a in zip(dataset.nu_thz, dataset.absorption):
        delta = cfg_template.omega0 - thz_to_internal(nu_thz)
        # calibration runs through the weak-drive model; rows too close to
        # resonance for it are left out
        if a < min_absorption or delta == 0.0 or cfg_template.g >= abs(delta):
            continue
        rows.append((nu_thz, a))
    if not rows:
        raise CalibrationError("no usable rows: absorption is ~0 everywhere "
                               "or all rows sit at/near resonance")
    if reference_nu_thz is not None:
        nearest = min(rows, key=lambda r: abs(r[0] - reference_nu_thz))
        rows = [nearest]

    per_row = []
    for nu_thz, a in rows:
        cfg_row = cfg_template.with_laser_frequency(thz_to_internal(nu_thz))
        alpha = dataset.alpha_at(nu_thz, cell.length_mm)
        per_row.append(_row_root(cfg_row, cell, alpha, a, cfg_template.gamma))

    if len(rows) == 1:
        g0 = per_row[0]
        resid = abs(_modeled_absorption(
            cfg_template.with_laser_frequency(thz_to_internal(rows[0][0])),
            cell, g0, dataset.alpha_at(rows[0][0], cell.length_mm)) - rows[0][1])
        return CalibrationResult(g0, resid, tuple(rows))

    def residuals(x):
        g0 = math.exp(x)
        out = []
        for nu_thz, a in rows:
            cfg_row = cfg_template.with_laser_frequency(thz_to_internal(nu_thz))
            alpha = dataset.alpha_at(nu_thz, cell.length_mm)
            out.append(_modeled_absorption(cfg_row, cell, g0, alpha) - a)
        return out

    # each residual rises with g0 and vanishes at its row's root, so the
    # least-squares g0 lies between the smallest and the largest root
    logs = [math.log(g0) for g0 in per_row]
    x, fun = gauss_newton(residuals, math.fsum(logs) / len(logs), min(logs),
                          max(logs), error=CalibrationError)
    resid = math.sqrt(math.fsum(r * r for r in fun) / len(fun))
    return CalibrationResult(math.exp(x), resid, tuple(rows))


def synthesize_absorption(cfg_template: AtomDriveConfig, cell: CellConfig,
                          g0: float, nus_thz) -> AbsorptionDataset:
    """Self-consistent absorption a(nu) predicted by the model itself:
    a solves a = fraction(alpha(a)).  Round-trips exactly through
    calibrate_g0."""
    if g0 <= 0:
        raise ValueError("g0 must be positive")
    values = []
    for nu_thz in nus_thz:
        nu = thz_to_internal(nu_thz)
        delta = cfg_template.omega0 - nu
        if delta == 0.0 or cfg_template.g >= abs(delta):
            raise ValueError("synthesis rows must stay in the weak-drive "
                             "regime (g < |detuning|)")
        cfg_row = cfg_template.with_laser_frequency(nu)

        def gap(a):
            alpha = -math.log1p(-a) / cell.length_mm
            return _modeled_absorption(cfg_row, cell, g0, alpha) - a

        if gap(0.0) <= 0.0:
            values.append(0.0)
            continue
        values.append(brentq(gap, 0.0, 1.0 - 1e-12, xtol=1e-300, rtol=1e-14))
    return AbsorptionDataset(tuple(float(n) for n in nus_thz), tuple(values),
                             ("synthetic: self-consistent model absorption",))


# ---------------------------------------------------------------------------
# Detuning scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    delta_thz: float
    j_hot_watt: float
    j_hot_exp_watt: float | None
    p_abs_watt: float
    eta: float
    regime: str
    model: str


@dataclass(frozen=True)
class ScanResult:
    rows: tuple
    metadata: dict


def _scan_row(args) -> ScanRow:
    cell, cfg_template, g0, delta_thz, dataset, t_cold = args
    delta = thz_to_internal(delta_thz)
    nu = cfg_template.omega0 - delta
    if nu <= 0:
        raise ConfigError(f"detuning {delta_thz} THz puts the laser frequency "
                          "at or below zero")
    cfg_row = cfg_template.with_laser_frequency(nu)
    nu_thz = internal_to_thz(nu)
    t_hot = kelvin_to_internal(cell.bath_temperature_k)
    hot = FlatHotSpectrum(g0, t_hot)

    if dataset is not None:
        alpha = dataset.alpha_at(nu_thz, cell.length_mm)
    else:
        alpha = cell.absorption_coeff_per_mm

    regime = regime_of(cfg_row)
    if cfg_row.g == 0.0:
        return ScanRow(delta_thz, 0.0, _experimental(cell, dataset, delta, nu),
                       0.0, 0.0, regime, "none")
    solver = pick_solver(cfg_row)
    if solver == "rate":
        j_tot, p_abs = _weak_cell_flows(cfg_row, hot, cell, alpha)
    else:
        # the local coupling follows the attenuated beam, g^2(z) = g^2 e^(-alpha z);
        # both integrals visit the same depths, so each depth is solved once
        flows = functools.cache(
            lambda att: _local_flows(cfg_row.attenuated(att), hot, t_cold))
        j_tot = _integrate_over_cell(cell, alpha, lambda att: flows(att)[0])
        p_abs = _integrate_over_cell(cell, alpha, lambda att: flows(att)[1])
    eta = j_tot / cell.laser_power_w
    return ScanRow(delta_thz, j_tot, _experimental(cell, dataset, delta, nu),
                   p_abs, eta, regime, solver)


def _experimental(cell: CellConfig, dataset, delta: float, nu: float):
    if dataset is None:
        return None
    nu_thz = internal_to_thz(nu)
    if not dataset.covers(nu_thz):
        return None
    return experimental_heat_current(cell.laser_power_w,
                                     dataset.absorption_at(nu_thz), delta, nu)


def detuning_scan(cell: CellConfig, cfg_template: AtomDriveConfig, g0: float,
                  deltas_thz, dataset: AbsorptionDataset | None = None,
                  t_cold: float = 0.0, jobs: int = 1) -> ScanResult:
    """Sweep the detuning grid (THz); rows come back in grid order.

    g0 is the calibrated (or prescribed) flat hot-spectrum amplitude in
    internal units; the weak-drive/exact solver switch is recorded per row.
    ``jobs`` worker processes share the rows; it must be at least 1 and is
    capped at the CPU count.
    """
    deltas_thz = list(deltas_thz)
    if not deltas_thz:
        raise ConfigError("empty detuning grid")
    if g0 <= 0:
        raise ValueError("g0 must be positive")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    jobs = min(jobs, os.cpu_count() or 1)
    payloads = [(cell, cfg_template, g0, float(d), dataset, t_cold)
                for d in deltas_thz]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_scan_row, payloads))
    else:
        rows = [_scan_row(p) for p in payloads]
    metadata = {
        "g0_internal": g0,
        "g0_thz": internal_to_thz(g0),
        "cell": {
            "length_mm": cell.length_mm,
            "absorption_coeff_per_mm": cell.absorption_coeff_per_mm,
            "linear_atom_density_per_mm": cell.linear_atom_density_per_mm,
            "laser_power_w": cell.laser_power_w,
            "bath_temperature_k": cell.bath_temperature_k,
        },
        "t_cold_internal": t_cold,
        "units": "delta in THz (ordinary); powers in watts; "
                 "g0 internal = rad/s",
        "dataset_rows": 0 if dataset is None else len(dataset.nu_thz),
    }
    return ScanResult(tuple(rows), metadata)


# ---------------------------------------------------------------------------
# Scan serialization
# ---------------------------------------------------------------------------

SCAN_CSV_HEADER = "delta_thz,j_hot_watt,j_hot_exp_watt,p_abs_watt,eta,regime,model"


def write_scan_csv(result: ScanResult, path) -> None:
    lines = [SCAN_CSV_HEADER]
    for r in result.rows:
        exp = "" if r.j_hot_exp_watt is None else f"{r.j_hot_exp_watt:.12g}"
        lines.append(f"{r.delta_thz:.12g},{r.j_hot_watt:.12g},{exp},"
                     f"{r.p_abs_watt:.12g},{r.eta:.12g},{r.regime},{r.model}")
    Path(path).write_text("\n".join(lines) + "\n")


def scan_records(result: ScanResult) -> list[dict]:
    return [
        {
            "delta_thz": round12(r.delta_thz),
            "j_hot_watt": round12(r.j_hot_watt),
            "j_hot_exp_watt": None if r.j_hot_exp_watt is None
            else round12(r.j_hot_exp_watt),
            "p_abs_watt": round12(r.p_abs_watt),
            "eta": round12(r.eta),
            "regime": r.regime,
            "model": r.model,
        }
        for r in result.rows
    ]
