"""From single-atom currents to the laboratory cell.

The beam attenuates as exp(-alpha z) along the cell, the local coupling
scales as g^2(z) = g^2 exp(-alpha z), and the cell's cooling power and
absorbed power are attenuation-weighted integrals of the local per-atom
(J_hot, P_abs) times the linear atom density.  On the weak-drive branch
that integral is elementary: one _weak_cell_kernel per row takes the rate
balance once and the closed form at each amplitude g0.  Exact-solver rows
integrate the closed-form dressed steady state by adaptive quadrature,
through one floquet.beam_flows kernel per row that solves each depth from
the local coupling alone.  The flat hot-spectrum amplitude is calibrated
so the modeled absorbed-power fraction reproduces measured absorption data.

Photon budget: a row can absorb at most what the beam loses in the cell,
P_L (1 - exp(-alpha L)) with the row's own alpha.  The measured attenuation
profile does not enforce it, so detuning_scan counts the rows over it and
reports them in one UserWarning.

This module is the lab-facing boundary: cell geometry in mm, power in
watts, frequencies in THz, temperatures in kelvin.  Atom/drive configs it
consumes are in internal units as everywhere else.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from pathlib import Path
from typing import NamedTuple

from .config import AtomDriveConfig, Record, _set
from .errors import CalibrationError, ConfigError, DomainError
from .floquet import beam_flows
from .numerics import brentq, gauss_newton, integrate, interp
from .rate_model import (_flows, check_weak_drive, regime_of, weak_balance,
                         weak_drive_defect)
from .spectra import CubicColdSpectrum, FlatHotSpectrum, read_two_columns
from .units import (
    internal_to_thz,
    internal_to_watts,
    kelvin_to_internal,
    round12,
    thz_to_internal,
)

WEAK_DRIVE_SWITCH = 0.1     # rate model below g/|detuning| <= 0.1, exact solver above
QUAD_EPSREL = 1e-8          # relative tolerance of the exact-solver cell integral
MIN_ABSORPTION = 1e-6       # calibration leaves out rows that absorb less
BEAM_CUTOFF = 1022 * math.log(2.0)   # alpha z past which exp(-alpha z) is subnormal


class CellConfig(Record):
    """Cell geometry and operating point, in lab units."""

    __slots__ = ("length_mm", "absorption_coeff_per_mm",
                 "linear_atom_density_per_mm", "laser_power_w",
                 "bath_temperature_k")

    def __init__(self, length_mm: float, absorption_coeff_per_mm: float,
                 linear_atom_density_per_mm: float, laser_power_w: float,
                 bath_temperature_k: float):
        if length_mm <= 0:
            raise ValueError("length_mm must be positive")
        if absorption_coeff_per_mm < 0:
            raise ValueError("absorption coefficient must be non-negative")
        if linear_atom_density_per_mm < 0:
            raise ValueError("atom density must be non-negative")
        if laser_power_w <= 0:
            raise ValueError("laser power must be positive")
        if bath_temperature_k <= 0:
            raise ValueError("bath temperature must be positive")
        _set(self, "length_mm", length_mm)
        _set(self, "absorption_coeff_per_mm", absorption_coeff_per_mm)
        _set(self, "linear_atom_density_per_mm", linear_atom_density_per_mm)
        _set(self, "laser_power_w", laser_power_w)
        _set(self, "bath_temperature_k", bath_temperature_k)


class AbsorptionDataset(Record):
    """Measured photon absorption probability a(nu) on an increasing
    frequency grid (THz)."""

    __slots__ = ("nu_thz", "absorption")

    def __init__(self, nu_thz: tuple, absorption: tuple):
        nu, a = nu_thz, absorption
        if len(nu) == 0 or len(nu) != len(a):
            raise ConfigError("dataset needs matching nu/absorption columns")
        if not all(math.isfinite(x) for x in nu):
            raise ConfigError("dataset frequencies must be finite numbers")
        if not all(lo < hi for lo, hi in zip(nu, nu[1:])):
            raise ConfigError("dataset frequencies must be strictly increasing")
        # written so that a NaN fails it too
        if not all(0.0 <= x <= 1.0 for x in a):
            raise ConfigError("absorption probabilities must lie in [0, 1]")
        _set(self, "nu_thz", nu_thz)
        _set(self, "absorption", absorption)

    def covers(self, nu_thz: float) -> bool:
        return self.nu_thz[0] <= nu_thz <= self.nu_thz[-1]

    def absorption_at(self, nu_thz: float) -> float:
        """Linear interpolation, clamped to the endpoint values outside."""
        return interp(nu_thz, self.nu_thz, self.absorption)

    def alpha_at(self, nu_thz: float, length_mm: float) -> float:
        """Attenuation coefficient implied by a(nu) via 1 - exp(-alpha L)."""
        return _alpha_of_absorption(self.absorption_at(nu_thz), length_mm)


def _alpha_of_absorption(a: float, length_mm: float) -> float:
    """alpha with 1 - exp(-alpha L) = a, kept finite as a -> 1; a
    DomainError where a subnormal length overflows it."""
    alpha = -math.log1p(-min(a, 1.0 - 1e-15)) / length_mm
    if not math.isfinite(alpha):
        raise DomainError(f"attenuation coefficient overflows: absorption "
                          f"{a:.4g} over a cell of {length_mm:.4g} mm")
    return alpha


def load_absorption_csv(path) -> AbsorptionDataset:
    """Read ``nu_thz,absorption`` rows (see spectra.read_two_columns)."""
    nus, absorptions = read_two_columns(path, "nu_thz")
    return AbsorptionDataset(tuple(nus), tuple(absorptions))


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


def pick_solver(cfg: AtomDriveConfig) -> str:
    """'rate' in the weak-drive regime g/|detuning| <= 0.1, 'floquet' else."""
    delta = abs(cfg.detuning)
    if delta > 0.0 and cfg.g <= WEAK_DRIVE_SWITCH * delta:
        return "rate"
    return "floquet"


def _integrate_over_cell(cell: CellConfig, alpha_per_mm: float,
                         local) -> tuple[float, float]:
    """(N_a/L) integrals of exp(-alpha z) J_hot and exp(-alpha z) P_abs,
    where local(attenuation(z)) returns the internal per-atom pair
    (J_hot, P_abs); results in watts.

    The P_abs pass reads the values the J_hot pass stored at its depths
    and calls local only at depths that pass never visited, where the two
    bisections part.  Past the depth BEAM_CUTOFF / alpha the beam is
    subnormal, then zero, as is the coupling; an optically thick cell is
    integrated to there only.

    Raises DomainError when either error estimate misses QUAD_EPSREL."""
    depth = cell.length_mm
    if alpha_per_mm * depth > BEAM_CUTOFF:
        depth = BEAM_CUTOFF / alpha_per_mm
    p_at = {}     # depth -> exp(-alpha z) P_abs, from the J_hot pass

    def j_integrand(z: float) -> float:
        att = math.exp(-alpha_per_mm * z)
        j_hot, p_abs = local(att)
        p_at[z] = att * p_abs
        return att * j_hot

    def p_integrand(z: float) -> float:
        stored = p_at.get(z)
        if stored is not None:
            return stored
        att = math.exp(-alpha_per_mm * z)
        return att * local(att)[1]

    totals = []
    for integrand in (j_integrand, p_integrand):
        value, err = integrate(integrand, 0.0, depth, QUAD_EPSREL)
        if not err <= QUAD_EPSREL * abs(value):
            raise DomainError(f"cell integral did not converge: error "
                              f"estimate {err:.3g} against value {value:.6g}")
        totals.append(internal_to_watts(cell.linear_atom_density_per_mm * value))
    return tuple(totals)


def _x_minus_log1p_over_x2(x: float) -> float:
    """(x - log1p(x)) / x^2 for x >= 0, free of cancellation: below 1e-2
    the direct form would lose digits, and the Taylor series, cut after
    x^7, is exact to rounding there."""
    if x < 1e-2:
        return 0.5 - x * (1 / 3 - x * (1 / 4 - x * (1 / 5 - x * (
            1 / 6 - x * (1 / 7 - x * (1 / 8 - x / 9))))))
    return (x - math.log1p(x)) / (x * x)


def _log1p_minus_x_over_1px_over_x2(x: float) -> float:
    """(log1p(x) - x/(1 + x)) / x^2 for x >= 0, free of cancellation in
    the same way: below 1e-2 the series sum (-1)^n (n+1)/(n+2) x^n, cut
    after x^8, is exact to rounding."""
    if x < 1e-2:
        return 1 / 2 - x * (2 / 3 - x * (3 / 4 - x * (4 / 5 - x * (
            5 / 6 - x * (6 / 7 - x * (7 / 8 - x * (8 / 9 - x * 9 / 10)))))))
    return (math.log1p(x) - x / (1.0 + x)) / (x * x)


def _weak_cell_kernel(cfg_row: AtomDriveConfig, cell: CellConfig, t_hot: float):
    """The row's weak-drive cell (J_hot, P_abs) in closed form, as the kernel
    (g0, alpha_per_mm) -> watts for the flat hot spectrum of amplitude g0,
    and the internal per-atom P_abs as g0 -> infinity, nu B w / (1 + b).

    The pumping rate follows the beam, gamma_p(u) = u gamma_p(1) at the
    attenuation u = exp(-alpha z), so weak_flows gives
    P(u) = P(1) u (B + C) / (B + C u), with weak_balance's B = gamma and
    C = (1 + b) gamma_p(1), and J(u) / P(u) = detuning / nu.  The cell
    integral of u P(u) dz is then elementary,

        P(1) (B + C) D / (alpha E) [B D h(x) / E + u_L],

    with D = -expm1(-alpha L), u_L = 1 - D, E = B + C u_L, x = C D / E and
    h(x) = (x - log1p x) / x^2; both bracketed terms are positive.  It is
    L P(1) without attenuation and D / alpha times the saturated P(1) as
    C -> infinity.  Built once per row: the weak-drive check at full beam,
    the strictest depth (g sqrt(u) <= g), the balance per unit pumping, and
    (2g/detuning)^2, so gamma_p(1) = (2g/detuning)^2 g0 has pumping_rate's
    bits (a flat spectrum's value at |detuning| is g0).

    The slope of the cell's P_abs in ln g0 is gamma_p d/dgamma_p of the
    same integral, nu B^2 w gamma_p times the integral of u^2 / (B + C u)^2
    dz, which is elementary too,

        nu B^2 w gamma_p / alpha [(D/E)^2 k(x) + D u_L / (E^2 (1 + x))],

    with k(x) = (log1p x - x / (1 + x)) / x^2, and L / (B + C)^2 in place
    of the integral without attenuation.  Only a call with slope=True
    takes it, and returns it after (J_hot, P_abs), in watts.
    """
    delta, nu = check_weak_drive(cfg_row), cfg_row.nu
    coupling = (2.0 * cfg_row.g / delta) ** 2
    w, big_b, c_per_pumping = weak_balance(cfg_row, 1.0, t_hot)
    length, density = cell.length_mm, cell.linear_atom_density_per_mm

    def flows(g0: float, alpha_per_mm: float, slope: bool = False) -> tuple:
        gamma_p = coupling * g0
        big_c = c_per_pumping * gamma_p
        j_1, p_1 = _flows(delta, nu, gamma_p, w, big_b, big_c)
        d = -math.expm1(-alpha_per_mm * length)
        if d == 0.0:
            weight = length
        else:
            u_l = 1.0 - d
            e = big_b + big_c * u_l
            x = big_c * d / e
            weight = ((big_b + big_c) * d / (alpha_per_mm * e)
                      * (big_b * d * _x_minus_log1p_over_x2(x) / e + u_l))
        atoms = density * weight
        j_w, p_w = internal_to_watts(atoms * j_1), internal_to_watts(atoms * p_1)
        if not (math.isfinite(j_w) and math.isfinite(p_w)):
            raise DomainError("weak-drive cell integral is not finite for these "
                              "parameters")
        if not slope:
            return j_w, p_w
        if d == 0.0:
            slope_weight = length / (big_b + big_c) ** 2
        else:
            d_e = d / e
            slope_weight = (d_e * d_e * _log1p_minus_x_over_1px_over_x2(x)
                            + d * u_l / (e * e * (1.0 + x))) / alpha_per_mm
        return j_w, p_w, internal_to_watts(
            density * nu * big_b * big_b * w * gamma_p * slope_weight)

    return flows, nu * big_b * w / c_per_pumping


# ---------------------------------------------------------------------------
# Calibration of the flat hot-spectrum amplitude
# ---------------------------------------------------------------------------


class CalibrationResult(NamedTuple):
    g0: float               # internal rate units
    residual_rms: float     # rms absorption misfit over the rows used
    rows_used: tuple        # (nu_thz, measured absorption) pairs


def calibrate_g0(dataset: AbsorptionDataset, cfg_template: AtomDriveConfig,
                 cell: CellConfig,
                 reference_nu_thz: float | None = None) -> CalibrationResult:
    """Fit the flat hot-spectrum amplitude to measured absorption.

    With ``reference_nu_thz`` the single nearest row is matched exactly;
    otherwise all rows with usable absorption enter an equally weighted
    least-squares fit.  The attenuation profile per row is taken from the
    measured absorption itself.  One root, the first row's, starts the fit
    in ln g0; a single row's fit stays on that root.  A reference outside
    the dataset's frequency span is a ConfigError.
    """
    if reference_nu_thz is not None and not dataset.covers(reference_nu_thz):
        raise ConfigError(
            f"reference_nu_thz {reference_nu_thz} THz lies outside the "
            f"dataset's span {dataset.nu_thz[0]}-{dataset.nu_thz[-1]} THz")
    rows = []    # (nu_thz, a, nu)
    for nu_thz, a in zip(dataset.nu_thz, dataset.absorption):
        nu = thz_to_internal(nu_thz)
        # calibration runs through the weak-drive model; rows too close to
        # resonance for it are left out
        if (a < MIN_ABSORPTION or weak_drive_defect(
                cfg_template.g, cfg_template.omega0 - nu) is not None):
            continue
        rows.append((nu_thz, a, nu))
    if not rows:
        raise CalibrationError("no usable rows: absorption is ~0 everywhere "
                               "or all rows sit at/near resonance")
    if reference_nu_thz is not None:
        nearest = min(rows, key=lambda r: abs(r[0] - reference_nu_thz))
        rows = [nearest]

    # each row's kernel and attenuation, shared by the root and the fit; a
    # row's attenuation comes from its own absorption, the dataset's value
    # at its node
    t_hot, p_l = kelvin_to_internal(cell.bath_temperature_k), cell.laser_power_w
    fits = []
    for _, a, nu in rows:
        cfg_row = cfg_template.with_laser_frequency(nu)
        alpha = _alpha_of_absorption(a, cell.length_mm)
        kernel, p_saturated = _weak_cell_kernel(cfg_row, cell, t_hot)
        # the g0 -> infinity bound, over int exp(-alpha z) dz (alpha > 0 here)
        weight = -math.expm1(-alpha * cell.length_mm) / alpha
        cap = internal_to_watts(cell.linear_atom_density_per_mm * weight
                                * p_saturated) / p_l
        if a >= cap:
            raise CalibrationError(
                f"absorption {a:.4g} exceeds the saturated model bound "
                f"{cap:.4g}; no spectrum amplitude can reach it"
            )
        fits.append((kernel, alpha, a))

    kernel, alpha, a = fits[0]
    hi = cfg_template.gamma
    for _ in range(400):
        if kernel(hi, alpha)[1] / p_l > a:
            break
        hi *= 2.0
    else:
        raise CalibrationError("failed to bracket the calibration root")
    # no amplitude, no absorption: the bracket starts at g0 = 0
    g_start = brentq(lambda g0: (kernel(g0, alpha)[1] / p_l if g0 > 0 else 0.0) - a,
                     0.0, hi, xtol=1e-300, rtol=1e-14, error=CalibrationError)
    if g_start == 0.0:
        raise CalibrationError(
            f"the model absorbs more than {a:.4g} at every amplitude g0 > 0")
    x_start = math.log(g_start)

    def residuals_and_slopes(x):
        g0 = g_start * math.exp(x - x_start)
        r, s = [], []
        for kernel, alpha, a in fits:
            _, p, slope = kernel(g0, alpha, True)
            r.append(p / p_l - a)
            s.append(slope / p_l)
        return r, s

    x, fun = gauss_newton(residuals_and_slopes, x_start, error=CalibrationError)
    resid = math.sqrt(math.fsum(r * r for r in fun) / len(fun))
    return CalibrationResult(g_start * math.exp(x - x_start), resid,
                             tuple((nu_thz, a) for nu_thz, a, _ in rows))


def synthesize_absorption(cfg_template: AtomDriveConfig, cell: CellConfig,
                          g0: float, nus_thz) -> AbsorptionDataset:
    """Self-consistent absorption a(nu) predicted by the model itself:
    a solves a = fraction(alpha(a)).  Round-trips exactly through
    calibrate_g0.  DomainError where no a < 1 solves it (over the photon budget)."""
    if g0 <= 0:
        raise ValueError("g0 must be positive")
    t_hot = kelvin_to_internal(cell.bath_temperature_k)
    values = []
    for nu_thz in nus_thz:
        nu = thz_to_internal(nu_thz)
        delta = cfg_template.omega0 - nu
        if weak_drive_defect(cfg_template.g, delta) is not None:
            raise ValueError("synthesis rows must stay in the weak-drive "
                             "regime (g < |detuning|)")
        kernel, _ = _weak_cell_kernel(cfg_template.with_laser_frequency(nu),
                                      cell, t_hot)

        @functools.cache
        def gap(a):
            alpha = _alpha_of_absorption(a, cell.length_mm)
            return kernel(g0, alpha)[1] / cell.laser_power_w - a

        if gap(0.0) <= 0.0:
            values.append(0.0)
            continue
        if gap(1.0 - 1e-12) > 0.0:
            raise DomainError(
                f"no self-consistent absorption at {nu_thz!r} THz: the model "
                "absorbs more than the beam delivers at every a < 1")
        values.append(brentq(gap, 0.0, 1.0 - 1e-12, xtol=1e-300, rtol=1e-14))
    return AbsorptionDataset(tuple(float(n) for n in nus_thz), tuple(values))


# ---------------------------------------------------------------------------
# Detuning scans
# ---------------------------------------------------------------------------


class ScanRow(NamedTuple):
    delta_thz: float
    j_hot_watt: float
    j_hot_exp_watt: float | None
    p_abs_watt: float
    eta: float
    regime: str
    model: str


class ScanResult(NamedTuple):
    rows: tuple
    metadata: dict


def _scan_row(cell: CellConfig, cfg_template: AtomDriveConfig,
              hot: FlatHotSpectrum, dataset: AbsorptionDataset | None,
              t_cold: float, delta_thz: float) -> tuple[ScanRow, bool]:
    """One scan row, and whether it absorbs more than the beam loses in the
    cell, P_L (1 - exp(-alpha L)) with the row's own alpha, beyond 1e-9
    relative."""
    delta = thz_to_internal(delta_thz)
    nu = cfg_template.omega0 - delta
    if nu <= 0:
        raise ConfigError(f"detuning {delta_thz} THz puts the laser frequency "
                          "at or below zero")
    cfg_row = cfg_template.with_laser_frequency(nu)
    nu_thz = internal_to_thz(nu)
    if dataset is None:
        alpha, j_exp = cell.absorption_coeff_per_mm, None
    else:
        a = dataset.absorption_at(nu_thz)
        alpha = _alpha_of_absorption(a, cell.length_mm)
        j_exp = (experimental_heat_current(cell.laser_power_w, a, delta, nu)
                 if dataset.covers(nu_thz) else None)

    regime = regime_of(cfg_row)
    if cfg_row.g == 0.0:
        return ScanRow(delta_thz, 0.0, j_exp, 0.0, 0.0, regime, "none"), False
    solver = pick_solver(cfg_row)
    if solver == "rate":
        flows, _ = _weak_cell_kernel(cfg_row, cell, hot.temperature)
        j_tot, p_abs = flows(hot.plateau, alpha)
    else:
        # the local coupling follows the attenuated beam, g^2(z) = g^2 e^(-alpha z):
        # one kernel per row, with one cold spectrum and the rates that do not
        # depend on g; both integrals share its calls at each depth
        cold = CubicColdSpectrum(cfg_row.gamma, cfg_row.omega0, t_cold)
        flows = beam_flows(cfg_row, hot, cold)

        def local(att: float) -> tuple[float, float]:
            at_depth = flows(att)
            return at_depth.j_hot, at_depth.p_abs

        j_tot, p_abs = _integrate_over_cell(cell, alpha, local)
    eta = j_tot / cell.laser_power_w
    budget = cell.laser_power_w * -math.expm1(-alpha * cell.length_mm)
    return (ScanRow(delta_thz, j_tot, j_exp, p_abs, eta, regime, solver),
            p_abs > budget * (1.0 + 1e-9))


def detuning_scan(cell: CellConfig, cfg_template: AtomDriveConfig, g0: float,
                  deltas_thz, dataset: AbsorptionDataset | None = None,
                  t_cold: float = 0.0, jobs: int = 1) -> ScanResult:
    """Sweep the detuning grid (THz); rows come back in grid order.

    g0 is the calibrated (or prescribed) flat hot-spectrum amplitude in
    internal units; the weak-drive/exact solver switch is recorded per row.
    ``jobs`` worker processes share the rows; it must be at least 1 and is
    capped at the CPU count.  Rows that absorb more than the beam loses in
    the cell are counted, and a nonzero count is one UserWarning.
    """
    grid = [float(d) for d in deltas_thz]
    if not grid:
        raise ConfigError("empty detuning grid")
    if g0 <= 0:
        raise ValueError("g0 must be positive")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    hot = FlatHotSpectrum(g0, kelvin_to_internal(cell.bath_temperature_k))
    row_at = functools.partial(_scan_row, cell, cfg_template, hot, dataset,
                               t_cold)
    # the CPU count is asked only when there is a choice to make
    workers = min(jobs, os.cpu_count() or 1) if jobs > 1 else 1
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows, flags = zip(*pool.map(row_at, grid))
    else:
        rows, flags = zip(*map(row_at, grid))
    over = sum(flags)
    if over:
        warnings.warn(f"{over} of {len(rows)} scan rows absorb more than the "
                      "beam delivers", stacklevel=2)
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
    return ScanResult(rows, metadata)


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
