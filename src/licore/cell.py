"""From single-atom currents to the laboratory cell.

The beam attenuates as exp(-alpha z) along the cell, the local coupling
scales as g^2(z) = g^2 exp(-alpha z), and row_flows takes a row's cooling
power and absorbed power, attenuation-weighted integrals of the local
per-atom (J_hot, P_abs) times the linear atom density, over any hot
spectrum.  On the weak-drive branch that integral is elementary:
_weak_cell takes it in closed form from one _weak_row state per row.
Exact-solver rows integrate one floquet.beam_flows kernel per row, which
solves each depth from the local coupling alone, by adaptive quadrature
that takes J_hot and P_abs in one pass.  The flat hot-spectrum amplitude
is calibrated so the modeled absorbed-power fraction reproduces measured
absorption data.

Photon budget: a row can absorb at most what the beam loses in the cell,
P_L (1 - exp(-alpha L)) with the row's own alpha.  The measured attenuation
profile does not enforce it, so scan_rows, which every scan draws its rows
from, counts the rows over it and reports them in one UserWarning after
the last row.

Serialization: write_scan streams rows to the scan's CSV and JSON files as
scan_rows computes them, so a scan's memory stays flat in its grid size.
Each number is formatted once, as its 12-digit %g text: the CSV takes the
text, and the JSON takes repr(float(text)), round12's value, in the bytes
json.dumps(doc, indent=2, sort_keys=True) writes.  Both files go to
temporary sibling names and are renamed once both are complete.
write_scan_csv and scan_records write the same numbers from a ScanResult.

This module is the lab-facing boundary: cell geometry in mm, power in
watts, frequencies in THz, temperatures in kelvin.  Atom/drive configs it
consumes are in internal units as everywhere else.
"""

from __future__ import annotations

import functools
import json
import math
import os
import warnings
from pathlib import Path
from typing import NamedTuple

from .config import AtomDriveConfig, Record, _set
from .errors import CalibrationError, ConfigError, DomainError, require_finite
from .floquet import beam_flows
from .numerics import brentq, integrate, least_squares
from .rate_model import _flows, regime_of, weak_balance, weak_drive_defect
from .spectra import (BathSpectrum, CubicColdSpectrum, FlatHotSpectrum,
                      interp, read_two_columns)
from .units import (
    internal_to_thz,
    internal_to_watts,
    kelvin_to_internal,
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
        if not length_mm > 0:
            raise ValueError("length_mm must be positive")
        if not absorption_coeff_per_mm >= 0:
            raise ValueError("absorption coefficient must be non-negative")
        if not linear_atom_density_per_mm >= 0:
            raise ValueError("atom density must be non-negative")
        if not laser_power_w > 0:
            raise ValueError("laser power must be positive")
        if not bath_temperature_k > 0:
            raise ValueError("bath temperature must be positive")
        # NaN failed a check above, so the one non-finite value left is inf
        values = (length_mm, absorption_coeff_per_mm,
                  linear_atom_density_per_mm, laser_power_w,
                  bath_temperature_k)
        if math.inf in values:
            raise ValueError(f"{self.__slots__[values.index(math.inf)]} "
                             "must be finite")
        _set(self, "length_mm", length_mm)
        _set(self, "absorption_coeff_per_mm", absorption_coeff_per_mm)
        _set(self, "linear_atom_density_per_mm", linear_atom_density_per_mm)
        _set(self, "laser_power_w", laser_power_w)
        _set(self, "bath_temperature_k", bath_temperature_k)


class AbsorptionDataset(Record):
    """Measured photon absorption probability a(nu) on an increasing grid
    of positive frequencies (THz) that stay finite in internal units."""

    __slots__ = ("nu_thz", "absorption")

    def __init__(self, nu_thz: tuple, absorption: tuple):
        nu, a = nu_thz, absorption
        if len(nu) == 0 or len(nu) != len(a):
            raise ConfigError("dataset needs matching nu/absorption columns")
        if not all(math.isfinite(x) for x in nu):
            raise ConfigError("dataset frequencies must be finite numbers")
        if not all(lo < hi for lo, hi in zip(nu, nu[1:])):
            raise ConfigError("dataset frequencies must be strictly increasing")
        if not nu[0] > 0:
            raise ConfigError("dataset frequencies must be positive")
        if not math.isfinite(thz_to_internal(nu[-1])):
            raise ConfigError(f"dataset frequency {nu[-1]} THz overflows "
                              "internal units")
        # written so that a NaN fails it too
        if not all(0.0 <= x <= 1.0 for x in a):
            raise ConfigError("absorption probabilities must lie in [0, 1]")
        _set(self, "nu_thz", nu_thz)
        _set(self, "absorption", absorption)

    def covers(self, nu_thz: float) -> bool:
        return self.nu_thz[0] <= nu_thz <= self.nu_thz[-1]

    def alpha_at(self, nu_thz: float, length_mm: float) -> float:
        """Attenuation coefficient implied by a(nu) via 1 - exp(-alpha L),
        a(nu) interpolated linearly and clamped to the end values outside."""
        return _alpha_of_absorption(interp(nu_thz, self.nu_thz,
                                           self.absorption), length_mm)


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
    # written so that a NaN fails each check
    if not 0.0 <= a_nu <= 1.0:
        raise ValueError("absorption probability must lie in [0, 1]")
    if not nu > 0:
        raise ValueError("nu must be positive")
    if not (math.isfinite(delta) and math.isfinite(p_l_watt)):
        raise ValueError("delta and p_l_watt must be finite")
    return p_l_watt * a_nu * delta / nu


# ---------------------------------------------------------------------------
# Local per-atom currents and their integral over the cell
# ---------------------------------------------------------------------------


def _integrate_over_cell(cell: CellConfig, alpha_per_mm: float,
                         local) -> tuple[float, float]:
    """(N_a/L) integrals of exp(-alpha z) J_hot and exp(-alpha z) P_abs,
    where local(attenuation(z)) returns a tuple whose first two entries
    are the internal per-atom (J_hot, P_abs), as a beam_flows kernel does;
    results in watts.

    Both integrals are one integrate call over z -> exp(-alpha z) (J_hot,
    P_abs), so local is taken once per depth; where the two bisections
    part, the P_abs one takes it only at depths the J_hot one never
    visited.  Past the depth BEAM_CUTOFF / alpha the beam is subnormal,
    then zero, as is the coupling; an optically thick cell is integrated
    to there only.

    Raises DomainError when either error estimate misses QUAD_EPSREL,
    J_hot's checked first, or when a total in watts is not finite."""
    depth = cell.length_mm
    if alpha_per_mm * depth > BEAM_CUTOFF:
        depth = BEAM_CUTOFF / alpha_per_mm

    def integrand(z: float) -> tuple[float, float]:
        att = math.exp(-alpha_per_mm * z)
        flows = local(att)
        return att * flows[0], att * flows[1]

    totals = []
    for value, err in integrate(integrand, 0.0, depth, QUAD_EPSREL):
        if not err <= QUAD_EPSREL * abs(value):
            raise DomainError(f"cell integral did not converge: error "
                              f"estimate {err:.3g} against value {value:.6g}")
        total = internal_to_watts(cell.linear_atom_density_per_mm * value)
        if not math.isfinite(total):
            raise DomainError("cell integral is not finite for these "
                              "parameters")
        totals.append(total)
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


def _weak_row(delta: float, nu: float, g: float, gamma: float, t_hot: float):
    """A weak row's state for _weak_cell: delta, nu, (2g/delta)^2 and the
    balance per unit pumping.  The caller has checked the row at full
    beam, the strictest depth (g sqrt(u) <= g)."""
    w, big_b, c_per_pumping = weak_balance(delta, gamma, 1.0, t_hot)
    return delta, nu, (2.0 * g / delta) ** 2, w, big_b, c_per_pumping


def _weak_cell(row: tuple, cell: CellConfig, g0: float, alpha_per_mm: float,
               slope: bool = False) -> tuple:
    """The row's weak-drive cell (J_hot, P_abs) in watts, in closed form at
    the hot spectrum's value g0 = G(|detuning|).  The pumping rate follows
    the beam, gamma_p(u) = u gamma_p(1) at the attenuation u = exp(-alpha
    z), so weak_flows gives P(u) = P(1) u (B + C) / (B + C u), with
    weak_balance's B = gamma and C = (1 + b) gamma_p(1), and J(u) / P(u) =
    detuning / nu.  The cell integral of u P(u) dz is then elementary,

        P(1) (B + C) D / (alpha E) [B D h(x) / E + u_L],

    with D = -expm1(-alpha L), u_L = 1 - D, E = B + C u_L, x = C D / E and
    h(x) = (x - log1p x) / x^2; both bracketed terms are positive.  It is
    L P(1) without attenuation and D / alpha times the saturated per-atom
    P(1), nu B w / (1 + b), as C -> infinity.  gamma_p(1) =
    (2g/detuning)^2 g0 has pumping_rate's bits (a flat spectrum's value is
    its amplitude g0).

    The slope of the cell's P_abs in ln g0 is gamma_p d/dgamma_p of the
    same integral, nu B^2 w gamma_p times the integral of u^2 / (B + C u)^2
    dz, which is elementary too,

        nu B^2 w gamma_p / alpha [(D/E)^2 k(x) + D u_L / (E^2 (1 + x))],

    with k(x) = (log1p x - x / (1 + x)) / x^2, and L / (B + C)^2 in place
    of the integral without attenuation.  Only a call with slope=True
    takes it, and returns it after (J_hot, P_abs), in watts.
    """
    delta, nu, coupling, w, big_b, c_per_pumping = row
    length, density = cell.length_mm, cell.linear_atom_density_per_mm
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


def _model(g: float, delta: float) -> str:
    """The solver switch: 'none' at g = 0, 'rate' at g/|delta| <=
    WEAK_DRIVE_SWITCH, else 'floquet'."""
    if g == 0.0:
        return "none"
    return "rate" if g <= WEAK_DRIVE_SWITCH * abs(delta) else "floquet"


def row_flows(cell: CellConfig, cfg_row: AtomDriveConfig, hot: BathSpectrum,
              t_cold: float, alpha_per_mm: float) -> tuple[float, float, str]:
    """The cell's (J_hot, P_abs) in watts at one laser frequency over any hot
    spectrum, and its _model: zeros, the weak-drive closed form at
    G_hot(|detuning|), or the beam_flows kernel integrated over the cell."""
    delta = cfg_row.detuning
    model = _model(cfg_row.g, delta)
    if model == "none":
        return 0.0, 0.0, model
    if model == "rate":
        row = _weak_row(delta, cfg_row.nu, cfg_row.g, cfg_row.gamma,
                        hot.temperature)
        return (*_weak_cell(row, cell, hot.value(abs(delta)), alpha_per_mm),
                model)
    # the coupling follows the beam, g^2(z) = g^2 e^(-alpha z): one kernel and
    # one cold spectrum per row; one pass takes both integrals at each depth
    flows = beam_flows(cfg_row, hot, CubicColdSpectrum(cfg_row.gamma,
                                                       cfg_row.omega0, t_cold))
    return (*_integrate_over_cell(cell, alpha_per_mm, flows), model)


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

    # each row's weak-drive state and attenuation, shared by the root and
    # the fit; a row's attenuation comes from its own absorption
    omega0, g, gamma = cfg_template.omega0, cfg_template.g, cfg_template.gamma
    t_hot, p_l = kelvin_to_internal(cell.bath_temperature_k), cell.laser_power_w
    fits = []
    for _, a, nu in rows:
        row = _weak_row(omega0 - nu, nu, g, gamma, t_hot)
        alpha = _alpha_of_absorption(a, cell.length_mm)
        # the g0 -> infinity bound, the saturated per-atom P_abs nu B w /
        # (1 + b) over int exp(-alpha z) dz (alpha > 0 here)
        _, _, _, w, big_b, c_per_pumping = row
        weight = -math.expm1(-alpha * cell.length_mm) / alpha
        cap = internal_to_watts(cell.linear_atom_density_per_mm * weight
                                * (nu * big_b * w / c_per_pumping)) / p_l
        if a >= cap:
            raise CalibrationError(
                f"absorption {a:.4g} exceeds the saturated model bound "
                f"{cap:.4g}; no spectrum amplitude can reach it"
            )
        fits.append((row, alpha, a))

    row, alpha, a = fits[0]
    hi = gamma
    for _ in range(400):
        if _weak_cell(row, cell, hi, alpha)[1] / p_l > a:
            break
        hi *= 2.0
    else:
        raise CalibrationError("failed to bracket the calibration root")
    # no amplitude, no absorption: the bracket starts at g0 = 0
    g_start = brentq(lambda g0: (_weak_cell(row, cell, g0, alpha)[1] / p_l
                                 if g0 > 0 else 0.0) - a,
                     0.0, hi, xtol=1e-300, rtol=1e-14, error=CalibrationError)
    if g_start == 0.0:
        raise CalibrationError(
            f"the model absorbs more than {a:.4g} at every amplitude g0 > 0")
    x_start = math.log(g_start)

    def residuals_and_slopes(x):
        g0 = g_start * math.exp(x - x_start)
        r, s = [], []
        for row, alpha, a in fits:
            _, p, slope = _weak_cell(row, cell, g0, alpha, True)
            r.append(p / p_l - a)
            s.append(slope / p_l)
        return r, s

    x, fun = least_squares(residuals_and_slopes, x_start,
                           error=CalibrationError)
    resid = math.sqrt(math.fsum(r * r for r in fun) / len(fun))
    return CalibrationResult(g_start * math.exp(x - x_start), resid,
                             tuple((nu_thz, a) for nu_thz, a, _ in rows))


def synthesize_absorption(cfg_template: AtomDriveConfig, cell: CellConfig,
                          g0: float, nus_thz) -> AbsorptionDataset:
    """Self-consistent absorption a(nu) predicted by the model itself:
    a solves a = fraction(alpha(a)).  Round-trips exactly through
    calibrate_g0.  DomainError where no a < 1 solves it (over the photon budget)."""
    if not g0 > 0:
        raise ValueError("g0 must be positive")
    omega0, g, gamma = cfg_template.omega0, cfg_template.g, cfg_template.gamma
    t_hot = kelvin_to_internal(cell.bath_temperature_k)
    values = []
    for nu_thz in nus_thz:
        nu = thz_to_internal(nu_thz)
        delta = omega0 - nu
        if weak_drive_defect(g, delta) is not None:
            raise ValueError("synthesis rows must stay in the weak-drive "
                             "regime (g < |detuning|)")
        cfg_template.with_laser_frequency(nu)     # checks nu
        row = _weak_row(delta, nu, g, gamma, t_hot)

        @functools.cache
        def gap(a):
            alpha = _alpha_of_absorption(a, cell.length_mm)
            return _weak_cell(row, cell, g0, alpha)[1] / cell.laser_power_w - a

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


def scan_rows(cell: CellConfig, cfg_template: AtomDriveConfig, g0: float,
              deltas_thz, dataset: AbsorptionDataset | None = None,
              t_cold: float = 0.0):
    """Each grid point's ScanRow, in grid order, computed as it is drawn:
    the grid may be lazy, and no row is kept.  After the last row, the rows
    that absorb more than the beam loses in the cell are counted, and a
    nonzero count is one UserWarning, raised at the consumer's caller.  An
    empty grid is a ConfigError, raised once it is exhausted."""
    if not g0 > 0:
        raise ValueError("g0 must be positive")
    t_hot = kelvin_to_internal(cell.bath_temperature_k)
    hot = FlatHotSpectrum(g0, t_hot)
    omega0, g, gamma = cfg_template.omega0, cfg_template.g, cfg_template.gamma
    p_l, length = cell.laser_power_w, cell.length_mm
    if dataset is not None:
        nus, absorptions = dataset.nu_thz, dataset.absorption
    total = over = 0
    for delta_thz in deltas_thz:
        delta_thz = float(delta_thz)
        delta = thz_to_internal(delta_thz)
        nu = omega0 - delta
        if nu <= 0:
            raise ConfigError(f"detuning {delta_thz} THz puts the laser "
                              "frequency at or below zero")
        if not (math.isfinite(delta) and math.isfinite(nu)):
            raise ConfigError(f"detuning {delta_thz} THz overflows internal "
                              "units")
        nu_thz = internal_to_thz(nu)
        if dataset is None:
            alpha, j_exp = cell.absorption_coeff_per_mm, None
        else:
            a = interp(nu_thz, nus, absorptions)
            alpha = _alpha_of_absorption(a, length)
            j_exp = (experimental_heat_current(p_l, a, delta, nu)
                     if nus[0] <= nu_thz <= nus[-1] else None)
        # the row config's detuning, which need not round back to delta
        detuning = omega0 - nu
        model = _model(g, detuning)
        if model == "rate":
            j_tot, p_abs = _weak_cell(_weak_row(detuning, nu, g, gamma, t_hot),
                                      cell, g0, alpha)
        else:
            j_tot, p_abs, model = row_flows(
                cell, cfg_template.with_laser_frequency(nu), hot, t_cold, alpha)
        total += 1
        over += p_abs > p_l * -math.expm1(-alpha * length) * (1.0 + 1e-9)
        yield ScanRow(delta_thz, j_tot, j_exp, p_abs, j_tot / p_l,
                      regime_of(detuning, g), model)
    if not total:
        raise ConfigError("empty detuning grid")
    if over:
        warnings.warn(f"{over} of {total} scan rows absorb more than the "
                      "beam delivers", stacklevel=3)


def scan_metadata(cell: CellConfig, g0: float,
                  dataset: AbsorptionDataset | None = None,
                  t_cold: float = 0.0) -> dict:
    """What a scan's rows were computed from: g0, the cell, t_cold, units."""
    return {
        "g0_internal": g0,
        "g0_thz": internal_to_thz(g0),
        "cell": dict(zip(cell.__slots__, cell._values())),
        "t_cold_internal": t_cold,
        "units": "delta in THz (ordinary); powers in watts; "
                 "g0 internal = rad/s",
        "dataset_rows": 0 if dataset is None else len(dataset.nu_thz),
    }


def detuning_scan(cell: CellConfig, cfg_template: AtomDriveConfig, g0: float,
                  deltas_thz, dataset: AbsorptionDataset | None = None,
                  t_cold: float = 0.0, jobs: int = 1) -> ScanResult:
    """Sweep the detuning grid (THz); rows come back in grid order.

    g0 is the calibrated (or prescribed) flat hot-spectrum amplitude in
    internal units; the weak-drive/exact solver switch is recorded per row.
    Every row runs in this process, through scan_rows, and is kept.
    ``jobs`` must be at least 1 and changes nothing else; it stays only for
    perfbench's keyword call.  Rows that absorb more than the beam loses in
    the cell are counted, and a nonzero count is one UserWarning.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    rows = tuple(scan_rows(cell, cfg_template, g0, deltas_thz, dataset, t_cold))
    return ScanResult(rows, scan_metadata(cell, g0, dataset, t_cold))


# ---------------------------------------------------------------------------
# Scan serialization: each number is formatted once, as its 12-digit text.
# The CSV takes that text and the JSON repr(float(text)), round12's value.
# ---------------------------------------------------------------------------

SCAN_CSV_HEADER = "delta_thz,j_hot_watt,j_hot_exp_watt,p_abs_watt,eta,regime,model"
# a row's JSON record, its keys sorted, as json.dumps(..., indent=2) nests
# it in the document's "rows" list
_JSON_RECORD = """    {
      "delta_thz": %s,
      "eta": %s,
      "j_hot_exp_watt": %s,
      "j_hot_watt": %s,
      "model": %s,
      "p_abs_watt": %s,
      "regime": %s
    }"""


def _csv_line(r: ScanRow) -> str:
    """The row's CSV line: an empty field where j_hot_exp_watt is None."""
    if r.j_hot_exp_watt is None:
        return "%.12g,%.12g,,%.12g,%.12g,%s,%s\n" % (
            r.delta_thz, r.j_hot_watt, r.p_abs_watt, r.eta, r.regime, r.model)
    return "%.12g,%.12g,%.12g,%.12g,%.12g,%s,%s\n" % r


# the exponents of the 12-digit texts that repr spells otherwise: 12 to 15,
# which it writes out in full, and those of subnormals, which hold fewer
# than 12 digits
_RESPELT = ("e+12", "e+13", "e+14", "e+15",
            *(f"e-{k}" for k in range(308, 325)))


def _json_number(text: str) -> str:
    """repr(float(text)) for a number's 12-digit %g text, and a DomainError
    where the number is not finite.  A normal float keeps the text's
    digits, so repr changes only the form of an integral value ("10" ->
    "10.0") and of the exponents in _RESPELT; the float round trip, ten
    times the cost of the rest, is taken only there."""
    if ("." in text or "e" in text) and not text.endswith(_RESPELT):
        return text     # never "inf" or "nan"
    value = float(text)
    require_finite(value)
    return repr(value)


def write_scan_csv(result: ScanResult, path) -> None:
    Path(path).write_text(SCAN_CSV_HEADER + "\n"
                          + "".join(map(_csv_line, result.rows)))


def scan_records(result: ScanResult) -> list[dict]:
    return [
        {
            "delta_thz": float("%.12g" % r.delta_thz),
            "j_hot_watt": float("%.12g" % r.j_hot_watt),
            "j_hot_exp_watt": None if r.j_hot_exp_watt is None
            else float("%.12g" % r.j_hot_exp_watt),
            "p_abs_watt": float("%.12g" % r.p_abs_watt),
            "eta": float("%.12g" % r.eta),
            "regime": r.regime,
            "model": r.model,
        }
        for r in result.rows
    ]


def write_scan(rows, csv_path, json_path, metadata: dict | None = None) -> None:
    """Write ScanRows to ``csv_path`` and ``json_path`` as they are drawn
    from ``rows``, which may be lazy; memory stays flat in their number.

    The CSV holds write_scan_csv's bytes, and the JSON the bytes of
    ``json.dumps(doc, indent=2, sort_keys=True) + "\n"`` for the document
    {"metadata": metadata, "rows": scan_records(...)}, without "metadata"
    where it is None.  A non-finite number in the metadata, or in a row as
    it comes, is a DomainError.  Both files are written to temporary
    sibling names and renamed once both are complete: a failure at any
    row or write leaves neither file and no temporary one.
    """
    paths = (Path(csv_path), Path(json_path))
    temps = [p.with_name(f"{p.name}.{os.getpid()}.tmp") for p in paths]
    quote = json.encoder.encode_basestring_ascii
    try:
        with open(temps[0], "w") as csv_file, open(temps[1], "w") as json_file:
            csv_file.write(SCAN_CSV_HEADER + "\n")
            json_file.write("{\n")
            if metadata is not None:
                require_finite(metadata)
                # json.dumps nests it one level down: two more spaces a line
                nested = json.dumps(metadata, indent=2,
                                    sort_keys=True).replace("\n", "\n  ")
                json_file.write(f'  "metadata": {nested},\n')
            json_file.write('  "rows": [')
            sep = "\n"
            for r in rows:
                line = _csv_line(r)
                delta, j_hot, j_exp, p_abs, eta, _ = line.split(",", 5)
                record = _JSON_RECORD % (
                    _json_number(delta), _json_number(eta),
                    _json_number(j_exp) if j_exp else "null",
                    _json_number(j_hot), quote(r.model), _json_number(p_abs),
                    quote(r.regime))
                csv_file.write(line)
                json_file.write(sep)
                json_file.write(record)
                sep = ",\n"
            json_file.write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")
        os.replace(temps[0], paths[0])
        try:
            os.replace(temps[1], paths[1])
        except BaseException:
            paths[0].unlink(missing_ok=True)
            raise
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise
