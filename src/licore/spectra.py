"""Bath coupling spectra with detailed balance built in.

Every spectrum is defined for all real frequencies: the positive side is
given by the model, the negative side follows from the KMS relation
G(-w) = exp(-w/T) G(w).  A zero-temperature bath has G(-w) = 0 for w > 0.
``pair(w)`` gives (G(w), G(-w)) together, the rate pair of one channel:
two ``value`` calls by default, one positive-side value and its
Boltzmann weight for the flat and cubic models, with the same bits.
Tables (tabulated spectra, and the cell's absorption data) are read
piecewise-linearly by ``interp``.
"""

from __future__ import annotations

import abc
import math
from bisect import bisect_right
from pathlib import Path

from .config import Record, _set
from .errors import ConfigError
from .units import thz_to_internal

KMS_TOL = 1e-6      # largest relative detailed-balance defect a table may have


def boltzmann_weight(omega: float, temperature: float) -> float:
    """exp(-omega/T) with the T = 0 limit taken exactly (no epsilons)."""
    if not temperature >= 0:
        raise ValueError("temperature must be non-negative")
    if temperature == 0.0:
        if omega > 0:
            return 0.0
        if omega == 0:
            return 1.0
        return math.inf
    x = omega / temperature
    if x < -709.0:
        return math.inf
    return math.exp(-x)


class BathSpectrum(abc.ABC):
    """Coupling spectrum G(omega) >= 0 at a fixed bath temperature."""

    __slots__ = ()
    temperature: float

    @abc.abstractmethod
    def value(self, omega: float) -> float:
        ...

    def pair(self, omega: float) -> tuple[float, float]:
        """(G(omega), G(-omega)), bit for bit the two value calls.  The
        flat and cubic models override it, so a subclass of theirs that
        redefines value redefines pair too."""
        return self.value(omega), self.value(-omega)


class FlatHotSpectrum(Record, BathSpectrum):
    """Constant plateau for omega >= 0, thermally suppressed below zero.

    The flat positive side means collisional coupling is treated as
    detuning-independent within the relevant band.
    """

    __slots__ = ("plateau", "temperature")

    def __init__(self, plateau: float, temperature: float):
        if not plateau > 0:
            raise ValueError("plateau must be positive")
        if not temperature > 0:
            raise ValueError("hot-bath temperature must be positive")
        _set(self, "plateau", plateau)
        _set(self, "temperature", temperature)

    def value(self, omega: float) -> float:
        if omega >= 0:
            return self.plateau
        return self.plateau * boltzmann_weight(-omega, self.temperature)

    def pair(self, omega: float) -> tuple[float, float]:
        # a NaN omega takes the weighted value on both sides, as value does
        plateau = self.plateau
        weighted = plateau * boltzmann_weight(abs(omega), self.temperature)
        return (plateau if omega >= 0 else weighted,
                plateau if omega <= 0 else weighted)


class CubicColdSpectrum(Record, BathSpectrum):
    """Radiative bath: G(w) = gamma (w/omega0)^3 for w > 0, so that
    G(omega0) = gamma exactly.  temperature = 0 models the vacuum."""

    __slots__ = ("gamma", "omega0", "temperature")

    def __init__(self, gamma: float, omega0: float, temperature: float = 0.0):
        if not gamma > 0:
            raise ValueError("gamma must be positive")
        if not omega0 > 0:
            raise ValueError("omega0 must be positive")
        if not temperature >= 0:
            raise ValueError("temperature must be non-negative")
        _set(self, "gamma", gamma)
        _set(self, "omega0", omega0)
        _set(self, "temperature", temperature)

    def value(self, omega: float) -> float:
        if omega == 0:
            return 0.0
        mag = self.gamma * (abs(omega) / self.omega0) ** 3
        if omega > 0:
            return mag
        return mag * boltzmann_weight(-omega, self.temperature)

    def pair(self, omega: float) -> tuple[float, float]:
        if omega == 0:
            return 0.0, 0.0
        w = abs(omega)
        mag = self.gamma * (w / self.omega0) ** 3
        weighted = mag * boltzmann_weight(w, self.temperature)
        if omega > 0:
            return mag, weighted
        return weighted, mag


class ZeroSpectrum(Record, BathSpectrum):
    """Uncoupled bath; useful for single-bath limits."""

    __slots__ = ("temperature",)

    def __init__(self, temperature: float = 0.0):
        if not temperature >= 0:
            raise ValueError("temperature must be non-negative")
        _set(self, "temperature", temperature)

    def value(self, omega: float) -> float:
        return 0.0


def interp(x: float, xp, fp) -> float:
    """Piecewise-linear interpolation of the table (xp, fp) at x, clamped
    to the end values outside it, as numpy's ``interp`` computes it: the
    same slope and rounding, the same fallbacks where the slope form gives
    NaN, and a NaN x passes through (a one-row table returns its value).
    xp must be strictly increasing."""
    last = len(xp) - 1
    if last == 0:
        return fp[0]
    if math.isnan(x):
        return x
    if x < xp[0]:
        return fp[0]
    if x > xp[last]:
        return fp[last]
    j = bisect_right(xp, x) - 1
    if j == last or xp[j] == x:
        return fp[j]
    slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
    y = slope * (x - xp[j]) + fp[j]
    if math.isnan(y):
        y = slope * (x - xp[j + 1]) + fp[j + 1]
        if math.isnan(y) and fp[j] == fp[j + 1]:
            y = fp[j]
    return y



class TabulatedSpectrum(Record, BathSpectrum):
    """Piecewise-linear user spectrum; queries outside the table clamp to
    the endpoint values."""

    __slots__ = ("omegas", "values", "temperature")

    def __init__(self, omegas: tuple, values: tuple, temperature: float):
        om, va = omegas, values
        if len(om) < 2 or len(om) != len(va):
            raise ConfigError("tabulated spectrum needs >= 2 (omega, value) rows")
        if not all(math.isfinite(w) for w in (*om, *va)):
            raise ConfigError("tabulated spectrum rows must be finite numbers")
        if not all(lo < hi for lo, hi in zip(om, om[1:])):
            raise ConfigError("tabulated frequencies must be strictly increasing")
        if any(v < 0 for v in va):
            raise ConfigError("tabulated spectrum values must be non-negative")
        if not temperature >= 0:
            raise ConfigError("temperature must be non-negative")
        _set(self, "omegas", omegas)
        _set(self, "values", values)
        _set(self, "temperature", temperature)

    def value(self, omega: float) -> float:
        return interp(omega, self.omegas, self.values)


def kms_violation(spectrum: BathSpectrum, omegas) -> float:
    """Max relative defect of G(-w) = exp(-w/T) G(w) over a grid of w > 0;
    NaN if any defect is."""
    omegas = list(omegas)
    if not omegas:
        raise ValueError("frequency grid must be non-empty")
    if not all(w > 0 for w in omegas):
        raise ValueError("grid frequencies must be positive")
    worst = 0.0
    for w in omegas:
        gp = spectrum.value(w)
        gm = spectrum.value(-w)
        expected = boltzmann_weight(w, spectrum.temperature) * gp
        defect = abs(gm - expected) / max(gp, 1e-300)   # no division by a zero G(w)
        if math.isnan(defect):
            return defect
        worst = max(worst, defect)
    return worst


def read_two_columns(path, header: str) -> tuple[list, list]:
    """The two number columns of a CSV table.  Blank and whitespace-only
    lines, '#' lines and the header row (first cell ``header``) are
    skipped; any other row that does not start with two numbers is a
    ConfigError naming the file and the row."""
    import csv      # here, so the commands that read no table do not load it
    xs, ys = [], []
    with Path(path).open(newline="") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            row = next(csv.reader([line]))
            if row[0].strip().lower() == header:
                continue
            try:
                xs.append(float(row[0]))
                ys.append(float(row[1]))
            except (ValueError, IndexError) as exc:
                raise ConfigError(f"{path}: row {line!r} is not two "
                                  "numbers") from exc
    return xs, ys


def load_tabulated_spectrum(path, temperature: float) -> TabulatedSpectrum:
    """Read a two-column CSV ``omega_thz, g_rate`` (both converted like
    frequencies) and reject it unless detailed balance holds to KMS_TOL."""
    omegas, values = read_two_columns(path, "omega_thz")
    omegas = [thz_to_internal(w) for w in omegas]
    values = [thz_to_internal(v) for v in values]
    spec = TabulatedSpectrum(tuple(omegas), tuple(values), temperature)
    grid = [w for w in omegas if w > 0 and -w >= omegas[0]]
    if not grid:
        raise ConfigError(
            f"{path}: table must cover matching +/- frequency pairs for the "
            "detailed-balance check"
        )
    violation = kms_violation(spec, grid)
    if not violation <= KMS_TOL:
        raise ConfigError(
            f"{path}: tabulated spectrum violates detailed balance "
            f"(max relative defect {violation:.3e} > {KMS_TOL:.1e})"
        )
    return spec
