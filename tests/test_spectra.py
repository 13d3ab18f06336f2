import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from licore.errors import ConfigError
from licore.spectra import (
    BathSpectrum,
    CubicColdSpectrum,
    FlatHotSpectrum,
    TabulatedSpectrum,
    ZeroSpectrum,
    boltzmann_weight,
    kms_violation,
    load_tabulated_spectrum,
)
from licore.units import thz_to_internal

positive = st.floats(min_value=1e-6, max_value=1e6)


def test_flat_spectrum_positive_side_is_constant():
    spec = FlatHotSpectrum(plateau=5.0, temperature=10.0)
    assert spec.value(7.0) == 5.0
    assert spec.value(0.0) == 5.0


def test_flat_spectrum_negative_side_hand_value():
    # detailed balance by hand: 5 * exp(-7/10)
    spec = FlatHotSpectrum(plateau=5.0, temperature=10.0)
    assert spec.value(-7.0) == pytest.approx(5.0 * math.exp(-0.7), rel=1e-15)


def test_cold_vacuum_absorbs_nothing():
    spec = CubicColdSpectrum(gamma=2.0, omega0=4.0, temperature=0.0)
    assert spec.value(-1.0) == 0.0


def test_cold_normalization_at_reference():
    spec = CubicColdSpectrum(gamma=2.0, omega0=4.0, temperature=0.0)
    assert spec.value(4.0) == 2.0
    assert spec.value(2.0) == pytest.approx(2.0 * (2.0 / 4.0) ** 3, rel=1e-15)


@given(plateau=positive, temperature=positive, omega=positive)
@settings(max_examples=200)
def test_flat_kms_pairwise(plateau, temperature, omega):
    spec = FlatHotSpectrum(plateau, temperature)
    lhs = spec.value(-omega)
    rhs = boltzmann_weight(omega, temperature) * spec.value(omega)
    assert abs(lhs - rhs) <= 1e-12 * max(spec.value(omega), 1e-300)


@given(gamma=positive, omega0=positive, temperature=positive, omega=positive)
@settings(max_examples=200)
def test_cubic_kms_pairwise(gamma, omega0, temperature, omega):
    spec = CubicColdSpectrum(gamma, omega0, temperature)
    lhs = spec.value(-omega)
    rhs = boltzmann_weight(omega, temperature) * spec.value(omega)
    assert abs(lhs - rhs) <= 1e-12 * max(spec.value(omega), 1e-300)


def test_kms_check_on_builtin_grids():
    grid = [1.0, 2.0, 5.0]
    assert kms_violation(FlatHotSpectrum(5.0, 10.0), grid) <= 1e-12
    assert kms_violation(CubicColdSpectrum(2.0, 4.0, 0.0), grid) == 0.0


def test_kms_check_rejects_empty_grid():
    with pytest.raises(ValueError):
        kms_violation(FlatHotSpectrum(5.0, 10.0), [])


def test_kms_violating_table_reports_order_one():
    # break detailed balance by a factor 2 at omega = 1; at T = 100 the
    # expected negative-side value is ~G(1), so the defect is ~1 relative
    t = 100.0
    good = 5.0
    spec = TabulatedSpectrum(
        omegas=(-1.0, 0.0, 1.0),
        values=(2.0 * good * math.exp(-1.0 / t), good, good),
        temperature=t,
    )
    violation = kms_violation(spec, [1.0])
    assert violation == pytest.approx(math.exp(-1.0 / t), rel=1e-12)
    assert violation == pytest.approx(1.0, abs=0.02)


def test_flat_spectrum_symmetric_for_mirrored_detunings():
    spec = FlatHotSpectrum(plateau=3.0, temperature=7.0)
    for delta in (0.5, 1.0, 4.0):
        assert spec.value(abs(delta)) == spec.value(abs(-delta))


def test_zero_spectrum():
    z = ZeroSpectrum(temperature=1.0)
    assert z.value(5.0) == 0.0 and z.value(-5.0) == 0.0


def test_boltzmann_weight_zero_temperature():
    assert boltzmann_weight(3.0, 0.0) == 0.0
    assert boltzmann_weight(0.0, 0.0) == 1.0


def test_tabulated_loader_accepts_balanced_table(tmp_path):
    t_int = thz_to_internal(1.0)  # temperature expressed via the THz scale
    rows = ["omega_thz,g_rate"]
    for w in (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0):
        w_int = thz_to_internal(w)
        g = 4.0 if w >= 0 else 4.0 * math.exp(w_int / t_int)
        rows.append(f"{w},{g:.15g}")
    path = tmp_path / "spec.csv"
    path.write_text("\n".join(rows) + "\n")
    spec = load_tabulated_spectrum(path, temperature=t_int)
    assert spec.value(thz_to_internal(2.0)) == pytest.approx(
        thz_to_internal(4.0), rel=1e-9)


def test_tabulated_loader_rejects_kms_breaking_table(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("omega_thz,g_rate\n-1.0,4.0\n0.0,4.0\n1.0,4.0\n")
    with pytest.raises(ConfigError, match="detailed balance"):
        load_tabulated_spectrum(path, temperature=thz_to_internal(1.0))


def test_tabulated_loader_rejects_decreasing_grid(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("omega_thz,g_rate\n1.0,4.0\n-1.0,4.0\n")
    with pytest.raises(ConfigError):
        load_tabulated_spectrum(path, temperature=1.0)


def test_tabulated_clamps_out_of_range():
    spec = TabulatedSpectrum((-1.0, 0.0, 1.0), (0.1, 1.0, 2.0), temperature=1e9)
    assert spec.value(5.0) == 2.0
    assert spec.value(-5.0) == 0.1


@pytest.mark.parametrize("row", ["0.0,nan", "0.0,inf", "nan,4.0"])
def test_tabulated_loader_rejects_non_finite_rows(tmp_path, row):
    # max() drops a NaN defect, so the detailed-balance check alone would
    # let a NaN value through
    path = tmp_path / "bad.csv"
    path.write_text(f"omega_thz,g_rate\n-1.0,1.0\n{row}\n1.0,4.0\n")
    with pytest.raises(ConfigError, match="finite"):
        load_tabulated_spectrum(path, temperature=thz_to_internal(1.0))


def test_kms_check_reports_nan_defect():
    class NanAbove(FlatHotSpectrum):
        def value(self, omega):
            return math.nan if omega > 1.5 else super().value(omega)

    spec = NanAbove(1.0, 1.0)
    assert math.isnan(kms_violation(spec, [1.0, 2.0, 3.0]))
    assert kms_violation(spec, [1.0]) <= 1e-15


class _ValueOnly(BathSpectrum):
    """A spectrum that defines value alone, so pair is the base class's;
    odd in omega, so the sign of a zero shows."""

    temperature = 1.0

    def value(self, omega):
        return 2.0 * omega


def _same_bits(x, y) -> bool:
    """Equal with the same sign, or both NaN."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


PAIR_SPECTRA = [
    FlatHotSpectrum(5.0, 10.0),
    FlatHotSpectrum(2.5, 1e300),
    CubicColdSpectrum(2.0, 1.0, 0.0),
    CubicColdSpectrum(2.0, 1.0, 3.0),
    CubicColdSpectrum(2.0, 1.0, 1e300),
    ZeroSpectrum(1.0),
    TabulatedSpectrum((-1.0, 0.0, 1.0), (0.1, 1.0, 2.0), temperature=1e9),
    _ValueOnly(),
]
# 5e102 takes the cubic past the float range as gamma (w/omega0)^3 (inf,
# and inf times a vanishing weight is NaN); at 1e200 the cube itself
# raises OverflowError
PAIR_OMEGAS = [0.0, 5e-324, 2.2e-308, 1e-310, 1e-3, 0.5, 1.0, 7.0, 1e3,
               5e102, 1e200, math.inf, math.nan]


@pytest.mark.parametrize("spec", PAIR_SPECTRA,
                         ids=lambda spec: type(spec).__name__)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_pair_is_the_two_values_bit_for_bit(spec, sign):
    for magnitude in PAIR_OMEGAS:
        omega = sign * magnitude
        try:
            expected = (spec.value(omega), spec.value(-omega))
        except OverflowError:
            with pytest.raises(OverflowError):
                spec.pair(omega)
            continue
        got = spec.pair(omega)
        assert type(got) is tuple and len(got) == 2
        assert all(map(_same_bits, got, expected)), (omega, got, expected)
