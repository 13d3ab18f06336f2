import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from licore.units import UNIT_TAGS, UNITS, from_internal, to_internal


def test_thermal_frequency_of_500_kelvin():
    # k_B T / h at 500 K lands near 10.4 THz ordinary frequency
    thz = from_internal(to_internal(500.0, "K"), "THz")
    assert thz == pytest.approx(10.42, abs=0.05)


def test_angular_conversion_377_thz():
    # hand multiplication: 2 pi * 377e12 rad/s
    assert to_internal(377.0, "THz") == pytest.approx(2 * math.pi * 377e12, rel=1e-15)


@pytest.mark.parametrize("unit", UNIT_TAGS)
def test_zero_maps_to_zero(unit):
    assert to_internal(0.0, unit) == 0.0
    assert from_internal(0.0, unit) == 0.0


def test_constants_equal_scipy_bit_for_bit():
    import scipy.constants as sc

    from licore import units

    ours = (units.C_LIGHT, units.HBAR, units.KB, units.ATOMIC_MASS)
    assert [x.hex() for x in ours] == [x.hex() for x in (sc.c, sc.hbar, sc.k, sc.u)]


def test_dimensionless_is_identity():
    assert to_internal(3.25, "dimensionless") == 3.25


def test_unknown_unit_rejected():
    with pytest.raises(ValueError):
        to_internal(1.0, "eV")


@given(
    value=st.floats(min_value=1e-12, max_value=1e12),
    unit=st.sampled_from(UNIT_TAGS),
)
@settings(max_examples=200)
def test_round_trip_identity(value, unit):
    back = UNITS.from_internal(UNITS.to_internal(value, unit), unit)
    assert abs(back - value) <= 1e-12 * value
