import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from licore.units import (
    HBAR,
    KB,
    internal_to_kelvin,
    internal_to_thz,
    internal_to_watts,
    kelvin_to_internal,
    thz_to_internal,
    watts_to_internal,
)

# lab unit -> (to internal, from internal)
PAIRS = {
    "THz": (thz_to_internal, internal_to_thz),
    "K": (kelvin_to_internal, internal_to_kelvin),
    "W": (watts_to_internal, internal_to_watts),
}
# each unit's scale factor, built as the conversions have always built it
FACTORS = {"THz": 2.0 * math.pi * 1e12, "K": KB / HBAR, "W": 1.0 / HBAR}


def test_thermal_frequency_of_500_kelvin():
    # k_B T / h at 500 K lands near 10.4 THz ordinary frequency
    thz = internal_to_thz(kelvin_to_internal(500.0))
    assert thz == pytest.approx(10.42, abs=0.05)


def test_angular_conversion_377_thz():
    # hand multiplication: 2 pi * 377e12 rad/s
    assert thz_to_internal(377.0) == pytest.approx(2 * math.pi * 377e12, rel=1e-15)


@pytest.mark.parametrize("unit", PAIRS)
def test_zero_maps_to_zero(unit):
    to_internal, from_internal = PAIRS[unit]
    assert to_internal(0.0) == 0.0
    assert from_internal(0.0) == 0.0


def test_constants_equal_scipy_bit_for_bit():
    import scipy.constants as sc

    from licore import units

    ours = (units.C_LIGHT, units.HBAR, units.KB, units.ATOMIC_MASS)
    assert [x.hex() for x in ours] == [x.hex() for x in (sc.c, sc.hbar, sc.k, sc.u)]


@pytest.mark.parametrize("unit", PAIRS)
def test_conversions_repeat_the_scale_factor_arithmetic_bit_for_bit(unit):
    # one multiply by the factor and one divide, over 1e-300 ... 1e300 of
    # both signs; products past the float range overflow alike
    to_internal, from_internal = PAIRS[unit]
    factor = FACTORS[unit]
    rng = random.Random(7)
    values = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)
              for _ in range(2000)]
    assert [to_internal(x).hex() for x in values] == \
        [(x * factor).hex() for x in values]
    assert [from_internal(x).hex() for x in values] == \
        [(x / factor).hex() for x in values]


@given(value=st.floats(min_value=1e-12, max_value=1e12),
       unit=st.sampled_from(sorted(PAIRS)))
@settings(max_examples=200)
def test_round_trip_identity(value, unit):
    to_internal, from_internal = PAIRS[unit]
    assert abs(from_internal(to_internal(value)) - value) <= 1e-12 * value
    assert abs(to_internal(from_internal(value)) - value) <= 1e-12 * value
