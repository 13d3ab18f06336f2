import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from licore.cell import AbsorptionDataset, CellConfig
from licore.config import AtomDriveConfig
from licore.errors import ConfigError
from licore.oracle import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    dissipator,
    hermitize,
    unvec,
    vec,
)
from licore.spectra import (
    CubicColdSpectrum,
    FlatHotSpectrum,
    TabulatedSpectrum,
    ZeroSpectrum,
    boltzmann_weight,
)

positive = st.floats(min_value=1e-6, max_value=1e6)


def test_derived_params_undriven():
    cfg = AtomDriveConfig(omega0=10.0, gamma=1.0, g=0.0, nu=9.0)
    assert (cfg.detuning, cfg.rabi) == (1.0, 1.0)


def test_derived_params_on_resonance():
    cfg = AtomDriveConfig(omega0=10.0, gamma=1.0, g=1.0, nu=10.0)
    assert cfg.detuning == 0.0
    assert cfg.rabi == 2.0


def test_derived_params_hand_value():
    # sqrt(4*9 + 16) = sqrt(52)
    cfg = AtomDriveConfig(omega0=10.0, gamma=1.0, g=3.0, nu=6.0)
    assert cfg.rabi == pytest.approx(math.sqrt(52.0), rel=1e-15)


@given(g=st.floats(min_value=0, max_value=1e6), omega0=positive, nu=positive)
@settings(max_examples=200)
def test_rabi_dominates_detuning(g, omega0, nu):
    cfg = AtomDriveConfig(omega0=omega0, gamma=1.0, g=g, nu=nu)
    assert cfg.rabi >= abs(cfg.detuning)
    if g == 0.0:
        assert cfg.rabi == abs(cfg.detuning)


@given(omega0=positive, nu=positive, g1=positive, g2=positive)
@settings(max_examples=200)
def test_rabi_monotone_in_coupling(omega0, nu, g1, g2):
    lo, hi = sorted((g1, g2))
    cfg_lo = AtomDriveConfig(omega0=omega0, gamma=1.0, g=lo, nu=nu)
    cfg_hi = AtomDriveConfig(omega0=omega0, gamma=1.0, g=hi, nu=nu)
    assert cfg_hi.rabi >= cfg_lo.rabi


@pytest.mark.parametrize("bad", [
    dict(omega0=-1.0, gamma=1.0, g=0.0, nu=1.0),
    dict(omega0=1.0, gamma=0.0, g=0.0, nu=1.0),
    dict(omega0=1.0, gamma=1.0, g=-0.1, nu=1.0),
    dict(omega0=1.0, gamma=1.0, g=0.0, nu=0.0),
])
def test_invalid_configs_rejected(bad):
    with pytest.raises(ValueError):
        AtomDriveConfig(**bad)


def test_attenuated_scales_coupling_with_sqrt_power():
    cfg = AtomDriveConfig(omega0=10.0, gamma=1.0, g=2.0, nu=9.0)
    assert cfg.attenuated(0.25).g == pytest.approx(1.0)


def test_derived_configs_equal_replaced_fields():
    cfg = AtomDriveConfig(omega0=10.0, gamma=1.0, g=2.0, nu=9.0,
                          laser_power=2.4)
    assert cfg.attenuated(0.3) == AtomDriveConfig(
        omega0=10.0, gamma=1.0, g=2.0 * math.sqrt(0.3), nu=9.0, laser_power=2.4)
    # with_laser_frequency's record is the constructor's in every respect
    for nu in (9.5, 5e-324):
        derived = cfg.with_laser_frequency(nu)
        built = AtomDriveConfig(omega0=10.0, gamma=1.0, g=2.0, nu=nu,
                                laser_power=2.4)
        assert type(derived) is AtomDriveConfig
        assert derived == built and hash(derived) == hash(built)
        assert repr(derived) == repr(built)
        assert pickle.loads(pickle.dumps(derived)) == built
        with pytest.raises(AttributeError):
            derived.nu = 1.0
        with pytest.raises(AttributeError):
            derived.omega0 = 1.0
        assert derived.nu == nu and derived.omega0 == 10.0


@pytest.mark.parametrize("derive, message", [
    (lambda cfg: cfg.attenuated(-1.0), "power_fraction must be non-negative"),
    (lambda cfg: cfg.attenuated(math.nan), "g must be finite"),
    (lambda cfg: cfg.with_laser_frequency(0.0), "nu must be positive"),
    (lambda cfg: cfg.with_laser_frequency(math.nan), "nu must be finite"),
    (lambda cfg: cfg.with_laser_frequency(math.inf), "nu must be finite"),
    (lambda cfg: cfg.with_laser_frequency(-math.inf), "nu must be finite"),
    (lambda cfg: cfg.with_laser_frequency(-9.5), "nu must be positive"),
], ids=["attenuated-negative", "attenuated-nan", "nu-zero", "nu-nan",
        "nu-inf", "nu-minus-inf", "nu-negative"])
def test_derived_configs_keep_the_checks(derive, message):
    cfg = AtomDriveConfig(omega0=10.0, gamma=1.0, g=2.0, nu=9.0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        derive(cfg)


# one valid instance of each input type
RECORDS = {
    "AtomDriveConfig": lambda: AtomDriveConfig(10.0, 1.0, 2.0, 9.0, 2.4),
    "CellConfig": lambda: CellConfig(10.0, 0.1, 2e11, 2.4, 500.0),
    "AbsorptionDataset": lambda: AbsorptionDataset((1.0, 2.0), (0.1, 0.2)),
    "FlatHotSpectrum": lambda: FlatHotSpectrum(1.0, 2.0),
    "CubicColdSpectrum": lambda: CubicColdSpectrum(1.0, 2.0, 0.5),
    "ZeroSpectrum": lambda: ZeroSpectrum(0.5),
    "TabulatedSpectrum": lambda: TabulatedSpectrum((-1.0, 1.0), (0.5, 1.0), 2.0),
}


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in record.__slots__)


class TestRecords:
    @pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS)
    def test_fields_cannot_be_assigned_or_deleted(self, make):
        record = make()
        for name in (*record.__slots__, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1.0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert not hasattr(record, "__dict__")
        assert _fields(record) == _fields(make())

    @pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS)
    def test_equal_fields_give_equal_records_of_one_type(self, make):
        record, twin = make(), make()
        assert record is not twin
        assert record == twin and not record != twin
        assert hash(record) == hash(twin)
        assert record != _fields(record) and _fields(record) != record
        subtype = type("Subtype", (type(record),), {"__slots__": ()})
        other = subtype(*_fields(record))
        assert record != other and other != record

    @pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS)
    def test_pickle_round_trip(self, make):
        record = make()
        restored = pickle.loads(pickle.dumps(record))
        assert type(restored) is type(record)
        assert restored == record and _fields(restored) == _fields(record)

    def test_repr_names_every_field(self):
        assert repr(FlatHotSpectrum(1.0, 2.0)) == (
            "FlatHotSpectrum(plateau=1.0, temperature=2.0)")
        assert repr(AtomDriveConfig(10.0, 1.0, 2.0, 9.0)) == (
            "AtomDriveConfig(omega0=10.0, gamma=1.0, g=2.0, nu=9.0, "
            "laser_power=0.0)")

    def test_a_changed_field_gives_an_unequal_record(self):
        cfg = AtomDriveConfig(10.0, 1.0, 2.0, 9.0)
        assert cfg.with_laser_frequency(9.5) != cfg
        assert FlatHotSpectrum(1.0, 2.0) != FlatHotSpectrum(1.0, 3.0)


nan, inf = math.nan, math.inf


@pytest.mark.parametrize("make, error, message", [
    (lambda: AtomDriveConfig(nan, 1.0, 0.0, 1.0), ValueError,
     "omega0 must be finite"),
    (lambda: AtomDriveConfig(1.0, inf, 0.0, 1.0), ValueError,
     "gamma must be finite"),
    (lambda: AtomDriveConfig(-1.0, 1.0, inf, 1.0), ValueError,
     "g must be finite"),
    (lambda: AtomDriveConfig(1.0, 1.0, 0.0, -inf), ValueError,
     "nu must be finite"),
    (lambda: AtomDriveConfig(1.0, 1.0, 0.0, 1.0, nan), ValueError,
     "laser_power must be finite"),
    (lambda: AtomDriveConfig(0.0, 0.0, 0.0, 1.0), ValueError,
     "omega0 must be positive"),
    (lambda: AtomDriveConfig(1.0, 0.0, 0.0, 0.0), ValueError,
     "nu must be positive"),
    (lambda: AtomDriveConfig(1.0, 0.0, -1.0, 1.0), ValueError,
     "gamma must be positive"),
    (lambda: AtomDriveConfig(1.0, 1.0, -1.0, 1.0, -1.0), ValueError,
     "g must be non-negative"),
    (lambda: AtomDriveConfig(1.0, 1.0, 0.0, 1.0, -1.0), ValueError,
     "laser_power must be non-negative"),
    (lambda: CellConfig(0.0, -1.0, 1.0, 1.0, 1.0), ValueError,
     "length_mm must be positive"),
    (lambda: CellConfig(1.0, -1.0, -1.0, 1.0, 1.0), ValueError,
     "absorption coefficient must be non-negative"),
    (lambda: CellConfig(1.0, 0.0, -1.0, 0.0, 1.0), ValueError,
     "atom density must be non-negative"),
    (lambda: CellConfig(1.0, 0.0, 1.0, 0.0, 0.0), ValueError,
     "laser power must be positive"),
    (lambda: CellConfig(1.0, 0.0, 1.0, 1.0, 0.0), ValueError,
     "bath temperature must be positive"),
    # NaN fails every positivity check; each NaN row keeps its own id
    pytest.param(lambda: CellConfig(nan, -1.0, 1.0, 1.0, 1.0), ValueError,
                 "length_mm must be positive", id="nan-length_mm"),
    pytest.param(lambda: CellConfig(1.0, nan, -1.0, 1.0, 1.0), ValueError,
                 "absorption coefficient must be non-negative",
                 id="nan-absorption-coefficient"),
    pytest.param(lambda: CellConfig(1.0, 0.0, nan, 0.0, 1.0), ValueError,
                 "atom density must be non-negative", id="nan-atom-density"),
    pytest.param(lambda: CellConfig(1.0, 0.0, 1.0, nan, 0.0), ValueError,
                 "laser power must be positive", id="nan-laser-power"),
    pytest.param(lambda: CellConfig(1.0, 0.0, 1.0, 1.0, nan), ValueError,
                 "bath temperature must be positive",
                 id="nan-bath-temperature"),
    (lambda: AbsorptionDataset((), ()), ConfigError,
     "dataset needs matching nu/absorption columns"),
    (lambda: AbsorptionDataset((1.0, 2.0), (0.5,)), ConfigError,
     "dataset needs matching nu/absorption columns"),
    (lambda: AbsorptionDataset((1.0, nan), (0.5, 2.0)), ConfigError,
     "dataset frequencies must be finite numbers"),
    (lambda: AbsorptionDataset((2.0, 1.0), (0.5, 2.0)), ConfigError,
     "dataset frequencies must be strictly increasing"),
    pytest.param(lambda: AbsorptionDataset((-1.0, 1e300), (0.5, 2.0)),
                 ConfigError, "dataset frequencies must be positive",
                 id="nonpositive-dataset-frequency"),
    pytest.param(lambda: AbsorptionDataset((1.0, 1e300), (0.5, 2.0)),
                 ConfigError, "dataset frequency 1e+300 THz overflows "
                 "internal units", id="overflowing-dataset-frequency"),
    (lambda: AbsorptionDataset((1.0, 2.0), (0.5, nan)), ConfigError,
     "absorption probabilities must lie in [0, 1]"),
    (lambda: FlatHotSpectrum(0.0, 0.0), ValueError,
     "plateau must be positive"),
    (lambda: FlatHotSpectrum(1.0, 0.0), ValueError,
     "hot-bath temperature must be positive"),
    pytest.param(lambda: FlatHotSpectrum(nan, 0.0), ValueError,
                 "plateau must be positive", id="nan-plateau"),
    pytest.param(lambda: FlatHotSpectrum(1.0, nan), ValueError,
                 "hot-bath temperature must be positive",
                 id="nan-hot-bath-temperature"),
    (lambda: CubicColdSpectrum(0.0, 0.0, -1.0), ValueError,
     "gamma must be positive"),
    (lambda: CubicColdSpectrum(1.0, 0.0, -1.0), ValueError,
     "omega0 must be positive"),
    (lambda: CubicColdSpectrum(1.0, 1.0, -1.0), ValueError,
     "temperature must be non-negative"),
    pytest.param(lambda: CubicColdSpectrum(nan, 0.0, -1.0), ValueError,
                 "gamma must be positive", id="nan-gamma"),
    pytest.param(lambda: CubicColdSpectrum(1.0, nan, -1.0), ValueError,
                 "omega0 must be positive", id="nan-omega0"),
    pytest.param(lambda: CubicColdSpectrum(1.0, 1.0, nan), ValueError,
                 "temperature must be non-negative", id="nan-cold-temperature"),
    (lambda: TabulatedSpectrum((1.0,), (1.0,), -1.0), ConfigError,
     "tabulated spectrum needs >= 2 (omega, value) rows"),
    (lambda: TabulatedSpectrum((1.0, inf), (-1.0, 1.0), -1.0), ConfigError,
     "tabulated spectrum rows must be finite numbers"),
    (lambda: TabulatedSpectrum((2.0, 1.0), (-1.0, 1.0), -1.0), ConfigError,
     "tabulated frequencies must be strictly increasing"),
    (lambda: TabulatedSpectrum((1.0, 2.0), (-1.0, 1.0), -1.0), ConfigError,
     "tabulated spectrum values must be non-negative"),
    (lambda: TabulatedSpectrum((1.0, 2.0), (1.0, 1.0), -1.0), ConfigError,
     "temperature must be non-negative"),
    pytest.param(lambda: TabulatedSpectrum((1.0, 2.0), (1.0, 1.0), nan),
                 ConfigError, "temperature must be non-negative",
                 id="nan-tabulated-temperature"),
    (lambda: ZeroSpectrum(-1.0), ValueError,
     "temperature must be non-negative"),
    pytest.param(lambda: ZeroSpectrum(nan), ValueError,
                 "temperature must be non-negative",
                 id="nan-zero-temperature"),
    pytest.param(lambda: boltzmann_weight(1.0, nan), ValueError,
                 "temperature must be non-negative",
                 id="nan-boltzmann-temperature"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_constructor_messages(make, error, message):
    # each case breaks the named check and every check after it, so the
    # checks run in their documented order
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value) == message


complex_entry = st.complex_numbers(max_magnitude=10, allow_nan=False,
                                   allow_infinity=False)


@st.composite
def matrix2(draw):
    return np.array([[draw(complex_entry), draw(complex_entry)],
                     [draw(complex_entry), draw(complex_entry)]])


def test_pauli_algebra():
    assert np.allclose(SIGMA_PLUS + SIGMA_MINUS, SIGMA_X)
    assert np.allclose(SIGMA_Z @ SIGMA_Z, np.eye(2))
    for m in (SIGMA_X, SIGMA_Z):
        assert np.abs(m - m.conj().T).max() <= 1e-12 * max(1.0, np.abs(m).max())


def test_vec_round_trip():
    m = np.array([[1.0, 2.0j], [3.0, 4.0]])
    assert np.array_equal(unvec(vec(m)), m)


@given(s=matrix2(), h=matrix2())
@settings(max_examples=100)
def test_dissipator_preserves_hermiticity_and_trace(s, h):
    rho = hermitize(h) + 2 * np.abs(h).max() * np.eye(2) + np.eye(2)
    rho = rho / np.trace(rho)
    out = unvec(dissipator(s) @ vec(rho))
    assert np.abs(out - out.conj().T).max() <= 1e-10 * max(1.0, np.abs(out).max())
    assert abs(np.trace(out)) <= 1e-10 * max(1.0, np.abs(out).max())
