import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from licore.config import AtomDriveConfig
from licore.operators import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    dissipator,
    hermitize,
    unvec,
    vec,
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
    assert cfg.attenuated(0.3) == dataclasses.replace(
        cfg, g=2.0 * math.sqrt(0.3))
    assert cfg.with_laser_frequency(9.5) == dataclasses.replace(cfg, nu=9.5)


@pytest.mark.parametrize("derive, message", [
    (lambda cfg: cfg.attenuated(-1.0), "power_fraction must be non-negative"),
    (lambda cfg: cfg.attenuated(math.nan), "g must be finite"),
    (lambda cfg: cfg.with_laser_frequency(0.0), "nu must be positive"),
    (lambda cfg: cfg.with_laser_frequency(math.nan), "nu must be finite"),
], ids=["attenuated-negative", "attenuated-nan", "nu-zero", "nu-nan"])
def test_derived_configs_keep_the_checks(derive, message):
    cfg = AtomDriveConfig(omega0=10.0, gamma=1.0, g=2.0, nu=9.0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        derive(cfg)


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
