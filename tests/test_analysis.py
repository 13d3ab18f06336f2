import decimal
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from licore import analysis, floquet
from licore.analysis import (
    LICORE,
    RESOLVED,
    SIDEBAND,
    UNRESOLVED,
    doppler_efficiency_bound,
    doppler_temperature_limit,
    licore_temperature_limit,
    method_comparison,
    min_temp_asymptotic,
    min_temp_bisect,
    min_temp_exact,
    sideband_temperature_limit,
)
from licore.config import AtomDriveConfig
from licore.errors import DomainError, NoSolutionError
from licore.floquet import (dressed_flows, heat_current_exact,
                            hot_channel_rate, sideband_weights)
from licore.spectra import (BathSpectrum, CubicColdSpectrum, FlatHotSpectrum,
                            boltzmann_weight)
from licore.units import amu_to_kg, kelvin_to_internal, thz_to_internal


def make_cfg(delta=1.0, g=1e-3, gamma=0.05, nu=99.0):
    return AtomDriveConfig(omega0=nu + delta, gamma=gamma, g=g, nu=nu)


def floor_balance(cfg, t_cold):
    """The floor's (d+ e^(-nu+/Tc) + d-) / (d+ + d- e^(-nu-/Tc)), written
    out in floquet._hot_balance's order."""
    d_plus, d_minus = sideband_weights(cfg)
    return ((d_plus * boltzmann_weight(cfg.nu + cfg.rabi, t_cold) + d_minus)
            / (d_plus + d_minus * boltzmann_weight(cfg.nu - cfg.rabi, t_cold)))


def scaled_limits(comp):
    return {(rec.method, rec.regime): rec.t_min_scaled for rec in comp.limits}


class TestMinTempParams:
    """The sideband frequencies nu +/- rabi and weights d+/- that enter the
    balance condition."""

    def test_sideband_ordering_and_positivity(self):
        cfg = make_cfg(g=0.01)
        d_plus, d_minus = sideband_weights(cfg)
        assert cfg.nu + cfg.rabi > cfg.nu - cfg.rabi > 0
        assert d_plus > 0 and d_minus > 0

    def test_weights_factorize_through_cold_spectrum(self):
        # delta_+/- must equal the squared sideband amplitude times the cold
        # spectrum evaluated at nu_+/-
        cfg = make_cfg(delta=2.0, g=0.3)
        cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0)
        d_plus, d_minus = sideband_weights(cfg)
        rabi, delta = cfg.rabi, cfg.detuning
        c_plus = ((rabi + delta) / (2 * rabi)) ** 2
        c_minus = ((rabi - delta) / (2 * rabi)) ** 2
        assert d_plus == pytest.approx(c_plus * cold.value(cfg.nu + rabi), rel=1e-14)
        assert d_minus == pytest.approx(c_minus * cold.value(cfg.nu - rabi), rel=1e-14)

    def test_lower_sideband_closes_as_drive_vanishes(self):
        _, d_minus = sideband_weights(make_cfg(g=1e-8))
        assert d_minus < 1e-30


class TestMinTempExact:
    def test_vacuum_closed_form(self):
        cfg = make_cfg(g=0.01)
        d_plus, d_minus = sideband_weights(cfg)
        expected = cfg.rabi / math.log(d_plus / d_minus)
        assert min_temp_exact(cfg, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_balance_residual_at_root(self):
        for t_cold in (0.0, 5.0, 20.0):
            cfg = make_cfg(g=0.01)
            t_min = min_temp_exact(cfg, t_cold)
            rhs = floor_balance(cfg, t_cold)
            assert floquet._hot_balance(cfg, 1.0, t_cold)[0] == rhs
            lhs = boltzmann_weight(cfg.rabi, t_min)
            assert abs(lhs - rhs) / max(rhs, 1e-300) <= 1e-12

    def test_current_changes_sign_across_root(self):
        cfg = make_cfg(g=0.01)
        for t_cold in (0.0, 10.0):
            t_min = min_temp_exact(cfg, t_cold)
            k = 0.37  # any positive pumping rate; the root is rate-free
            assert heat_current_exact(cfg, k, 1.5 * t_min, t_cold) > 0.0
            assert heat_current_exact(cfg, k, 0.5 * t_min, t_cold) < 0.0

    def test_current_vanishes_at_root_vs_double_temperature(self):
        cfg = make_cfg(g=0.01)
        hot = FlatHotSpectrum(1.0, 1.0)
        k = hot_channel_rate(cfg, hot)
        t_min = min_temp_exact(cfg, 0.0)
        j_root = heat_current_exact(cfg, k, t_min, 0.0)
        j_ref = heat_current_exact(cfg, k, 2.0 * t_min, 0.0)
        assert abs(j_root) <= 1e-10 * abs(j_ref)

    def test_blue_detuning_has_no_solution(self):
        with pytest.raises(NoSolutionError):
            min_temp_exact(make_cfg(delta=-1.0), 0.0)

    def test_undriven_limit_reaches_zero(self):
        assert min_temp_exact(make_cfg(g=0.0), 0.0) == 0.0

    def test_balance_without_gain_has_no_floor(self):
        # undriven on the blue side at Tc = 0 the upper sideband is closed
        # and the lower one cannot lift the atom: the current still has a
        # value, the balance it would vanish at does not exist
        cfg = make_cfg(delta=-1.0, g=0.0)
        assert heat_current_exact(cfg, 0.37, 0.5, 0.0) < 0.0
        assert floquet._hot_balance(cfg, 0.37, 0.0)[0] == math.inf

    def test_hotter_cold_bath_raises_the_floor(self):
        # below t_cold ~ nu/50 the cold Boltzmann factors underflow and the
        # floor is numerically flat; above that it rises strictly
        cfg = make_cfg(g=0.01)
        floors = [min_temp_exact(cfg, t_cold)
                  for t_cold in (0.0, 1.0, 5.0, 10.0, 30.0, 100.0)]
        assert all(a <= b for a, b in zip(floors, floors[1:]))
        assert all(a < b for a, b in zip(floors[2:], floors[3:]))


class TestMinTempAsymptotic:
    def test_hand_value_thousandfold_detuning(self):
        # 1/(4 ln 1000) = 0.036191...
        cfg = make_cfg(delta=1.0, g=1e-3)
        expected = cfg.rabi / (4.0 * math.log(1e3))
        assert min_temp_asymptotic(cfg) == pytest.approx(expected, rel=1e-12)
        assert expected / cfg.rabi == pytest.approx(0.0362, abs=2e-4)

    def test_agrees_with_exact_root(self):
        cfg = AtomDriveConfig(omega0=101.0, gamma=0.05, g=1e-3, nu=100.0)
        exact = min_temp_exact(cfg, 0.0)
        asym = min_temp_asymptotic(cfg)
        assert abs(exact - asym) / exact <= 0.10

    def test_arbitrarily_low_with_growing_detuning_ratio(self):
        scaled = []
        for g in (1e-2, 1e-4, 1e-6, 1e-8):
            cfg = make_cfg(delta=1.0, g=g)
            scaled.append(min_temp_asymptotic(cfg) / cfg.rabi)
        assert all(a > b for a, b in zip(scaled, scaled[1:]))
        assert scaled[-1] < 0.02

    def test_deep_sub_rabi_for_moderate_ratios(self):
        for ratio in (10.0, 100.0, 1000.0):
            cfg = make_cfg(delta=1.0, g=1.0 / ratio)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # ratio 10 is advisory-range
                assert min_temp_asymptotic(cfg) / cfg.rabi < 0.2

    def test_strong_coupling_rejected(self):
        with pytest.raises(DomainError):
            min_temp_asymptotic(make_cfg(delta=1.0, g=2.0))

    def test_warns_outside_advisory_range(self):
        with pytest.warns(UserWarning, match="advisory"):
            min_temp_asymptotic(make_cfg(delta=1.0, g=0.09))


class TestMinTempBisect:
    def test_agrees_with_closed_form(self):
        for t_cold in (0.0, 3.0):
            cfg = make_cfg(g=0.01)
            exact = min_temp_exact(cfg, t_cold)
            root = min_temp_bisect(cfg, t_cold)
            assert root == pytest.approx(exact, rel=1e-11)

    @pytest.mark.parametrize("drive, t_cold, root_bits", [
        (dict(g=0.01), 0.0, "0x1.bb567fc242000p-5"),
        (dict(delta=1.0, g=0.8), 3.0, "0x1.86541b2aa24d4p-1"),
        (dict(delta=5.0, g=0.2), 3.0, "0x1.8586dd85187c3p-2"),
    ])
    def test_each_temperature_evaluated_once(self, monkeypatch, drive,
                                             t_cold, root_bits):
        # Brent's method starts from the values the sign check took at the
        # two bracket ends, so no temperature is evaluated twice; the root
        # keeps its bits.  The current's temperature-free factors are taken
        # once per check, so the current the balance returns is counted
        temps = []
        hot_balance = floquet._hot_balance

        def counted_balance(cfg, gamma_p, t_cold):
            ratio, current = hot_balance(cfg, gamma_p, t_cold)

            def counted(t_hot):
                temps.append(t_hot)
                return current(t_hot)

            return ratio, counted

        monkeypatch.setattr(analysis, "_hot_balance", counted_balance)
        cfg = make_cfg(**drive)
        root = min_temp_bisect(cfg, t_cold)
        assert root == float.fromhex(root_bits)
        t_root = min_temp_exact(cfg, t_cold)
        assert temps[:2] == [t_root / 10.0, t_root * 10.0]
        assert len(temps) == len(set(temps))

    def test_one_factor_set_per_check(self, monkeypatch):
        # the closed-form floor and the bracketed current share one
        # balance, so a check takes the sideband weights once
        calls = []
        weights = floquet.sideband_weights

        def counted(cfg):
            calls.append(cfg)
            return weights(cfg)

        for module in (floquet, analysis):
            if hasattr(module, "sideband_weights"):
                monkeypatch.setattr(module, "sideband_weights", counted)
        min_temp_bisect(make_cfg(delta=1.0, g=0.8), 3.0)
        assert len(calls) == 1


class TestClosedFormBits:
    """sideband_weights, hot_channel_rate and min_temp_exact read the
    dressing and the balance ratio of floquet; each keeps the bits of the
    formula it once wrote out inline."""

    @given(delta=st.floats(0.1, 10.0), red=st.booleans(),
           log_ratio=st.floats(-4.0, math.log10(3.0)),
           log_gap=st.floats(-4.0, 2.0),
           warm=st.one_of(st.just(0.0), st.floats(0.005, 0.2)))
    @settings(max_examples=400, deadline=None)
    def test_bits_of_the_inline_formulas(self, delta, red, log_ratio,
                                         log_gap, warm):
        # nu from just above rabi, where the channels nearly coincide, to a
        # hundred times past it; the cold bath at 0 or a fraction of nu
        delta = delta if red else -delta
        g = 10.0 ** log_ratio * abs(delta)
        rabi = math.hypot(2.0 * g, delta)
        nu = rabi * (1.0 + 10.0 ** log_gap)
        cfg = AtomDriveConfig(omega0=nu + delta, gamma=0.05, g=g, nu=nu)
        t_cold = warm * nu
        hot = FlatHotSpectrum(0.3, 2.0 * rabi)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "nu - rabi nearly vanishes")
            weights = sideband_weights(cfg)
            rate = hot_channel_rate(cfg, hot)
        # omega0 - nu need not round back to the sampled detuning
        delta, rabi = cfg.detuning, cfg.rabi
        d_plus = (((rabi + delta) / (2 * rabi)) ** 2
                  * ((nu + rabi) / cfg.omega0) ** 3 * cfg.gamma)
        d_minus = (((rabi - delta) / (2 * rabi)) ** 2
                   * ((nu - rabi) / cfg.omega0) ** 3 * cfg.gamma)
        assert weights == (d_plus, d_minus)
        assert rate == (2.0 * g / rabi) ** 2 * hot.value(rabi)
        if not red:
            return
        bw_p = boltzmann_weight(nu + rabi, t_cold)
        bw_m = boltzmann_weight(nu - rabi, t_cold)
        ratio = (d_plus * bw_p + d_minus) / (d_plus + d_minus * bw_m)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "nu - rabi nearly vanishes")
            if ratio >= 1.0 or ratio == 0.0:
                with pytest.raises(NoSolutionError if ratio else DomainError):
                    min_temp_exact(cfg, t_cold)
                return
            t_min = min_temp_exact(cfg, t_cold)
        assert t_min == -rabi / math.log(ratio)


class _Lorentzian(BathSpectrum):
    """A value-only KMS hot shape: amplitude width^2 / (w^2 + width^2)
    for w >= 0, times the Boltzmann weight below zero."""

    def __init__(self, amplitude, width, temperature):
        self.amplitude, self.width = amplitude, width
        self.temperature = temperature

    def value(self, omega):
        shape = self.amplitude * self.width ** 2 / (omega * omega
                                                    + self.width ** 2)
        if omega >= 0:
            return shape
        return shape * boltzmann_weight(-omega, self.temperature)


class TestFloorForAnyHotShape:
    """The hot sigma_z channel sits at frequency 0 and carries no heat, so
    J_hot vanishes where the sigma- channel at rabi is thermal, whatever
    the hot shape: tmin's closed form is the floor of any KMS hot
    spectrum with G(rabi) > 0."""

    @pytest.mark.parametrize("t_cold_k", [0.0, 300.0])
    @pytest.mark.parametrize("g_thz", [0.01, 0.1, 0.5, 2.0])
    @pytest.mark.parametrize("width_thz", [0.1, 1.0, 100.0])
    def test_root_of_the_exact_current_is_min_temp_exact(
            self, width_thz, g_thz, t_cold_k):
        cfg = AtomDriveConfig.from_thz(377.0, 6e-6, g_thz, 372.0)
        t_cold = kelvin_to_internal(t_cold_k)
        cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, t_cold)
        amplitude, width = thz_to_internal(0.002), thz_to_internal(width_thz)

        def j_hot(t_hot):
            hot = _Lorentzian(amplitude, width, t_hot)
            return dressed_flows(cfg, hot, cold).j_hot

        t_min = min_temp_exact(cfg, t_cold)
        root = brentq(j_hot, t_min / 10.0, t_min * 10.0, xtol=1e-300,
                      rtol=4 * np.finfo(float).eps)
        assert root == pytest.approx(t_min, rel=1e-12, abs=0)


class TestMethodComparison:
    def test_doppler_quarter(self):
        assert doppler_temperature_limit() == 0.25

    def test_resolved_sideband_hand_value(self):
        # rabi/gamma = 10: 1/ln(1 + 16*100) = 1/ln(1601)
        val = sideband_temperature_limit(1.0, 10.0, RESOLVED)
        assert val == pytest.approx(1.0 / math.log(1601.0), rel=1e-14)

    def test_unresolved_sideband_hand_value(self):
        # rabi/gamma = 0.1: gamma/(4 rabi) = 2.5 -> 1/ln(3.5/2.5), above one
        val = sideband_temperature_limit(1.0, 0.1, UNRESOLVED)
        assert val == pytest.approx(1.0 / math.log(3.5 / 2.5), rel=1e-14)
        assert val > 1.0

    @pytest.mark.parametrize("regime", [UNRESOLVED, RESOLVED])
    def test_sideband_limit_against_50_digits(self, regime):
        # r = gamma / (4 rabi) from 1e-3 to 1e300, gamma the fixture's 6e-6
        # THz.  ln((1 + r) / r) lost the digits of 1/r, and then rounded to
        # zero; where the limit leaves the float range it is a DomainError
        gamma = thz_to_internal(6e-6)
        worst = 0.0
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            for k in range(-3, 301):
                rabi = gamma / (4.0 * 10.0 ** k)
                x = 4 * decimal.Decimal(rabi) / decimal.Decimal(gamma)
                if regime == RESOLVED:
                    x *= x
                if x > decimal.Decimal("1e-5"):
                    log = (1 + x).ln()
                else:   # the series, as 1 + x would round x away
                    log = sum((-1) ** (n + 1) * x ** n / n for n in range(1, 12))
                want = 1 / log
                if want > decimal.Decimal(sys.float_info.max):
                    with pytest.raises(DomainError, match="overflows"):
                        sideband_temperature_limit(gamma, rabi, regime)
                    continue
                got = sideband_temperature_limit(gamma, rabi, regime)
                worst = max(worst, abs(decimal.Decimal(got) / want - 1))
        assert worst <= 1e-15

    def test_licore_hand_value(self):
        assert licore_temperature_limit(10.0, 1.0) == \
            pytest.approx(1.0 / (4.0 * math.log(10.0)), rel=1e-14)

    def test_doppler_efficiency_bound_is_tiny_for_atoms(self):
        nu = 2 * math.pi * 377e12
        bound = doppler_efficiency_bound(nu, amu_to_kg(86.909))
        assert 0 < bound < 1e-7

    def test_qualitative_annotations(self):
        # unresolved operation (gamma/rabi = 10) and resolved (0.1), with
        # drive ratio detuning/g = 1000
        for gamma_over_rabi in (10.0, 0.1):
            rabi = 1.0
            gamma = gamma_over_rabi * rabi
            comp = method_comparison(gamma, rabi, 1.0, 1e-3, 99.0, 100.0,
                                     amu_to_kg(86.909))
            limits = scaled_limits(comp)
            assert limits["doppler", UNRESOLVED] == 0.25
            assert limits["doppler", RESOLVED] == 0.25
            assert limits[LICORE, comp.operating_regime] < 1.0
        unres = method_comparison(10.0, 1.0, 1.0, 1e-3, 99.0, 100.0, 1e-25)
        assert unres.operating_regime == UNRESOLVED
        assert scaled_limits(unres)[SIDEBAND, UNRESOLVED] > 1.0
        assert scaled_limits(unres)[LICORE, UNRESOLVED] < 1.0
        res = method_comparison(0.1, 1.0, 1.0, 1e-3, 99.0, 100.0, 1e-25)
        assert res.operating_regime == RESOLVED
        assert scaled_limits(res)[SIDEBAND, RESOLVED] < 1.0

    def test_licore_beats_sideband_when_bands_unresolved(self):
        limits = scaled_limits(method_comparison(10.0, 1.0, 1.0, 1e-3, 99.0,
                                                 100.0, 1e-25))
        assert limits[LICORE, UNRESOLVED] < limits[SIDEBAND, UNRESOLVED]
