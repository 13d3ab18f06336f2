import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from licore.config import AtomDriveConfig
from licore.errors import DomainError
from licore.rate_model import (
    EnergyFlowReport,
    atom_temperature,
    energy_flow,
    pumping_rate,
    regime_of,
    steady_state,
    weak_drive_defect,
    weak_flows,
)
from licore.floquet import bare_from_dressed, dressed_flows
from licore.spectra import CubicColdSpectrum, FlatHotSpectrum


def cfg_with(delta, g=1e-3, gamma=1.0, omega0=1e4):
    return AtomDriveConfig(omega0=omega0, gamma=gamma, g=g, nu=omega0 - delta)


def asymmetry(cfg, gamma_p, t_hot):
    """-J(-detuning)/J(+detuning); swapping omega0 and nu negates the
    detuning bit-exactly."""
    mirrored = AtomDriveConfig(omega0=cfg.nu, gamma=cfg.gamma, g=cfg.g,
                               nu=cfg.omega0)
    return (-weak_flows(mirrored, gamma_p, t_hot)[0]
            / weak_flows(cfg, gamma_p, t_hot)[0])


class TestPumpingRate:
    def test_no_drive_no_pumping(self):
        hot = FlatHotSpectrum(5.0, 10.0)
        assert pumping_rate(cfg_with(3.0, g=0.0), hot) == 0.0

    def test_hand_value(self):
        # (2*1/10)^2 * 5 = 0.2
        hot = FlatHotSpectrum(5.0, 10.0)
        assert pumping_rate(cfg_with(10.0, g=1.0), hot) == pytest.approx(0.2, rel=1e-15)

    def test_sign_symmetric_for_flat_spectrum(self):
        hot = FlatHotSpectrum(5.0, 10.0)
        assert pumping_rate(cfg_with(4.0, g=1.0), hot) == \
            pumping_rate(cfg_with(-4.0, g=1.0), hot)

    def test_zero_detuning_directs_to_floquet(self):
        hot = FlatHotSpectrum(5.0, 10.0)
        with pytest.raises(DomainError, match="floquet"):
            pumping_rate(cfg_with(0.0, g=1.0), hot)

    def test_weak_drive_domain_boundary(self):
        # g < |detuning| on either branch, and no zero detuning
        for delta in (1.0, -1.0):
            assert weak_drive_defect(math.nextafter(1.0, 0.0), delta) is None
            assert "not small" in weak_drive_defect(1.0, delta)
        assert "zero detuning" in weak_drive_defect(0.0, 0.0)


class TestSteadyState:
    def test_equilibrates_with_bath_when_gamma_negligible(self):
        # gamma -> 0 limit: ratio -> exp(-delta/T), i.e. T_TLA -> T_hot
        cfg = cfg_with(2.0, gamma=1e-12)
        pt = steady_state(cfg, gamma_p=1.0, t_hot=4.0)
        assert pt.boltzmann_factor == pytest.approx(math.exp(-0.5), rel=1e-9)
        assert pt.t_tla == pytest.approx(4.0, rel=1e-9)

    def test_hand_value_matched_rates(self):
        # gamma_p = gamma, delta/T = 1: ratio = e^-1 / 2
        cfg = cfg_with(4.0, gamma=1.0)
        pt = steady_state(cfg, gamma_p=1.0, t_hot=4.0)
        assert pt.boltzmann_factor == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-14)

    def test_cooling_branch_colder_than_bath(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            delta = rng.uniform(0.1, 5.0)
            t_hot = rng.uniform(0.5, 10.0)
            gamma = 10.0 ** rng.uniform(-3, 3)
            gamma_p = 10.0 ** rng.uniform(-3, 3)
            pt = steady_state(cfg_with(delta, gamma=gamma), gamma_p, t_hot)
            assert pt.boltzmann_factor <= math.exp(-delta / t_hot) * (1 + 1e-12)
            assert pt.t_tla <= t_hot * (1 + 1e-12)

    def test_heating_branch_hotter_than_bath(self):
        # blue side: collisions lift at gamma_p and lower at gamma_p b, so
        # rho_ee/rho_gg = gamma_p / (gamma + gamma_p b).  It always exceeds
        # the mirrored cooling point's ratio, and the bath factor b exactly
        # when gamma_p (1 - b^2) > b gamma; strong decay keeps it below b.
        rng = np.random.default_rng(8)
        for _ in range(200):
            delta = -rng.uniform(0.1, 5.0)
            t_hot = rng.uniform(0.5, 10.0)
            gamma = 10.0 ** rng.uniform(-3, 3)
            gamma_p = 10.0 ** rng.uniform(-3, 3)
            b = math.exp(delta / t_hot)
            pt = steady_state(cfg_with(delta, gamma=gamma), gamma_p, t_hot)
            mirrored = steady_state(cfg_with(-delta, gamma=gamma), gamma_p, t_hot)
            assert pt.boltzmann_factor == pytest.approx(
                gamma_p / (gamma + gamma_p * b), rel=1e-12)
            assert pt.boltzmann_factor > mirrored.boltzmann_factor
            margin = gamma_p * (1.0 - b * b) / (b * gamma)
            if abs(margin - 1.0) > 1e-9:
                assert (pt.boltzmann_factor > b) == (margin > 1.0)
                assert (pt.t_tla > t_hot) == (margin > 1.0)
            assert pt.rho_ee + pt.rho_gg == pytest.approx(1.0, abs=1e-14)

    def test_population_inversion_marker(self):
        # (1 - b) gamma_p > gamma: pumping outruns decay, rho_ee > rho_gg
        cfg = cfg_with(-2.0, gamma=0.5)
        hot = FlatHotSpectrum(1e6, 1.0)     # gamma_p = (2g/delta)^2 1e6 = 1
        gamma_p = pumping_rate(cfg, hot)
        assert (1.0 - math.exp(-2.0)) * gamma_p > cfg.gamma
        pt = steady_state(cfg, gamma_p, hot.temperature)
        assert pt.boltzmann_factor == pytest.approx(
            1.0 / (0.5 + math.exp(-2.0)), rel=1e-14)
        assert pt.rho_ee > pt.rho_gg
        assert math.isinf(pt.t_tla)
        cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0)
        ee, gg = bare_from_dressed(cfg, dressed_flows(cfg, hot, cold).populations)
        assert ee > gg
        assert ee == pytest.approx(pt.rho_ee, rel=1e-5)

    def test_no_pumping_leaves_ground_state(self):
        # gamma_p = 0: only decay acts, on either branch
        for delta in (2.0, -2.0):
            pt = steady_state(cfg_with(delta), gamma_p=0.0, t_hot=1.0)
            assert pt == (0.0, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("delta, upper, lower, expected", [
        (-2.0, math.exp(-1.0), 1.0, 2.0),
        (2.0, 0.0, 1.0, 0.0),
        (2.0, -1e-20, 1.0, 0.0),     # a population rounded below zero
        (2.0, 0.5, 0.5, math.inf),
        (2.0, 0.7, 0.3, math.inf),
    ], ids=["ratio", "empty", "rounded-below-zero", "equal", "inverted"])
    def test_atom_temperature(self, delta, upper, lower, expected):
        assert atom_temperature(delta, upper, lower) == expected

    @given(
        delta=st.floats(min_value=1e-3, max_value=1e3),
        blue=st.booleans(),
        ratio=st.floats(min_value=1e-3, max_value=5e2),
        gamma=st.floats(min_value=1e-3, max_value=1e3),
        gamma_p=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=300)
    def test_populations_carry_the_heat_current(self, delta, blue, ratio,
                                                gamma, gamma_p):
        # one balance: gamma rho_ee delta is weak_flows' J_hot on both branches
        t_hot = delta / ratio
        cfg = cfg_with(-delta if blue else delta, gamma=gamma)
        pt = steady_state(cfg, gamma_p, t_hot)
        j_hot = weak_flows(cfg, gamma_p, t_hot)[0]
        assert gamma * pt.rho_ee * cfg.detuning == pytest.approx(j_hot,
                                                                 rel=1e-14)


class TestHeatCurrent:
    def test_no_fluorescence_channel_no_extraction(self):
        cfg = cfg_with(1.0, gamma=1e-300)
        assert weak_flows(cfg, 1.0, 1.0)[0] == pytest.approx(0.0, abs=1e-290)

    def test_hand_value(self):
        # delta = T = gamma = gamma_p = 1: J = e^-1 / (2 + e^-1)
        cfg = cfg_with(1.0, gamma=1.0)
        expected = math.exp(-1.0) / (2.0 + math.exp(-1.0))
        assert weak_flows(cfg, 1.0, 1.0)[0] == pytest.approx(expected, rel=1e-14)

    def test_sign_follows_detuning(self):
        assert weak_flows(cfg_with(2.0), 1.0, 1.0)[0] > 0
        assert weak_flows(cfg_with(-2.0), 1.0, 1.0)[0] < 0
        assert weak_flows(cfg_with(2.0), 0.0, 1.0)[0] == 0.0

    @given(
        delta=st.floats(min_value=1e-3, max_value=1e3),
        ratio=st.floats(min_value=1e-3, max_value=5e2),
        gamma=st.floats(min_value=1e-3, max_value=1e3),
        gamma_p=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=300)
    def test_cooling_universality(self, delta, ratio, gamma, gamma_p):
        t_hot = delta / ratio
        j = weak_flows(cfg_with(delta, g=0.0, gamma=gamma), gamma_p, t_hot)[0]
        assert j > 0.0

    def test_strong_coupling_rejected(self):
        with pytest.raises(DomainError, match="floquet"):
            weak_flows(cfg_with(1.0, g=1.5), 1.0, 1.0)
        with pytest.raises(DomainError, match="floquet"):
            pumping_rate(cfg_with(1.0, g=1.0), FlatHotSpectrum(5.0, 10.0))

    def test_vanishes_monotonically_at_low_bath_temperature(self):
        cfg = cfg_with(1.0, gamma=1.0)
        temps = np.geomspace(1e-2, 1e2, 40)
        currents = [weak_flows(cfg, 1.0, t)[0] for t in temps]
        assert all(j > 0 for j in currents)
        assert all(a < b for a, b in zip(currents, currents[1:]))
        assert currents[0] < 1e-40


class TestAsymmetry:
    def test_factor_two(self):
        # delta/T = ln 2 -> ratio 2
        cfg = cfg_with(math.log(2.0))
        assert asymmetry(cfg, 1.0, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_factor_e(self):
        cfg = cfg_with(1.0)
        assert asymmetry(cfg, 1.0, 1.0) == pytest.approx(math.e, rel=1e-12)

    def test_symmetric_limit(self):
        cfg = cfg_with(1e-9, g=0.0)
        assert asymmetry(cfg, 1.0, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_exact_identity_over_draws(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            delta = rng.uniform(1e-6, 5.0)
            t_hot = rng.uniform(0.1, 10.0)
            gamma = 10.0 ** rng.uniform(-2, 2)
            gamma_p = 10.0 ** rng.uniform(-2, 2)
            cfg = cfg_with(delta, g=0.0, gamma=gamma)
            ratio = asymmetry(cfg, gamma_p, t_hot)
            assert ratio == pytest.approx(math.exp(cfg.detuning / t_hot),
                                          rel=1e-12)


class TestAbsorbedPowerAndEfficiency:
    def test_no_collisions_no_absorption(self):
        assert weak_flows(cfg_with(1.0), 0.0, 1.0)[1] == 0.0

    def test_current_to_power_ratio_is_delta_over_nu(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            delta = rng.uniform(0.01, 5.0)
            cfg = cfg_with(delta, gamma=10.0 ** rng.uniform(-2, 2))
            gamma_p = 10.0 ** rng.uniform(-2, 2)
            t_hot = rng.uniform(0.1, 10.0)
            j, p = weak_flows(cfg, gamma_p, t_hot)
            assert j / p == pytest.approx(delta / cfg.nu, rel=1e-12)

    def test_heating_branch_absorbs_with_the_same_ratio(self):
        # blue side: no Boltzmann suppression, P_abs > 0 and J/P = delta/nu < 0
        cfg = cfg_with(-1.0, gamma=2.0)
        j, p = weak_flows(cfg, 3.0, 1.0)
        assert p == pytest.approx(cfg.nu * 3.0 * 2.0
                                  / (2.0 + (1.0 + math.exp(-1.0)) * 3.0),
                                  rel=1e-14)
        assert j / p == pytest.approx(cfg.detuning / cfg.nu, rel=1e-14)

    def test_full_absorption_high_temperature_limit(self):
        # T -> inf: P_abs -> nu gamma_p gamma / (gamma + 2 gamma_p)
        cfg = cfg_with(1.0, gamma=2.0)
        p = weak_flows(cfg, 3.0, 1e12)[1]
        assert p == pytest.approx(cfg.nu * 3.0 * 2.0 / (2.0 + 6.0), rel=1e-9)

    def test_efficiency_equals_current_over_laser_power(self):
        # g = 1e-3, delta = 2: pumping rate (2g/delta)^2 * 1e6 = 1
        cfg = cfg_with(2.0)
        hot = FlatHotSpectrum(1e6, 1.0)
        j = weak_flows(cfg, pumping_rate(cfg, hot), 1.0)[0]
        assert energy_flow(cfg, hot, laser_power=10.0).eta == \
            pytest.approx(j / 10.0, rel=1e-14)

    def test_efficiency_approaches_unity_when_all_photons_absorbed(self):
        # all photons absorbed (P_L = P_abs) and the redistribution shift
        # approaching the full photon energy, delta -> nu
        cfg = AtomDriveConfig(omega0=1.999, gamma=1.0, g=1e-6, nu=1.0)
        gamma_p, t_hot = 2.0, 1e9
        j_hot, p_abs = weak_flows(cfg, gamma_p, t_hot)
        eta = j_hot / p_abs
        assert eta == pytest.approx(cfg.detuning / cfg.nu, rel=1e-12)
        assert eta == pytest.approx(1.0, abs=0.002)

    def test_efficiency_zero_on_resonance(self):
        # the weak-drive flows are singular there, as the pumping rate and
        # the steady state; energy_flow reports the neutral point itself
        with pytest.raises(DomainError, match="zero detuning"):
            weak_flows(cfg_with(0.0), 1.0, 1.0)
        hot = FlatHotSpectrum(5.0, 2.0)
        assert energy_flow(cfg_with(0.0), hot, laser_power=5.0).eta == 0.0


class TestEnergyFlow:
    def test_regimes(self):
        assert regime_of(1.0, 1e-3) == "cooling"
        assert regime_of(-1.0, 1e-3) == "heating"
        assert regime_of(0.0, 1e-3) == "neutral"
        assert regime_of(1.0, 0.0) == "neutral"

    def test_report_conserves_energy(self):
        hot = FlatHotSpectrum(5.0, 2.0)
        flow = energy_flow(cfg_with(1.0), hot, laser_power=100.0)
        assert isinstance(flow, EnergyFlowReport)
        assert flow.j_hot + flow.j_cold + flow.p_abs == pytest.approx(0.0, abs=1e-15)
        assert flow.regime == "cooling"
        assert 0.0 <= flow.eta <= 1.0

    def test_neutral_report_is_zero(self):
        hot = FlatHotSpectrum(5.0, 2.0)
        flow = energy_flow(cfg_with(3.0, g=0.0), hot)
        assert flow == EnergyFlowReport(0.0, 0.0, 0.0, 0.0, "neutral")

    def test_regime_iff_current_sign(self):
        # cooling <=> j_hot > 0 <=> detuning > 0, for g, gamma, pumping > 0
        rng = np.random.default_rng(21)
        hot = FlatHotSpectrum(5.0, 2.0)
        for _ in range(200):
            delta = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 6.0)
            cfg = cfg_with(delta, g=1e-3, gamma=10.0 ** rng.uniform(-2, 2))
            flow = energy_flow(cfg, hot)
            assert (flow.regime == "cooling") == (flow.j_hot > 0) == (delta > 0)
