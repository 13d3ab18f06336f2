import dataclasses
import math
import warnings

import numpy as np
import pytest

from licore.config import AtomDriveConfig
from licore.errors import DegenerateSteadyStateError, DomainError
from licore.floquet import (
    COLD,
    HOT,
    bare_populations,
    build_liouvillian,
    dressed_coupling_set,
    dressing_rotation,
    heat_current_exact,
    heat_currents,
    hot_channel_rate,
    rotating_frame_hamiltonian,
    sideband_weights,
    solve_pipeline,
    steady_state,
    transient_populations,
)
from licore.operators import is_hermitian, unvec, vec
from licore.rate_model import pumping_rate, weak_flows
from licore.rate_model import steady_state as rate_steady_state
from licore.spectra import CubicColdSpectrum, FlatHotSpectrum, ZeroSpectrum


def make_cfg(delta=1.0, g=1e-3, gamma=0.05, nu=99.0):
    return AtomDriveConfig(omega0=nu + delta, gamma=gamma, g=g, nu=nu)


def random_weak_cfg(rng, g_over_delta=1e-3, gamma_p_over_gamma=None):
    """Config + spectra with the pumping rate pinned relative to gamma, so
    the drawn physics stays fixed while g/delta varies."""
    delta = rng.uniform(0.5, 2.0)
    t_hot = delta / rng.uniform(0.3, 2.0)
    gamma = delta * 10.0 ** rng.uniform(-3.0, -1.0)
    nu = delta * rng.uniform(20.0, 80.0)
    g = g_over_delta * delta
    ratio = gamma_p_over_gamma or 10.0 ** rng.uniform(-0.5, 0.7)
    g0 = ratio * gamma / (2.0 * g / delta) ** 2
    cfg = AtomDriveConfig(omega0=nu + delta, gamma=gamma, g=g, nu=nu)
    hot = FlatHotSpectrum(g0, t_hot)
    return cfg, hot


class TestHamiltonian:
    def test_undriven_is_diagonal(self):
        h = rotating_frame_hamiltonian(make_cfg(delta=3.0, g=0.0))
        assert np.allclose(h, np.diag([1.5, -1.5]))

    def test_resonant_drive_eigenvalues(self):
        h = rotating_frame_hamiltonian(make_cfg(delta=0.0, g=1.0))
        assert np.allclose(sorted(np.linalg.eigvalsh(h)), [-1.0, 1.0])

    def test_gap_equals_rabi(self):
        cfg = make_cfg(delta=1.7, g=0.4)
        evals = np.linalg.eigvalsh(rotating_frame_hamiltonian(cfg))
        assert evals.max() - evals.min() == pytest.approx(cfg.rabi, rel=1e-14)

    def test_rotation_diagonalizes(self):
        cfg = make_cfg(delta=1.3, g=0.3)
        u = dressing_rotation(cfg)
        h = u.conj().T @ rotating_frame_hamiltonian(cfg) @ u
        assert np.allclose(h, np.diag([cfg.rabi / 2, -cfg.rabi / 2]), atol=1e-14)


class TestCouplingSet:
    def test_five_entries_and_effective_frequencies(self):
        cfg = make_cfg(delta=1.0, g=0.2)
        cs = dressed_coupling_set(cfg)
        assert len(cs.entries) == 5
        freqs = sorted(e.effective_frequency(cs.drive_frequency)
                       for e in cs.entries)
        rabi, nu = cfg.rabi, cfg.nu
        assert freqs == pytest.approx([0.0, rabi, nu - rabi, nu, nu + rabi])

    def test_undriven_atom_reduces_to_spontaneous_decay(self):
        cfg = make_cfg(delta=1.0, g=0.0)
        cs = dressed_coupling_set(cfg)
        by_freq = {e.dressed_freq: e for e in cs.entries if e.bath == COLD}
        assert np.abs(by_freq[-cfg.rabi].operator).max() == 0.0
        assert np.abs(by_freq[0.0].operator).max() == 0.0
        assert np.abs(by_freq[cfg.rabi].operator).max() == 1.0
        hot_rabi = [e for e in cs.entries
                    if e.bath == HOT and e.dressed_freq != 0.0][0]
        assert np.abs(hot_rabi.operator).max() == 0.0
        # the surviving channel sits at the bare resonance
        assert by_freq[cfg.rabi].effective_frequency(cs.drive_frequency) == \
            pytest.approx(cfg.omega0)

    def test_resonant_drive_splits_sidebands_evenly(self):
        cfg = make_cfg(delta=0.0, g=1.0)
        cs = dressed_coupling_set(cfg)
        cold = {e.dressed_freq: e for e in cs.entries if e.bath == COLD}
        assert np.abs(cold[-cfg.rabi].operator).max() == pytest.approx(0.5)
        assert np.abs(cold[+cfg.rabi].operator).max() == pytest.approx(0.5)
        hot_dephasing = [e for e in cs.entries
                         if e.bath == HOT and e.dressed_freq == 0.0][0]
        assert np.abs(hot_dephasing.operator).max() == 0.0

    def test_weak_drive_hot_rate_approaches_pumping_rate(self):
        cfg, hot = random_weak_cfg(np.random.default_rng(0), g_over_delta=1e-3)
        k = hot_channel_rate(cfg, hot)
        gp = pumping_rate(cfg, hot)
        assert k == pytest.approx(gp, rel=1e-5)

    def test_degenerate_config_rejected(self):
        with pytest.raises(DomainError, match="degenerate"):
            dressed_coupling_set(AtomDriveConfig(omega0=5.0, gamma=1.0,
                                                 g=0.0, nu=5.0))

    def test_ultrastrong_drive_rejected(self):
        with pytest.raises(DomainError, match="sideband"):
            dressed_coupling_set(AtomDriveConfig(omega0=30.0, gamma=1.0,
                                                 g=10.0, nu=10.0))

    def test_near_degenerate_sideband_warns(self):
        cfg = AtomDriveConfig(omega0=10.0 + 9.9999999, gamma=1.0, g=0.0,
                              nu=10.0)
        with pytest.warns(UserWarning, match="degenerate"):
            dressed_coupling_set(cfg)


class TestLiouvillian:
    def test_uncoupled_baths_give_zero_generator(self):
        cfg = make_cfg()
        liouv = build_liouvillian(dressed_coupling_set(cfg),
                                  ZeroSpectrum(1.0), ZeroSpectrum(0.0))
        assert np.abs(liouv.matrix).max() == 0.0

    def test_trace_preservation(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cfg, hot = random_weak_cfg(rng, g_over_delta=10.0 ** rng.uniform(-3, -1))
            cold = CubicColdSpectrum(cfg.gamma, cfg.omega0,
                                     rng.uniform(0.0, 1.0) * cfg.nu / 20)
            liouv = build_liouvillian(dressed_coupling_set(cfg), hot, cold)
            norm = np.linalg.norm(liouv.matrix)
            assert liouv.trace_defect() <= 1e-12 * norm

    def test_total_is_sum_of_components(self):
        cfg, hot = random_weak_cfg(np.random.default_rng(4))
        cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0)
        liouv = build_liouvillian(dressed_coupling_set(cfg), hot, cold)
        total = sum(c.matrix for c in liouv.components)
        assert np.allclose(total, liouv.matrix)

    def test_undriven_decay_rate_is_gamma(self):
        # g = 0, vacuum cold bath: excited population decays at G_cold(omega0)
        cfg = make_cfg(delta=1.0, g=0.0, gamma=0.07)
        hot = FlatHotSpectrum(5.0, 2.0)
        cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0)
        liouv = build_liouvillian(dressed_coupling_set(cfg), hot, cold)
        excited = np.diag([1.0, 0.0]).astype(complex)
        drift = unvec(liouv.matrix @ vec(excited))
        assert drift[0, 0].real == pytest.approx(-cfg.gamma, rel=1e-12)
        assert drift[1, 1].real == pytest.approx(+cfg.gamma, rel=1e-12)

    def test_non_finite_rate_rejected(self):
        # a plateau that overflowed to inf would make the generator NaN
        cfg = make_cfg()
        cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0)
        with pytest.raises(DomainError, match="non-finite"):
            build_liouvillian(dressed_coupling_set(cfg),
                              FlatHotSpectrum(math.inf, 2.0), cold)


class TestSteadyState:
    def test_pure_decay_reaches_ground_state(self):
        cfg = make_cfg(delta=1.0, g=0.0)
        hot = FlatHotSpectrum(5.0, 2.0)
        cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0)
        _, report, _ = solve_pipeline(cfg, hot, cold)
        ee, gg = bare_populations(cfg, report.rho)
        assert ee == pytest.approx(0.0, abs=1e-13)
        assert gg == pytest.approx(1.0, abs=1e-13)

    def test_weak_drive_matches_rate_model(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            cfg, hot = random_weak_cfg(rng, g_over_delta=1e-3)
            cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0)
            _, report, _ = solve_pipeline(cfg, hot, cold)
            ee, gg = bare_populations(cfg, report.rho)
            pt = rate_steady_state(cfg, pumping_rate(cfg, hot), hot.temperature)
            assert ee == pytest.approx(pt.rho_ee, rel=1e-3)
            assert gg == pytest.approx(pt.rho_gg, rel=1e-3)

    def test_single_bath_reaches_dressed_gibbs(self):
        cfg = make_cfg(delta=1.0, g=0.3, gamma=0.05)
        hot = FlatHotSpectrum(2.0, 0.8)
        liouv = build_liouvillian(dressed_coupling_set(cfg), hot,
                                  ZeroSpectrum(0.0))
        report = steady_state(liouv)
        expected = math.exp(-cfg.rabi / hot.temperature)
        assert report.rho_upper / report.rho_lower == \
            pytest.approx(expected, rel=1e-10)
        assert abs(report.coherence) <= 1e-12

    def test_density_matrix_sanity(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            cfg, hot = random_weak_cfg(rng, g_over_delta=10.0 ** rng.uniform(-3, -0.5))
            cold = CubicColdSpectrum(cfg.gamma, cfg.omega0,
                                     rng.uniform(0.0, cfg.nu / 30))
            liouv = build_liouvillian(dressed_coupling_set(cfg), hot, cold)
            report = steady_state(liouv)
            assert np.trace(report.rho).real == pytest.approx(1.0, abs=1e-14)
            assert is_hermitian(report.rho, tol=1e-12)
            assert np.linalg.eigvalsh(report.rho).min() >= -1e-12
            assert report.residual <= 1e-10 * np.linalg.norm(liouv.matrix)

    def test_zero_generator_rejected(self):
        cfg = make_cfg()
        liouv = build_liouvillian(dressed_coupling_set(cfg),
                                  ZeroSpectrum(1.0), ZeroSpectrum(0.0))
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(liouv)

    def test_failed_decomposition_is_degenerate(self):
        cfg = make_cfg()
        liouv = build_liouvillian(dressed_coupling_set(cfg),
                                  FlatHotSpectrum(5.0, 2.0),
                                  CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0))
        broken = dataclasses.replace(liouv, matrix=np.full((4, 4), np.nan))
        with pytest.raises(DegenerateSteadyStateError, match="no usable kernel"):
            steady_state(broken)

    def test_propagation_relaxes_to_kernel_state(self):
        # independent route: exp(L t) applied to an excited start must land
        # on the SVD kernel state
        from scipy.linalg import expm

        rng = np.random.default_rng(33)
        for _ in range(5):
            cfg, hot = random_weak_cfg(rng, g_over_delta=10.0 ** rng.uniform(-2, -1))
            cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.02 * cfg.nu)
            liouv = build_liouvillian(dressed_coupling_set(cfg), hot, cold)
            report = steady_state(liouv)
            rates = np.linalg.eigvals(liouv.matrix)
            slow = min(abs(r.real) for r in rates if abs(r.real) > 1e-9 * abs(rates).max())
            rho0 = np.diag([1.0, 0.0]).astype(complex)
            propagated = unvec(expm(liouv.matrix * (40.0 / slow)) @ vec(rho0))
            assert np.abs(propagated - report.rho).max() <= 1e-8

    def test_blue_detuned_undriven_atom_still_decays_to_ground(self):
        # with blue detuning the upper dressed state is the bare ground
        # state; the population map must still report full ground occupation
        cfg = AtomDriveConfig(omega0=99.0, gamma=0.05, g=0.0, nu=100.0)
        hot = FlatHotSpectrum(5.0, 2.0)
        cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0)
        _, report, _ = solve_pipeline(cfg, hot, cold)
        ee, gg = bare_populations(cfg, report.rho)
        assert ee == pytest.approx(0.0, abs=1e-13)
        assert gg == pytest.approx(1.0, abs=1e-13)


class TestHeatCurrents:
    def test_undriven_atom_carries_no_current(self):
        cfg = make_cfg(delta=1.0, g=0.0)
        hot = FlatHotSpectrum(5.0, 2.0)
        cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0)
        _, _, currents = solve_pipeline(cfg, hot, cold)
        assert currents.j_hot == pytest.approx(0.0, abs=1e-25)
        assert currents.j_cold == pytest.approx(0.0, abs=1e-25)

    def test_energy_conservation(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            cfg, hot = random_weak_cfg(rng, g_over_delta=10.0 ** rng.uniform(-3, -0.5))
            cold = CubicColdSpectrum(cfg.gamma, cfg.omega0,
                                     rng.uniform(0.0, cfg.nu / 30))
            _, _, currents = solve_pipeline(cfg, hot, cold)
            scale = max(abs(currents.j_hot), abs(currents.j_cold),
                        abs(currents.p_abs))
            assert currents.conservation_residual <= 1e-10 * scale

    def test_weak_drive_matches_rate_model_current(self):
        # relative deviation scales as (g/delta)^2 with a modest prefactor
        rng = np.random.default_rng(10)
        for g_over_delta in (1e-2, 1e-3):
            for _ in range(10):
                cfg, hot = random_weak_cfg(rng, g_over_delta=g_over_delta)
                cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0)
                _, _, currents = solve_pipeline(cfg, hot, cold)
                j_weak, _ = weak_flows(cfg, pumping_rate(cfg, hot),
                                       hot.temperature)
                rel = abs(currents.j_hot - j_weak) / j_weak
                assert rel <= 10.0 * g_over_delta ** 2

    def test_heating_on_blue_side(self):
        cfg = AtomDriveConfig(omega0=99.0, gamma=0.05, g=1e-2, nu=100.0)
        hot = FlatHotSpectrum(10.0, 1.2)
        cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0)
        _, _, currents = solve_pipeline(cfg, hot, cold)
        assert currents.j_hot < 0.0

    def test_nonstationary_state_flagged(self):
        cfg, hot = random_weak_cfg(np.random.default_rng(12))
        cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0)
        liouv = build_liouvillian(dressed_coupling_set(cfg), hot, cold)
        excited = np.diag([1.0, 0.0]).astype(complex)
        with pytest.warns(UserWarning, match="non-stationary"):
            report = heat_currents(liouv, excited)
        assert not report.stationary


class TestExactCurrent:
    def test_linear_in_atom_number(self):
        cfg = make_cfg(delta=1.0, g=0.05)
        assert heat_current_exact(cfg, 0.5, 0.7, 0.1, n_atoms=0.0) == 0.0
        j1 = heat_current_exact(cfg, 0.5, 0.7, 0.1, n_atoms=1.0)
        j3 = heat_current_exact(cfg, 0.5, 0.7, 0.1, n_atoms=3.0)
        assert j3 == pytest.approx(3.0 * j1, rel=1e-14)

    def test_vanishes_at_balance_point(self):
        # zero of the numerator at T_cold = 0: e^(-rabi/T) = d_minus/d_plus
        cfg = make_cfg(delta=1.0, g=0.05)
        d_plus, d_minus = sideband_weights(cfg)
        t_balance = -cfg.rabi / math.log(d_minus / d_plus)
        j_root = heat_current_exact(cfg, 0.5, t_balance, 0.0)
        j_above = heat_current_exact(cfg, 0.5, 2 * t_balance, 0.0)
        assert j_above > 0.0
        assert abs(j_root) <= 1e-10 * j_above
        assert heat_current_exact(cfg, 0.5, 0.5 * t_balance, 0.0) < 0.0

    def test_weak_drive_reduces_to_rate_model(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            cfg, hot = random_weak_cfg(rng, g_over_delta=1e-3)
            k = hot_channel_rate(cfg, hot)
            j_exact = heat_current_exact(cfg, k, hot.temperature, 0.0)
            j_weak, _ = weak_flows(cfg, pumping_rate(cfg, hot),
                                   hot.temperature)
            assert j_exact == pytest.approx(j_weak, rel=1e-3)

    def test_matches_numerical_currents_exactly(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            cfg, hot = random_weak_cfg(rng, g_over_delta=10.0 ** rng.uniform(-3, -1))
            t_cold = rng.uniform(0.01, 0.1) * cfg.nu
            cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, t_cold)
            _, _, currents = solve_pipeline(cfg, hot, cold)
            k = hot_channel_rate(cfg, hot)
            j_exact = heat_current_exact(cfg, k, hot.temperature, t_cold)
            assert currents.j_hot == pytest.approx(j_exact, rel=1e-10)


class TestTransient:
    def test_initial_condition(self):
        cfg = make_cfg()
        ee, gg = transient_populations(cfg, 0.5, 1.0, rho_ee0=0.3, t=0.0)
        assert (ee, gg) == (0.3, 0.7)

    def test_relaxes_to_rate_model_fixed_point(self):
        cfg = make_cfg(delta=1.0)
        gp, t_hot = 0.7, 1.3
        ee, _ = transient_populations(cfg, gp, t_hot, rho_ee0=0.9, t=1e6)
        pt = rate_steady_state(cfg, gp, t_hot)
        assert ee == pytest.approx(pt.rho_ee, rel=1e-12)

    def test_relaxation_rate_hand_solved(self):
        cfg = make_cfg(delta=1.0)
        gp, t_hot = 0.7, 1.3
        rate = gp * (1.0 + math.exp(-1.0 / 1.3)) + cfg.gamma
        pt = rate_steady_state(cfg, gp, t_hot)
        for t in (0.1, 0.5, 2.0):
            ee, _ = transient_populations(cfg, gp, t_hot, rho_ee0=0.9, t=t)
            expected = pt.rho_ee + (0.9 - pt.rho_ee) * math.exp(-rate * t)
            assert ee == pytest.approx(expected, rel=1e-12)

    def test_heating_branch_fixed_point(self):
        cfg = AtomDriveConfig(omega0=99.0, gamma=0.05, g=1e-3, nu=100.0)
        gp, t_hot = 0.7, 1.3
        ee, _ = transient_populations(cfg, gp, t_hot, rho_ee0=0.0, t=1e6)
        pt = rate_steady_state(cfg, gp, t_hot)
        assert ee == pytest.approx(pt.rho_ee, rel=1e-12)

    def test_zero_detuning_rejected(self):
        cfg = AtomDriveConfig(omega0=100.0, gamma=0.05, g=1e-3, nu=100.0)
        with pytest.raises(DomainError):
            transient_populations(cfg, 0.5, 1.0, 0.5, 1.0)
