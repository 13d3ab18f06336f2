import dataclasses
import decimal
import math
import warnings

import numpy as np
import pytest

from licore.config import AtomDriveConfig
from licore.errors import DegenerateSteadyStateError, DomainError
from licore.floquet import (
    COLD,
    HOT,
    LOWER,
    RAISE,
    bare_populations,
    build_liouvillian,
    dressed_coupling_set,
    dressed_flows,
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
from licore.operators import dissipator, is_hermitian, unvec, vec
from licore.rate_model import pumping_rate, weak_flows
from licore.rate_model import steady_state as rate_steady_state
from licore.spectra import (
    BathSpectrum,
    CubicColdSpectrum,
    FlatHotSpectrum,
    TabulatedSpectrum,
    ZeroSpectrum,
)
from licore.units import kelvin_to_internal, thz_to_internal


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

    def test_scaled_dissipators_match_per_entry_build(self):
        # D[c S] = |c|^2 D[S]: the generator scales three constant
        # dissipators; the direct build makes one per entry and rate
        rng = np.random.default_rng(7)
        for _ in range(40):
            cfg, hot = random_weak_cfg(rng, g_over_delta=10.0 ** rng.uniform(-3, 0.3))
            cold = CubicColdSpectrum(cfg.gamma, cfg.omega0,
                                     rng.uniform(0.0, cfg.nu / 30))
            couplings = dressed_coupling_set(cfg)
            direct = np.zeros((4, 4), dtype=complex)
            for entry in couplings.entries:
                spectrum = hot if entry.bath == HOT else cold
                w_eff = entry.effective_frequency(cfg.nu)
                s = entry.operator
                direct += spectrum.value(w_eff) * dissipator(s) \
                    + spectrum.value(-w_eff) * dissipator(s.conj().T)
            liouv = build_liouvillian(couplings, hot, cold)
            assert np.abs(liouv.matrix - direct).max() <= \
                1e-14 * np.abs(direct).max()

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


class _NegativeSpectrum(BathSpectrum):
    temperature = 1.0

    def value(self, omega):
        return -1.0


def _tabulated_hot(g0, t_hot):
    """A structured hot spectrum, detailed-balanced at its nodes."""
    omegas = thz_to_internal(np.linspace(-100.0, 100.0, 81))
    scale = thz_to_internal(100.0)
    values = g0 * (1.0 + (omegas / scale) ** 2) * np.exp(np.minimum(omegas, 0.0) / t_hot)
    return TabulatedSpectrum(tuple(omegas), tuple(values), t_hot)


def strong_drive_grid(seed=41):
    """Lab-scale points: g/|delta| from 0.1 to 2 on both signs and at
    delta = 0, with a vacuum and a 300 K cold bath; every third point has a
    tabulated hot spectrum."""
    rng = np.random.default_rng(seed)
    g0 = thz_to_internal(0.002)
    points = []
    for t_cold_k in (0.0, 300.0):
        draws = [(ratio * d, sign * d)
                 for ratio in np.geomspace(0.1, 2.0, 8)
                 for sign, d in ((1.0, rng.uniform(1.0, 20.0)),
                                 (-1.0, rng.uniform(1.0, 20.0)))]
        draws.append((rng.uniform(0.05, 5.0), 0.0))
        for g_thz, delta_thz in draws:
            cfg = AtomDriveConfig.from_thz(377.0, 6e-6, g_thz, 377.0 - delta_thz)
            t_hot = kelvin_to_internal(rng.uniform(300.0, 700.0))
            hot = _tabulated_hot(g0, t_hot) if len(points) % 3 == 2 \
                else FlatHotSpectrum(g0, t_hot)
            cold = CubicColdSpectrum(cfg.gamma, cfg.omega0,
                                     kelvin_to_internal(t_cold_k))
            points.append((cfg, hot, cold))
    return points


def _hot_current_50_digits(cfg, hot, cold):
    """J_hot of the five-channel rate balance, worked in 50-digit decimals
    from the channel coefficients; flat hot spectrum, vacuum cold bath."""
    dec = decimal.Context(prec=50)
    D = dec.create_decimal
    nu, t_hot = D(cfg.nu), D(hot.temperature)

    def rate(bath, w):
        if bath == HOT:
            return D(hot.plateau) * (1 if w >= 0 else dec.exp(w / t_hot))
        return D(cfg.gamma) * (w / D(cfg.omega0)) ** 3 if w > 0 else D(0)

    channels, k_up, k_down = [], D(0), D(0)
    for entry in dressed_coupling_set(cfg).entries:
        w = D(entry.dressed_freq) + entry.harmonic * nu
        c2 = D(entry.coefficient) ** 2
        down, up = c2 * rate(entry.bath, w), c2 * rate(entry.bath, -w)
        if entry.jump == LOWER:
            k_down, k_up = k_down + down, k_up + up
        elif entry.jump == RAISE:
            k_down, k_up = k_down + up, k_up + down
        channels.append((entry, w, down, up))
    p_up, p_low = k_up / (k_up + k_down), k_down / (k_up + k_down)
    # (<S+S>, <SS+>) per jump; sigma_z squares to one
    moments = {LOWER: (p_up, p_low), RAISE: (p_low, p_up)}
    j_hot = D(0)
    for entry, w, down, up in channels:
        s_dag_s, s_s_dag = moments.get(entry.jump, (1, 1))
        if entry.bath == HOT:
            j_hot -= w * (down * s_dag_s - up * s_s_dag)
    return float(j_hot)


class TestDressedFlows:
    """The closed-form rate balance against the SVD oracle."""

    def test_matches_svd_oracle(self):
        for cfg, hot, cold in strong_drive_grid():
            flows = dressed_flows(cfg, hot, cold)
            _, report, currents = solve_pipeline(cfg, hot, cold)
            assert flows.populations == pytest.approx(report.populations,
                                                      rel=1e-12, abs=0)
            assert flows.j_cold == pytest.approx(currents.j_cold, rel=1e-12, abs=0)
            assert flows.p_abs == pytest.approx(currents.p_abs, rel=1e-12, abs=0)
            # J_hot is a difference of nearly balanced hot-channel quanta at
            # strong drive; the SVD state carries ~1e-12 of it in rounding,
            # so the oracle is held to the largest flow of the point
            scale = max(abs(currents.j_hot), abs(currents.j_cold))
            assert abs(flows.j_hot - currents.j_hot) <= 1e-12 * scale

    def test_hot_current_matches_closed_form_current(self):
        for cfg, hot, cold in strong_drive_grid():
            if not isinstance(hot, FlatHotSpectrum):
                continue    # heat_current_exact assumes detailed balance at rabi
            flows = dressed_flows(cfg, hot, cold)
            j_exact = heat_current_exact(cfg, hot_channel_rate(cfg, hot),
                                         hot.temperature, cold.temperature)
            assert flows.j_hot == pytest.approx(j_exact, rel=1e-12, abs=0)

    def test_hot_current_against_50_digits(self):
        # strong drive, hot rates far above the cold ones: the pairwise form
        # keeps J_hot to ~1e-14 where the rate balance cancels
        for cfg, hot, cold in strong_drive_grid():
            if not isinstance(hot, FlatHotSpectrum) or cold.temperature > 0:
                continue
            reference = _hot_current_50_digits(cfg, hot, cold)
            assert dressed_flows(cfg, hot, cold).j_hot == \
                pytest.approx(reference, rel=1e-13, abs=0)

    def test_no_generator_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the closed form must not build a generator")

        cfg, hot, cold = strong_drive_grid()[0]
        monkeypatch.setattr("licore.floquet.build_liouvillian", refuse)
        monkeypatch.setattr("licore.floquet.steady_state", refuse)
        assert math.isfinite(dressed_flows(cfg, hot, cold).j_hot)

    @pytest.mark.parametrize("hot", [FlatHotSpectrum(math.inf, 2.0),
                                     _NegativeSpectrum()],
                             ids=["non-finite", "negative"])
    def test_bad_rates_rejected(self, hot):
        cfg = make_cfg(delta=1.0, g=0.3)
        cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0)
        with pytest.raises(DomainError, match="spectrum value"):
            dressed_flows(cfg, hot, cold)

    def test_uncoupled_baths_are_degenerate(self):
        cfg = make_cfg(delta=1.0, g=0.3)
        with pytest.raises(DegenerateSteadyStateError, match="rate balance"):
            dressed_flows(cfg, ZeroSpectrum(1.0), ZeroSpectrum(0.0))

    def test_coupling_checks_shared(self):
        with pytest.raises(DomainError, match="sideband"):
            dressed_flows(AtomDriveConfig(omega0=30.0, gamma=1.0, g=10.0, nu=10.0),
                          FlatHotSpectrum(1.0, 1.0), ZeroSpectrum(0.0))
        cfg = AtomDriveConfig(omega0=10.0 + 9.9999999, gamma=1.0, g=0.0, nu=10.0)
        with pytest.warns(UserWarning, match="degenerate"):
            dressed_flows(cfg, FlatHotSpectrum(1.0, 1.0),
                          CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0))

    def test_broken_energy_balance_rejected(self, monkeypatch):
        # a hot channel whose Bohr frequency does not match its jump breaks
        # J_hot + J_cold + P_abs = 0; the closed form must refuse it
        real = dressed_coupling_set

        def miswired(cfg):
            couplings = real(cfg)
            entries = list(couplings.entries)
            entries[4] = entries[4]._replace(dressed_freq=0.5 * couplings.rabi)
            return couplings._replace(entries=tuple(entries))

        cfg, hot, cold = strong_drive_grid()[0]
        dressed_flows(cfg, hot, cold)
        monkeypatch.setattr("licore.floquet.dressed_coupling_set", miswired)
        with pytest.raises(DomainError, match="energy balance"):
            dressed_flows(cfg, hot, cold)
