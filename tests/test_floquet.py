import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from licore import floquet, oracle
from licore.cell import CellConfig, row_flows
from licore.config import AtomDriveConfig
from licore.errors import DegenerateSteadyStateError, DomainError
from licore.floquet import (
    DressedFlows,
    bare_from_dressed,
    beam_flows,
    dressed_flows,
    heat_current_exact,
    hot_channel_rate,
    sideband_weights,
)
from licore.oracle import (
    COLD,
    DEPHASE,
    HOT,
    LOWER,
    RAISE,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    bare_populations,
    build_liouvillian,
    dissipator,
    dressed_coupling_set,
    dressing_rotation,
    heat_currents,
    rotating_frame_hamiltonian,
    solve_pipeline,
    steady_state,
    unvec,
    vec,
)
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


# dressed-basis matrix of each jump, the upper dressed state first
JUMP_MATRICES = {RAISE: SIGMA_PLUS, LOWER: SIGMA_MINUS, DEPHASE: SIGMA_Z}


def coupling_operator(entry):
    """c S of a coupling harmonic, 2x2 in the dressed basis."""
    return entry.coefficient * JUMP_MATRICES[entry.jump]


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
        assert np.abs(coupling_operator(by_freq[-cfg.rabi])).max() == 0.0
        assert np.abs(coupling_operator(by_freq[0.0])).max() == 0.0
        assert np.abs(coupling_operator(by_freq[cfg.rabi])).max() == 1.0
        hot_rabi = [e for e in cs.entries
                    if e.bath == HOT and e.dressed_freq != 0.0][0]
        assert np.abs(coupling_operator(hot_rabi)).max() == 0.0
        # the surviving channel sits at the bare resonance
        assert by_freq[cfg.rabi].effective_frequency(cs.drive_frequency) == \
            pytest.approx(cfg.omega0)

    def test_resonant_drive_splits_sidebands_evenly(self):
        cfg = make_cfg(delta=0.0, g=1.0)
        cs = dressed_coupling_set(cfg)
        cold = {e.dressed_freq: e for e in cs.entries if e.bath == COLD}
        assert np.abs(coupling_operator(cold[-cfg.rabi])).max() == pytest.approx(0.5)
        assert np.abs(coupling_operator(cold[+cfg.rabi])).max() == pytest.approx(0.5)
        hot_dephasing = [e for e in cs.entries
                         if e.bath == HOT and e.dressed_freq == 0.0][0]
        assert np.abs(coupling_operator(hot_dephasing)).max() == 0.0

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
        with pytest.warns(UserWarning, match="degenerate") as record:
            dressed_coupling_set(cfg)
        assert record[0].filename == __file__

    def test_entry_order_is_fixed(self):
        # the labels follow the fixed order of floquet._dressed_channels
        cfg = make_cfg(delta=-1.0, g=0.2)
        cs = dressed_coupling_set(cfg)
        rabi = cfg.rabi
        assert [(e.bath, e.harmonic, e.dressed_freq, e.jump)
                for e in cs.entries] == [
            (COLD, 1, -rabi, RAISE), (COLD, 1, 0.0, DEPHASE),
            (COLD, 1, rabi, LOWER), (HOT, 0, 0.0, DEPHASE),
            (HOT, 0, rabi, LOWER)]


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

    def test_trace_defect_rejected(self, monkeypatch):
        # sigma- empties the upper dressed state without filling the lower
        # wherever it is stacked: D[S] of the sigma- jump, D[S+] of sigma+
        pairs, rows = oracle._jump_operators()
        leaky = pairs.copy()
        for jump, side in ((LOWER, 0), (RAISE, 1)):
            leaky[oracle._JUMP_INDEX[jump], side, 3, 0] = 0.0
        monkeypatch.setattr(oracle, "_jump_operators", lambda: (leaky, rows))
        cfg, hot = random_weak_cfg(np.random.default_rng(5))
        cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0)
        with pytest.raises(DomainError, match="does not preserve the trace"):
            build_liouvillian(dressed_coupling_set(cfg), hot, cold)

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
                s = coupling_operator(entry)
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
        # both branches: each red draw also runs mirrored to blue detuning
        rng = np.random.default_rng(5)
        for _ in range(30):
            red, hot = random_weak_cfg(rng, g_over_delta=1e-3)
            blue = AtomDriveConfig(omega0=red.nu, gamma=red.gamma, g=red.g,
                                   nu=red.omega0)
            for cfg in (red, blue):
                cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0)
                _, report, _ = solve_pipeline(cfg, hot, cold)
                ee, gg = bare_populations(cfg, report.rho)
                pt = rate_steady_state(cfg, pumping_rate(cfg, hot),
                                       hot.temperature)
                assert ee == pytest.approx(pt.rho_ee, rel=1e-3)
                assert gg == pytest.approx(pt.rho_gg, rel=1e-3)

    def test_single_bath_reaches_dressed_gibbs(self):
        cfg = make_cfg(delta=1.0, g=0.3, gamma=0.05)
        hot = FlatHotSpectrum(2.0, 0.8)
        liouv = build_liouvillian(dressed_coupling_set(cfg), hot,
                                  ZeroSpectrum(0.0))
        report = steady_state(liouv)
        expected = math.exp(-cfg.rabi / hot.temperature)
        upper, lower = report.populations
        assert upper / lower == pytest.approx(expected, rel=1e-10)
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
            rho = report.rho
            assert np.abs(rho - rho.conj().T).max() \
                <= 1e-12 * max(1.0, np.abs(rho).max())
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
        broken = liouv._replace(matrix=np.full((4, 4), np.nan))
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


def looped_heat_currents(liouv, rho):
    """(J_hot, J_cold, conservation residual) one channel at a time, from
    the 2x2 products tr(rho S+S), tr(rho SS+) and tr(L_k(rho) H)."""
    h = np.diag([0.5 * liouv.rabi, -0.5 * liouv.rabi])
    totals = {HOT: 0.0, COLD: 0.0}
    p_direct = 0.0
    for comp in liouv.components:
        entry = comp.coupling
        s = coupling_operator(entry)
        sd = s.conj().T
        n_down = comp.rate_down * np.trace(rho @ sd @ s).real
        n_up = comp.rate_up * np.trace(rho @ s @ sd).real
        if entry.dressed_freq != 0.0:
            change = unvec(comp.matrix @ vec(rho))
            heat = (comp.omega_eff / entry.dressed_freq) \
                * np.trace(change @ h).real
        else:
            heat = comp.omega_eff * (n_up - n_down)
        totals[entry.bath] += heat
        p_direct += entry.harmonic * liouv.drive_frequency * (n_down - n_up)
    j_hot, j_cold = totals[HOT], totals[COLD]
    return j_hot, j_cold, abs(p_direct + j_hot + j_cold)


class TestHeatCurrents:
    @given(log_ratio=st.floats(-3.0, 0.3), delta_thz=st.floats(0.2, 20.0),
           blue=st.booleans(),
           t_cold_k=st.one_of(st.just(0.0), st.floats(1.0, 3000.0)),
           t_hot_k=st.floats(300.0, 700.0), stationary=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_batched_pass_matches_per_channel_loop(self, log_ratio, delta_thz,
                                                   blue, t_cold_k, t_hot_k,
                                                   stationary):
        delta_thz = -delta_thz if blue else delta_thz
        cfg = AtomDriveConfig.from_thz(377.0, 6e-6,
                                       10.0 ** log_ratio * abs(delta_thz),
                                       377.0 - delta_thz)
        hot = FlatHotSpectrum(thz_to_internal(0.002),
                              kelvin_to_internal(t_hot_k))
        cold = CubicColdSpectrum(cfg.gamma, cfg.omega0,
                                 kelvin_to_internal(t_cold_k))
        liouv = build_liouvillian(dressed_coupling_set(cfg), hot, cold)
        if stationary:
            rho = steady_state(liouv).rho
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = heat_currents(liouv, rho)
        else:
            rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
            with pytest.warns(UserWarning, match="non-stationary"):
                report = heat_currents(liouv, rho)
        assert report.stationary is stationary
        j_hot, j_cold, residual = looped_heat_currents(liouv, rho)
        scale = max(abs(j_hot), abs(j_cold), abs(j_hot + j_cold))
        assert scale > 0.0
        assert abs(report.j_hot - j_hot) <= 1e-13 * scale
        assert abs(report.j_cold - j_cold) <= 1e-13 * scale
        assert abs(report.p_abs + (j_hot + j_cold)) <= 1e-13 * scale
        assert abs(report.conservation_residual - residual) <= 1e-13 * scale

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


def complex_channel_build(couplings, hot, cold):
    """(total, per-channel matrices) of the generator built one channel at
    a time in complex arithmetic from ops.dissipator, as the oracle once
    did: (|c|^2 G(w_eff)) D[S] + (|c|^2 G(-w_eff)) D[S+]."""
    total, mats = np.zeros((4, 4), dtype=complex), []
    for entry in couplings.entries:
        spectrum = hot if entry.bath == HOT else cold
        w_eff = entry.effective_frequency(couplings.drive_frequency)
        weight = entry.coefficient * entry.coefficient
        s = JUMP_MATRICES[entry.jump].astype(complex)
        mat = (weight * spectrum.value(w_eff)) * dissipator(s) \
            + (weight * spectrum.value(-w_eff)) * dissipator(s.conj().T)
        mats.append(mat)
        total = total + mat
    return total, mats


class TestRealStackedOracle:
    """The real generator from one stacked contraction against the complex
    one-channel-at-a-time build, and the currents and populations read
    from each."""

    @given(log_ratio=st.floats(-3.0, math.log10(2.0)),
           delta_thz=st.floats(0.2, 20.0), blue=st.booleans(),
           t_cold_k=st.one_of(st.just(0.0), st.floats(1.0, 3000.0)),
           t_hot_k=st.floats(300.0, 700.0))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_complex_per_channel_build(self, log_ratio, delta_thz,
                                                   blue, t_cold_k, t_hot_k):
        delta_thz = -delta_thz if blue else delta_thz
        cfg = AtomDriveConfig.from_thz(377.0, 6e-6,
                                       10.0 ** log_ratio * abs(delta_thz),
                                       377.0 - delta_thz)
        hot = FlatHotSpectrum(thz_to_internal(0.002),
                              kelvin_to_internal(t_hot_k))
        cold = CubicColdSpectrum(cfg.gamma, cfg.omega0,
                                 kelvin_to_internal(t_cold_k))
        couplings = dressed_coupling_set(cfg)
        liouv = build_liouvillian(couplings, hot, cold)
        total, mats = complex_channel_build(couplings, hot, cold)
        assert not total.imag.any()
        assert liouv.matrix.dtype == np.float64
        ulps = 4 * np.finfo(float).eps * np.abs(total).max()
        assert np.abs(liouv.matrix - total.real).max() <= ulps
        for comp, mat in zip(liouv.components, mats):
            assert np.abs(comp.matrix - mat.real).max() <= ulps
        # the complex route's state, hermitized, and its looped currents
        _, _, vh = np.linalg.svd(total)
        candidate = unvec(vh[-1].conj())
        rho = candidate / np.trace(candidate)
        rho = 0.5 * (rho + rho.conj().T)
        rho = rho / np.trace(rho).real
        complex_liouv = liouv._replace(
            matrix=total, components=tuple(
                comp._replace(matrix=mat)
                for comp, mat in zip(liouv.components, mats)))
        j_hot, j_cold, residual = looped_heat_currents(complex_liouv, rho)
        report = steady_state(liouv)
        assert report.rho.dtype == np.float64
        assert isinstance(report.coherence, complex)
        assert np.abs(np.array(report.populations)
                      - np.diag(rho).real).max() <= 1e-15
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            currents = heat_currents(liouv, report.rho)
        scale = max(abs(j_hot), abs(j_cold), abs(j_hot + j_cold))
        assert scale > 0.0
        assert abs(currents.j_hot - j_hot) <= 1e-13 * scale
        assert abs(currents.j_cold - j_cold) <= 1e-13 * scale
        assert abs(currents.conservation_residual - residual) <= 1e-13 * scale


class TestExactCurrent:
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


class _NegativeSpectrum(BathSpectrum):
    temperature = 1.0

    def value(self, omega):
        return -1.0


class _BadAt(BathSpectrum):
    """base's values, but ``bad`` at the frequencies +/- w of ``where``."""

    def __init__(self, base, where, bad):
        self.base, self.where, self.bad = base, where, bad
        self.temperature = base.temperature

    def value(self, omega):
        return self.bad if abs(omega) in self.where else self.base.value(omega)


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


def _looped_dressed_flows(cfg, hot, cold):
    """dressed_flows as a loop over the entries of dressed_coupling_set,
    every sum taken left to right with explicit +; without its checks."""
    couplings = dressed_coupling_set(cfg)
    nu = couplings.drive_frequency
    channels = []
    for entry in couplings.entries:
        w_eff = entry.effective_frequency(nu)
        spectrum = hot if entry.bath == HOT else cold
        weight = entry.coefficient * entry.coefficient
        down = weight * spectrum.value(w_eff)
        up = weight * spectrum.value(-w_eff)
        raising, lowering = (down, up) if entry.jump == RAISE else (up, down)
        channels.append((entry, w_eff, raising, lowering))
    transfers = [(raising, lowering) for entry, _, raising, lowering
                 in channels if entry.jump != DEPHASE]
    k_up = k_down = 0.0
    for raising, lowering in transfers:
        k_up = k_up + raising
        k_down = k_down + lowering
    total = k_up + k_down
    flows = {HOT: 0.0, COLD: 0.0}
    p_direct = 0.0
    for entry, w_eff, raising, lowering in channels:
        if entry.jump == DEPHASE:
            net = lowering - raising
        else:
            flux = 0.0
            for r, l in transfers:
                flux = flux + (lowering * r - raising * l)
            flux = flux / total
            net = flux if entry.jump == LOWER else -flux
        flows[entry.bath] = flows[entry.bath] - w_eff * net
        p_direct = p_direct + entry.harmonic * nu * net
    j_hot, j_cold = flows[HOT], flows[COLD]
    p_abs = -(j_hot + j_cold)
    scale = max(abs(j_hot), abs(j_cold), abs(p_abs))
    upper, lower = k_up / total, k_down / total
    return DressedFlows((upper, lower), j_hot, j_cold, p_abs,
                        abs(k_up * lower - k_down * upper) / total,
                        abs(p_direct - p_abs) / scale if scale else 0.0)


def seeded_drive_points(n, seed=2718):
    """n points with g/|delta| log-uniform from 1e-4 to 2.5 on both signs
    of delta, a vacuum or a 1-3000 K cold bath, every third point with a
    tabulated hot spectrum."""
    rng = np.random.default_rng(seed)
    points = []
    for i in range(n):
        delta_thz = (1.0 if i % 2 else -1.0) * rng.uniform(0.2, 20.0)
        ratio = 10.0 ** rng.uniform(-4.0, math.log10(2.5))
        cfg = AtomDriveConfig.from_thz(377.0, 6e-6, ratio * abs(delta_thz),
                                       377.0 - delta_thz)
        g0 = thz_to_internal(10.0 ** rng.uniform(-4.0, -1.0))
        t_hot = kelvin_to_internal(rng.uniform(300.0, 700.0))
        hot = _tabulated_hot(g0, t_hot) if i % 3 == 2 \
            else FlatHotSpectrum(g0, t_hot)
        t_cold = 0.0 if i % 4 < 2 else kelvin_to_internal(rng.uniform(1.0, 3000.0))
        points.append((cfg, hot, CubicColdSpectrum(cfg.gamma, cfg.omega0, t_cold)))
    return points


def _bits(flows):
    # a DressedFlows, or a tuple that starts with its populations
    return [x.hex() for x in (*flows[0], *flows[1:])]


class TestDressedFlows:
    """The closed-form rate balance against the SVD oracle."""

    def test_same_bits_as_the_looped_form(self):
        # the straight-line arithmetic repeats the loop's operations in its
        # order, so every field matches to the last bit, signed zeros too:
        # at g = 0 the empty hot channels leave J_hot = +0.0
        undriven = make_cfg(delta=1.0, g=0.0)
        points = strong_drive_grid() + seeded_drive_points(1200) + [
            (undriven, FlatHotSpectrum(1e-3, 0.2),
             CubicColdSpectrum(undriven.gamma, undriven.omega0, 0.0))]
        for cfg, hot, cold in points:
            flows = dressed_flows(cfg, hot, cold)
            reference = _looped_dressed_flows(cfg, hot, cold)
            assert flows == reference
            assert _bits(flows) == _bits(reference)

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

    def test_bare_populations_and_residuals(self):
        for cfg, hot, cold in strong_drive_grid():
            flows = dressed_flows(cfg, hot, cold)
            _, report, _ = solve_pipeline(cfg, hot, cold)
            ee, gg = bare_populations(cfg, report.rho)
            assert bare_from_dressed(cfg, flows.populations) == \
                pytest.approx((ee, gg), rel=1e-13, abs=0)
            assert flows.rate_balance_residual <= 1e-15
            assert flows.energy_balance_residual <= 1e-12

    def test_hot_dephasing_channel_is_heatless(self):
        # two detailed-balanced hot tables that differ only at their node
        # omega = 0, the hot sigma_z channel's frequency: every other hot
        # frequency, rabi >= |detuning| = 5 or 12 THz at any depth, lies
        # past the nodes at +/-2.5 THz, where the tables agree
        t_hot = kelvin_to_internal(500.0)
        plain = _tabulated_hot(thz_to_internal(0.002), t_hot)
        middle = len(plain.omegas) // 2
        assert plain.omegas[middle] == 0.0
        values = list(plain.values)
        values[middle] *= 10.0
        bumped = TabulatedSpectrum(plain.omegas, tuple(values), t_hot)
        cell = CellConfig(10.0, 1.0 / 9.0, 2e11, 2.4, 500.0)
        for delta_thz in (-12.0, -5.0, 5.0, 12.0):
            for ratio in (0.2, 0.5, 2.0):
                cfg = AtomDriveConfig.from_thz(377.0, 6e-6,
                                               ratio * abs(delta_thz),
                                               377.0 - delta_thz)
                assert bumped.pair(cfg.rabi) == plain.pair(cfg.rabi)
                for t_cold in (0.0, kelvin_to_internal(300.0)):
                    cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, t_cold)
                    # no heat and no population moved: the same bits
                    flows = dressed_flows(cfg, plain, cold)
                    assert _bits(dressed_flows(cfg, bumped, cold)) == \
                        _bits(flows)
                    row = row_flows(cell, cfg, plain, t_cold, 1.0 / 9.0)
                    assert row[2] == "floquet"
                    assert [x.hex() for x in row[:2]] == [
                        x.hex() for x in
                        row_flows(cell, cfg, bumped, t_cold, 1.0 / 9.0)[:2]]
                    # the SVD oracle dephases ten times faster with the
                    # bumped table, and its J_hot stays the closed form's
                    for hot in (plain, bumped):
                        _, report, currents = solve_pipeline(cfg, hot, cold)
                        assert report.populations == pytest.approx(
                            flows.populations, rel=1e-12, abs=0)
                        scale = max(abs(currents.j_hot),
                                    abs(currents.j_cold))
                        assert abs(flows.j_hot - currents.j_hot) <= \
                            1e-12 * scale

    def test_bare_populations_keep_digits_at_weak_drive(self):
        # 1 - detuning/rabi rounds to zero at g/detuning = 1e-9; the excited
        # weight of the lower dressed state is 2 g^2 / (rabi (rabi + delta))
        cfg = make_cfg(delta=1.0, g=1e-9)
        cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0)
        flows = dressed_flows(cfg, FlatHotSpectrum(1e-3, 0.2), cold)
        upper, lower = flows.populations
        rabi = cfg.rabi
        weight = 2 * cfg.g ** 2 / (rabi * (rabi + cfg.detuning))
        expected = upper * (1 - weight) + lower * weight
        assert lower * weight > 1e-3 * upper     # the admixture shows
        assert bare_from_dressed(cfg, flows.populations)[0] == \
            pytest.approx(expected, rel=1e-14)

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
        monkeypatch.setattr("licore.oracle.build_liouvillian", refuse)
        monkeypatch.setattr("licore.oracle.steady_state", refuse)
        assert math.isfinite(dressed_flows(cfg, hot, cold).j_hot)

    @pytest.mark.parametrize("hot", [FlatHotSpectrum(math.inf, 2.0),
                                     _NegativeSpectrum()],
                             ids=["non-finite", "negative"])
    def test_bad_rates_rejected(self, hot):
        cfg = make_cfg(delta=1.0, g=0.3)
        cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0)
        with pytest.raises(DomainError, match="spectrum value"):
            dressed_flows(cfg, hot, cold)

    # the kernel's three moving rate pairs, cold sigma+ at nu - rabi, cold
    # sigma- at nu + rabi and hot sigma- at rabi, by their dressed channel
    @pytest.mark.parametrize("cold_at, hot_at, named", [
        ((0,), (), 0), ((2,), (), 2), ((), (4,), 4),
        # the first failing pair names its frequency
        ((0, 2), (4,), 0), ((2,), (4,), 2)])
    @pytest.mark.parametrize("bad, word", [(-1.0, "negative"),
                                           (math.nan, "non-finite"),
                                           (math.inf, "non-finite")])
    def test_bad_moving_rates_named(self, cold_at, hot_at, named, bad, word):
        cfg = make_cfg(delta=1.0, g=0.3)
        channels = floquet._dressed_channels(cfg.nu, cfg.detuning, cfg.g)
        # w_eff = wbar + q nu: q = 1 on the cold channels 0 and 2
        w_eff = {0: channels[0] + cfg.nu, 2: channels[2] + cfg.nu,
                 4: channels[4]}
        cold = _BadAt(CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0),
                      {w_eff[k] for k in cold_at}, bad)
        hot = _BadAt(FlatHotSpectrum(1e-3, 2.0), {w_eff[k] for k in hot_at},
                     bad)
        with pytest.raises(DomainError) as info:
            dressed_flows(cfg, hot, cold)
        assert str(info.value) == \
            f"{word} spectrum value at {w_eff[named]:.6g}"

    def test_uncoupled_baths_are_degenerate(self):
        cfg = make_cfg(delta=1.0, g=0.3)
        with pytest.raises(DegenerateSteadyStateError, match="rate balance"):
            dressed_flows(cfg, ZeroSpectrum(1.0), ZeroSpectrum(0.0))

    def test_coupling_checks_shared(self):
        with pytest.raises(DomainError, match="sideband"):
            dressed_flows(AtomDriveConfig(omega0=30.0, gamma=1.0, g=10.0, nu=10.0),
                          FlatHotSpectrum(1.0, 1.0), ZeroSpectrum(0.0))
        cfg = AtomDriveConfig(omega0=10.0 + 9.9999999, gamma=1.0, g=0.0, nu=10.0)
        with pytest.warns(UserWarning, match="degenerate") as record:
            dressed_flows(cfg, FlatHotSpectrum(1.0, 1.0),
                          CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0))
        # the warning names the caller of dressed_flows
        assert record[0].filename == __file__

    def test_degenerate_config_rejected(self):
        cfg = AtomDriveConfig(omega0=5.0, gamma=1.0, g=0.0, nu=5.0)
        with pytest.raises(DomainError, match="degenerate"):
            dressed_flows(cfg, FlatHotSpectrum(1.0, 1.0),
                          CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0))

    def test_overflowing_flows_rejected(self):
        # hot rates of 1e200 are finite, but their pairwise products in the
        # net fluxes overflow: the flows are not finite
        cfg = make_cfg(delta=1.0, g=0.3)
        cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0)
        with pytest.raises(DomainError) as info:
            dressed_flows(cfg, FlatHotSpectrum(1e200, 1.0), cold)
        assert str(info.value) == ("heat flows overflow: products of the "
                                   "channel rates exceed the float range")

    def test_broken_energy_balance_rejected(self, monkeypatch):
        # a hot channel whose Bohr frequency does not match its jump breaks
        # J_hot + J_cold + P_abs = 0; the closed form must refuse it
        real = floquet._dressed_channels

        def miswired(nu, delta, g, stacklevel=3):
            # (five dressed frequencies, five coefficients): channel 4,
            # hot sigma-, sits at 0.5 rabi
            channels = list(real(nu, delta, g, stacklevel))
            channels[4] = 0.5 * math.hypot(2.0 * g, delta)
            return tuple(channels)

        cfg, hot, cold = strong_drive_grid()[0]
        dressed_flows(cfg, hot, cold)
        monkeypatch.setattr("licore.floquet._dressed_channels", miswired)
        with pytest.raises(DomainError, match="energy balance"):
            dressed_flows(cfg, hot, cold)


def _outcome(call):
    """call()'s result, or the type of the exception it raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return call()
    except Exception as exc:
        return type(exc)


# beam fractions in (0, 1], subnormal ones drawn on purpose
BEAM_FRACTIONS = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.floats(min_value=5e-324, max_value=2.2250738585072014e-308),
    st.sampled_from([1.0, math.exp(-700.0), 5e-324]))


class TestBeamFlows:
    """beam_flows(cfg, hot, cold)(u) against dressed_flows of the
    attenuated config, the route the cell integrand took before."""

    @given(u=BEAM_FRACTIONS, log_ratio=st.floats(-3.0, 1.0),
           delta_thz=st.floats(0.2, 20.0), blue=st.booleans(),
           t_cold_k=st.one_of(st.just(0.0), st.floats(1.0, 3000.0)),
           tabulated=st.booleans(), log_g0=st.floats(-4.0, -1.0),
           t_hot_k=st.floats(300.0, 700.0))
    @settings(max_examples=400, deadline=None)
    def test_same_bits_as_the_attenuated_config(self, u, log_ratio, delta_thz,
                                                blue, t_cold_k, tabulated,
                                                log_g0, t_hot_k):
        delta_thz = -delta_thz if blue else delta_thz
        cfg = AtomDriveConfig.from_thz(377.0, 6e-6,
                                       10.0 ** log_ratio * abs(delta_thz),
                                       377.0 - delta_thz)
        g0, t_hot = thz_to_internal(10.0 ** log_g0), kelvin_to_internal(t_hot_k)
        if tabulated:
            # detailed-balanced at its nodes, G(-w) = exp(-w/T) G(w)
            omegas = thz_to_internal(np.linspace(-400.0, 400.0, 161))
            values = g0 * (1.0 + (omegas / omegas[-1]) ** 2) \
                * np.exp(np.minimum(omegas, 0.0) / t_hot)
            hot = TabulatedSpectrum(tuple(omegas), tuple(values), t_hot)
        else:
            hot = FlatHotSpectrum(g0, t_hot)
        cold = CubicColdSpectrum(cfg.gamma, cfg.omega0,
                                 kelvin_to_internal(t_cold_k))
        local = cfg.attenuated(u)
        kernel = _outcome(lambda: beam_flows(cfg, hot, cold)(u))
        oracle = _outcome(lambda: dressed_flows(local, hot, cold))
        if isinstance(oracle, type):
            # these inputs leave the model only past the lower sideband
            assert local.rabi >= local.nu
            assert kernel is oracle is DomainError
        else:
            # the kernel's fields, by name, its populations taken from
            # k_up and k_down, against the attenuated config's
            # DressedFlows and the arithmetic taken apart from the kernel,
            # as a loop over the labelled channels: signed zeros too
            j_hot, p_abs, j_cold, k_up, k_down, energy_residual = kernel
            total = k_up + k_down
            fields = ((k_up / total, k_down / total), j_hot, j_cold, p_abs,
                      energy_residual)
            for reference in (oracle,
                              _looped_dressed_flows(local, hot, cold)):
                named = (reference.populations, reference.j_hot,
                         reference.j_cold, reference.p_abs,
                         reference.energy_balance_residual)
                assert fields == named
                assert _bits(fields) == _bits(named)

    @pytest.mark.parametrize("u", [-1.0, -5e-324, math.nan, math.inf])
    def test_bad_fraction_is_value_error(self, u):
        cfg, hot, cold = strong_drive_grid()[0]
        kernel = beam_flows(cfg, hot, cold)
        with pytest.raises(ValueError):
            kernel(u)
        with pytest.raises(ValueError):
            cfg.attenuated(u)
