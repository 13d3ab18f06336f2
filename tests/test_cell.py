import itertools
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from licore.cell import (
    AbsorptionDataset,
    _integrate_over_cell,
    _log1p_minus_x_over_1px_over_x2,
    _weak_cell_kernel,
    _x_minus_log1p_over_x2,
    CellConfig,
    calibrate_g0,
    detuning_scan,
    experimental_heat_current,
    load_absorption_csv,
    pick_solver,
    scan_records,
    synthesize_absorption,
    write_scan_csv,
)
from licore import cell as cellmod, floquet, numerics, rate_model
from licore.config import AtomDriveConfig
from licore.errors import CalibrationError, ConfigError, DomainError
from licore.floquet import solve_pipeline
from licore.numerics import brentq, gauss_newton, interp
from licore.rate_model import pumping_rate, weak_balance, weak_flows
from licore.spectra import (
    CubicColdSpectrum,
    FlatHotSpectrum,
    boltzmann_weight,
    load_tabulated_spectrum,
)
from licore.units import internal_to_watts, kelvin_to_internal, thz_to_internal


def lab_cfg(nu_thz=372.0, g_thz=0.05):
    return AtomDriveConfig.from_thz(377.0, 6e-6, g_thz, nu_thz,
                                    laser_power_w=2.4)


def lab_cell(alpha=1.0 / 9.0, density=2e11):
    return CellConfig(length_mm=10.0, absorption_coeff_per_mm=alpha,
                      linear_atom_density_per_mm=density, laser_power_w=2.4,
                      bath_temperature_k=500.0)


def over_budget():
    """Expect the scan's warning about rows over the photon budget."""
    return pytest.warns(UserWarning, match="absorb more than the beam delivers")


def modeled_absorption(cfg, cell, g0, alpha):
    """Absorbed-power fraction of the weak-drive cell at amplitude g0."""
    flows, _ = _weak_cell_kernel(cfg, cell,
                                 kelvin_to_internal(cell.bath_temperature_k))
    return flows(g0, alpha)[1] / cell.laser_power_w


def sum_of_squares(ds, cfg, cell, rows, g0):
    """Summed squared absorption misfit of the dataset's ``rows`` at g0."""
    return math.fsum(
        (modeled_absorption(cfg.with_laser_frequency(thz_to_internal(nu)),
                            cell, g0, ds.alpha_at(nu, cell.length_mm)) - a) ** 2
        for nu, a in rows)


def least_squares_g0(ds, cfg, cell, rows, g0):
    """The amplitude within 1% of g0 where sum_of_squares is stationary,
    by bisection on its five-point central difference in ln g0."""
    from scipy.optimize import bisect

    def misfit(log_g0):
        return sum_of_squares(ds, cfg, cell, rows, math.exp(log_g0))

    # the difference's own O(h^4) shift of the root is ~1e-13 on the
    # fixture, and rounding in the misfit moves the root by ~1e-11 on
    # scattered_dataset.  A two-point difference needs h ~ 1e-6 for an
    # O(h^2) shift that small, and rounding then moves its root by ~1e-9
    h = 1e-3

    def slope(y):
        return (8.0 * (misfit(y + h) - misfit(y - h))
                - (misfit(y + 2.0 * h) - misfit(y - 2.0 * h)))

    x = math.log(g0)
    return math.exp(bisect(slope, x - 0.01, x + 0.01, xtol=1e-300, rtol=1e-15))


def scattered_dataset():
    """A 50-row synthesized dataset, each row scaled by a seeded factor in
    [0.6, 1): its residuals stay so large at the least-squares minimum
    that a Gauss-Newton step, with sum s_i^2 as the curvature, covers only
    about 15% of the remaining way there."""
    nus = [352.5 + k for k in range(50)]
    ds = synthesize_absorption(lab_cfg(), lab_cell(),
                               thz_to_internal(0.002281237607714487), nus)
    rng = random.Random(6)
    return AbsorptionDataset(ds.nu_thz, tuple(a * rng.uniform(0.6, 1.0)
                                              for a in ds.absorption))


def gaussian_dataset(width=6.0, amax=0.95):
    nus = np.arange(352.0, 402.5, 1.0)
    a = amax * np.exp(-(nus - 377.0) ** 2 / (2 * width ** 2))
    return AbsorptionDataset(tuple(nus), tuple(a))


class TestCellConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CellConfig(0.0, 0.1, 1e12, 2.4, 500.0)
        with pytest.raises(ValueError):
            CellConfig(10.0, 0.1, 1e12, 0.0, 500.0)


class TestQuadrature:
    def test_constant_integrand_closed_form(self):
        cell = lab_cell(alpha=0.2, density=3e11)
        j_const = 2.5e18  # internal units
        total, again = _integrate_over_cell(cell, 0.2,
                                            lambda att: (j_const, j_const))
        assert again == total
        n_atoms = cell.linear_atom_density_per_mm * cell.length_mm
        alpha_l = 0.2 * cell.length_mm
        expected = internal_to_watts(
            n_atoms * j_const * (1 - math.exp(-alpha_l)) / alpha_l)
        assert total == pytest.approx(expected, rel=1e-8)

    def test_no_attenuation_reduces_to_atom_count(self):
        cell = lab_cell(alpha=0.0)
        j_const = 1.7e18
        total, _ = _integrate_over_cell(cell, 0.0,
                                        lambda att: (j_const, j_const))
        n_atoms = cell.linear_atom_density_per_mm * cell.length_mm
        assert total == pytest.approx(internal_to_watts(n_atoms * j_const),
                                      rel=1e-10)

    def test_unconverged_integral_rejected(self):
        # a pole inside the cell: quad's error estimate cannot meet epsrel
        cell = lab_cell(alpha=0.2)
        pole = math.exp(-0.2 * math.pi)
        with pytest.raises(DomainError, match="did not converge"):
            _integrate_over_cell(cell, 0.2, lambda att: (1.0 / (att - pole),
                                                         1.0))
        # the P_abs pass checks its own estimate
        with pytest.raises(DomainError, match="did not converge"):
            _integrate_over_cell(cell, 0.2, lambda att: (1.0,
                                                         1.0 / (att - pole)))

    def test_each_depth_solved_once_where_the_passes_part(self):
        # J_hot is met by one 21-point rule, the peaked P_abs bisects: its
        # pass reads the 21 stored depths and solves only the new ones
        cell = lab_cell(alpha=0.2)
        peak = math.exp(-0.2 * math.pi)
        seen = []

        def local(att):
            seen.append(att)
            return 1.0, 1.0 / (1e-4 + (att - peak) ** 2)

        _integrate_over_cell(cell, 0.2, local)
        assert len(seen) > 21
        assert len(set(seen)) == len(seen)


def _hot_for_pumping_ratio(cfg, ratio):
    """Flat hot spectrum whose full-beam C = (1 + b) gamma_p is ``ratio``
    times B = gamma."""
    t_hot = kelvin_to_internal(500.0)
    b = boltzmann_weight(abs(cfg.detuning), t_hot)
    g0 = ratio * cfg.gamma / ((1.0 + b) * (2.0 * cfg.g / cfg.detuning) ** 2)
    return FlatHotSpectrum(g0, t_hot)


class TestWeakCellClosedForm:
    """The closed-form weak-drive cell integral against quadrature of the
    local integrand it replaces."""

    @pytest.mark.parametrize("delta_thz", [-20.0, -2.0, 2.0, 20.0])
    @pytest.mark.parametrize("alpha_l", [0.0, 1e-12, 1e-3, 10.0 / 9.0, 50.0])
    def test_matches_quadrature(self, delta_thz, alpha_l):
        cfg = lab_cfg(nu_thz=377.0 - delta_thz)
        cell = lab_cell(alpha=alpha_l / 10.0)
        alpha = cell.absorption_coeff_per_mm
        for ratio in (1e-8, 1e-5, 1e-2, 0.1, 1.0, 30.0, 1e3):
            hot = _hot_for_pumping_ratio(cfg, ratio)

            def local(att):
                cfg_att = cfg.attenuated(att)
                return weak_flows(cfg_att, pumping_rate(cfg_att, hot),
                                  hot.temperature)

            j_quad, p_quad = _integrate_over_cell(cell, alpha, local)
            flows, _ = _weak_cell_kernel(cfg, cell, hot.temperature)
            j, p = flows(hot.plateau, alpha)
            # abs=0: weak pumping gives powers below approx's default abs
            assert j == pytest.approx(j_quad, rel=1e-10, abs=0), ratio
            assert p == pytest.approx(p_quad, rel=1e-10, abs=0), ratio
            assert (j > 0) == (delta_thz > 0) and p > 0

    def test_series_and_direct_forms_against_50_digits(self):
        import decimal

        with decimal.localcontext() as ctx:
            ctx.prec = 50
            for x in (1e-12, 1e-6, 3e-3, 9.99e-3, 1e-2, 0.1, 1.0, 37.0, 1e3):
                d = decimal.Decimal(x)
                exact = float((d - (1 + d).ln()) / (d * d))
                assert _x_minus_log1p_over_x2(x) == pytest.approx(exact,
                                                                  rel=5e-14), x

    def test_slope_series_and_direct_forms_against_50_digits(self):
        import decimal

        with decimal.localcontext() as ctx:
            ctx.prec = 50
            for x in (1e-12, 1e-6, 3e-3, 9.99e-3, 1e-2, 0.1, 1.0, 37.0, 1e3,
                      1e8):
                d = decimal.Decimal(x)
                exact = float(((1 + d).ln() - d / (1 + d)) / (d * d))
                assert _log1p_minus_x_over_1px_over_x2(x) == pytest.approx(
                    exact, rel=5e-14), x

    @given(log_ratio=st.floats(-12.0, 8.0),
           log_alpha_l=st.floats(-6.0, math.log10(50.0)),
           delta_thz=st.sampled_from((-20.0, -2.0, 2.0, 20.0)),
           attenuated=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_slope_matches_richardson_difference(self, log_ratio, log_alpha_l,
                                                 delta_thz, attenuated):
        # C/B from 1e-12 to 1e8 and alpha L from 1e-6 to 50 take k(x) on
        # both its series and its direct branch; alpha = 0 takes d == 0
        cfg = lab_cfg(nu_thz=377.0 - delta_thz)
        alpha = 10.0 ** log_alpha_l / 10.0 if attenuated else 0.0
        cell = lab_cell(alpha=alpha)
        hot = _hot_for_pumping_ratio(cfg, 10.0 ** log_ratio)
        flows, _ = _weak_cell_kernel(cfg, cell, hot.temperature)
        g0 = hot.plateau
        j, p, slope = flows(g0, alpha, True)
        assert (j, p) == flows(g0, alpha)

        def difference(h):
            return (flows(g0 * math.exp(h), alpha)[1]
                    - flows(g0 * math.exp(-h), alpha)[1]) / (2.0 * h)

        richardson = (4.0 * difference(5e-4) - difference(1e-3)) / 3.0
        # rounding in the differences reaches ~2e-11 of P; where C >> B the
        # slope is down to 1e-8 of P
        assert slope == pytest.approx(richardson, rel=1e-9, abs=1e-10 * p)

    def test_fraction_approaches_saturation_cap(self):
        cfg = lab_cfg()
        cell = lab_cell()
        alpha = cell.absorption_coeff_per_mm
        _, p_saturated = _weak_cell_kernel(
            cfg, cell, kelvin_to_internal(cell.bath_temperature_k))
        # the saturated per-atom power over the integral of exp(-alpha z)
        weight = -math.expm1(-alpha * cell.length_mm) / alpha
        cap = internal_to_watts(cell.linear_atom_density_per_mm * weight
                                * p_saturated) / cell.laser_power_w
        gaps = [cap - modeled_absorption(cfg, cell, g0, alpha)
                for g0 in (1e12, 1e15, 1e18, 1e21)]
        assert all(gap > 0 for gap in gaps)
        assert all(b < a / 100 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-8 * cap

    def test_no_amplitude_no_absorption(self):
        assert modeled_absorption(lab_cfg(), lab_cell(), 0.0, 0.1) == 0.0

    def test_weak_drive_checked_at_full_beam(self):
        # g above the detuning at the entrance, below it deeper in the cell
        cfg = lab_cfg(nu_thz=376.96, g_thz=0.05)
        with pytest.raises(DomainError, match="not small"):
            _weak_cell_kernel(cfg, lab_cell(), 1e13)

    def test_non_finite_result_rejected(self):
        # nu gamma_p overflows: no finite power to report
        flows, _ = _weak_cell_kernel(lab_cfg(), lab_cell(), 1e13)
        with pytest.raises(DomainError, match="not finite"):
            flows(1e308, 0.1)

    def test_rate_paths_run_without_quadrature(self, monkeypatch):
        import licore.cell

        def no_quad(*args, **kwargs):
            raise AssertionError("quad was called")

        monkeypatch.setattr(licore.cell, "integrate", no_quad)
        cfg = lab_cfg()
        cell = lab_cell()
        ds = synthesize_absorption(cfg, cell, 1.2e10, (360.0, 365.0, 370.0))
        assert calibrate_g0(ds, cfg, cell).g0 == pytest.approx(1.2e10, rel=1e-6)
        calibrate_g0(ds, cfg, cell, reference_nu_thz=365.0)
        with over_budget():
            scan = detuning_scan(cell, cfg, 1.2e10, [-8.0, -2.0, 2.0, 8.0],
                                 dataset=ds)
        assert all(r.model == "rate" for r in scan.rows)
        # the patch bites: an exact-solver row still integrates with quad
        with pytest.raises(AssertionError, match="quad was called"):
            detuning_scan(cell, cfg, 1.2e10, [0.0])


class TestExactRows:
    """Exact-solver rows take the closed-form dressed steady state."""

    GRID = [-1.0, -0.5, 0.0, 0.5, 1.0]

    @staticmethod
    def oracle_row(cell, cfg, g0, delta_thz):
        """(J_hot, P_abs) in watts: the cell integral over solve_pipeline."""
        cfg_row = cfg.with_laser_frequency(cfg.omega0 - thz_to_internal(delta_thz))
        hot = FlatHotSpectrum(g0, kelvin_to_internal(cell.bath_temperature_k))

        def local(att):
            cfg_local = cfg_row.attenuated(att)
            cold = CubicColdSpectrum(cfg_local.gamma, cfg_local.omega0, 0.0)
            currents = solve_pipeline(cfg_local, hot, cold)[2]
            return currents.j_hot, currents.p_abs

        return _integrate_over_cell(cell, cell.absorption_coeff_per_mm, local)

    def test_one_cold_spectrum_and_one_kernel_per_row(self, monkeypatch):
        # the first 21-point rule is accepted on this row: one cold spectrum
        # and one beam_flows kernel, evaluated at 21 depths shared by both
        # integrals; no attenuated config.  Spectrum pairs, each one call
        # and no value call: the two that do not depend on g once, three
        # per depth
        counts = {"cold": 0, "kernels": 0, "depths": 0, "pairs": 0,
                  "values": 0}
        real_cold = cellmod.CubicColdSpectrum
        real_kernel = cellmod.beam_flows

        def cold(*args):
            counts["cold"] += 1
            return real_cold(*args)

        def kernel(*args):
            counts["kernels"] += 1
            flows_at = real_kernel(*args)

            def counted(u):
                counts["depths"] += 1
                return flows_at(u)
            return counted

        def attenuated(cfg, fraction):
            raise AssertionError("cell rows must not build attenuated configs")

        for spectrum in (real_cold, FlatHotSpectrum):
            for method in ("pair", "value"):
                def counted_method(self, omega, real=getattr(spectrum, method),
                                   key=method + "s"):
                    counts[key] += 1
                    return real(self, omega)
                monkeypatch.setattr(spectrum, method, counted_method)
        monkeypatch.setattr(cellmod, "CubicColdSpectrum", cold)
        monkeypatch.setattr(cellmod, "beam_flows", kernel)
        monkeypatch.setattr(AtomDriveConfig, "attenuated", attenuated)
        with over_budget():
            scan = detuning_scan(lab_cell(), lab_cfg(g_thz=0.5),
                                 thz_to_internal(0.002), [0.5])
        assert scan.rows[0].model == "floquet"
        assert counts == {"cold": 1, "kernels": 1, "depths": 21,
                          "pairs": 2 + 21 * 3, "values": 0}

    def test_strong_scan_matches_svd_oracle_without_it(self, monkeypatch):
        cell, cfg, g0 = lab_cell(), lab_cfg(g_thz=0.5), thz_to_internal(0.002)
        oracle = [self.oracle_row(cell, cfg, g0, d) for d in self.GRID]

        def refuse(*args, **kwargs):
            raise AssertionError("cell rows must not build a generator")

        monkeypatch.setattr(floquet, "build_liouvillian", refuse)
        monkeypatch.setattr(floquet, "steady_state", refuse)
        with over_budget():
            scan = detuning_scan(cell, cfg, g0, self.GRID)
        assert all(r.model == "floquet" for r in scan.rows)
        for row, (j_hot, p_abs) in zip(scan.rows, oracle):
            assert row.p_abs_watt == pytest.approx(p_abs, rel=1e-10, abs=0)
            if row.delta_thz != 0.0:
                assert row.j_hot_watt == pytest.approx(j_hot, rel=1e-10, abs=0)
            else:
                # on resonance J_hot cancels to ~3e-5 of the absorbed power
                largest = max(abs(row.j_hot_watt), abs(row.p_abs_watt))
                assert abs(row.j_hot_watt - j_hot) <= 1e-10 * largest

    @pytest.mark.parametrize("alpha_l", [1e3, 1e6])
    def test_optically_thick_rows_scale_as_absorption_length(self, alpha_l):
        # past alpha z ~ 745 the beam underflows to 0, and the resonant row
        # was a degenerate g = detuning = 0 config; the cell is integrated
        # to the depth where the beam is still a normal double, so every
        # row is (1/alpha) times the same integral as at alpha L = 500, and
        # keeps the photon budget
        cfg, g0 = lab_cfg(), thz_to_internal(0.002)

        def scaled_rows(alpha_l):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scan = detuning_scan(lab_cell(alpha=alpha_l / 10.0), cfg, g0,
                                     [0.0, 0.2])
            assert [r.model for r in scan.rows] == ["floquet", "floquet"]
            return [v * alpha_l for r in scan.rows
                    for v in (r.j_hot_watt, r.p_abs_watt)]

        assert scaled_rows(alpha_l) == pytest.approx(scaled_rows(500.0),
                                                     rel=1e-12, abs=0)


class TestExperimentalCurrent:
    def test_no_absorption_no_current(self):
        assert experimental_heat_current(2.4, 0.0, 1.0, 365.0) == 0.0

    def test_lab_numbers(self):
        # 2.4 W, 67% absorbed at 365 THz, red-detuned from the 377 THz line
        delta = 377.0 - 365.0
        j = experimental_heat_current(2.4, 0.67, delta, 365.0)
        assert j == pytest.approx(2.4 * 0.67 * 12.0 / 365.0, rel=1e-15)
        assert j > 0

    def test_blue_detuning_heats(self):
        delta = 377.0 - 401.0
        assert experimental_heat_current(2.4, 0.5, delta, 401.0) < 0


class TestDataset:
    def test_loader_round_trip(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("# species: test\nnu_thz,absorption\n"
                        "360.0,0.1\n370.0,0.5\n380.0,0.2\n")
        ds = load_absorption_csv(path)
        assert ds.nu_thz == (360.0, 370.0, 380.0)
        assert ds.absorption_at(365.0) == pytest.approx(0.3)
        assert ds.covers(361.0) and not ds.covers(359.0)

    def test_alpha_inversion(self):
        ds = AbsorptionDataset((360.0, 370.0), (0.5, 0.5))
        alpha = ds.alpha_at(365.0, 10.0)
        assert 1 - math.exp(-alpha * 10.0) == pytest.approx(0.5, rel=1e-12)

    def test_rejects_bad_tables(self):
        with pytest.raises(ConfigError):
            AbsorptionDataset((360.0, 350.0), (0.1, 0.2))
        with pytest.raises(ConfigError):
            AbsorptionDataset((360.0, 370.0), (0.1, 1.5))

    @pytest.mark.parametrize("row", ["365.0,nan", "365.0,inf", "nan,0.2",
                                     "inf,0.2"])
    def test_rejects_non_finite_rows(self, tmp_path, row):
        # (a < 0) | (a > 1) is False for NaN, so a NaN row used to pass
        path = tmp_path / "a.csv"
        path.write_text(f"nu_thz,absorption\n360.0,0.1\n{row}\n370.0,0.2\n")
        with pytest.raises(ConfigError):
            load_absorption_csv(path)

    def test_both_loaders_skip_whitespace_only_lines(self, tmp_path):
        # datasets and spectrum tables are read by one reader
        data = tmp_path / "a.csv"
        data.write_text("nu_thz,absorption\n   \n360.0,0.1\n\t\n\n370.0,0.5\n")
        assert load_absorption_csv(data).nu_thz == (360.0, 370.0)
        table = tmp_path / "spec.csv"
        table.write_text("omega_thz,g_rate\n   \n-1.0,0.0\n\t\n\n1.0,4.0\n")
        assert load_tabulated_spectrum(table, 0.0).omegas == (
            thz_to_internal(-1.0), thz_to_internal(1.0))


class TestCalibration:
    def test_round_trip_on_synthetic_data(self):
        g0_true = 1.2e10
        cfg = lab_cfg()
        cell = lab_cell()
        ds = synthesize_absorption(cfg, cell, g0_true,
                                   (360.0, 365.0, 370.0, 382.0, 390.0))
        assert all(0 < a < 1 for a in ds.absorption)
        result = calibrate_g0(ds, cfg, cell)
        assert result.g0 == pytest.approx(g0_true, rel=1e-6)
        assert result.residual_rms <= 1e-10

    def test_single_reference_row_matched_exactly(self):
        g0_true = 8.0e9
        cfg = lab_cfg()
        cell = lab_cell()
        ds = synthesize_absorption(cfg, cell, g0_true, (365.0, 370.0))
        result = calibrate_g0(ds, cfg, cell, reference_nu_thz=365.0)
        assert len(result.rows_used) == 1
        assert result.rows_used[0][0] == 365.0
        assert result.g0 == pytest.approx(g0_true, rel=1e-9)

    def test_inconsistent_rows_leave_residual(self):
        g0_true = 1.2e10
        cfg = lab_cfg()
        cell = lab_cell()
        ds = synthesize_absorption(cfg, cell, g0_true, (365.0, 370.0))
        bumped = AbsorptionDataset(ds.nu_thz,
                                   (ds.absorption[0],
                                    min(ds.absorption[1] + 0.05, 1.0)))
        result = calibrate_g0(bumped, cfg, cell)
        assert result.residual_rms > 1e-3

    def test_rows_read_the_one_weak_drive_domain(self, monkeypatch):
        # calibration and synthesis filter rows by rate_model's predicate
        monkeypatch.setattr(cellmod, "weak_drive_defect",
                            lambda g, delta: "outside")
        with pytest.raises(ValueError, match="weak-drive regime"):
            synthesize_absorption(lab_cfg(), lab_cell(), 1.2e10, (365.0,))
        with pytest.raises(CalibrationError, match="no usable rows"):
            calibrate_g0(gaussian_dataset(), lab_cfg(), lab_cell())

    # on resonance, and 0.03 THz to either side, where g = 0.05 THz > |detuning|
    @pytest.mark.parametrize("nu_thz", [377.0, 376.97, 377.03])
    def test_synthesis_rejects_rows_at_or_near_resonance(self, nu_thz):
        with pytest.raises(ValueError, match="weak-drive regime"):
            synthesize_absorption(lab_cfg(), lab_cell(), 1.2e10,
                                  (365.0, nu_thz))

    # dense cells near resonance: the weak-drive model absorbs more than
    # the beam delivers at every a < 1, so a = fraction(alpha(a)) has no root
    @pytest.mark.parametrize("density, nu_thz", [
        (2e12, 378.0), (2e13, 372.0), (2e13, 376.0), (2e13, 378.0),
        (2e13, 382.0)])
    def test_synthesis_over_the_beam_budget_names_the_row(self, density,
                                                          nu_thz):
        cell = lab_cell(density=density)
        g0 = thz_to_internal(2e-3)
        with pytest.raises(DomainError) as info:
            synthesize_absorption(lab_cfg(), cell, g0, (360.0, nu_thz))
        assert str(info.value) == (
            f"no self-consistent absorption at {nu_thz!r} THz: the model "
            "absorbs more than the beam delivers at every a < 1")
        # the row before it synthesizes on its own
        assert 0.0 < synthesize_absorption(lab_cfg(), cell, g0,
                                           (360.0,)).absorption[0] < 1.0

    def test_all_row_fit_lands_on_the_least_squares_minimum(self,
                                                            scan_dataset_path):
        # the fixture is a Gaussian line the model does not match: the
        # residuals stay large (rms 0.13) at the least-squares g0
        ds = load_absorption_csv(scan_dataset_path)
        cfg, cell = lab_cfg(), lab_cell()
        result = calibrate_g0(ds, cfg, cell)
        assert result.g0 == pytest.approx(
            least_squares_g0(ds, cfg, cell, result.rows_used, result.g0),
            rel=1e-10, abs=0)

    def test_scattered_rows_reach_the_least_squares_minimum(self):
        # Gauss-Newton steps alone would take 120 steps here, and stop 3e-9
        # short of the minimum in ln g0; the gradient's secant takes 13
        ds = scattered_dataset()
        cfg, cell = lab_cfg(), lab_cell()
        result = calibrate_g0(ds, cfg, cell)
        assert len(result.rows_used) == 50
        assert result.g0 == pytest.approx(
            least_squares_g0(ds, cfg, cell, result.rows_used, result.g0),
            rel=1e-9, abs=0)

    def test_scattered_fit_takes_few_residual_passes(self, monkeypatch):
        # each pass is one call for every row's residual and slope
        passes = []

        def counted(residuals_and_slopes, *args, **kwargs):
            def call(x):
                passes.append(x)
                return residuals_and_slopes(x)
            return gauss_newton(call, *args, **kwargs)

        monkeypatch.setattr(cellmod, "gauss_newton", counted)
        calibrate_g0(scattered_dataset(), lab_cfg(), lab_cell())
        assert len(passes) <= 20

    def test_reference_outside_the_dataset_rejected(self):
        ds = synthesize_absorption(lab_cfg(), lab_cell(), 8.0e9, (365.0, 370.0))
        for reference in (364.9, 370.1, 1000.0, math.nan):
            with pytest.raises(ConfigError, match="outside the dataset's span "
                                                  "365.0-370.0 THz"):
                calibrate_g0(ds, lab_cfg(), lab_cell(),
                             reference_nu_thz=reference)
        # both ends of the span are inside it
        for reference in (365.0, 370.0):
            result = calibrate_g0(ds, lab_cfg(), lab_cell(),
                                  reference_nu_thz=reference)
            assert result.rows_used == ((reference, ds.absorption[
                ds.nu_thz.index(reference)]),)

    def test_flat_two_row_minimum_is_reached(self, two_rows_path):
        # at this flat minimum the fit must stop, on the minimum
        ds = load_absorption_csv(two_rows_path)
        cfg, cell = lab_cfg(), lab_cell(density=1e11)
        result = calibrate_g0(ds, cfg, cell)
        def misfit(g0):
            return sum_of_squares(ds, cfg, cell, result.rows_used, g0)

        assert len(result.rows_used) == 2
        for shift in (1e-4, -1e-4):
            assert misfit(result.g0) <= misfit(result.g0 * math.exp(shift))

    def test_two_row_grid_always_converges(self):
        cfg = lab_cfg()
        for nus, density, t_hot, a_first, a_second in itertools.product(
                ((354.0, 382.0), (360.0, 390.0), (365.0, 372.0)),
                (1e11, 3e11, 5e11), (300.0, 500.0, 700.0, 900.0),
                (0.03, 0.01, 0.003), (1e-4, 1e-5)):
            cell = CellConfig(length_mm=10.0, absorption_coeff_per_mm=1.0 / 9.0,
                              linear_atom_density_per_mm=density,
                              laser_power_w=2.4, bath_temperature_k=t_hot)
            ds = AbsorptionDataset(nus, (a_first, a_second))
            assert calibrate_g0(ds, cfg, cell).g0 > 0.0

    def test_one_root_per_calibration(self, monkeypatch, scan_dataset_path,
                                      two_rows_path):
        roots = []

        def counted_brentq(*args, **kwargs):
            roots.append(args)
            return brentq(*args, **kwargs)

        monkeypatch.setattr(cellmod, "brentq", counted_brentq)
        fixture = load_absorption_csv(scan_dataset_path)
        two_rows = load_absorption_csv(two_rows_path)
        cases = [(fixture, lab_cell(), None), (fixture, lab_cell(), 372.0),
                 (two_rows, lab_cell(density=1e11), None),
                 (two_rows, lab_cell(density=1e11), 382.0)]
        for ds, cell, reference in cases:
            roots.clear()
            calibrate_g0(ds, lab_cfg(), cell, reference_nu_thz=reference)
            assert len(roots) == 1, (len(ds.nu_thz), reference)

    def test_one_rate_balance_per_row(self, monkeypatch):
        # the fit evaluates each row's kernel; the rate balance is taken once
        # per row however many steps the fit takes, and no spectrum is built.
        # A row's config is derived from the checked template without the
        # constructor, and its attenuation from its own absorption, without
        # interpolating the dataset
        cfg, cell = lab_cfg(), lab_cell()
        nus = (360.0, 363.0, 366.0, 369.0, 384.0, 388.0)
        consistent = synthesize_absorption(cfg, cell, 1.2e10, nus)
        mismatched = AbsorptionDataset(nus, tuple(
            a * (1.3 if k % 2 else 0.7) for k, a in enumerate(consistent.absorption)))
        balances, evaluations, configs, lookups = [], [], [], []

        def counted_balance(*args):
            balances.append(args)
            return weak_balance(*args)

        def counted_flows(*args):
            evaluations.append(args)
            return rate_model._flows(*args)

        def no_spectrum(*args):
            raise AssertionError("a hot spectrum was built")

        def counted_init(self, *args, **kwargs):
            configs.append(args)
            real_init(self, *args, **kwargs)

        def counted_interp(*args):
            lookups.append(args)
            return interp(*args)

        real_init = AtomDriveConfig.__init__
        monkeypatch.setattr(cellmod, "weak_balance", counted_balance)
        monkeypatch.setattr(cellmod, "_flows", counted_flows)
        monkeypatch.setattr(cellmod, "FlatHotSpectrum", no_spectrum)
        monkeypatch.setattr(AtomDriveConfig, "__init__", counted_init)
        monkeypatch.setattr(cellmod, "interp", counted_interp)
        monkeypatch.setattr(numerics, "interp", counted_interp)
        counts = []
        for ds in (consistent, mismatched):
            balances.clear()
            evaluations.clear()
            configs.clear()
            lookups.clear()
            result = calibrate_g0(ds, cfg, cell)
            assert len(result.rows_used) == len(nus)
            assert configs == [] and lookups == []
            counts.append((len(balances), len(evaluations)))
        assert [b for b, _ in counts] == [len(nus), len(nus)]
        # the mismatched fit takes more steps, so more evaluations
        assert counts[1][1] > counts[0][1]

    def test_fits_and_synthesis_keep_their_bits(self, scan_dataset_path,
                                               two_rows_path):
        cfg = lab_cfg()
        fixture = load_absorption_csv(scan_dataset_path)
        two_rows = load_absorption_csv(two_rows_path)
        # all rows, the reference row, and a flat minimum of several steps
        fits = [calibrate_g0(fixture, cfg, lab_cell()),
                calibrate_g0(fixture, cfg, lab_cell(), reference_nu_thz=372.0),
                calibrate_g0(two_rows, cfg, lab_cell(density=1e11))]
        assert [(r.g0.hex(), r.residual_rms.hex(), len(r.rows_used))
                for r in fits] == [
            ("0x1.60ce349233545p+34", "0x1.07aaf909f0cbfp-3", 50),
            ("0x1.96a355afbfd53p+35", "0x1.0000000000000p-53", 1),
            ("0x1.4dcd2db572994p+20", "0x1.cf66eb0a5dee4p-8", 2)]
        synthetic = synthesize_absorption(cfg, lab_cell(), 1.2e10,
                                          (360.0, 365.0, 370.0, 382.0, 390.0))
        assert [a.hex() for a in synthetic.absorption] == [
            "0x1.0100bc13f54b7p-6", "0x1.9243310f126c7p-5",
            "0x1.87972b4d57782p-3", "0x1.ef60d23419404p-2",
            "0x1.0b228741efd69p-3"]

    def test_dark_dataset_rejected(self):
        ds = AbsorptionDataset((360.0, 365.0), (0.0, 0.0))
        with pytest.raises(CalibrationError):
            calibrate_g0(ds, lab_cfg(), lab_cell())

    def test_unreachable_absorption_rejected(self):
        # a handful of atoms cannot absorb two thirds of the beam
        ds = AbsorptionDataset((364.0, 365.0, 366.0), (0.6, 0.67, 0.6))
        with pytest.raises(CalibrationError, match="saturated"):
            calibrate_g0(ds, lab_cfg(), lab_cell(density=1e3),
                         reference_nu_thz=365.0)


@pytest.fixture(scope="module")
def calibrated(scan_dataset_path):
    ds = load_absorption_csv(scan_dataset_path)
    cfg = lab_cfg()
    cell = lab_cell()
    g0 = calibrate_g0(ds, cfg, cell, reference_nu_thz=372.0).g0
    return ds, cfg, cell, g0


class TestScan:
    def test_signs_follow_detuning(self, calibrated):
        ds, cfg, cell, g0 = calibrated
        with over_budget():
            scan = detuning_scan(cell, cfg, g0, [-8.0, -2.0, 2.0, 8.0],
                                 dataset=ds)
        for row in scan.rows:
            if row.delta_thz > 0:
                assert row.j_hot_watt > 0 and row.regime == "cooling"
                assert row.j_hot_exp_watt > 0
            else:
                assert row.j_hot_watt < 0 and row.regime == "heating"
                assert row.j_hot_exp_watt < 0

    def test_mirrored_pairs_follow_detailed_balance(self, calibrated):
        ds, cfg, cell, g0 = calibrated
        deltas = [-12.0, -4.0, 4.0, 12.0]
        with over_budget():
            scan = detuning_scan(cell, cfg, g0, deltas, dataset=ds)
        by_delta = {r.delta_thz: r.j_hot_watt for r in scan.rows}
        t_hot = kelvin_to_internal(500.0)
        for d in (4.0, 12.0):
            ratio = -by_delta[-d] / by_delta[d]
            expected = math.exp(thz_to_internal(d) / t_hot)
            assert ratio == pytest.approx(expected, rel=1e-10)

    def test_current_to_power_identity_on_weak_rows(self, calibrated):
        ds, cfg, cell, g0 = calibrated
        with over_budget():
            scan = detuning_scan(cell, cfg, g0, [3.0, 9.0, -9.0], dataset=ds)
        for row in scan.rows:
            assert row.model == "rate"
            nu = 377.0 - row.delta_thz
            assert row.j_hot_watt / row.p_abs_watt == \
                pytest.approx(row.delta_thz / nu, rel=1e-12)

    def test_resonant_row_switches_to_exact_solver(self, calibrated):
        ds, cfg, cell, g0 = calibrated
        with over_budget():
            scan = detuning_scan(cell, cfg, g0, [0.0, 5.0], dataset=ds)
        assert scan.rows[0].model == "floquet"
        assert scan.rows[0].regime == "neutral"
        assert scan.rows[1].model == "rate"

    def test_monotone_increase_near_origin(self):
        # constant attenuation, weak coupling: the model current grows with
        # detuning just right of zero (grid kept below the saturation knee)
        cfg = lab_cfg(g_thz=0.005)
        cell = lab_cell()
        g0 = 1.2e10
        deltas = [0.05 + 0.01 * k for k in range(11)]
        with over_budget():
            scan = detuning_scan(cell, cfg, g0, deltas)
        currents = [r.j_hot_watt for r in scan.rows]
        assert all(r.model == "rate" for r in scan.rows)
        assert all(a < b for a, b in zip(currents, currents[1:]))

    def test_undriven_rows_flagged_not_fatal(self):
        cfg = lab_cfg(g_thz=0.0)
        scan = detuning_scan(lab_cell(), cfg, 1.2e10, [0.0, 1.0])
        assert [r.model for r in scan.rows] == ["none", "none"]
        assert all(r.j_hot_watt == 0.0 for r in scan.rows)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            detuning_scan(lab_cell(), lab_cfg(), 1.2e10, [])

    def test_experimental_column_empty_outside_dataset(self, calibrated):
        ds, cfg, cell, g0 = calibrated
        with over_budget():
            scan = detuning_scan(cell, cfg, g0, [40.0], dataset=ds)
        assert scan.rows[0].j_hot_exp_watt is None

    def test_parallel_rows_identical_to_serial(self, calibrated):
        ds, cfg, cell, g0 = calibrated
        deltas = [-6.0, -1.0, 1.0, 6.0]
        with over_budget():
            serial = detuning_scan(cell, cfg, g0, deltas, dataset=ds, jobs=1)
        with over_budget():
            parallel = detuning_scan(cell, cfg, g0, deltas, dataset=ds, jobs=3)
        assert serial.rows == parallel.rows

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            detuning_scan(lab_cell(), lab_cfg(), 1.2e10, [1.0], jobs=0)

    def test_jobs_capped_at_cpu_count(self, monkeypatch):
        # one CPU: any jobs value runs serially and starts no process
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr("os.cpu_count", lambda: 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        with over_budget():
            serial = detuning_scan(lab_cell(), lab_cfg(), 1.2e10, [-1.0, 1.0])
        with over_budget():
            capped = detuning_scan(lab_cell(), lab_cfg(), 1.2e10, [-1.0, 1.0],
                                   jobs=8)
        assert capped.rows == serial.rows

    def test_csv_output_schema(self, calibrated, tmp_path):
        ds, cfg, cell, g0 = calibrated
        with over_budget():
            scan = detuning_scan(cell, cfg, g0, [40.0, -3.0], dataset=ds)
        path = tmp_path / "scan.csv"
        write_scan_csv(scan, path)
        lines = path.read_text().splitlines()
        assert lines[0] == \
            "delta_thz,j_hot_watt,j_hot_exp_watt,p_abs_watt,eta,regime,model"
        assert lines[1].split(",")[2] == ""  # no data at delta = 40 THz
        records = scan_records(scan)
        assert records[1]["regime"] == "heating"


class TestPhotonBudget:
    """A row absorbs at most what the beam loses in the cell; the scan
    counts the rows that break this and warns once."""

    GRID = [-25.0 + k for k in range(51)]

    @pytest.mark.parametrize("with_dataset", [False, True])
    def test_count_of_rows_over_budget(self, calibrated, with_dataset):
        ds, cfg, cell, g0 = calibrated
        dataset = ds if with_dataset else None
        with over_budget() as record:
            scan = detuning_scan(cell, cfg, g0, self.GRID, dataset=dataset)
        over = 0
        for row in scan.rows:
            # the config's alpha, or the dataset's at the row's frequency
            alpha = (cell.absorption_coeff_per_mm if dataset is None else
                     ds.alpha_at(377.0 - row.delta_thz, cell.length_mm))
            absorbed = 1.0 - math.exp(-alpha * cell.length_mm)
            over += row.p_abs_watt > cell.laser_power_w * absorbed * (1 + 1e-9)
        assert 0 < over < len(self.GRID)
        assert [str(w.message) for w in record] == [
            f"{over} of 51 scan rows absorb more than the beam delivers"]

    @pytest.mark.parametrize("with_dataset", [False, True])
    def test_low_amplitude_off_resonance_scan_does_not_warn(self, calibrated,
                                                            with_dataset):
        ds, cfg, cell, _ = calibrated
        grid = [-25.0 + 2.0 * k for k in range(26)]     # skips resonance
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            detuning_scan(cell, cfg, thz_to_internal(1e-7), grid,
                          dataset=ds if with_dataset else None)


def test_pick_solver_threshold():
    assert pick_solver(lab_cfg(nu_thz=376.0, g_thz=0.05)) == "rate"
    assert pick_solver(lab_cfg(nu_thz=376.9, g_thz=0.05)) == "floquet"
    assert pick_solver(lab_cfg(nu_thz=377.0, g_thz=0.05)) == "floquet"
