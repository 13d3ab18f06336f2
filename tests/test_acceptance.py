"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime (visible with ``pytest -s``) and enforcing the stated
tolerance and time budget.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from licore.analysis import (
    licore_temperature_limit,
    min_temp_asymptotic,
    min_temp_bisect,
    min_temp_exact,
    sideband_temperature_limit,
)
from licore.cell import (
    CellConfig,
    calibrate_g0,
    detuning_scan,
    load_absorption_csv,
    synthesize_absorption,
)
from licore.cli import main as cli_main
from licore.config import AtomDriveConfig
from licore.floquet import (heat_current_exact, hot_channel_rate,
                            sideband_weights)
from licore.oracle import bare_populations, solve_pipeline
from licore.rate_model import (
    pumping_rate,
    steady_state as rate_steady_state,
    weak_flows,
)
from licore.spectra import (
    CubicColdSpectrum,
    FlatHotSpectrum,
    boltzmann_weight,
    kms_violation,
)
from licore.units import internal_to_thz, kelvin_to_internal, thz_to_internal

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    print(f"[criterion {number:2d}] PASS  {description}  ({elapsed:.2f} s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def draw_weak_config(rng, g_over_delta):
    """Random point with the pumping rate pinned to a gamma-comparable value
    so populations stay finite while g/delta is varied."""
    delta = rng.uniform(0.5, 2.0)
    t_hot = delta / rng.uniform(0.3, 2.0)
    gamma = delta * 10.0 ** rng.uniform(-3.0, -1.0)
    nu = delta * rng.uniform(20.0, 80.0)
    g = g_over_delta * delta
    pump_over_gamma = 10.0 ** rng.uniform(-0.5, 0.7)
    g0 = pump_over_gamma * gamma / (2.0 * g / delta) ** 2
    cfg = AtomDriveConfig(omega0=nu + delta, gamma=gamma, g=g, nu=nu)
    return cfg, FlatHotSpectrum(g0, t_hot)


def test_criterion_01_kms_detailed_balance():
    with criterion(1, "built-in spectra obey detailed balance to 1e-12 "
                      "on a 1000-point log grid", 1.0):
        grid = np.geomspace(1e-4, 1e4, 1000)
        specs = [
            FlatHotSpectrum(plateau=5.0, temperature=1.3),
            FlatHotSpectrum(plateau=0.02, temperature=300.0),
            CubicColdSpectrum(gamma=0.05, omega0=100.0, temperature=7.0),
            CubicColdSpectrum(gamma=2.0, omega0=4.0, temperature=0.0),
        ]
        for spec in specs:
            assert kms_violation(spec, grid) <= 1e-12


def test_criterion_02_oracle_equivalence():
    with criterion(2, "exact solver reproduces weak-drive populations to 1e-3 "
                      "at g/delta=1e-3; error slope 2 +/- 0.2", 10.0):
        rng = np.random.default_rng(2024)
        seeds = [rng.integers(0, 2 ** 31) for _ in range(100)]
        ratios = (1e-1, 1e-2, 1e-3)
        errors = {r: [] for r in ratios}
        for seed in seeds:
            for r in ratios:
                cfg, hot = draw_weak_config(np.random.default_rng(seed), r)
                cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0)
                _, report, _ = solve_pipeline(cfg, hot, cold)
                ee, gg = bare_populations(cfg, report.rho)
                pt = rate_steady_state(cfg, pumping_rate(cfg, hot),
                                       hot.temperature)
                err = max(abs(ee - pt.rho_ee) / pt.rho_ee,
                          abs(gg - pt.rho_gg) / pt.rho_gg)
                errors[r].append(err)
        assert max(errors[1e-3]) <= 1e-3
        means = [np.mean(errors[r]) for r in ratios]
        slope = np.polyfit(np.log(ratios), np.log(means), 1)[0]
        assert 1.8 <= slope <= 2.2, f"error slope {slope:.3f}"


def test_criterion_03_energy_conservation():
    with criterion(3, "absorbed power balances both heat currents to 1e-10 "
                      "across 1000 random points", 10.0):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            g_over_delta = 10.0 ** rng.uniform(-3.0, -0.5)
            cfg, hot = draw_weak_config(rng, g_over_delta)
            if rng.uniform() < 0.3:  # mix in blue detuning
                cfg = AtomDriveConfig(omega0=cfg.nu, gamma=cfg.gamma,
                                      g=cfg.g, nu=cfg.omega0)
            t_cold = rng.uniform(0.0, cfg.nu / 25.0)
            cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, t_cold)
            _, report, currents = solve_pipeline(cfg, hot, cold)
            scale = max(abs(currents.j_hot), abs(currents.j_cold),
                        abs(currents.p_abs))
            assert currents.conservation_residual <= 1e-10 * scale
            # complete-positivity proxy on the same 10^3 solves
            assert np.linalg.eigvalsh(report.rho).min() >= -1e-12


def test_criterion_04_exact_current_agreement():
    with criterion(4, "numerical currents equal the closed-form expression "
                      "to 1e-8 on 100 weak-coupling points", 5.0):
        rng = np.random.default_rng(4)
        for _ in range(100):
            g_over_delta = 10.0 ** rng.uniform(-3.0, -1.0)
            cfg, hot = draw_weak_config(rng, g_over_delta)
            t_cold = rng.uniform(0.01, 0.08) * cfg.nu
            cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, t_cold)
            _, _, currents = solve_pipeline(cfg, hot, cold)
            j_closed = heat_current_exact(cfg, hot_channel_rate(cfg, hot),
                                          hot.temperature, t_cold)
            assert currents.j_hot == pytest.approx(j_closed, rel=1e-8)


def test_criterion_05_asymmetry():
    with criterion(5, "heating/cooling asymmetry equals the bath Boltzmann "
                      "factor (1e-12 closed form; 1% numerically)", 5.0):
        rng = np.random.default_rng(5)
        for _ in range(300):
            delta = rng.uniform(0.1, 3.0)
            t_hot = delta / rng.uniform(0.2, 2.5)
            gamma = 10.0 ** rng.uniform(-3, 1)
            gamma_p = 10.0 ** rng.uniform(-3, 1)
            cfg = AtomDriveConfig(omega0=100.0 + delta, gamma=gamma,
                                  g=1e-3 * delta, nu=100.0)
            # swapping omega0 and nu negates the detuning bit-exactly
            blue_cfg = AtomDriveConfig(omega0=cfg.nu, gamma=gamma, g=cfg.g,
                                       nu=cfg.omega0)
            ratio = (-weak_flows(blue_cfg, gamma_p, t_hot)[0]
                     / weak_flows(cfg, gamma_p, t_hot)[0])
            assert ratio == pytest.approx(
                math.exp(cfg.detuning / t_hot), rel=1e-12)
        for _ in range(10):
            cfg, hot = draw_weak_config(rng, 1e-3)
            cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0)
            _, _, red = solve_pipeline(cfg, hot, cold)
            blue_cfg = cfg.with_laser_frequency(cfg.omega0 + cfg.detuning)
            _, _, blue = solve_pipeline(blue_cfg, hot, cold)
            ratio = -blue.j_hot / red.j_hot
            expected = math.exp(cfg.detuning / hot.temperature)
            assert ratio == pytest.approx(expected, rel=1e-2)


def test_criterion_06_cooling_universality():
    with criterion(6, "heat flows out of the hot bath for every red-detuned "
                      "draw (10^4 points, 6 decades per rate)", 5.0):
        rng = np.random.default_rng(6)
        for _ in range(10_000):
            t_hot = 10.0 ** rng.uniform(-3, 3)
            gamma = 10.0 ** rng.uniform(-3, 3)
            gamma_p = 10.0 ** rng.uniform(-3, 3)
            delta = t_hot * 10.0 ** rng.uniform(-3, math.log10(500.0))
            cfg = AtomDriveConfig(omega0=delta + 1e4, gamma=gamma,
                                  g=0.0, nu=1e4)
            assert weak_flows(cfg, gamma_p, t_hot)[0] > 0.0


def test_criterion_07_minimal_temperature():
    with criterion(7, "cooling-stop temperature: balance residual 1e-12, "
                      "current sign change, 10% asymptotic agreement", 5.0):
        rng = np.random.default_rng(7)
        # (a) residual of the balance condition at the root
        for _ in range(50):
            delta = rng.uniform(0.5, 2.0)
            nu = delta * rng.uniform(25.0, 60.0)
            cfg = AtomDriveConfig(omega0=nu + delta, gamma=0.05,
                                  g=delta * 10.0 ** rng.uniform(-3, -1), nu=nu)
            t_cold = rng.uniform(0.0, nu / 20.0)
            t_min = min_temp_exact(cfg, t_cold)
            # the floor balance in floquet._hot_balance's order
            d_plus, d_minus = sideband_weights(cfg)
            rhs = ((d_plus * boltzmann_weight(cfg.nu + cfg.rabi, t_cold)
                    + d_minus)
                   / (d_plus + d_minus
                      * boltzmann_weight(cfg.nu - cfg.rabi, t_cold)))
            lhs = boltzmann_weight(cfg.rabi, t_min)
            assert abs(lhs - rhs) / max(rhs, 1e-300) <= 1e-12
        # (b) the exact current changes sign across the root
        cfg = AtomDriveConfig(omega0=101.0, gamma=0.05, g=1e-2, nu=100.0)
        for t_cold in (0.0, 3.0):
            t_min = min_temp_exact(cfg, t_cold)
            assert heat_current_exact(cfg, 0.4, 0.9 * t_min, t_cold) < 0.0
            assert heat_current_exact(cfg, 0.4, 1.1 * t_min, t_cold) > 0.0
            bisected = min_temp_bisect(cfg, t_cold)
            assert bisected == pytest.approx(t_min, rel=1e-10)
        # (c) asymptotic form at delta/g = 1000, delta/nu <= 0.05
        cfg = AtomDriveConfig(omega0=101.0, gamma=0.05, g=1e-3, nu=100.0)
        exact = min_temp_exact(cfg, 0.0)
        asym = cfg.rabi / (4.0 * math.log(1e3))
        assert min_temp_asymptotic(cfg) == pytest.approx(asym, rel=1e-12)
        assert abs(exact - asym) / exact <= 0.10


def test_criterion_08_desk_scale_lab_numbers():
    with criterion(8, "500 K <-> 10.4 THz, 67% cell absorption, "
                      "thermodynamic factor near T/omega0", 1.0):
        thz = internal_to_thz(kelvin_to_internal(500.0))
        assert abs(thz - 10.4) <= 0.1
        absorption = 1.0 - math.exp(-10.0 / 9.0)
        assert abs(absorption - 0.67) <= 0.01
        cfg = AtomDriveConfig.from_thz(377.0, 6e-6, 0.05, 366.6)
        gamma_p = 1e-4 * cfg.gamma
        t_hot = kelvin_to_internal(500.0)
        j, p = weak_flows(cfg, gamma_p, t_hot)
        factor = j / p
        assert factor == pytest.approx(cfg.detuning / cfg.nu, rel=1e-12)
        assert factor == pytest.approx(0.028, abs=0.001)
        t_over_omega0 = t_hot / thz_to_internal(377.0)
        assert 1.0 / 1.5 <= factor / t_over_omega0 <= 1.5


def test_criterion_09_detuning_scan_shape():
    with criterion(9, "calibrated scan: signs by detuning, mirrored-pair "
                      "asymmetry to 1%, single interior peak per side", 10.0):
        dataset = load_absorption_csv(FIXTURES / "absorption_synthetic.csv")
        cfg = AtomDriveConfig.from_thz(377.0, 6e-6, 0.05, 372.0,
                                       laser_power_w=2.4)
        cell = CellConfig(length_mm=10.0, absorption_coeff_per_mm=1.0 / 9.0,
                          linear_atom_density_per_mm=2e11, laser_power_w=2.4,
                          bath_temperature_k=500.0)
        g0 = calibrate_g0(dataset, cfg, cell, reference_nu_thz=372.0).g0
        deltas = [float(d) for d in np.arange(-25.0, 25.5, 1.0)]
        scan = detuning_scan(cell, cfg, g0, deltas, dataset=dataset)

        by_delta = {r.delta_thz: r for r in scan.rows}
        # (a) strict cooling/heating split
        for r in scan.rows:
            if r.delta_thz > 0:
                assert r.j_hot_watt > 0 and r.regime == "cooling"
            elif r.delta_thz < 0:
                assert r.j_hot_watt < 0 and r.regime == "heating"
        # (b) mirrored pairs follow the bath Boltzmann factor
        t_hot = kelvin_to_internal(500.0)
        for d in range(1, 26):
            ratio = -by_delta[float(-d)].j_hot_watt / by_delta[float(d)].j_hot_watt
            expected = math.exp(thz_to_internal(float(d)) / t_hot)
            assert ratio == pytest.approx(expected, rel=1e-2)
        # (c) one interior extremum per side
        for sign in (+1, -1):
            mags = [abs(by_delta[float(sign * d)].j_hot_watt)
                    for d in range(1, 26)]
            slopes = np.sign(np.diff(mags))
            slopes = slopes[slopes != 0]
            assert int(np.sum(slopes[1:] != slopes[:-1])) == 1
            assert 1 < int(np.argmax(mags)) + 1 < 25


def test_criterion_10_method_comparison_cells():
    with criterion(10, "comparison table cells match the printed formulas "
                       "and qualitative orderings", 1.0):
        assert licore_temperature_limit(1000.0, 1.0) == \
            pytest.approx(1.0 / (4.0 * math.log(1e3)), rel=1e-14)
        for gamma_over_rabi in (10.0, 0.1):
            gamma, rabi = gamma_over_rabi, 1.0
            unres = sideband_temperature_limit(gamma, rabi, "unresolved")
            res = sideband_temperature_limit(gamma, rabi, "resolved")
            r = gamma / (4.0 * rabi)
            assert unres == pytest.approx(1.0 / math.log((1 + r) / r), rel=1e-14)
            r2 = gamma ** 2 / (16.0 * rabi ** 2)
            assert res == pytest.approx(1.0 / math.log((1 + r2) / r2), rel=1e-14)
            licore_val = licore_temperature_limit(1000.0, 1.0)
            assert licore_val < 1.0  # deep sub-splitting at either ratio
        from licore.analysis import doppler_temperature_limit
        assert doppler_temperature_limit() == 0.25
        # unresolved bands: sideband floor above one, ours below
        assert sideband_temperature_limit(10.0, 1.0, "unresolved") > 1.0
        # resolved bands: sideband floor below one
        assert sideband_temperature_limit(0.1, 1.0, "resolved") < 1.0


def test_criterion_11_calibration_round_trip():
    with criterion(11, "spectrum amplitude recovered from self-generated "
                       "absorption data to 1e-6", 5.0):
        cfg = AtomDriveConfig.from_thz(377.0, 6e-6, 0.05, 372.0,
                                       laser_power_w=2.4)
        cell = CellConfig(length_mm=10.0, absorption_coeff_per_mm=1.0 / 9.0,
                          linear_atom_density_per_mm=2e11, laser_power_w=2.4,
                          bath_temperature_k=500.0)
        for g0_true in (3e9, 1.2e10, 5e10):
            ds = synthesize_absorption(cfg, cell, g0_true,
                                       (362.0, 367.0, 372.0, 382.0, 389.0))
            recovered = calibrate_g0(ds, cfg, cell).g0
            assert recovered == pytest.approx(g0_true, rel=1e-6)


def test_criterion_12_cli_determinism(tmp_path, capsys):
    with criterion(12, "every subcommand is byte-identical across repeated "
                       "runs (metadata excluded)", 10.0):
        point = str(FIXTURES / "config_point.json")
        scan = str(FIXTURES / "config_scan.json")
        runs = {
            "steady-state": ["steady-state", "--config", point],
            "currents": ["currents", "--config", point],
            "tmin": ["tmin", "--config", point],
            "compare": ["compare", "--config", point],
            "calibrate": ["calibrate", "--config", scan],
            "scan": ["scan", "--config", scan,
                     "--set", "scan.delta_min_thz=-5.0",
                     "--set", "scan.delta_max_thz=5.0"],
        }
        for name, argv in runs.items():
            outputs = []
            for attempt in ("a", "b"):
                out = tmp_path / f"{name}_{attempt}"
                full = argv + ["--no-metadata", "--out", str(out)]
                assert cli_main(full) == 0
                capsys.readouterr()
                if name == "scan":
                    blob = (out.with_suffix(".csv").read_bytes()
                            + out.with_suffix(".json").read_bytes())
                else:
                    blob = out.read_bytes()
                outputs.append(blob)
            assert outputs[0] == outputs[1], f"{name} output not byte-stable"
