import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from licore import cell as cellmod
from licore.config import AtomDriveConfig
from licore.cli import (
    CONFIG_SCHEMA,
    MAX_SCAN_ROWS,
    _options,
    _schema_violations,
    _utc_timestamp,
    load_config,
    main,
)
from licore.errors import ConfigError, DomainError
from licore.units import round12

FIXTURES = Path(__file__).parent / "fixtures"
POINT = str(FIXTURES / "config_point.json")
SCAN = str(FIXTURES / "config_scan.json")
DATASET = str(FIXTURES / "absorption_synthetic.csv")
TWO_ROWS = str(FIXTURES / "absorption_two_rows.csv")
# five exact-solver scan rows of config_scan.json
FLOQUET_ROWS = ["--set", "hot_bath.g0_thz=0.002", "--set", "atom.g_thz=0.5",
                "--set", "scan.delta_min_thz=-1.0", "--set", "scan.delta_max_thz=1.0",
                "--set", "scan.delta_step_thz=0.5"]
COMMANDS = ("steady-state", "currents", "scan", "tmin", "compare", "calibrate")
# jsonschema is a test dependency, which the suite can run without
NO_JSONSCHEMA = "jsonschema is not installed; the CLI checks its schema alone"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json", "--no-metadata")
    assert code == 0, err
    return json.loads(out)


class TestSubcommands:
    def test_steady_state_solvers_agree_in_weak_drive(self, capsys):
        # g/detuning = 0.01 with pumping comparable to gamma
        payload = run_json(capsys, "steady-state", "--config", POINT,
                           "--set", "atom.nu_thz=372.0",
                           "--set", "hot_bath.g0_thz=0.02")
        assert payload["floquet"]["rel_difference_rho_ee"] <= 1e-3

    def test_steady_state_undriven(self, capsys):
        payload = run_json(capsys, "steady-state", "--config", POINT,
                           "--set", "atom.g_thz=0.0")
        assert payload["floquet"]["rho_ee"] == pytest.approx(0.0, abs=1e-12)
        assert payload["rate_model"]["gamma_p_thz"] == 0.0

    @pytest.mark.parametrize("nu", ["387.0", "387.4"])
    def test_steady_state_heating_regime(self, capsys, nu):
        payload = run_json(capsys, "steady-state", "--config", POINT,
                           "--set", f"atom.nu_thz={nu}")
        # the blue side runs on the same balance as the red one, so the
        # two routes agree there too
        assert payload["floquet"]["rel_difference_rho_ee"] <= 1e-3

    def test_currents_conservation_field(self, capsys):
        payload = run_json(capsys, "currents", "--config", POINT)
        assert payload["floquet"]["conservation_residual_rel"] <= 1e-10
        assert payload["regime"] == "cooling"
        assert payload["rate_model"]["j_hot_w"] > 0

    def test_steady_state_reports_closed_form_residuals(self, capsys):
        floquet = run_json(capsys, "steady-state", "--config", POINT)["floquet"]
        assert "residual" not in floquet
        assert 0.0 <= floquet["rate_balance_residual"] <= 1e-15
        assert floquet["rho_ee"] + floquet["rho_gg"] == pytest.approx(1.0,
                                                                      abs=1e-15)

    def test_currents_on_resonance_print_the_closed_form(self, capsys):
        # delta = 0: J_hot is a small difference of hot-channel quanta, whose
        # last digits the SVD state used to get wrong (-2.49824220369e-18)
        from licore.config import AtomDriveConfig
        from licore.floquet import heat_current_exact, hot_channel_rate
        from licore.spectra import FlatHotSpectrum
        from licore.units import (internal_to_watts, kelvin_to_internal,
                                  round12, thz_to_internal)
        payload = run_json(capsys, "currents", "--config", POINT,
                           "--set", "atom.nu_thz=377.0")
        cfg = AtomDriveConfig.from_thz(377.0, 6e-6, 0.05, 377.0)
        hot = FlatHotSpectrum(thz_to_internal(0.002), kelvin_to_internal(500.0))
        j_hot = heat_current_exact(cfg, hot_channel_rate(cfg, hot),
                                   hot.temperature, 0.0)
        assert payload["floquet"]["j_hot_w"] == round12(internal_to_watts(j_hot))
        assert payload["floquet"]["j_hot_w"] == -2.49824220387e-18

    def test_currents_blue_mirror_matches_asymmetry(self, capsys):
        red = run_json(capsys, "currents", "--config", POINT,
                       "--set", "atom.nu_thz=366.6")
        blue = run_json(capsys, "currents", "--config", POINT,
                        "--set", "atom.nu_thz=387.4")
        assert blue["regime"] == "heating"
        ratio = -blue["rate_model"]["j_hot_w"] / red["rate_model"]["j_hot_w"]
        from licore.units import kelvin_to_internal, thz_to_internal
        expected = math.exp(thz_to_internal(10.4) / kelvin_to_internal(500.0))
        assert ratio == pytest.approx(expected, rel=1e-10)

    def test_tmin_report(self, capsys):
        payload = run_json(capsys, "tmin", "--config", POINT)
        assert payload["t_min_exact_k"] == pytest.approx(23.19, abs=0.05)
        bc = payload["bracket_check"]
        assert (bc["j_sign_below"], bc["j_sign_above"]) == (-1, 1)
        assert bc["bisect_rel_difference"] <= 1e-10
        assert payload["relative_gap"] <= 0.10

    def test_tmin_takes_the_floor_balance_once(self, capsys, monkeypatch):
        # the closed-form floor and the bracketed root it reports come from
        # one floquet._hot_balance, and keep the fixture's bytes
        from licore import analysis
        calls = []
        hot_balance = analysis._hot_balance

        def counted(*args):
            calls.append(args)
            return hot_balance(*args)

        monkeypatch.setattr(analysis, "_hot_balance", counted)
        code, out, err = run(capsys, "tmin", "--config", POINT, "--no-metadata",
                             "--set", "atom.g_thz=20",
                             "--set", "cold_bath.temperature_k=300")
        assert code == 0, err
        assert len(calls) == 1
        assert out == (FIXTURES / "tmin_strong_warm.json").read_text()

    def test_tmin_undriven_reports_zero(self, capsys):
        payload = run_json(capsys, "tmin", "--config", POINT,
                           "--set", "atom.g_thz=0.0")
        assert payload["t_min_exact_k"] == 0.0

    def test_compare_cells(self, capsys):
        payload = run_json(capsys, "compare", "--config", POINT)
        cells = {(c["method"], c["regime"]): c["value"]
                 for c in payload["t_min_scaled"]}
        assert cells[("doppler", "resolved")] == 0.25
        assert cells[("licore", "resolved")] == cells[("licore", "unresolved")]
        assert len(payload["efficiency_bounds"]) == 3

    def test_compare_licore_cells_where_detuning_over_g_overflows(self,
                                                                   capsys):
        # detuning/g overflows at g = 1e-310 THz: its logarithm is taken as
        # ln detuning - ln g, where 1/(4 ln(inf)) printed 0.0
        payload = run_json(capsys, "compare", "--config", POINT,
                           "--set", "atom.g_thz=1e-310")
        cfg = AtomDriveConfig.from_thz(377.0, 6e-6, 1e-310, 366.6)
        expected = round12(1.0 / (4.0 * (math.log(cfg.detuning)
                                         - math.log(cfg.g))))
        cells = {(c["method"], c["regime"]): c["value"]
                 for c in payload["t_min_scaled"]}
        assert cells[("licore", "unresolved")] == expected > 0.0
        assert cells[("licore", "resolved")] == expected

    @pytest.mark.parametrize("rabi_thz, unresolved, resolved", [
        ("1e-12", 1500000.5, 2.25e12),
        ("1e-14", 150000000.5, 2.25e16),
        ("1e-20", 1.5e14, 2.25e28),
    ])
    def test_compare_sideband_cells_where_rabi_is_tiny(self, capsys, rabi_thz,
                                                        unresolved, resolved):
        # r = gamma/(4 rabi) = 1.5e6 at 1e-12 THz, where the limits are
        # r + 1/2 and r^2 + 1/2 to 12 digits; ln((1 + r)/r) printed
        # 1500000.49979 there and divided by zero at 1e-20 THz
        payload = run_json(capsys, "compare", "--config", POINT,
                           "--set", f"compare.rabi_thz={rabi_thz}")
        cells = {(c["method"], c["regime"]): c["value"]
                 for c in payload["t_min_scaled"]}
        assert cells[("sideband", "unresolved")] == unresolved
        assert cells[("sideband", "resolved")] == resolved

    def test_calibrate(self, capsys):
        payload = run_json(capsys, "calibrate", "--config", SCAN)
        assert payload["rows_used"] == 1
        assert payload["g0_thz"] == pytest.approx(0.00868636, rel=1e-5)

    def test_flat_two_row_minimum_calibrates_and_scans(self, capsys, tmp_path):
        sparse = ["--no-metadata", "--set", "cell.linear_atom_density_per_mm=1e11"]
        code, _, err = run(capsys, "calibrate", "--config",
                           _scan_config(tmp_path, _without_reference_row),
                           "--set", f"calibrate.dataset_csv={TWO_ROWS}", *sparse)
        assert code == 0, err
        code, _, err = run(capsys, "scan", "--config", SCAN, "--set",
                           f"scan.dataset_csv={TWO_ROWS}", *sparse,
                           "--out", str(tmp_path / "scan"))
        assert code == 0, err

    def test_steady_state_with_tabulated_hot_spectrum(self, capsys, tmp_path):
        # a balanced table that is flat at +/-detuning reproduces the flat
        # spectrum's populations
        import math as m
        from licore.units import kelvin_to_internal, thz_to_internal
        t_int = kelvin_to_internal(500.0)
        rows = ["omega_thz,g_rate"]
        for w in (-30.0, -15.0, 0.0, 15.0, 30.0):
            g = 0.002 if w >= 0 else 0.002 * m.exp(thz_to_internal(w) / t_int)
            rows.append(f"{w},{g:.17g}")
        spec_csv = tmp_path / "hot.csv"
        spec_csv.write_text("\n".join(rows) + "\n")
        flat = run_json(capsys, "steady-state", "--config", POINT)
        tab = run_json(capsys, "steady-state", "--config", POINT,
                       "--set", f"hot_bath.spectrum_csv={spec_csv}")
        assert tab["rate_model"]["rho_ee"] == \
            pytest.approx(flat["rate_model"]["rho_ee"], rel=1e-6)

    def test_out_of_regime_rate_model_degrades_gracefully(self, capsys):
        # strong drive: the weak-drive side reports a note, the exact solver
        # still answers
        payload = run_json(capsys, "steady-state", "--config", POINT,
                           "--set", "atom.g_thz=11.0")
        assert "out of regime" in payload["rate_model"]["note"]
        assert 0.0 <= payload["floquet"]["rho_ee"] <= 1.0

    def test_scan_writes_csv_and_json(self, capsys, tmp_path):
        out = tmp_path / "scan"
        code, _, err = run(capsys, "scan", "--config", SCAN,
                           "--set", "scan.delta_min_thz=-3.0",
                           "--set", "scan.delta_max_thz=3.0",
                           "--set", "scan.delta_step_thz=1.0",
                           "--out", str(out), "--no-metadata")
        assert code == 0, err
        csv_lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert len(csv_lines) == 8  # header + 7 rows
        doc = json.loads((tmp_path / "scan.json").read_text())
        assert "metadata" not in doc
        assert doc["rows"][0]["delta_thz"] == -3.0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.csv",
                                                               "scan.json"]

    @pytest.mark.parametrize("out, stem", [
        ("run_T0.5", "run_T0.5"),   # a suffix other than .csv/.json stays
        ("run.csv", "run"),
        ("run.json", "run"),
    ])
    def test_scan_out_keeps_all_but_a_csv_or_json_suffix(self, capsys,
                                                         tmp_path, out, stem):
        code, stdout, err = run(capsys, "scan", "--config", SCAN,
                                "--no-metadata", "--set", "hot_bath.g0_thz=1e-7",
                                "--set", "scan.delta_step_thz=5.0",
                                "--out", str(tmp_path / out))
        assert code == 0, err
        assert stdout == (f"wrote {tmp_path / stem}.csv and "
                          f"{tmp_path / stem}.json\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{stem}.csv",
                                                               f"{stem}.json"]

    @pytest.mark.parametrize("sets", [
        [],
        # alpha = 1/length overflows, and the metadata read Infinity
        ["cell.absorption_length_mm=1e-320"],
    ], ids=["fixture", "alpha-overflows"])
    def test_scan_document_with_metadata_is_strict_json(self, capsys, tmp_path,
                                                        sets):
        argv = ["scan", "--config", SCAN, "--set", "scan.delta_step_thz=5.0",
                "--out", str(tmp_path / "scan")]
        for item in sets:
            argv += ["--set", item]
        code, _, err = run(capsys, *argv)
        if code != 0:   # refused instead: one line, and nothing written
            assert len(err.splitlines()) == 1
            assert list(tmp_path.iterdir()) == []
            return

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads((tmp_path / "scan.json").read_text(),
                         parse_constant=refuse)
        assert sorted(doc) == ["metadata", "rows"]
        # every CellConfig field
        assert doc["metadata"]["cell"] == {
            "length_mm": 10.0, "absorption_coeff_per_mm": 1.0 / 9.0,
            "linear_atom_density_per_mm": 2e11, "laser_power_w": 2.4,
            "bath_temperature_k": 500.0}


TMIN_CSV = (
    "bracket_check.bisect_rel_difference,bracket_check.bisect_root_k,"
    "bracket_check.j_sign_above,bracket_check.j_sign_below,command,"
    "relative_gap,t_min_asymptotic_k,t_min_exact_k\n"
    "5.6280427822e-15,23.1938893161,1,-1,tmin,0.00797927688609,"
    "23.3789597811,23.1938893161\n")
COMPARE_TABLE = """\
method comparison (operating regime: resolved)
  method     regime        kT_min/(hbar ref) ref
  doppler    unresolved                 0.25 gamma
  doppler    resolved                   0.25 gamma
  sideband   unresolved              0.06348 rabi
  sideband   resolved                0.03174 rabi
  licore     unresolved              0.04684 rabi
  licore     resolved                0.04684 rabi
  efficiency bounds:
    doppler     9.364e-12  (recoil-limited, much below one)
    sideband      0.02837  (rabi/nu; requires resolved bands to stay near one)
    licore        0.02837  (detuning/nu; bands need not be resolved)
"""
STEADY_STATE_CSV = (
    "command,floquet.rate_balance_residual,floquet.rel_difference_rho_ee,"
    "floquet.rho_ee,floquet.rho_gg,floquet.t_tla_k,"
    "rate_model.boltzmann_factor,rate_model.gamma_p_thz,rate_model.rho_ee,"
    "rate_model.rho_gg,rate_model.t_tla_k\n"
    "steady-state,0.0,0.00197705607918,0.010919411741,0.989080588259,"
    "110.762404109,0.011017894521,1.84911242604e-07,0.0108978234517,"
    "0.989102176548,110.713245668\n")


class TestFormats:
    @pytest.mark.parametrize("command, fmt, expected", [
        ("tmin", "csv", TMIN_CSV),
        ("compare", "table", COMPARE_TABLE),
        ("steady-state", "csv", STEADY_STATE_CSV),
    ])
    def test_point_command_output_is_golden(self, capsys, command, fmt,
                                            expected):
        assert run(capsys, command, "--config", POINT, "--format", fmt,
                   "--no-metadata") == (0, expected, "")

    @pytest.mark.parametrize("seconds, micros", [
        (0, 0), (1_700_000_000, 0), (1_700_000_000, 1), (1_700_000_000, 500_000),
        (1_792_450_387, 123_456), (1_792_450_387, 999_999), (4_102_444_799, 7),
    ])
    def test_timestamp_is_datetimes_isoformat(self, seconds, micros):
        # at whole microseconds, where fromtimestamp's rounding has nothing
        # to round; a whole second has no fraction
        t = seconds + micros / 1e6
        want = datetime.fromtimestamp(t, timezone.utc).isoformat()
        assert _utc_timestamp(seconds * 10**9 + micros * 1000) == want
        # below a microsecond the time is cut, as datetime.now cuts it
        assert _utc_timestamp(seconds * 10**9 + micros * 1000 + 999) == want

    @pytest.mark.parametrize("command", ["steady-state", "currents", "tmin",
                                         "compare"])
    def test_metadata_names_the_config_and_the_time(self, capsys, command):
        code, out, err = run(capsys, command, "--config", POINT)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        metadata = payload.pop("metadata")
        assert payload == run_json(capsys, command, "--config", POINT)
        assert sorted(metadata) == ["config", "generated_at"]
        assert metadata["config"] == POINT
        stamp = datetime.fromisoformat(metadata["generated_at"])
        assert stamp.utcoffset() == timedelta(0)


def _point_config(tmp_path, edit) -> str:
    """config_point.json edited by ``edit``."""
    doc = json.loads(Path(POINT).read_text())
    edit(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _without_g0(doc):
    del doc["hot_bath"]["g0_thz"]


def _without_scan_dataset(doc):
    del doc["scan"]["dataset_csv"]


def _positive_half_table(tmp_path) -> Path:
    table = tmp_path / "spectrum.csv"
    table.write_text("omega_thz,g_rate\n1.0,0.5\n2.0,0.5\n")
    return table


_NO_AMPLITUDE = ("config error: hot_bath needs g0_thz or spectrum_csv (run "
                 "`calibrate` first or set one explicitly)")
# tmp_path -> (argv, exit code, stderr line) for error lines that no
# other test reaches
ERROR_LINES = {
    "steady-state-no-amplitude": lambda tmp: (
        ["steady-state", "--config", _point_config(tmp, _without_g0)], 2,
        _NO_AMPLITUDE),
    "currents-no-amplitude": lambda tmp: (
        ["currents", "--config", _point_config(tmp, _without_g0)], 2,
        _NO_AMPLITUDE),
    "scan-no-amplitude": lambda tmp: (
        ["scan", "--config", _scan_config(tmp, _without_scan_dataset)], 2,
        "config error: scan needs hot_bath.g0_thz or a dataset to calibrate "
        "from"),
    "set-without-equals": lambda tmp: (
        ["tmin", "--config", POINT, "--set", "atom.g_thz"], 2,
        "config error: --set expects key=value, got 'atom.g_thz'"),
    # the detuning is 377 - 366.6 = 10.4 THz
    "compare-g-at-detuning": lambda tmp: (
        ["compare", "--config", POINT, "--set", "atom.g_thz=10.4"], 3,
        "domain error: limit formula needs g < detuning"),
    "spectrum-positive-half": lambda tmp: (
        ["steady-state", "--config", POINT, "--set",
         f"hot_bath.spectrum_csv={_positive_half_table(tmp)}"], 2,
        f"config error: {tmp / 'spectrum.csv'}: table must cover matching "
        "+/- frequency pairs for the detailed-balance check"),
}


class TestExitCodes:
    def test_config_schema_is_valid(self):
        jsonschema = pytest.importorskip("jsonschema", reason=NO_JSONSCHEMA)
        jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(
            CONFIG_SCHEMA)

    def test_unknown_config_key_is_schema_error(self, capsys, tmp_path):
        doc = json.loads(Path(POINT).read_text())
        doc["atom"]["coupling_thz"] = 1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "tmin", "--config", str(bad))
        assert code == 2
        assert "schema" in err

    def test_missing_section_is_config_error(self, capsys, tmp_path):
        doc = {"atom": json.loads(Path(POINT).read_text())["atom"]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "tmin", "--config", str(bad))
        assert code == 2

    def test_blue_detuned_tmin_is_domain_error(self, capsys):
        code, _, err = run(capsys, "tmin", "--config", POINT,
                           "--set", "atom.nu_thz=378.0")
        assert code == 3
        assert "domain error" in err

    def test_missing_dataset_is_io_error(self, capsys):
        code, _, err = run(capsys, "calibrate", "--config", SCAN,
                           "--set", "calibrate.dataset_csv=/nonexistent.csv")
        assert code == 4

    @pytest.mark.parametrize("command, config, key, header", [
        ("calibrate", SCAN, "calibrate.dataset_csv", "nu_thz,absorption"),
        ("steady-state", POINT, "hot_bath.spectrum_csv", "omega_thz,g_rate"),
    ], ids=["dataset", "spectrum"])
    def test_non_numeric_table_row_is_config_error(self, capsys, tmp_path,
                                                   command, config, key, header):
        table = tmp_path / "table.csv"
        table.write_text(f"{header}\n-1.0,0.5\n1.0,abc\n")
        code, out, err = run(capsys, command, "--config", config,
                             "--set", f"{key}={table}")
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"config error: {table}: row '1.0,abc' is not two numbers"]

    @pytest.mark.parametrize("case", sorted(ERROR_LINES))
    def test_error_is_one_stderr_line_and_no_file(self, capsys, tmp_path,
                                                  case):
        argv, code, message = ERROR_LINES[case](tmp_path)
        before = sorted(tmp_path.iterdir())
        got = run(capsys, *argv, "--out", str(tmp_path / "out"))
        assert got == (code, "", message + "\n")
        assert sorted(tmp_path.iterdir()) == before

    def test_malformed_json_is_config_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "tmin", "--config", str(bad))
        assert code == 2

    @pytest.mark.parametrize("argv, expected", [
        # the hot plateau overflows internal units
        (["steady-state", "--set", "hot_bath.g0_thz=1e300"], 2),
        (["currents", "--set", "hot_bath.g0_thz=1e300"], 2),
        # an atom frequency overflows to inf in internal units
        (["tmin", "--set", "atom.g_thz=1e308"], 2),
        (["compare", "--set", "atom.gamma_thz=1e308"], 2),
        # the mass underflows to zero kilograms
        (["compare", "--set", "compare.mass_amu=1e-300"], 2),
        # the sideband floor overflows the float range
        (["compare", "--set", "compare.rabi_thz=1e-300"], 3),
        # the floor's balance ratio rounds to 0
        (["tmin", "--set", "atom.g_thz=1e-300",
          "--set", "hot_bath.temperature_k=1e30"], 3),
        # these overflow internal units too; currents printed eta = 0.0
        (["currents", "--set", "atom.laser_power_w=1e300"], 2),
        (["compare", "--set", "compare.rabi_thz=1e300"], 2),
    ])
    def test_extreme_values_end_in_an_exit_code(self, capsys, argv, expected):
        code, out, err = run(capsys, argv[0], "--config", POINT, *argv[1:])
        assert code == expected, err
        assert out == ""
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("g_thz, ratio", [("1e-310", "9.615e-312"),
                                              ("1e-08", "9.615e-10")])
    def test_unresolved_floor_is_domain_error(self, capsys, g_thz, ratio):
        # the lower sideband's weight underflows (1e-310) or cancels (1e-8):
        # the balance ratio rounds to 0, which printed a 0.0 K floor at
        # 1e-310 and "result is not finite" at 1e-8
        code, out, err = run(capsys, "tmin", "--config", POINT,
                             "--set", f"atom.g_thz={g_thz}")
        assert (code, out) == (3, "")
        assert err == ("domain error: cooling floor not resolved: the balance "
                       f"ratio rounds to 0 at g/detuning = {ratio}\n")

    @pytest.mark.parametrize("command", ["steady-state", "currents"])
    def test_overflowing_flows_are_domain_error(self, capsys, command):
        # finite hot rates whose products in the exact solver overflow
        code, out, err = run(capsys, command, "--config", POINT,
                             "--set", "hot_bath.g0_thz=1e150")
        assert (code, out) == (3, "")
        assert err == ("domain error: heat flows overflow: products of the "
                       "channel rates exceed the float range\n")

    @pytest.mark.parametrize("sets, rabi", [
        (["atom.nu_thz=100", "atom.g_thz=200"], "486.548"),
        (["compare.rabi_thz=400"], "400"),
        (["compare.rabi_thz=377"], "377"),     # omega0 - rabi is exactly 0
    ])
    def test_sideband_laser_below_zero_is_domain_error(self, capsys, sets,
                                                       rabi):
        # the sideband bound rabi/nu puts its laser at nu = omega0 - rabi
        argv = ["compare", "--config", POINT]
        for item in sets:
            argv += ["--set", item]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == ("domain error: sideband bound needs rabi < omega0: "
                       f"rabi {rabi} THz, omega0 377 THz\n")
        assert "division by zero" not in err

    @pytest.mark.parametrize("command", ["steady-state", "currents", "tmin"])
    def test_lower_sideband_edge_is_one_check(self, capsys, command):
        # the three commands take one dressing: just short of nu = rabi
        # each warns once, past it each refuses with the same message
        code, out, err = run(capsys, command, "--config", POINT,
                             "--no-metadata", "--set", "atom.g_thz=183.22")
        assert code == 0 and out
        assert err == ("warning: nu - rabi nearly vanishes; Floquet channels "
                       "are almost degenerate\n")
        code, out, err = run(capsys, command, "--config", POINT,
                             "--no-metadata", "--set", "atom.g_thz=190")
        assert (code, out) == (3, "")
        assert err == ("domain error: lower sideband frequency nu - rabi = "
                       "-8.50887e+13 <= 0; ultra-strong drive is outside this "
                       "model\n")

    def test_calibration_root_at_zero_amplitude_is_domain_error(
            self, capsys, tmp_path):
        # a 1e-300 W beam: any g0 > 0 absorbs more than the data, so the
        # root underflows to g0 = 0, whose logarithm the fit cannot take
        code, out, err = run(capsys, "scan", "--config", SCAN,
                             "--set", "cell.length_mm=1e30",
                             "--set", "cell.laser_power_w=1e-300",
                             "--out", str(tmp_path / "scan"))
        assert (code, out) == (3, "")
        assert err.startswith("domain error: the model absorbs more than ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("reference", ["1000", "351.9", "402.1"])
    def test_reference_row_outside_the_dataset_is_config_error(
            self, capsys, reference):
        # the fixture dataset spans 352-402 THz; the nearest row to a
        # reference outside it is not the row the user named
        code, out, err = run(capsys, "calibrate", "--config", SCAN,
                             "--set", f"calibrate.reference_nu_thz={reference}")
        assert (code, out) == (2, "")
        assert err == (f"config error: reference_nu_thz {reference} THz lies "
                       "outside the dataset's span 352.0-402.0 THz\n")

    @pytest.mark.parametrize("command, section", [
        ("currents", "hot_bath"),
        ("currents", "cold_bath"),
        ("calibrate", "hot_bath"),   # the cell takes the hot-bath temperature
    ])
    def test_overflowing_bath_temperature_is_config_error(
            self, capsys, command, section):
        config = SCAN if command == "calibrate" else POINT
        code, out, err = run(capsys, command, "--config", config,
                             "--set", f"{section}.temperature_k=1e308")
        assert code == 2
        assert out == ""
        assert err == (f"config error: {section}: temperature_k overflows "
                       "internal units\n")

    @pytest.mark.parametrize("item", [
        "scan.delta_step_thz=NaN", "scan.delta_min_thz=NaN",
        "cell.length_mm=NaN", "cell.laser_power_w=Infinity",
        "scan.delta_max_thz=-Infinity", "cell.length_mm=1e400",
    ])
    def test_non_finite_override_is_config_error(self, capsys, tmp_path, item):
        code, out, err = run(capsys, "scan", "--config", SCAN, "--set", item,
                             "--out", str(tmp_path / "scan"))
        assert (code, out) == (2, "")
        assert err.startswith("config error: config schema violation: ")
        assert "is not of type 'number'" in err
        assert len(err.splitlines()) == 1

    def test_string_field_keeps_text_that_parses_as_json(self, capsys,
                                                         tmp_path):
        # dataset files named 2024 and true, beside a copy of the config
        config = str(shutil.copy(SCAN, tmp_path / "config.json"))
        for name in ("2024", "true"):
            shutil.copy(DATASET, tmp_path / name)
        expected = run_json(capsys, "calibrate", "--config", SCAN)["g0_thz"]
        for item in ("calibrate.dataset_csv=2024",
                     'calibrate.dataset_csv="2024"'):
            payload = run_json(capsys, "calibrate", "--config", config,
                               "--set", item)
            assert payload["g0_thz"] == expected
        code, _, err = run(capsys, "scan", "--config", config, "--set",
                           "scan.dataset_csv=true", "--out",
                           str(tmp_path / "scan"))
        assert code == 0, err
        # a number field still refuses what is not a finite number
        for item in ("cell.length_mm=NaN", "cell.length_mm=1e400"):
            code, out, err = run(capsys, "calibrate", "--config", config,
                                 "--set", item)
            assert (code, out) == (2, "")
            assert "is not of type 'number'" in err

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_number_in_file_is_config_error(self, capsys, tmp_path,
                                                       text):
        bad = tmp_path / "bad.json"
        bad.write_text(Path(POINT).read_text().replace('"g_thz": 0.05',
                                                       f'"g_thz": {text}'))
        code, out, err = run(capsys, "tmin", "--config", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: {bad}: not valid JSON")
        assert len(err.splitlines()) == 1

    def test_undecodable_config_is_config_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        code, _, err = run(capsys, "tmin", "--config", str(bad))
        assert code == 2
        assert err.startswith("config error:")

    @pytest.mark.parametrize("document, item", [
        (None, "atom.g_thz.x=1"),
        ("[1]", "atom.g_thz=1"),    # a list document used to be a traceback
        ("[1]", "x=1"),
    ])
    def test_override_through_a_non_object_is_config_error(
            self, capsys, tmp_path, document, item):
        config = POINT
        if document is not None:
            config = tmp_path / "list.json"
            config.write_text(document)
        code, out, err = run(capsys, "tmin", "--config", str(config),
                             "--set", item)
        assert (code, out) == (2, "")
        assert err.endswith("crosses a non-object\n")

    @pytest.mark.parametrize("sets", [
        ["scan.delta_step_thz=1e-300"],
        # 10^6 + 1 rows: the grid rounds the span to the nearest step
        ["scan.delta_min_thz=0", "scan.delta_max_thz=999999.6",
         "scan.delta_step_thz=1"],
    ])
    def test_oversized_scan_grid_is_config_error(self, capsys, tmp_path, sets):
        argv = ["scan", "--config", SCAN, "--out", str(tmp_path / "scan")]
        for item in sets:
            argv += ["--set", item]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (f"config error: scan grid has more than "
                       f"{MAX_SCAN_ROWS} rows\n")
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize("argv, code, message", [
        (["scan", "--set", "scan.delta_max_thz=400",
          "--set", "hot_bath.g0_thz=0.002"], 2,
         "config error: detuning 377.0 THz puts the laser frequency at or "
         "below zero"),
        # no amplitude makes an undriven atom absorb
        (["calibrate", "--set", "atom.g_thz=0"], 3,
         "domain error: failed to bracket the calibration root"),
        # absorption_length_mm is the one attenuation field
        (["calibrate", "--set", "cell.absorption_coeff_per_mm=0.1"], 2,
         "config error: config schema violation: Additional properties are "
         "not allowed ('absorption_coeff_per_mm' was unexpected) (at cell)"),
        (["scan", "--set", "hot_bath.g0_thz=1e300"], 2,
         "config error: hot_bath: g0_thz overflows internal units"),
        # FLOQUET_ROWS with finite hot rates whose products overflow
        (["scan", *FLOQUET_ROWS, "--set", "hot_bath.g0_thz=1e150"], 3,
         "domain error: heat flows overflow: products of the channel rates "
         "exceed the float range"),
        # FLOQUET_ROWS whose cell totals overflow the float range in watts,
        # where the writer refused the first row with "result is not finite"
        (["scan", *FLOQUET_ROWS,
          "--set", "cell.linear_atom_density_per_mm=1e300"], 3,
         "domain error: cell integral is not finite for these parameters"),
        # alpha = 1/length overflows, where the scan metadata read Infinity
        (["scan", "--set", "cell.absorption_length_mm=1e-320"], 2,
         "config error: cell: absorption_length_mm overflows internal units"),
        (["calibrate", "--set", "cell.absorption_length_mm=1e-320"], 2,
         "config error: cell: absorption_length_mm overflows internal units"),
        # a dataset row's alpha = -log1p(-a) / length overflows; given an
        # amplitude, weak rows wrote j_hot_watt = 0 with exit 0 and exact
        # rows ended in a ValueError on a NaN power fraction
        (["calibrate", "--set", "cell.length_mm=1e-320"], 3,
         "domain error: attenuation coefficient overflows: absorption 0.6713 "
         "over a cell of 1e-320 mm"),
        (["scan", "--set", "cell.length_mm=1e-320"], 3,
         "domain error: attenuation coefficient overflows: absorption "
         "0.0001614 over a cell of 1e-320 mm"),
        (["scan", "--set", "cell.length_mm=1e-320",
          "--set", "hot_bath.g0_thz=0.002", "--set", "scan.delta_min_thz=5.0",
          "--set", "scan.delta_max_thz=6.0"], 3,
         "domain error: attenuation coefficient overflows: absorption 0.6713 "
         "over a cell of 1e-320 mm"),
        (["scan", *FLOQUET_ROWS, "--set", "cell.length_mm=1e-320"], 3,
         "domain error: attenuation coefficient overflows: absorption 0.9369 "
         "over a cell of 1e-320 mm"),
        # refused before the file is read: it need not exist
        (["scan", "--set", "hot_bath.spectrum_csv=missing.csv"], 2,
         "config error: hot_bath.spectrum_csv is not supported by scan and "
         "calibrate, which model a flat spectrum (g0_thz)"),
        (["calibrate", "--set", "hot_bath.spectrum_csv=missing.csv"], 2,
         "config error: hot_bath.spectrum_csv is not supported by scan and "
         "calibrate, which model a flat spectrum (g0_thz)"),
        # the row's nu overflows to +inf, where a ValueError ended in a
        # traceback and exit 1
        (["scan", "--set", "scan.delta_min_thz=-1e300",
          "--set", "scan.delta_max_thz=-1e300"], 2,
         "config error: detuning -1e+300 THz overflows internal units"),
    ], ids=["laser-below-zero", "calibration-unbracketed",
            "absorption-coefficient", "g0-overflows", "flows-overflow",
            "cell-integral-overflows",
            "alpha-overflows", "calibrate-alpha-overflows",
            "calibrate-row-alpha-overflows", "row-alpha-overflows",
            "weak-row-alpha-overflows", "floquet-row-alpha-overflows",
            "scan-tabulated-spectrum", "calibrate-tabulated-spectrum",
            "detuning-overflows"])
    def test_scan_fixture_failure_is_one_stderr_line(self, capsys, tmp_path,
                                                     argv, code, message):
        got = run(capsys, argv[0], "--config", SCAN, *argv[1:],
                  "--out", str(tmp_path / "out"))
        assert got == (code, "", message + "\n")
        assert list(tmp_path.iterdir()) == []

    # each command used to fit the row and end in a ValueError from
    # with_laser_frequency: a traceback and exit 1
    @pytest.mark.parametrize("rows, reference, message", [
        ("-5,0.01\n0,0.02\n372,0.3\n", "0.0001",
         "config error: dataset frequencies must be positive"),
        ("372,0.3\n1e300,0.02\n", "1e300",
         "config error: dataset frequency 1e+300 THz overflows internal "
         "units"),
    ], ids=["nonpositive", "overflows"])
    @pytest.mark.parametrize("command", ["calibrate", "scan"])
    def test_dataset_frequency_out_of_range_is_config_error(
            self, capsys, tmp_path, command, rows, reference, message):
        config = str(shutil.copy(SCAN, tmp_path / "config.json"))
        (tmp_path / "absorption_synthetic.csv").write_text(rows)
        argv = ["--set", f"calibrate.reference_nu_thz={reference}"]
        if command == "scan":   # no hot_bath.g0_thz: the scan calibrates
            argv = ["--out", str(tmp_path / "out")]
        got = run(capsys, command, "--config", config, *argv)
        assert got == (2, "", message + "\n")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("slash", ["", "/"], ids=["bare", "trailing-slash"])
    def test_scan_out_directory_is_io_error(self, capsys, tmp_path, slash,
                                            monkeypatch):
        def no_rows(*args, **kwargs):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(cellmod, "regime_of", no_rows)
        target = tmp_path / "dir"
        target.mkdir()
        code, out, err = run(capsys, "scan", "--config", SCAN, "--no-metadata",
                             "--out", f"{target}{slash}")
        assert (code, out) == (4, "")
        assert err == f"i/o error: [Errno 21] Is a directory: '{target}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir"]
        assert list(target.iterdir()) == []

    # the scan computed every row and wrote PATH.csv, then failed on the
    # directory PATH.json and left PATH.csv behind
    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_scan_file_that_is_a_directory_is_io_error(self, capsys, tmp_path,
                                                       monkeypatch, suffix):
        def no_rows(*args, **kwargs):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(cellmod, "regime_of", no_rows)
        target = tmp_path / f"run{suffix}"
        target.mkdir()
        code, out, err = run(capsys, "scan", "--config", SCAN, "--no-metadata",
                             "--out", str(tmp_path / "run"))
        assert (code, out) == (4, "")
        assert err == f"i/o error: [Errno 21] Is a directory: '{target}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [target.name]
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize("failing", [0, 7, 50], ids=["first", "middle",
                                                         "last"])
    def test_scan_failing_at_a_row_leaves_no_file(self, capsys, tmp_path,
                                                  monkeypatch, failing):
        # every scan row, and only a scan row, takes its regime once, after
        # its flows
        real, drawn = cellmod.regime_of, []

        def fails_once_drawn(*args):
            drawn.append(args)
            if len(drawn) > failing:
                raise DomainError("row failed")
            return real(*args)

        monkeypatch.setattr(cellmod, "regime_of", fails_once_drawn)
        got = run(capsys, "scan", "--config", SCAN, "--out",
                  str(tmp_path / "run"))
        assert got == (3, "", "domain error: row failed\n")
        assert len(drawn) == failing + 1
        assert list(tmp_path.iterdir()) == []

    # the first rename puts PATH.csv in place, the second PATH.json
    @pytest.mark.parametrize("failing", [1, 2], ids=["csv", "json"])
    def test_scan_failing_to_rename_leaves_no_file(self, capsys, tmp_path,
                                                   monkeypatch, failing):
        real, calls = os.replace, []

        def replace(*args):
            calls.append(args)
            if len(calls) == failing:
                raise PermissionError(13, "Permission denied", str(args[1]))
            return real(*args)

        monkeypatch.setattr(cellmod.os, "replace", replace)
        code, out, err = run(capsys, "scan", "--config", SCAN, "--no-metadata",
                             "--out", str(tmp_path / "run"))
        assert (code, out) == (4, "")
        assert err.splitlines()[-1] == ("i/o error: [Errno 13] Permission "
                                        f"denied: '{calls[-1][1]}'")
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("command, layer, function, out, written", [
        ("scan", "cell", "regime_of", "x", "x.csv"),
        ("scan", "cell", "regime_of", "x.json", "x.csv"),
        ("scan", "cell", "regime_of", "run_T0.5", "run_T0.5.csv"),
        ("tmin", "analysis", "_floor", "x", "x"),
    ], ids=["scan", "scan-json-suffix", "scan-dotted", "tmin"])
    def test_out_in_a_missing_directory_is_io_error(
            self, capsys, tmp_path, monkeypatch, command, layer, function, out,
            written):
        def no_work(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr(importlib.import_module(f"licore.{layer}"),
                            function, no_work)
        code, stdout, err = run(capsys, command, "--config",
                                SCAN if command == "scan" else POINT,
                                "--no-metadata",
                                "--out", str(tmp_path / "nodir" / out))
        assert (code, stdout) == (4, "")
        assert err == ("i/o error: [Errno 2] No such file or directory: "
                       f"'{tmp_path / 'nodir' / written}'\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("under", ["afile", "afile/sub"])
    def test_out_under_a_file_is_io_error(self, capsys, tmp_path, under):
        (tmp_path / "afile").write_text("")
        out = tmp_path / under / "x"
        code, stdout, err = run(capsys, "tmin", "--config", POINT,
                                "--out", str(out))
        assert (code, stdout) == (4, "")
        assert err == f"i/o error: [Errno 20] Not a directory: '{out}'\n"

    # the config need not exist: a usage error is found before any file
    # is read, and no file is written
    @pytest.mark.parametrize("argv, message", [
        ([], "no command given; expected one of steady-state, currents, "
             "scan, tmin, compare, calibrate"),
        (["tcool", "--config", "missing.json"],
         "'tcool' is not a command; expected one of steady-state, currents, "
         "scan, tmin, compare, calibrate"),
        (["--config", "missing.json", "tmin"],
         "'--config' comes before the command; expected one of "
         "steady-state, currents, scan, tmin, compare, calibrate"),
        (["tmin", "--out", "x", "--no-metadata"], "tmin needs --config PATH"),
        (["scan", "--set", "atom.g_thz=1"], "scan needs --config PATH"),
        (["tmin", "--config"], "--config expects a value"),
        (["tmin", "--config", "--no-metadata"], "--config expects a value"),
        (["scan", "--config", "missing.json", "--out", "--no-metadata"],
         "--out expects a value"),
        (["tmin", "--config", "missing.json", "--set"], "--set expects a value"),
        (["tmin", "--config", "missing.json", "--format"],
         "--format expects a value"),
        (["tmin", "--config", "missing.json", "--outfile", "x"],
         "tmin does not take '--outfile'"),
        (["tmin", "--config", "missing.json", "extra"],
         "tmin does not take 'extra'"),
        (["tmin", "--conf", "missing.json"], "tmin does not take '--conf'"),
        (["tmin", "--config", "missing.json", "--no-meta"],
         "tmin does not take '--no-meta'"),
        (["tmin", "--config", "missing.json", "--no-metadata=yes"],
         "--no-metadata takes no value, got '--no-metadata=yes'"),
        (["tmin", "--config", "missing.json", "--format", "xml"],
         "--format expects one of csv, json, table, not 'xml'"),
        (["tmin", "--config", "missing.json", "--format=", "--out", "x"],
         "--format expects one of csv, json, table, not ''"),
        (["scan", "--config", "missing.json", "--format", "json"],
         "scan does not take '--format'"),
    ], ids=["no-command", "unknown-command", "option-before-command",
            "missing-config", "scan-missing-config", "missing-value-at-end",
            "missing-value-before-option", "scan-missing-out",
            "missing-set-value", "missing-format-value", "unknown-option",
            "stray-argument", "abbreviated-option", "abbreviated-flag",
            "flag-with-value", "bad-format", "empty-format", "scan-format"])
    def test_malformed_argv_is_one_usage_line(self, capsys, tmp_path,
                                              monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, *argv) == (2, "", f"usage error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    # each used to end in a traceback: a RecursionError (exit 1), or an
    # OverflowError past the schema (exit 3)
    @pytest.mark.parametrize("command, text, message", [
        ("tmin", "[" * 100_000, "nested too deeply to decode"),
        ("tmin", "1" + "0" * 400, f"1{'0' * 400} overflows a float"),
        ("currents", "-1" + "0" * 400, f"-1{'0' * 400} overflows a float"),
    ], ids=["deep-nesting", "huge-integer", "huge-negative-integer"])
    def test_json_python_cannot_hold_is_config_error(self, capsys, tmp_path,
                                                     command, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(Path(POINT).read_text().replace('"g_thz": 0.05',
                                                       f'"g_thz": {text}'))
        assert run(capsys, command, "--config", str(bad)) == (
            2, "", f"config error: {bad}: not valid JSON ({message})\n")
        # from --set, the value stays the text, which no number field takes
        code, out, err = run(capsys, command, "--config", POINT,
                             "--set", f"atom.g_thz={text}")
        assert (code, out) == (2, "")
        assert err == (f"config error: config schema violation: {text!r} is "
                       "not of type 'number' (at atom/g_thz)\n")

    def test_integer_a_float_holds_stays_an_integer(self, capsys, tmp_path):
        code, _, err = run(capsys, "scan", "--config", SCAN,
                           "--set", "scan.delta_step_thz=5.0",
                           "--set", "cell.length_mm=10",
                           "--out", str(tmp_path / "scan"))
        assert code == 0, err
        assert '"length_mm": 10,' in (tmp_path / "scan.json").read_text()


class TestWarnings:
    def test_rows_over_the_photon_budget_are_counted(self, capsys, tmp_path):
        # 34 of the fixture scan's 51 rows absorb more than the beam loses
        # in the cell, P_L (1 - exp(-alpha L)) with the dataset's alpha; the
        # resonant row absorbs 2.99 W of a 2.4 W beam
        code, out, err = run(capsys, "scan", "--config", SCAN, "--no-metadata",
                             "--out", str(tmp_path / "scan"))
        assert code == 0
        assert out == (f"wrote {tmp_path / 'scan.csv'} and "
                       f"{tmp_path / 'scan.json'}\n")
        assert err.splitlines() == [
            "warning: 34 of 51 scan rows absorb more than the beam delivers"]
        rows = json.loads((tmp_path / "scan.json").read_text())["rows"]
        assert max(r["p_abs_watt"] for r in rows) == pytest.approx(2.99, abs=5e-3)

    def test_low_amplitude_scan_keeps_the_photon_budget(self, capsys, tmp_path):
        # off resonance at a weak hot coupling every row absorbs well under
        # its budget (the resonant row scatters at gamma/2 at any g0)
        code, _, err = run(capsys, "scan", "--config", SCAN, "--no-metadata",
                           "--set", "hot_bath.g0_thz=1e-7",
                           "--set", "scan.delta_step_thz=2.0",
                           "--out", str(tmp_path / "scan"))
        assert (code, err) == (0, "")

    def test_library_warning_is_one_stderr_line(self, capsys):
        # g/detuning = 0.2 lies outside the asymptotic formula's advisory range
        code, out, err = run(capsys, "tmin", "--config", POINT,
                             "--set", "atom.g_thz=0.2",
                             "--set", "atom.nu_thz=376", "--no-metadata")
        assert code == 0
        assert json.loads(out) == {
            "bracket_check": {
                "bisect_rel_difference": 8.34151858454e-16,
                "bisect_root_k": 7.82448663478,
                "j_sign_above": 1,
                "j_sign_below": -1,
            },
            "command": "tmin",
            "relative_gap": 0.0261519375253,
            "t_min_asymptotic_k": 8.02911212042,
            "t_min_exact_k": 7.82448663478,
        }
        assert err.splitlines() == [
            "warning: outside the advisory validity range g/detuning <= 0.05, "
            "detuning/nu <= 0.1"]


def _scan_config(tmp_path, edit) -> str:
    """config_scan.json with absolute dataset paths, edited by ``edit``."""
    doc = json.loads(Path(SCAN).read_text())
    doc["scan"]["dataset_csv"] = doc["calibrate"]["dataset_csv"] = DATASET
    edit(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _without_reference_row(doc):
    del doc["calibrate"]["reference_nu_thz"]


def _weak_grid(doc):
    # weak rows over -300...300 THz at a fixed amplitude, without a dataset
    del doc["scan"]["dataset_csv"]
    doc["hot_bath"]["g0_thz"] = 0.002
    doc["cell"]["linear_atom_density_per_mm"] = 2e9
    doc["scan"].update(delta_min_thz=-300.0, delta_max_thz=300.0)


def _optically_thick(doc):
    # alpha L = 50 without a dataset, so the floquet rows' cell integrals
    # subdivide
    del doc["scan"]["dataset_csv"]
    doc["cell"]["absorption_length_mm"] = 0.2


COLD_START_RUNS = {
    "steady-state": lambda tmp: ["steady-state", "--config", POINT],
    "currents": lambda tmp: ["currents", "--config", POINT],
    "tmin": lambda tmp: ["tmin", "--config", POINT],
    "compare": lambda tmp: ["compare", "--config", POINT],
    "calibrate-reference-row": lambda tmp: ["calibrate", "--config", SCAN],
    "calibrate-all-rows": lambda tmp: [
        "calibrate", "--config", _scan_config(tmp, _without_reference_row)],
    "scan-floquet-rows": lambda tmp: [
        "scan", "--config", SCAN, *FLOQUET_ROWS, "--out", str(tmp / "scan")],
    "scan-optically-thick": lambda tmp: [
        "scan", "--config", _scan_config(tmp, _optically_thick), *FLOQUET_ROWS,
        "--out", str(tmp / "scan")],
}
# third-party packages no command may load, listed as loaded when a module
# of theirs is in sys.modules (a blocked one sits there as None)
THIRD_PARTY = ("numpy", "jsonschema", "scipy")
LOADED = ("sorted(m for m, mod in sys.modules.items() if mod is not None "
          f"and m.split('.')[0] in {THIRD_PARTY})")
# importing a blocked package raises ImportError
BLOCK = "sys.modules['numpy'] = sys.modules['jsonschema'] = None\n"


def _python(code: str, *argv) -> str:
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True).stdout


@pytest.fixture(scope="module")
def cold_start(tmp_path_factory):
    """Each run of COLD_START_RUNS in a fresh interpreter where numpy and
    jsonschema cannot be imported, two at a time: name -> (exit code,
    third-party modules loaded when it returned, its directory)."""
    dirs = {name: tmp_path_factory.mktemp(name) for name in COLD_START_RUNS}
    probe = ("import sys\n"
             "bare = set(sys.modules)\n"
             "import contextlib, io\n"
             + BLOCK +
             "from licore.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = main(sys.argv[1:])\n"
             "print(*sorted(m for m in sys.modules if m not in bare))\n"
             f"print(code, {LOADED})\n")
    with ThreadPoolExecutor(max_workers=2) as pool:
        outs = list(pool.map(
            lambda name: _python(probe, *COLD_START_RUNS[name](dirs[name])),
            COLD_START_RUNS))
    runs = {}
    for name, out in zip(COLD_START_RUNS, outs):
        added, last = out.split("\n", 1)
        runs[name] = (*last.split(" ", 1), dirs[name], set(added.split()))
    return runs


# modules each command must not import; command names prefix the runs.  No
# command runs the SVD oracle, needs datetime for its timestamp or reads
# its argv with argparse (which loads gettext and locale), and the point
# commands that root, integrate and fit nothing load no numerics
# and, reading no table, no csv
_NEVER = {"licore.oracle", "datetime", "argparse", "gettext", "locale"}
_NO_NUMERICS = {"licore.numerics", "csv"}
NOT_IMPORTED = {
    "steady-state": {"licore.cell", *_NEVER, *_NO_NUMERICS},
    "currents": {"licore.cell", *_NEVER, *_NO_NUMERICS},
    "tmin": {"licore.cell", "licore.rate_model", *_NEVER},
    "compare": {"licore.cell", "licore.rate_model", *_NEVER, *_NO_NUMERICS},
    "calibrate": {"licore.analysis", *_NEVER},
    "scan": {"licore.analysis", *_NEVER},
}


class TestColdStart:
    def test_cli_import_leaves_scipy_unloaded(self):
        # nor numpy nor jsonschema, though the test dependencies install both
        assert _python(f"import sys, licore.cli; print({LOADED})") == "[]\n"

    def test_package_imports_without_numpy_or_jsonschema(self):
        assert _python("import sys\n" + BLOCK + "import licore\n"
                       f"print(licore.__version__, {LOADED})") == "0.1.0 []\n"

    @pytest.mark.parametrize("script", ["run_detuning_scan.py",
                                        "minimal_temperature_study.py"])
    def test_script_runs_without_numpy(self, script, tmp_path):
        path = Path(__file__).parents[1] / "scripts" / script
        probe = ("import runpy, sys\n" + BLOCK
                 + "sys.argv = sys.argv[1:]\n"
                 "runpy.run_path(sys.argv[0], run_name='__main__')\n"
                 f"print({LOADED})\n")
        out = _python(probe, str(path), str(tmp_path))
        assert out.endswith("\n[]\n")
        if script == "run_detuning_scan.py":
            assert "calibrated G0 = 0.00868636 THz" in out
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                "detuning_scan.csv", "detuning_scan.json"]

    @pytest.mark.parametrize("name", COLD_START_RUNS)
    def test_command_leaves_scipy_unloaded(self, name, cold_start):
        code, modules, tmp, _ = cold_start[name]
        assert (code, modules) == ("0", "[]\n")
        if name.startswith("scan"):
            models = {line.rsplit(",", 1)[1] for line in
                      (tmp / "scan.csv").read_text().splitlines()[1:]}
            assert "floquet" in models

    @pytest.mark.parametrize("name", COLD_START_RUNS)
    def test_command_imports_only_its_own_modules(self, name, cold_start):
        code, _, _, added = cold_start[name]
        command = next(c for c in NOT_IMPORTED if name.startswith(c))
        assert code == "0" and "licore.cli" in added
        assert not added & {"dataclasses", "inspect"}
        assert not added & NOT_IMPORTED[command]


class TestFlags:
    def test_format_on_point_commands_only(self):
        flags = {name: _options(name) for name in COMMANDS}
        assert sum(len(f) for f in flags.values()) == 29
        for name, f in flags.items():
            assert ("--format" in f) == (name != "scan")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_prints_one_usage_line_per_command(self, capsys, flag):
        code, out, err = run(capsys, flag)
        assert (code, err) == (0, "")
        assert [line.split()[:3] for line in out.splitlines()] == [
            ["usage:", "licore", name] for name in COMMANDS]

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_after_a_command_prints_its_usage(self, capsys, tmp_path,
                                                   monkeypatch, command, flag):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, command, "--config", "missing.json", flag)
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: licore {command} --config PATH ")
        assert len(out.splitlines()) == 1
        assert ("--format" in out) == (command != "scan")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_options_take_either_spelling_and_keep_the_last(self, capsys,
                                                            tmp_path, command):
        config = SCAN if command in ("scan", "calibrate") else POINT
        out = str(tmp_path / "out")
        spaced = run(capsys, command, "--config", config, "--no-metadata",
                     "--out", out, "--set", "atom.g_thz=0.04")
        written = sorted(p.read_bytes() for p in tmp_path.iterdir())
        for p in tmp_path.iterdir():
            p.unlink()
        fused = run(capsys, command, "--config=missing.json",
                    f"--config={config}", "--no-metadata",
                    f"--out={tmp_path / 'elsewhere'}",
                    f"--out={out}", "--set=atom.g_thz=0.04")
        assert fused == spaced
        assert sorted(p.read_bytes() for p in tmp_path.iterdir()) == written
        assert spaced[0] == 0, spaced[2]


FUZZ_FIELDS = ("atom.omega0_thz", "atom.gamma_thz", "atom.g_thz", "atom.nu_thz",
               "atom.laser_power_w", "hot_bath.temperature_k", "hot_bath.g0_thz",
               "cold_bath.temperature_k", "compare.mass_amu", "compare.rabi_thz")
FUZZ_VALUES = (0, 1e-300, -1e-300, 1e-6, 1, 377, 1e30, 1e308)


def _all_finite(node) -> bool:
    if isinstance(node, dict):
        return all(_all_finite(v) for v in node.values())
    if isinstance(node, list):
        return all(_all_finite(v) for v in node)
    return not isinstance(node, float) or math.isfinite(node)


@given(command=st.sampled_from(("steady-state", "currents", "tmin", "compare")),
       overrides=st.lists(st.tuples(st.sampled_from(FUZZ_FIELDS),
                                    st.sampled_from(FUZZ_VALUES)),
                          min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
@pytest.mark.filterwarnings("ignore::UserWarning")  # advisory validity notes
def test_fuzzed_overrides_end_in_an_exit_code(command, overrides):
    argv = [command, "--config", POINT, "--format", "json", "--no-metadata"]
    for key, value in overrides:
        argv += ["--set", f"{key}={value!r}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    if code == 0:
        assert _all_finite(json.loads(out.getvalue()))


SCAN_FUZZ_FIELDS = ("scan.delta_min_thz", "scan.delta_max_thz",
                    "scan.delta_step_thz", "cell.length_mm",
                    "cell.absorption_length_mm",
                    "cell.linear_atom_density_per_mm", "cell.laser_power_w")
# no pair of these makes a grid of more than about 800 rows but fewer than
# MAX_SCAN_ROWS, so every example stays quick
SCAN_FUZZ_VALUES = ("0", "1e-300", "-1e-300", "1e-320", "0.5", "1", "-25", "377",
                    "1e30", "1e308", "NaN", "Infinity", "-Infinity", "1e400")


@pytest.fixture(scope="module")
def scan_out(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "scan")


@given(overrides=st.lists(st.tuples(st.sampled_from(SCAN_FUZZ_FIELDS),
                                    st.sampled_from(SCAN_FUZZ_VALUES)),
                          min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_fuzzed_scan_overrides_end_in_an_exit_code(overrides, scan_out):
    argv = ["scan", "--config", SCAN, "--no-metadata", "--out", scan_out]
    for key, value in overrides:
        argv += ["--set", f"{key}={value}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    if code == 0:
        rows = json.loads(Path(scan_out).with_suffix(".json").read_text())
        assert _all_finite(rows)
    else:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()


# -- the config schema check against jsonschema ------------------------------

SECTIONS = tuple(CONFIG_SCHEMA["properties"])
LEAVES = tuple((section, key) for section in SECTIONS
               for key in CONFIG_SCHEMA["properties"][section]["properties"])
FULL_CONFIG = {
    **json.loads(Path(SCAN).read_text()),
    "hot_bath": {"temperature_k": 500.0, "g0_thz": 0.002,
                 "spectrum_csv": "hot.csv"},
    "compare": {"mass_amu": 86.909, "rabi_thz": 10.4},
}
JSON_VALUES = st.one_of(
    st.sampled_from((0, 0.0, -0.0, 1, -1, 1e-300, -1e-300, 377.0, True, False,
                     None, "x", "", [], [1.0], {})),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(),
    st.sampled_from(FUZZ_VALUES),
)
MUTATIONS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(LEAVES), JSON_VALUES),
    st.tuples(st.just("delete"),
              st.sampled_from(LEAVES + tuple((s,) for s in SECTIONS))),
    st.tuples(st.just("extra"),
              st.sampled_from(((),) + tuple((s,) for s in SECTIONS)),
              st.sampled_from(("bogus", "g_thz", "atom", "Zeta", "1"))),
    st.tuples(st.just("set"), st.sampled_from(tuple((s,) for s in SECTIONS)),
              JSON_VALUES),
    st.tuples(st.just("root"), JSON_VALUES),
)


def _mutated(mutations):
    doc = json.loads(json.dumps(FULL_CONFIG))
    for kind, *args in mutations:
        if kind == "root":
            doc = args[0]
            continue
        if not isinstance(doc, dict):
            continue
        path = args[0]
        parent = doc
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):
            continue
        if kind == "set":
            parent[path[-1]] = args[1]
        elif kind == "delete":
            parent.pop(path[-1], None)
        else:   # extra: a key in the object at path
            target = parent.get(path[-1]) if path else doc
            if isinstance(target, dict):
                target[args[1]] = 1.0
    return doc


def test_schema_check_agrees_with_jsonschema():
    jsonschema = pytest.importorskip("jsonschema", reason=NO_JSONSCHEMA)
    validator = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)

    @given(mutations=st.lists(MUTATIONS, max_size=4))
    @settings(max_examples=400, deadline=None)
    def agrees(mutations):
        doc = _mutated(mutations)
        ours = list(_schema_violations(CONFIG_SCHEMA, doc))
        theirs = list(validator.iter_errors(doc))
        assert bool(ours) == bool(theirs), (ours, [e.message for e in theirs])
        if len(theirs) == 1:
            assert ours == [(theirs[0].message, tuple(theirs[0].absolute_path))]

    agrees()


def test_load_config_words_a_violation_with_its_path():
    with pytest.raises(ConfigError) as info:
        load_config(POINT, ["atom.g_thz=true"])
    assert str(info.value) == ("config schema violation: True is not of type "
                               "'number' (at atom/g_thz)")
    with pytest.raises(ConfigError) as info:
        load_config(POINT, ["extra=1"])
    assert str(info.value) == ("config schema violation: Additional properties "
                               "are not allowed ('extra' was unexpected) (at )")


class TestDeterminism:
    @pytest.mark.parametrize("edit, sets, fixture", [
        (None, [], "scan_floquet_rows.csv"),
        (_optically_thick, [], "scan_floquet_thick.csv"),
        # a 3000 K cold bath: every weighted cold rate is nonzero
        (None, ["--set", "cold_bath.temperature_k=3000"],
         "scan_floquet_warm.csv"),
    ], ids=["fixture", "optically-thick", "warm-cold-bath"])
    def test_exact_rows_match_their_fixture(self, capsys, tmp_path, edit,
                                            sets, fixture):
        # the exact solver sums left to right, so its rows keep these
        # bytes on every supported Python version
        config = SCAN if edit is None else _scan_config(tmp_path, edit)
        code, _, err = run(capsys, "scan", "--config", config, *FLOQUET_ROWS,
                           *sets, "--no-metadata",
                           "--out", str(tmp_path / "scan"))
        assert code == 0, err
        assert (tmp_path / "scan.csv").read_bytes() == \
            (FIXTURES / fixture).read_bytes()

    def test_weak_rows_match_their_fixture(self, capsys, tmp_path):
        # 50 weak-drive rows at the calibrated g0 and the dataset's alpha,
        # and the resonant exact row
        code, _, err = run(capsys, "scan", "--config", SCAN, "--no-metadata",
                           "--out", str(tmp_path / "scan"))
        assert code == 0, err
        assert err == ("warning: 34 of 51 scan rows absorb more than the beam "
                       "delivers\n")
        assert (tmp_path / "scan.csv").read_bytes() == \
            (FIXTURES / "scan_weak_rows.csv").read_bytes()

    # sha256 of the CSV and JSON of a 20,001-row weak scan over +/-300 THz,
    # with the fixture dataset and with only cell.absorption_length_mm: the
    # grid crosses the solver switch, rows outside the dataset and
    # detunings where the Boltzmann factor b underflows
    @pytest.mark.parametrize("edit, digests", [
        (lambda doc: None, (
            "62a03325ebca559a65228e4cc4448aca7ca068aa72d8082ee1f34e4e2e21bb73",
            "e656aad7f5d2f1dc8817f9953b2bd4e7a3088c012c8f0550f32c03ef57abf826")),
        (_weak_grid, (
            "64ddec5899340b19ebd72d176371aca9c7586c2752d42192c2a80d602dea3054",
            "00b01bbc8b3a01fcafb1c32646e0f07dd3cdc27b549567e192cc2c0d13feee78")),
    ], ids=["dataset", "absorption-length"])
    def test_large_weak_scans_keep_their_bits(self, capsys, tmp_path, edit,
                                              digests):
        code, _, err = run(capsys, "scan", "--config",
                           _scan_config(tmp_path, edit), "--no-metadata",
                           "--set", "hot_bath.g0_thz=0.002",
                           "--set", "cell.linear_atom_density_per_mm=2e9",
                           "--set", "scan.delta_min_thz=-300",
                           "--set", "scan.delta_max_thz=300",
                           "--set", "scan.delta_step_thz=0.03",
                           "--out", str(tmp_path / "scan"))
        assert code == 0, err
        assert tuple(hashlib.sha256((tmp_path / f"scan.{suffix}").read_bytes())
                     .hexdigest() for suffix in ("csv", "json")) == digests

    def test_all_row_calibration_matches_its_fixture(self, capsys, tmp_path):
        # every usable dataset row enters the fit, which keeps these bits
        code, out, err = run(capsys, "calibrate", "--config",
                             _scan_config(tmp_path, _without_reference_row),
                             "--no-metadata")
        assert code == 0, err
        assert out == (FIXTURES / "calibrate_all_rows.json").read_text()

    def test_strong_warm_floor_matches_its_fixture(self, capsys):
        # a strong drive over a warm cold bath: the floor and its bracketed
        # root keep these bytes
        code, out, err = run(capsys, "tmin", "--config", POINT, "--no-metadata",
                             "--set", "atom.g_thz=20",
                             "--set", "cold_bath.temperature_k=300")
        assert code == 0, err
        assert out == (FIXTURES / "tmin_strong_warm.json").read_text()

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_point_commands_byte_stable(self, capsys, tmp_path, fmt):
        for command in ("steady-state", "currents", "tmin", "compare"):
            a = tmp_path / "a.out"
            b = tmp_path / "b.out"
            for path in (a, b):
                code, _, err = run(capsys, command, "--config", POINT,
                                   "--format", fmt, "--no-metadata",
                                   "--out", str(path))
                assert (code, err) == (0, "")
            assert a.read_bytes() == b.read_bytes() != b""


# -- the streamed scan writer ------------------------------------------------

def _json_floats():
    """Every kind of float a row may hold: signed zeros, subnormals, the
    ends of the range, integral values and the exponents 12 to 15 that
    repr writes out in full."""
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308,
                         10.0, -10.0, 1e11, 1e12, 1e15, 1e16, 123456789012.0)),
        st.integers(-10**18, 10**18).map(float),
        st.floats(1e11, 1e17),
        st.floats(-1e17, -1e11),
    )


SCAN_ROWS = st.lists(st.builds(
    cellmod.ScanRow, _json_floats(), _json_floats(),
    st.none() | _json_floats(), _json_floats(), _json_floats(),
    st.sampled_from(("cooling", "heating", "neutral")),
    st.sampled_from(("rate", "floquet", "none"))), max_size=6)
# scan_metadata's kinds of value: a nested dict, ints, floats and strings
METADATA = st.none() | st.dictionaries(
    st.text(max_size=8),
    st.one_of(st.integers(), st.text(max_size=8), _json_floats(),
              st.dictionaries(st.text(max_size=8),
                              st.integers() | _json_floats(), max_size=3)),
    max_size=4)


def _f_string_csv(rows) -> str:
    """The scan CSV as the f-string writer formatted it, field by field."""
    lines = [cellmod.SCAN_CSV_HEADER]
    for r in rows:
        exp = "" if r.j_hot_exp_watt is None else f"{r.j_hot_exp_watt:.12g}"
        lines.append(f"{r.delta_thz:.12g},{r.j_hot_watt:.12g},{exp},"
                     f"{r.p_abs_watt:.12g},{r.eta:.12g},{r.regime},{r.model}")
    return "\n".join(lines) + "\n"


def _rounded(x):
    return None if x is None else float(f"{x:.12g}")


@pytest.fixture(scope="module")
def writer_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writer")


@given(rows=SCAN_ROWS, metadata=METADATA)
@settings(max_examples=300, deadline=None)
def test_streamed_scan_files_are_the_documents_bytes(rows, metadata,
                                                     writer_dir):
    csv_path, json_path = writer_dir / "scan.csv", writer_dir / "scan.json"
    cellmod.write_scan(iter(rows), csv_path, json_path, metadata)
    records = [{"delta_thz": _rounded(r.delta_thz),
                "j_hot_watt": _rounded(r.j_hot_watt),
                "j_hot_exp_watt": _rounded(r.j_hot_exp_watt),
                "p_abs_watt": _rounded(r.p_abs_watt), "eta": _rounded(r.eta),
                "regime": r.regime, "model": r.model} for r in rows]
    doc = {"rows": records}
    if metadata is not None:
        doc["metadata"] = metadata
    assert csv_path.read_text() == _f_string_csv(rows)
    assert json_path.read_text() == json.dumps(doc, indent=2,
                                               sort_keys=True) + "\n"
    assert sorted(p.name for p in writer_dir.iterdir()) == ["scan.csv",
                                                            "scan.json"]
    # the in-memory forms keep the same bytes and values
    result = cellmod.ScanResult(tuple(rows), metadata or {})
    cellmod.write_scan_csv(result, csv_path)
    assert csv_path.read_text() == _f_string_csv(rows)
    assert cellmod.scan_records(result) == records


@given(x=_json_floats())
@settings(max_examples=2000, deadline=None)
def test_json_number_is_repr_of_the_12_digit_value(x):
    text = "%.12g" % x
    assert cellmod._json_number(text) == repr(float(text))


@pytest.mark.parametrize("field", ["delta_thz", "j_hot_watt", "j_hot_exp_watt",
                                   "p_abs_watt", "eta"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_streamed_non_finite_number_is_refused(tmp_path, field, value):
    row = cellmod.ScanRow(1.0, 2.0, 3.0, 4.0, 5.0, "cooling", "rate")
    rows = [row, row._replace(**{field: value}), row]
    with pytest.raises(DomainError, match="result is not finite"):
        cellmod.write_scan(iter(rows), tmp_path / "scan.csv",
                           tmp_path / "scan.json")
    assert list(tmp_path.iterdir()) == []


def test_scan_memory_stays_flat_in_the_grid_size(tmp_path):
    config = _scan_config(tmp_path, _weak_grid)
    peaks = {}
    for step, rows in (("3", 201), ("0.03", 20_001), ("3", 201)):
        out = tmp_path / f"scan_{rows}"
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["scan", "--config", config, "--no-metadata",
                             "--set", f"scan.delta_step_thz={step}",
                             "--out", str(out)])
            peaks[rows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(out.with_suffix(".csv").read_text().splitlines()) == rows + 1
    # holding every row, record and the JSON text took 40 MB at 20,001 rows
    assert peaks[20_001] <= peaks[201] + 256 * 1024, peaks
