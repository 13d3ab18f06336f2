import contextlib
import io
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from licore.cli import CONFIG_SCHEMA, build_parser, main

FIXTURES = Path(__file__).parent / "fixtures"
POINT = str(FIXTURES / "config_point.json")
SCAN = str(FIXTURES / "config_scan.json")
DATASET = str(FIXTURES / "absorption_synthetic.csv")


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

    def test_steady_state_heating_regime(self, capsys):
        payload = run_json(capsys, "steady-state", "--config", POINT,
                           "--set", "atom.nu_thz=387.0")
        # hotter than the bath: the stationary ratio exceeds the bath factor
        assert payload["rate_model"]["boltzmann_factor"] > \
            math.exp(-1.0)  # |detuning|/T ~ 10/10.4 < 1

    def test_currents_conservation_field(self, capsys):
        payload = run_json(capsys, "currents", "--config", POINT)
        assert payload["floquet"]["conservation_residual_rel"] <= 1e-10
        assert payload["regime"] == "cooling"
        assert payload["rate_model"]["j_hot_w"] > 0

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

    def test_calibrate(self, capsys):
        payload = run_json(capsys, "calibrate", "--config", SCAN)
        assert payload["rows_used"] == 1
        assert payload["g0_thz"] == pytest.approx(0.00868636, rel=1e-5)

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
                           "--out", str(out), "--no-metadata",
                           "--emit-plot-data")
        assert code == 0, err
        csv_lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert len(csv_lines) == 8  # header + 7 rows
        doc = json.loads((tmp_path / "scan.json").read_text())
        assert "metadata" not in doc
        assert doc["rows"][0]["delta_thz"] == -3.0
        assert (tmp_path / "scan.dat").read_text().startswith("# delta_thz")


class TestExitCodes:
    def test_config_schema_is_valid(self):
        import jsonschema

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

    def test_malformed_json_is_config_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "tmin", "--config", str(bad))
        assert code == 2

    @pytest.mark.parametrize("argv, expected", [
        # the hot plateau overflows to inf: non-finite generator rates
        (["steady-state", "--set", "hot_bath.g0_thz=1e300"], 3),
        (["currents", "--set", "hot_bath.g0_thz=1e300"], 3),
        # an atom frequency overflows to inf in internal units
        (["tmin", "--set", "atom.g_thz=1e308"], 2),
        (["compare", "--set", "atom.gamma_thz=1e308"], 2),
        # the mass underflows to zero kilograms
        (["compare", "--set", "compare.mass_amu=1e-300"], 2),
        # the sideband floor divides by a vanishing logarithm
        (["compare", "--set", "compare.rabi_thz=1e-300"], 3),
        # the relative gap of a vanishing floor is infinite
        (["tmin", "--set", "atom.g_thz=1e-300",
          "--set", "hot_bath.temperature_k=1e30"], 3),
    ])
    def test_extreme_values_end_in_an_exit_code(self, capsys, argv, expected):
        code, out, err = run(capsys, argv[0], "--config", POINT, *argv[1:])
        assert code == expected, err
        assert out == ""
        assert len(err.splitlines()) == 1

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

    def test_jobs_below_one_is_config_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "scan", "--config", SCAN, "--jobs", "0",
                           "--out", str(tmp_path / "scan"))
        assert code == 2
        assert "--jobs" in err
        assert not (tmp_path / "scan.csv").exists()


class TestWarnings:
    def test_library_warning_is_one_stderr_line(self, capsys):
        # g/detuning = 0.2 lies outside the asymptotic formula's advisory range
        code, out, err = run(capsys, "tmin", "--config", POINT,
                             "--set", "atom.g_thz=0.2",
                             "--set", "atom.nu_thz=376", "--no-metadata")
        assert code == 0
        assert json.loads(out) == {
            "bracket_check": {
                "bisect_rel_difference": 2.55846291443e-13,
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


def _optically_thick(doc):
    # alpha L = 50 without a dataset, so the floquet rows' cell integrals
    # subdivide
    del doc["scan"]["dataset_csv"]
    doc["cell"]["absorption_length_mm"] = 0.2


FLOQUET_ROWS = ["--set", "hot_bath.g0_thz=0.002", "--set", "atom.g_thz=0.5",
                "--set", "scan.delta_min_thz=-1.0", "--set", "scan.delta_max_thz=1.0",
                "--set", "scan.delta_step_thz=0.5"]
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
SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def _python(code: str, *argv) -> str:
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True).stdout


@pytest.fixture(scope="module")
def cold_start(tmp_path_factory):
    """Each run of COLD_START_RUNS in a fresh interpreter, two at a time:
    name -> (exit code, scipy modules loaded when it returned, its
    directory)."""
    dirs = {name: tmp_path_factory.mktemp(name) for name in COLD_START_RUNS}
    probe = ("import contextlib, io, sys\n"
             "from licore.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = main(sys.argv[1:])\n"
             f"print(code, {SCIPY_MODULES})\n")
    with ThreadPoolExecutor(max_workers=2) as pool:
        outs = list(pool.map(
            lambda name: _python(probe, *COLD_START_RUNS[name](dirs[name])),
            COLD_START_RUNS))
    return {name: (*out.split(" ", 1), dirs[name])
            for name, out in zip(COLD_START_RUNS, outs)}


class TestColdStart:
    def test_cli_import_leaves_scipy_unloaded(self):
        assert _python(f"import sys, licore.cli; print({SCIPY_MODULES})") == "[]\n"

    @pytest.mark.parametrize("name", COLD_START_RUNS)
    def test_command_leaves_scipy_unloaded(self, name, cold_start):
        code, modules, tmp = cold_start[name]
        assert (code, modules) == ("0", "[]\n")
        if name.startswith("scan"):
            models = {line.rsplit(",", 1)[1] for line in
                      (tmp / "scan.csv").read_text().splitlines()[1:]}
            assert "floquet" in models


class TestFlags:
    def test_jobs_on_scan_only_format_on_point_commands(self):
        commands = build_parser()._subparsers._group_actions[0].choices
        flags = {name: {opt for action in sub._actions
                        for opt in action.option_strings} - {"-h", "--help"}
                 for name, sub in commands.items()}
        assert sum(len(f) for f in flags.values()) == 32
        for name, f in flags.items():
            assert ("--jobs" in f) == (name == "scan")
            assert ("--format" in f) == (name != "scan")
        help_text = " ".join(commands["scan"].format_help().split())
        assert "capped at the CPU count" in help_text


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


class TestDeterminism:
    def test_point_commands_byte_stable(self, capsys, tmp_path):
        for command in ("steady-state", "currents", "tmin", "compare"):
            a = tmp_path / "a.json"
            b = tmp_path / "b.json"
            for path in (a, b):
                code, _, err = run(capsys, command, "--config", POINT,
                                   "--format", "json", "--no-metadata",
                                   "--out", str(path))
                assert code == 0, err
            assert a.read_bytes() == b.read_bytes()
