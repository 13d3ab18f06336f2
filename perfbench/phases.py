"""Seeded inputs, timed operations and their output checks.

A phase is one kind of operation: a CLI invocation in a fresh interpreter,
an exact-solver point, a strong-drive cell scan, an all-row calibration or
a weak-drive cell scan.  Every operation checks physics identities of its
own output (never golden numbers) and reports how many units of work it did
(points or scan rows).  A failed check raises CheckFailed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
from licore import analysis, cell, floquet
from licore.config import AtomDriveConfig
from licore.spectra import CubicColdSpectrum, FlatHotSpectrum
from licore.units import kelvin_to_internal, thz_to_internal

OMEGA0_THZ = 377.0
GAMMA_THZ = 6e-6
LASER_W = 2.4
T_HOT_K = 500.0
WEAK_G_THZ = 0.05
STRONG_G_THZ = 0.5
CELL = cell.CellConfig(length_mm=10.0, absorption_coeff_per_mm=1.0 / 9.0,
                       linear_atom_density_per_mm=2e11, laser_power_w=LASER_W,
                       bath_temperature_k=T_HOT_K)
DATASET_NUS_THZ = [352.5 + k for k in range(50)]        # no row at resonance
WEAK_GRID_THZ = [-25.0 + 0.25 * k for k in range(201)]  # the shipped +/-25 THz
STRONG_GRID_THZ = [-1.0 + 0.5 * k for k in range(5)]    # g/|delta| > 0.1 on every row
# the weak scan runs as blocks of adjacent rows, short enough (~20 ms) to
# sit within one state of the host's speed
WEAK_BLOCKS = 8
CLI_SCAN_GRID = (-5.0, 5.0, 1.0)
EXACT_POINTS = 64
# brentq takes a g0-dependent number of steps on every row at once, so one
# calibration costs ~10% more or less from seed to seed; the calibrations
# cycle through this many datasets from stratified g0 to even that out
CALIBRATION_DATASETS = 4
CLI_TIMEOUT_S = 60.0

REL_J_EXACT = 1e-8
REL_CONSERVATION = 1e-10
REL_STATIONARY = 1e-10
REL_BISECT = 1e-9
REL_CALIBRATION = 1e-6
SIGN_MIN_DELTA_THZ = 0.5    # red cools and blue heats, checked off resonance


class CheckFailed(Exception):
    pass


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _finite_tree(node, where="") -> None:
    if isinstance(node, dict):
        for k, v in node.items():
            _finite_tree(v, f"{where}.{k}")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            _finite_tree(v, f"{where}[{i}]")
    elif isinstance(node, float):
        check(math.isfinite(node), f"non-finite number at {where}")
    elif isinstance(node, str):
        check(node.lower() not in ("inf", "-inf", "nan"),
              f"non-finite value {node!r} at {where}")


def _stratified(rng: random.Random, n: int, lo: float, hi: float, log=False):
    """n values, one drawn from each of n equal strata of [lo, hi], shuffled;
    every seed gets the same spread of work."""
    out = []
    for i in range(n):
        u = (i + rng.random()) / n
        out.append(lo * (hi / lo) ** u if log else lo + (hi - lo) * u)
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


class Inputs:
    """Everything a run feeds licore, generated from the seed alone.

    Files (configs, the absorption dataset) go to ``workdir``; the CLI
    receives only those files and ``--set`` lists.
    """

    def __init__(self, workload: str, seed: int, workdir: Path):
        rng = random.Random(f"{workload}:{seed}")
        self.workdir = workdir
        self.weak_atom = AtomDriveConfig.from_thz(OMEGA0_THZ, GAMMA_THZ,
                                                  WEAK_G_THZ, 372.0, LASER_W)
        # (g0 in THz, g0 internal, dataset synthesized from it)
        self.calibrations = []
        for g0_thz in _stratified(rng, CALIBRATION_DATASETS, 0.0015, 0.0025):
            g0 = thz_to_internal(g0_thz)
            self.calibrations.append((g0_thz, g0, cell.synthesize_absorption(
                self.weak_atom, CELL, g0, DATASET_NUS_THZ)))
        self.g0_thz, self.g0, self.dataset = self.calibrations[0]
        self.exact_points = self._exact_points(rng)
        # every strong-scan row takes the same number of floquet solves
        # whatever g is, so one seeded drive gives every seed the same work
        self.strong_atom = AtomDriveConfig.from_thz(
            OMEGA0_THZ, GAMMA_THZ, STRONG_G_THZ * rng.uniform(0.95, 1.05),
            372.0, LASER_W)
        self.dataset_csv = workdir / "absorption.csv"
        with self.dataset_csv.open("w") as fh:
            fh.write("# synthetic: self-consistent model absorption\n")
            fh.write("nu_thz,absorption\n")
            for nu, a in zip(self.dataset.nu_thz, self.dataset.absorption):
                fh.write(f"{nu!r},{a!r}\n")
        self.config = workdir / "config.json"
        doc = self._config_doc(workload)
        self.config.write_text(json.dumps(doc, indent=2))
        self.cli_scan_rows = _cli_grid_rows(doc)
        self.cli_calls = CLI_MIXES[workload](rng)

    def _exact_points(self, rng: random.Random) -> list:
        """Strong-drive points, g/|delta| from 0.1 to 2, half red, half blue."""
        ratios = _stratified(rng, EXACT_POINTS, 0.1, 2.0, log=True)
        deltas = _stratified(rng, EXACT_POINTS, 1.0, 20.0)
        temps = _stratified(rng, EXACT_POINTS, 300.0, 700.0)
        points = []
        for i, (r, d, t) in enumerate(zip(ratios, deltas, temps)):
            delta = d if i % 2 == 0 else -d
            cfg = AtomDriveConfig.from_thz(OMEGA0_THZ, GAMMA_THZ, r * d,
                                           OMEGA0_THZ - delta)
            hot = FlatHotSpectrum(self.g0, kelvin_to_internal(t))
            points.append((cfg, hot, CubicColdSpectrum(cfg.gamma, cfg.omega0, 0.0)))
        return points

    def _config_doc(self, workload: str) -> dict:
        lo, hi, step = (WEAK_GRID_THZ[0], WEAK_GRID_THZ[-1], 0.25) \
            if workload == "weak-cell" else CLI_SCAN_GRID
        calibrate = {"dataset_csv": self.dataset_csv.name}
        if workload == "cli-cold":
            calibrate["reference_nu_thz"] = 372.5
        return {
            "atom": {"omega0_thz": OMEGA0_THZ, "gamma_thz": GAMMA_THZ,
                     "g_thz": WEAK_G_THZ, "nu_thz": 372.0,
                     "laser_power_w": LASER_W},
            "hot_bath": {"temperature_k": T_HOT_K, "g0_thz": self.g0_thz},
            "cold_bath": {"temperature_k": 0.0},
            "cell": {"length_mm": CELL.length_mm, "absorption_length_mm": 9.0,
                     "linear_atom_density_per_mm":
                         CELL.linear_atom_density_per_mm,
                     "laser_power_w": LASER_W},
            "scan": {"delta_min_thz": lo, "delta_max_thz": hi,
                     "delta_step_thz": step,
                     "dataset_csv": self.dataset_csv.name},
            "calibrate": calibrate,
            "compare": {"mass_amu": 86.909},
        }


def _point_sets(g: float, nu: float, t: float) -> list:
    return [f"atom.g_thz={g!r}", f"atom.nu_thz={nu!r}",
            f"hot_bath.temperature_k={t!r}"]


def _cli_cold_mix(rng: random.Random) -> list:
    """All six commands on weak-drive red points; calibrate keeps g and T
    so the calibration round trip stays checkable."""
    calls = []
    for _ in range(4):
        g = rng.uniform(0.03, 0.07)
        nu = OMEGA0_THZ - rng.uniform(2.0, 12.0)
        t = rng.uniform(400.0, 600.0)
        for command in ("steady-state", "currents", "tmin", "compare"):
            calls.append((command, _point_sets(g, nu, t)))
        ref = rng.choice([n for n in DATASET_NUS_THZ if n < OMEGA0_THZ - 1.0])
        calls.append(("calibrate", [f"atom.nu_thz={nu!r}",
                                    f"calibrate.reference_nu_thz={ref!r}"]))
        calls.append(("scan", _point_sets(g, nu, t)))
    return calls


def _exact_drive_mix(rng: random.Random) -> list:
    """Point commands at strong red drive, g/delta from 0.1 to 2."""
    calls = []
    ratios = _stratified(rng, 6, 0.1, 2.0, log=True)
    for i, r in enumerate(ratios):
        delta = rng.uniform(2.0, 12.0)
        command = ("currents", "tmin", "steady-state")[i % 3]
        calls.append((command, _point_sets(r * delta, OMEGA0_THZ - delta,
                                           rng.uniform(400.0, 600.0))))
    return calls


def _weak_cell_mix(rng: random.Random) -> list:
    """All-row calibration of the dataset and the fine +/-25 THz scan."""
    calls = []
    for _ in range(2):
        sets = [f"atom.nu_thz={OMEGA0_THZ - rng.uniform(2.0, 12.0)!r}"]
        calls += [("calibrate", sets), ("scan", sets)]
    return calls


CLI_MIXES = {"cli-cold": _cli_cold_mix, "exact-drive": _exact_drive_mix,
             "weak-cell": _weak_cell_mix}


# ---------------------------------------------------------------------------
# Operations: each returns the units of work it completed
# ---------------------------------------------------------------------------


def _cli_grid_rows(doc: dict) -> int:
    lo, hi, step = (doc["scan"][k] for k in
                    ("delta_min_thz", "delta_max_thz", "delta_step_thz"))
    return int(math.floor((hi - lo) / step + 0.5)) + 1


def cli_op(inp: Inputs, call, op_id: int, env: dict, launcher=None,
           trace_out=None) -> int:
    """One CLI invocation in a fresh interpreter; checks its exit code and
    the physics identities in its JSON output."""
    command, sets = call
    args = [command, "--config", str(inp.config)]
    for item in sets:
        args += ["--set", item]
    out_base = inp.workdir / f"scan_{op_id}"
    if command == "scan":
        args += ["--out", str(out_base)]
    if launcher is None:
        argv = [sys.executable, "-m", "licore.cli", *args]
    else:
        argv = [sys.executable, str(launcher), str(trace_out), str(op_id),
                "--", *args]
    proc = subprocess.run(argv, env=env, cwd=inp.workdir, capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)
    check(proc.returncode == 0,
          f"{command} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    if command == "scan":
        try:
            doc = json.loads(out_base.with_suffix(".json").read_text())
            csv_rows = out_base.with_suffix(".csv").read_text().splitlines()
        finally:
            for suffix in (".json", ".csv"):
                out_base.with_suffix(suffix).unlink(missing_ok=True)
        want = inp.cli_scan_rows
        check(len(doc["rows"]) == want and len(csv_rows) == want + 1,
              f"scan wrote {len(doc['rows'])} rows, grid has {want}")
        _finite_tree(doc["rows"], "rows")
        return 1
    doc = json.loads(proc.stdout)
    _finite_tree(doc)
    if command == "steady-state":
        fl = doc["floquet"]
        check(abs(fl["rho_ee"] + fl["rho_gg"] - 1.0) <= 1e-9,
              "steady-state populations do not sum to one")
    elif command == "currents":
        check(doc["floquet"]["conservation_residual_rel"] <= REL_CONSERVATION,
              "currents: conservation residual too large")
    elif command == "tmin":
        bc = doc["bracket_check"]
        check(bc["j_sign_below"] == -1 and bc["j_sign_above"] == 1,
              "tmin: current does not change sign across the floor")
        check(bc["bisect_rel_difference"] <= REL_BISECT,
              "tmin: bisection disagrees with the closed form")
    elif command == "compare":
        check(len(doc["t_min_scaled"]) == 6 and len(doc["efficiency_bounds"]) == 3
              and all(r["value"] > 0 for r in doc["t_min_scaled"]),
              "compare: incomplete or non-positive method table")
    elif command == "calibrate":
        check(abs(doc["g0_thz"] / inp.g0_thz - 1.0) <= REL_CALIBRATION,
              f"calibrate: recovered g0 {doc['g0_thz']} != seeded {inp.g0_thz}")
    return 1


def exact_op(point) -> int:
    """solve_pipeline against the closed-form current; bisection on red."""
    cfg, hot, cold = point
    liouv, report, cur = floquet.solve_pipeline(cfg, hot, cold)
    j_exact = floquet.heat_current_exact(
        cfg, floquet.hot_channel_rate(cfg, hot), hot.temperature, cold.temperature)
    values = (cur.j_hot, cur.j_cold, cur.p_abs, j_exact, *report.populations)
    check(all(math.isfinite(v) for v in values), "non-finite exact output")
    check(abs(cur.j_hot - j_exact) <= REL_J_EXACT * abs(j_exact),
          f"J_hot {cur.j_hot!r} != closed form {j_exact!r}")
    scale = max(abs(cur.j_hot), abs(cur.j_cold), abs(cur.p_abs))
    check(cur.conservation_residual <= REL_CONSERVATION * scale,
          "energy conservation residual too large")
    norm = float(np.linalg.norm(liouv.matrix))
    check(report.residual <= REL_STATIONARY * norm, "steady state not stationary")
    if cfg.detuning > 0:
        t_bisect = analysis.min_temp_bisect(cfg, cold.temperature)
        t_exact = analysis.min_temp_exact(cfg, cold.temperature)
        check(abs(t_bisect - t_exact) <= REL_BISECT * t_exact,
              "bisection disagrees with min_temp_exact")
    return 1


def _check_scan_rows(rows, grid) -> None:
    check(len(rows) == len(grid), f"scan has {len(rows)} rows, grid {len(grid)}")
    for row, delta in zip(rows, grid):
        check(row.delta_thz == delta, "scan rows out of grid order")
        for v in (row.j_hot_watt, row.p_abs_watt, row.eta):
            check(math.isfinite(v), f"non-finite scan value at {delta} THz")
        if abs(delta) >= SIGN_MIN_DELTA_THZ:
            check((row.j_hot_watt > 0) == (delta > 0),
                  f"wrong sign of J_hot at {delta} THz")


def strong_scan_op(inp: Inputs, index: int) -> int:
    """Row ``index`` of the strong scan, as a one-row detuning_scan: rows
    are independent, and a short operation sits within one host state."""
    grid = STRONG_GRID_THZ[index:index + 1]
    result = cell.detuning_scan(CELL, inp.strong_atom, inp.g0, grid)
    _check_scan_rows(result.rows, grid)
    check(all(r.model == "floquet" for r in result.rows),
          "strong scan row not on the exact solver")
    return len(result.rows)


def calibrate_op(inp: Inputs, index: int) -> int:
    """All-row calibration of one synthesized dataset."""
    _, g0, dataset = inp.calibrations[index]
    result = cell.calibrate_g0(dataset, inp.weak_atom, CELL)
    check(math.isfinite(result.residual_rms), "non-finite calibration misfit")
    check(abs(result.g0 / g0 - 1.0) <= REL_CALIBRATION,
          f"calibration round trip: {result.g0!r} != {g0!r}")
    return 1


def weak_block(index: int) -> list:
    """Block ``index`` of adjacent rows of the weak scan grid."""
    size = -(-len(WEAK_GRID_THZ) // WEAK_BLOCKS)
    return WEAK_GRID_THZ[index * size:(index + 1) * size]


def weak_scan(inp: Inputs, grid=WEAK_GRID_THZ, jobs: int = 1):
    return cell.detuning_scan(CELL, inp.weak_atom, inp.g0, grid,
                              dataset=inp.dataset, jobs=jobs)


def photon_budget_violations(inp: Inputs, result) -> int:
    """Rows absorbing more than the beam loses in the cell,
    P_abs > P_L (1 - exp(-alpha L)), beyond rounding."""
    count = 0
    for row in result.rows:
        nu_thz = OMEGA0_THZ - row.delta_thz
        alpha = inp.dataset.alpha_at(nu_thz, CELL.length_mm)
        budget = CELL.laser_power_w * -math.expm1(-alpha * CELL.length_mm)
        count += row.p_abs_watt > budget * (1.0 + 1e-9)
    return count


def photon_budget_op(inp: Inputs, sink: dict) -> int:
    """The whole weak scan; stores its photon-budget violations in sink."""
    result = weak_scan(inp)
    _check_scan_rows(result.rows, WEAK_GRID_THZ)
    sink["photon_budget_violations"] = photon_budget_violations(inp, result)
    return len(result.rows)


def weak_scan_op(inp: Inputs, op_id: int, grid) -> int:
    """Rows ``grid`` of the fine weak-drive scan with the dataset, then CSV
    and records."""
    result = weak_scan(inp, grid)
    path = inp.workdir / f"weak_{op_id}.csv"
    try:
        cell.write_scan_csv(result, path)
        with path.open(newline="") as fh:
            written = list(csv.reader(fh))
    finally:
        path.unlink(missing_ok=True)
    records = cell.scan_records(result)
    _check_scan_rows(result.rows, grid)
    check(len(written) == len(grid) + 1 and len(records) == len(written) - 1,
          "serialized scan lost rows")
    return len(result.rows)


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env
