#!/usr/bin/env python3
"""Desk-scale detuning-scan experiment.

Builds a symmetric synthetic absorption profile for a 10 mm cell at 500 K,
calibrates the flat hot-spectrum amplitude against it, sweeps the laser
detuning across +/- 25 THz and writes CSV/JSON scan files plus a short
terminal summary (peak cooling power and the heating/cooling asymmetry).

Usage: python scripts/run_detuning_scan.py [output_dir]
"""

import math
import sys
from pathlib import Path

from licore.cell import (
    AbsorptionDataset,
    CellConfig,
    calibrate_g0,
    detuning_scan,
    write_scan,
)
from licore.config import AtomDriveConfig
from licore.units import internal_to_thz, kelvin_to_internal, thz_to_internal

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")

# rubidium-like two-level atom, red-detuned titanium-sapphire drive
ATOM = AtomDriveConfig.from_thz(
    omega0_thz=377.0, gamma_thz=6e-6, g_thz=0.05, nu_thz=372.0,
    laser_power_w=2.4,
)
CELL = CellConfig(
    length_mm=10.0,
    absorption_coeff_per_mm=1.0 / 9.0,
    linear_atom_density_per_mm=2e11,
    laser_power_w=2.4,
    bath_temperature_k=500.0,
)


def synthetic_profile() -> AbsorptionDataset:
    nus = [352.0 + k for k in range(51)]
    a = [0.95 * math.exp(-(nu - 377.0) ** 2 / (2 * 6.0 ** 2)) for nu in nus]
    return AbsorptionDataset(tuple(nus), tuple(a))


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    dataset = synthetic_profile()

    cal = calibrate_g0(dataset, ATOM, CELL, reference_nu_thz=372.0)
    print(f"calibrated G0 = {internal_to_thz(cal.g0):.6g} THz "
          f"(rms misfit {cal.residual_rms:.2e})")

    deltas = [-25.0 + 0.5 * k for k in range(101)]
    scan = detuning_scan(CELL, ATOM, cal.g0, deltas, dataset=dataset)

    write_scan(scan.rows, OUT / "detuning_scan.csv", OUT / "detuning_scan.json",
               scan.metadata)

    cooling = [r for r in scan.rows if r.delta_thz > 0]
    peak = max(cooling, key=lambda r: r.j_hot_watt)
    print(f"peak cooling power {peak.j_hot_watt * 1e3:.3g} mW "
          f"at detuning {peak.delta_thz:g} THz "
          f"(eta = {peak.eta:.3e})")

    t_hot = kelvin_to_internal(CELL.bath_temperature_k)
    by_delta = {r.delta_thz: r.j_hot_watt for r in scan.rows}
    for d in (5.0, 10.0, 20.0):
        ratio = -by_delta[-d] / by_delta[d]
        print(f"asymmetry at +/-{d:g} THz: {ratio:.3f} "
              f"(detailed balance: {math.exp(thz_to_internal(d) / t_hot):.3f})")
    print(f"wrote {OUT / 'detuning_scan.csv'} and {OUT / 'detuning_scan.json'}")


if __name__ == "__main__":
    main()
