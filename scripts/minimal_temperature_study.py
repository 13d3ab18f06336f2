#!/usr/bin/env python3
"""Cooling-floor study: how low can the hot bath be driven?

Sweeps the drive ratio detuning/g at fixed detuning, comparing the exact
balance-condition root against its weak-drive asymptotic form and the
independent numerical root of the closed-form current, then prints the
cross-method comparison table for resolved and unresolved operation.

Usage: python scripts/minimal_temperature_study.py
"""

from licore.analysis import method_comparison, min_temp_asymptotic, \
    min_temp_bisect, min_temp_exact
from licore.config import AtomDriveConfig
from licore.units import amu_to_kg, internal_to_kelvin


def floor_sweep() -> None:
    print("cooling floor vs drive ratio (detuning 10.4 THz, vacuum cold bath)")
    print(f"{'detuning/g':>12s} {'exact [K]':>12s} {'asymptotic [K]':>15s} "
          f"{'brentq [K]':>14s} {'gap':>8s}")
    for ratio in (50.0, 200.0, 1000.0, 5000.0):
        g_thz = 10.4 / ratio
        cfg = AtomDriveConfig.from_thz(377.0, 6e-6, g_thz, 366.6)
        exact = internal_to_kelvin(min_temp_exact(cfg, 0.0))
        asym = internal_to_kelvin(min_temp_asymptotic(cfg))
        root = internal_to_kelvin(min_temp_bisect(cfg, 0.0))
        gap = abs(exact - asym) / exact
        print(f"{ratio:12g} {exact:12.4g} {asym:15.4g} {root:14.4g} {gap:8.2%}")


def comparison_table() -> None:
    cfg = AtomDriveConfig.from_thz(377.0, 6e-6, 0.0104, 366.6)
    mass = amu_to_kg(86.909)
    for gamma_over_rabi in (10.0, 0.1):
        rabi = cfg.rabi
        gamma = gamma_over_rabi * rabi
        comp = method_comparison(gamma, rabi, cfg.detuning, cfg.g, cfg.nu,
                                 cfg.omega0, mass)
        print(f"\nscaled minimal temperatures, gamma/rabi = {gamma_over_rabi:g} "
              f"({comp.operating_regime} operation)")
        for rec in comp.limits:
            if rec.regime != comp.operating_regime:
                continue
            print(f"  {rec.method:10s} kT_min/(hbar {rec.reference}) = "
                  f"{rec.t_min_scaled:10.4g}")
        for eff in comp.efficiencies:
            print(f"  {eff.method:10s} efficiency bound {eff.value:10.4g} "
                  f"({eff.note})")


if __name__ == "__main__":
    floor_sweep()
    comparison_table()
