"""Command-line front end.

Subcommands: steady-state, currents, scan, tmin, compare, calibrate.
Configuration is a JSON document in lab units (THz, K, W, mm) validated
against a fixed schema; ``--set section.key=value`` overrides fields for
sweeps.  Machine output carries 12 significant digits, human tables 4.

Exit codes: 0 success, 2 config/schema error, 3 numerical-domain error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

import jsonschema

from . import analysis, cell as cellmod, floquet, rate_model
from .config import AtomDriveConfig
from .errors import ConfigError, DomainError
from .spectra import CubicColdSpectrum, FlatHotSpectrum
from .units import (
    amu_to_kg,
    internal_to_thz,
    internal_to_watts,
    kelvin_to_internal,
    round12,
    thz_to_internal,
    watts_to_internal,
)

_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "atom": {
            "type": "object",
            "additionalProperties": False,
            "required": ["omega0_thz", "gamma_thz", "g_thz", "nu_thz"],
            "properties": {
                "omega0_thz": _POS,
                "gamma_thz": _POS,
                "g_thz": _NONNEG,
                "nu_thz": _POS,
                "laser_power_w": _NONNEG,
            },
        },
        "hot_bath": {
            "type": "object",
            "additionalProperties": False,
            "required": ["temperature_k"],
            "properties": {
                "temperature_k": _POS,
                "g0_thz": _POS,
                "spectrum_csv": {"type": "string"},
            },
        },
        "cold_bath": {
            "type": "object",
            "additionalProperties": False,
            "required": ["temperature_k"],
            "properties": {"temperature_k": _NONNEG},
        },
        "cell": {
            "type": "object",
            "additionalProperties": False,
            "required": ["length_mm", "linear_atom_density_per_mm",
                         "laser_power_w"],
            "properties": {
                "length_mm": _POS,
                "absorption_length_mm": _POS,
                "absorption_coeff_per_mm": _NONNEG,
                "linear_atom_density_per_mm": _NONNEG,
                "laser_power_w": _POS,
            },
        },
        "scan": {
            "type": "object",
            "additionalProperties": False,
            "required": ["delta_min_thz", "delta_max_thz", "delta_step_thz"],
            "properties": {
                "delta_min_thz": {"type": "number"},
                "delta_max_thz": {"type": "number"},
                "delta_step_thz": _POS,
                "dataset_csv": {"type": "string"},
            },
        },
        "calibrate": {
            "type": "object",
            "additionalProperties": False,
            "required": ["dataset_csv"],
            "properties": {
                "dataset_csv": {"type": "string"},
                "reference_nu_thz": _POS,
            },
        },
        "compare": {
            "type": "object",
            "additionalProperties": False,
            "required": ["mass_amu"],
            "properties": {
                "mass_amu": _POS,
                "rabi_thz": _POS,
            },
        },
    },
}
# the schema is a constant: checked against the metaschema by the tests,
# not on every load
_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def load_config(path: str, overrides) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set path {key!r} crosses a non-object")
        node[parts[-1]] = value
    exc = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(doc))
    if exc is not None:
        raise ConfigError(f"config schema violation: {exc.message} "
                          f"(at {'/'.join(str(p) for p in exc.absolute_path)})")
    return doc


def _resolve_path(path_str: str, config_path: str | None) -> str:
    """Dataset paths in a config are relative to the config file."""
    p = Path(path_str)
    if p.is_absolute() or config_path is None:
        return str(p)
    return str(Path(config_path).parent / p)


def _construct(section: str, factory, *args, **kwargs):
    """Build a config object; a value it rejects is a config error."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _atom(doc: dict) -> AtomDriveConfig:
    a = doc["atom"]
    return _construct(
        "atom", AtomDriveConfig.from_thz,
        a["omega0_thz"], a["gamma_thz"], a["g_thz"], a["nu_thz"],
        a.get("laser_power_w", 0.0),
    )


def _temperature(section: str, doc: dict) -> float:
    """A bath temperature in internal units; one that overflows them is a
    config error, not an infinitely hot bath."""
    temperature = kelvin_to_internal(doc[section]["temperature_k"])
    if not math.isfinite(temperature):
        raise ConfigError(f"{section}: temperature_k overflows internal units")
    return temperature


def _hot(doc: dict, config_path: str | None = None):
    h = doc["hot_bath"]
    temperature = _temperature("hot_bath", doc)
    if "spectrum_csv" in h:
        from .spectra import load_tabulated_spectrum
        return load_tabulated_spectrum(
            _resolve_path(h["spectrum_csv"], config_path), temperature)
    if "g0_thz" not in h:
        raise ConfigError("hot_bath needs g0_thz or spectrum_csv (run "
                          "`calibrate` first or set one explicitly)")
    return _construct("hot_bath", FlatHotSpectrum,
                      thz_to_internal(h["g0_thz"]), temperature)


def _cold_temperature(doc: dict) -> float:
    return _temperature("cold_bath", doc)


def _cell(doc: dict) -> cellmod.CellConfig:
    c = doc["cell"]
    if "absorption_coeff_per_mm" in c:
        alpha = c["absorption_coeff_per_mm"]
    elif "absorption_length_mm" in c:
        alpha = 1.0 / c["absorption_length_mm"]
    else:
        alpha = 0.0
    _temperature("hot_bath", doc)   # the cell keeps it in kelvin; check it converts
    return _construct(
        "cell", cellmod.CellConfig,
        length_mm=c["length_mm"],
        absorption_coeff_per_mm=alpha,
        linear_atom_density_per_mm=c["linear_atom_density_per_mm"],
        laser_power_w=c["laser_power_w"],
        bath_temperature_k=doc["hot_bath"]["temperature_k"],
    )


# ---------------------------------------------------------------------------
# Subcommands: each takes (config document, parsed arguments); the point
# commands return (payload dict, human-readable lines), scan a ScanResult
# ---------------------------------------------------------------------------


def cmd_steady_state(doc: dict, args):
    cfg = _atom(doc)
    hot = _hot(doc, args.config)
    t_cold = _cold_temperature(doc)
    cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, t_cold)

    rate_pops = None
    if cfg.g == 0.0 or cfg.detuning == 0.0:
        rate_part = {"gamma_p_thz": 0.0, "note": "no weak-drive pumping "
                     "(g = 0 or zero detuning)"}
    else:
        try:
            gp = rate_model.pumping_rate(cfg, hot)
            pt = rate_model.steady_state(cfg, gp, hot.temperature)
        except DomainError as exc:
            rate_part = {"note": f"weak-drive model out of regime: {exc}"}
        else:
            rate_pops = (pt.rho_ee, pt.rho_gg)
            rate_part = {
                "gamma_p_thz": round12(internal_to_thz(gp)),
                "rho_ee": round12(pt.rho_ee),
                "rho_gg": round12(pt.rho_gg),
                "boltzmann_factor": round12(pt.boltzmann_factor),
                "t_tla_k": round12(pt.t_tla / kelvin_to_internal(1.0))
                if math.isfinite(pt.t_tla) else "inf",
            }

    _, report, _ = floquet.solve_pipeline(cfg, hot, cold)
    ee, gg = floquet.bare_populations(cfg, report.rho)
    if ee > 0 and gg > 0 and ee < gg:
        t_tla_fl = abs(cfg.detuning) / math.log(gg / ee)
        t_tla_fl_k = round12(t_tla_fl / kelvin_to_internal(1.0))
    else:
        t_tla_fl_k = "inf" if ee >= gg else 0.0
    fl_part = {
        "rho_ee": round12(ee),
        "rho_gg": round12(gg),
        "t_tla_k": t_tla_fl_k,
        "residual": round12(report.residual),
    }
    if rate_pops is not None:
        rel = abs(rate_pops[0] - ee) / max(abs(ee), 1e-300)
        fl_part["rel_difference_rho_ee"] = round12(rel)
    payload = {"command": "steady-state", "rate_model": rate_part,
               "floquet": fl_part}
    lines = ["steady state (rate model vs exact solver)"]
    for tag, part in (("rate", rate_part), ("floquet", fl_part)):
        kv = ", ".join(f"{k}={_human(v)}" for k, v in part.items())
        lines.append(f"  {tag:8s} {kv}")
    return payload, lines


def cmd_currents(doc: dict, args):
    cfg = _atom(doc)
    hot = _hot(doc, args.config)
    t_cold = _cold_temperature(doc)
    cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, t_cold)
    laser_power_w = doc["atom"].get("laser_power_w", 0.0)

    try:
        flow = rate_model.energy_flow(
            cfg, hot, watts_to_internal(laser_power_w) if laser_power_w else None)
        rate_part = {
            "j_hot_w": round12(internal_to_watts(flow.j_hot)),
            "j_cold_w": round12(internal_to_watts(flow.j_cold)),
            "p_abs_w": round12(internal_to_watts(flow.p_abs)),
            "eta": round12(flow.eta),
        }
        regime = flow.regime
    except DomainError as exc:
        rate_part = {"note": f"weak-drive model out of regime: {exc}"}
        regime = rate_model.regime_of(cfg)
    _, report, currents = floquet.solve_pipeline(cfg, hot, cold)
    scale = max(abs(currents.j_hot), abs(currents.j_cold), abs(currents.p_abs),
                1e-300)
    payload = {
        "command": "currents",
        "regime": regime,
        "rate_model": rate_part,
        "floquet": {
            "j_hot_w": round12(internal_to_watts(currents.j_hot)),
            "j_cold_w": round12(internal_to_watts(currents.j_cold)),
            "p_abs_w": round12(internal_to_watts(currents.p_abs)),
            "conservation_residual_rel": round12(
                currents.conservation_residual / scale),
        },
    }
    lines = [f"energy flows ({regime} regime); per atom, watts"]
    for tag in ("rate_model", "floquet"):
        kv = ", ".join(f"{k}={_human(v)}" for k, v in payload[tag].items())
        lines.append(f"  {tag:10s} {kv}")
    return payload, lines


def cmd_tmin(doc: dict, args):
    cfg = _atom(doc)
    t_cold = _cold_temperature(doc)
    exact = analysis.min_temp_exact(cfg, t_cold)
    payload = {"command": "tmin",
               "t_min_exact_k": round12(exact / kelvin_to_internal(1.0))}
    if cfg.g > 0 and cfg.g < cfg.detuning:
        asymptotic = analysis.min_temp_asymptotic(cfg)
        payload["t_min_asymptotic_k"] = round12(asymptotic / kelvin_to_internal(1.0))
        payload["relative_gap"] = round12(abs(exact - asymptotic)
                                          / max(exact, 1e-300))
    if exact > 0:
        below = floquet.heat_current_exact(cfg, 1.0, exact / 10.0, t_cold)
        above = floquet.heat_current_exact(cfg, 1.0, exact * 10.0, t_cold)
        root = analysis.min_temp_bisect(cfg, t_cold)
        payload["bracket_check"] = {
            "j_sign_below": -1 if below < 0 else (0 if below == 0 else 1),
            "j_sign_above": -1 if above < 0 else (0 if above == 0 else 1),
            "bisect_root_k": round12(root / kelvin_to_internal(1.0)),
            "bisect_rel_difference": round12(abs(root - exact) / exact),
        }
    lines = [f"minimal hot-bath temperature: "
             f"{payload['t_min_exact_k']:.6g} K (exact)"]
    if "t_min_asymptotic_k" in payload:
        lines.append(f"  asymptotic {payload['t_min_asymptotic_k']:.6g} K, "
                     f"relative gap {payload['relative_gap']:.3g}")
    if "bracket_check" in payload:
        bc = payload["bracket_check"]
        lines.append(f"  current sign below/above root: {bc['j_sign_below']}"
                     f"/{bc['j_sign_above']}; bisection agrees to "
                     f"{bc['bisect_rel_difference']:.3g}")
    return payload, lines


def cmd_compare(doc: dict, args):
    cfg = _atom(doc)
    comp = doc["compare"]
    rabi = thz_to_internal(comp["rabi_thz"]) if "rabi_thz" in comp else cfg.rabi
    mass_kg = amu_to_kg(comp["mass_amu"])
    if mass_kg == 0.0:
        raise ConfigError("compare: mass_amu underflows to zero kilograms")
    if cfg.detuning <= 0 or cfg.g <= 0:
        raise DomainError("comparison needs red detuning and g > 0")
    result = analysis.method_comparison(
        cfg.gamma, rabi, cfg.detuning, cfg.g, cfg.nu, cfg.omega0, mass_kg)
    payload = {
        "command": "compare",
        "operating_regime": result.operating_regime,
        "t_min_scaled": [
            {"method": r.method, "regime": r.regime,
             "value": round12(r.t_min_scaled), "reference": r.reference,
             "approximate": r.approximate}
            for r in result.limits
        ],
        "efficiency_bounds": [
            {"method": e.method, "value": round12(e.value), "note": e.note}
            for e in result.efficiencies
        ],
    }
    lines = [f"method comparison (operating regime: {result.operating_regime})",
             f"  {'method':10s} {'regime':12s} {'kT_min/(hbar ref)':>18s} ref"]
    for r in result.limits:
        lines.append(f"  {r.method:10s} {r.regime:12s} {r.t_min_scaled:18.4g} "
                     f"{r.reference}")
    lines.append("  efficiency bounds:")
    for e in result.efficiencies:
        lines.append(f"    {e.method:10s} {e.value:10.4g}  ({e.note})")
    return payload, lines


def cmd_calibrate(doc: dict, args):
    cfg = _atom(doc)
    cal = doc["calibrate"]
    dataset = cellmod.load_absorption_csv(
        _resolve_path(cal["dataset_csv"], args.config))
    cell = _cell(doc)
    result = cellmod.calibrate_g0(dataset, cfg, cell,
                                  reference_nu_thz=cal.get("reference_nu_thz"))
    payload = {
        "command": "calibrate",
        "g0_thz": round12(internal_to_thz(result.g0)),
        "residual_rms": round12(result.residual_rms),
        "rows_used": len(result.rows_used),
    }
    lines = [f"calibrated flat hot-spectrum amplitude: "
             f"{payload['g0_thz']:.6g} THz "
             f"(rms misfit {payload['residual_rms']:.3g}, "
             f"{payload['rows_used']} rows)"]
    return payload, lines


def cmd_scan(doc: dict, args):
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = _atom(doc)
    cell = _cell(doc)
    sc = doc["scan"]
    t_cold = _cold_temperature(doc) if "cold_bath" in doc else 0.0

    if args.dataset is not None:
        path = args.dataset
    elif "dataset_csv" in sc:
        path = _resolve_path(sc["dataset_csv"], args.config)
    else:
        path = None
    dataset = cellmod.load_absorption_csv(path) if path else None

    if "g0_thz" in doc["hot_bath"]:
        g0 = thz_to_internal(doc["hot_bath"]["g0_thz"])
    elif dataset is not None:
        g0 = cellmod.calibrate_g0(dataset, cfg, cell).g0
    else:
        raise ConfigError("scan needs hot_bath.g0_thz or a dataset to "
                          "calibrate from")

    lo, hi, step = sc["delta_min_thz"], sc["delta_max_thz"], sc["delta_step_thz"]
    n = int(math.floor((hi - lo) / step + 0.5)) + 1
    deltas = [lo + k * step for k in range(n) if lo + k * step <= hi + step * 1e-9]
    if not deltas:
        raise ConfigError("empty detuning grid")
    return cellmod.detuning_scan(cell, cfg, g0, deltas, dataset=dataset,
                                 t_cold=t_cold, jobs=args.jobs)


def _human(v) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def _require_finite(node) -> None:
    """Refuse to emit output holding a non-finite number."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            _require_finite(item)
    elif isinstance(node, float) and not math.isfinite(node):
        raise DomainError("result is not finite for these parameters")


def _emit(result, args) -> None:
    payload, lines = result
    _require_finite(payload)
    if not args.no_metadata:
        payload = dict(payload)
        payload["metadata"] = {
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "config": args.config,
        }
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        keys, vals = _flatten(payload)
        text = ",".join(keys) + "\n" + ",".join(vals) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _flatten(payload: dict, prefix: str = ""):
    keys, vals = [], []
    for k, v in sorted(payload.items()):
        name = f"{prefix}{k}"
        if isinstance(v, dict):
            sub_k, sub_v = _flatten(v, prefix=f"{name}.")
            keys += sub_k
            vals += sub_v
        elif isinstance(v, list):
            keys.append(name)
            vals.append(json.dumps(v).replace(",", ";"))
        else:
            keys.append(name)
            vals.append("" if v is None else str(v))
    return keys, vals


def _emit_scan(result: cellmod.ScanResult, args) -> None:
    doc = {"rows": cellmod.scan_records(result)}
    _require_finite(doc["rows"])
    out = args.out or "scan_result"
    base = Path(out)
    if base.suffix:
        base = base.with_suffix("")
    cellmod.write_scan_csv(result, base.with_suffix(".csv"))
    if not args.no_metadata:
        meta = dict(result.metadata)
        meta["generated_at"] = datetime.now(timezone.utc).isoformat()
        doc["metadata"] = meta
    base.with_suffix(".json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if args.emit_plot_data:
        lines = ["# delta_thz j_hot_watt j_hot_exp_watt p_abs_watt eta"]
        for r in result.rows:
            exp = "nan" if r.j_hot_exp_watt is None else f"{r.j_hot_exp_watt:.12g}"
            lines.append(f"{r.delta_thz:.12g} {r.j_hot_watt:.12g} {exp} "
                         f"{r.p_abs_watt:.12g} {r.eta:.12g}")
        base.with_suffix(".dat").write_text("\n".join(lines) + "\n")
    sys.stdout.write(f"wrote {base.with_suffix('.csv')} and "
                     f"{base.with_suffix('.json')}\n")


def _commands() -> dict:
    """command -> (handler, emitter, config sections it needs).  Built per
    call, so that a patched handler or emitter takes effect."""
    return {
        "steady-state": (cmd_steady_state, _emit,
                         ("atom", "hot_bath", "cold_bath")),
        "currents": (cmd_currents, _emit, ("atom", "hot_bath", "cold_bath")),
        "scan": (cmd_scan, _emit_scan, ("atom", "hot_bath", "cell", "scan")),
        "tmin": (cmd_tmin, _emit, ("atom", "cold_bath")),
        "compare": (cmd_compare, _emit, ("atom", "compare")),
        "calibrate": (cmd_calibrate, _emit,
                      ("atom", "cell", "hot_bath", "calibrate")),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="licore",
        description="Collisional-redistribution cooling: steady states, "
                    "heat currents, detuning scans and minimal temperatures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _commands():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--set", action="append", default=[], metavar="K=V",
                       help="override config fields, dotted keys")
        p.add_argument("--out", default=None, help="output path")
        p.add_argument("--no-metadata", action="store_true",
                       help="omit timestamps/metadata for byte-stable output")
        if name == "scan":
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes for the rows (at least 1; "
                                "capped at the CPU count)")
            p.add_argument("--dataset", default=None,
                           help="absorption CSV (overrides config)")
            p.add_argument("--emit-plot-data", action="store_true",
                           help="also write a gnuplot-friendly .dat file")
        else:
            p.add_argument("--format", choices=("csv", "json", "table"),
                           default="json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, emit, sections = _commands()[args.command]
    # the library's warnings are recorded and printed one line each, once
    # per distinct message, ahead of any error message
    message, code = None, 0
    with warnings.catch_warnings(record=True) as caught:
        try:
            doc = load_config(args.config, args.set)
            missing = [s for s in sections if s not in doc]
            if missing:
                raise ConfigError(f"{args.command} needs config sections: "
                                  f"{', '.join(missing)}")
            emit(handler(doc, args), args)
        except ConfigError as exc:
            message, code = f"config error: {exc}", 2
        except (DomainError, ArithmeticError) as exc:
            message, code = f"domain error: {exc}", 3
        except OSError as exc:
            message, code = f"i/o error: {exc}", 4
    for text in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {text}", file=sys.stderr)
    if message is not None:
        print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
