"""Command-line front end.

Subcommands: steady-state, currents, scan, tmin, compare, calibrate.
Configuration is a JSON document in lab units (THz, K, W, mm) validated
against a fixed schema; ``--set section.key=value`` overrides fields for
sweeps.  Machine output carries 12 significant digits, human tables 4.
``scan`` streams each row to its CSV and JSON files as it is computed.
The module and every command it runs import the standard library only, and
each command imports the licore modules it runs when it runs.  A small
argv reader, not argparse, reads the command line: options are spelled in
full, as ``--opt value`` or ``--opt=value``.

Exit codes: 0 success (and ``-h``/``--help``), 2 usage or config/schema
error, 3 numerical-domain error, 4 I/O error.
"""

from __future__ import annotations

import errno
import json
import math
import os
import re
import sys
import time
import types
import warnings
from pathlib import Path

from .config import AtomDriveConfig
from .errors import ConfigError, DomainError, require_finite
from .spectra import CubicColdSpectrum, FlatHotSpectrum, load_tabulated_spectrum
from .units import (
    amu_to_kg,
    internal_to_kelvin,
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
MAX_SCAN_ROWS = 10**6     # the largest detuning grid `scan` builds


def _schema_violations(schema: dict, node, path: tuple = ()):
    """(message, path) of each way ``node`` breaks ``schema``, for the
    keywords CONFIG_SCHEMA uses, worded as jsonschema words them.  A JSON
    number is an int or a float, never a bool."""
    kind = schema.get("type")
    if kind == "object":
        if not isinstance(node, dict):
            yield f"{node!r} is not of type 'object'", path
            return
        for key in schema.get("required", ()):
            if key not in node:
                yield f"{key!r} is a required property", path
        properties = schema.get("properties", {})
        extras = sorted((k for k in node if k not in properties), key=str)
        if extras and schema.get("additionalProperties", True) is False:
            verb = "was" if len(extras) == 1 else "were"
            yield (f"Additional properties are not allowed "
                   f"({', '.join(map(repr, extras))} {verb} unexpected)", path)
        for key, sub in properties.items():
            if key in node:
                yield from _schema_violations(sub, node[key], (*path, key))
    elif kind == "string":
        if not isinstance(node, str):
            yield f"{node!r} is not of type 'string'", path
    elif kind == "number":
        if isinstance(node, bool) or not isinstance(node, (int, float)):
            yield f"{node!r} is not of type 'number'", path
        elif "minimum" in schema and node < schema["minimum"]:
            yield (f"{node!r} is less than the minimum of "
                   f"{schema['minimum']!r}", path)
        elif "exclusiveMinimum" in schema and node <= schema["exclusiveMinimum"]:
            yield (f"{node!r} is less than or equal to the minimum of "
                   f"{schema['exclusiveMinimum']!r}", path)


def _finite_number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _float_sized_int(text: str) -> int:
    value = int(text)
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{text} overflows a float") from None
    return value    # an int stays an int: "length_mm": 10 prints 10


def _parse_json(text: str):
    """json.loads that refuses, as a ValueError, NaN, Infinity, numbers
    that overflow a float and nesting too deep to decode."""
    try:
        return json.loads(text, parse_float=_finite_number,
                          parse_int=_float_sized_int,
                          parse_constant=_finite_number)
    except RecursionError:
        raise ValueError("nested too deeply to decode") from None


def load_config(path: str, overrides) -> dict:
    try:
        doc = _parse_json(Path(path).read_text())
    except ValueError as exc:   # also undecodable bytes
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        parts = key.split(".")
        field = CONFIG_SCHEMA
        for part in parts:
            field = field.get("properties", {}).get(part, {})
        try:
            value = _parse_json(raw)
        except ValueError:
            value = raw     # a bare string, which the schema then checks
        if field.get("type") == "string" and not isinstance(value, str):
            value = raw     # a string field keeps its text: a file named 2024
        node = doc
        for part in parts[:-1]:
            if not isinstance(node, dict):
                break
            node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {key!r} crosses a non-object")
        node[parts[-1]] = value
    for message, at in _schema_violations(CONFIG_SCHEMA, doc):
        raise ConfigError(f"config schema violation: {message} "
                          f"(at {'/'.join(at)})")
    return doc


def _resolve_path(path_str: str, config_path: str) -> str:
    """Dataset paths in a config are relative to the config file."""
    return str(Path(config_path).parent / path_str)   # an absolute one stays


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


def _internal(doc: dict, section: str, key: str, convert) -> float:
    """A lab value converted to internal units; one that overflows them is
    a config error, not an infinitely hot bath or strong coupling."""
    value = convert(doc[section][key])
    if not math.isfinite(value):
        raise ConfigError(f"{section}: {key} overflows internal units")
    return value


def _temperature(section: str, doc: dict) -> float:
    return _internal(doc, section, "temperature_k", kelvin_to_internal)


def _hot(doc: dict, config_path: str):
    h = doc["hot_bath"]
    temperature = _temperature("hot_bath", doc)
    if "spectrum_csv" in h:
        return load_tabulated_spectrum(
            _resolve_path(h["spectrum_csv"], config_path), temperature)
    if "g0_thz" not in h:
        raise ConfigError("hot_bath needs g0_thz or spectrum_csv (run "
                          "`calibrate` first or set one explicitly)")
    return _construct("hot_bath", FlatHotSpectrum,
                      _internal(doc, "hot_bath", "g0_thz", thz_to_internal),
                      temperature)


def _cell(doc: dict):
    from . import cell as cellmod
    if "spectrum_csv" in doc["hot_bath"]:
        raise ConfigError("hot_bath.spectrum_csv is not supported by scan and "
                          "calibrate, which model a flat spectrum (g0_thz)")
    c = doc["cell"]
    coeff = (_internal(doc, "cell", "absorption_length_mm", lambda x: 1.0 / x)
             if "absorption_length_mm" in c else 0.0)
    _temperature("hot_bath", doc)   # the cell keeps it in kelvin; check it converts
    return _construct(
        "cell", cellmod.CellConfig,
        length_mm=c["length_mm"],
        absorption_coeff_per_mm=coeff,
        linear_atom_density_per_mm=c["linear_atom_density_per_mm"],
        laser_power_w=c["laser_power_w"],
        bath_temperature_k=doc["hot_bath"]["temperature_k"],
    )


# ---------------------------------------------------------------------------
# Subcommands: each takes (config document, parsed arguments); the point
# commands return (payload dict, human-readable lines), scan (its rows,
# computed as they are drawn, and its metadata)
# ---------------------------------------------------------------------------


def _kelvin_or_inf(t: float):
    """A temperature in kelvin as printed, "inf" where it is not finite."""
    return round12(internal_to_kelvin(t)) if math.isfinite(t) else "inf"


def cmd_steady_state(doc: dict, args):
    from . import floquet, rate_model
    cfg = _atom(doc)
    hot = _hot(doc, args.config)
    t_cold = _temperature("cold_bath", doc)
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
                "t_tla_k": _kelvin_or_inf(pt.t_tla),
            }

    flows = floquet.dressed_flows(cfg, hot, cold)
    ee, gg = floquet.bare_from_dressed(cfg, flows.populations)
    fl_part = {
        "rho_ee": round12(ee),
        "rho_gg": round12(gg),
        "t_tla_k": _kelvin_or_inf(
            rate_model.atom_temperature(cfg.detuning, ee, gg)),
        "rate_balance_residual": round12(flows.rate_balance_residual),
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
    from . import floquet, rate_model
    cfg = _atom(doc)
    hot = _hot(doc, args.config)
    t_cold = _temperature("cold_bath", doc)
    cold = CubicColdSpectrum(cfg.gamma, cfg.omega0, t_cold)

    power = (_internal(doc, "atom", "laser_power_w", watts_to_internal)
             if cfg.laser_power else None)
    try:
        flow = rate_model.energy_flow(cfg, hot, power)
        rate_part = {
            "j_hot_w": round12(internal_to_watts(flow.j_hot)),
            "j_cold_w": round12(internal_to_watts(flow.j_cold)),
            "p_abs_w": round12(internal_to_watts(flow.p_abs)),
            "eta": round12(flow.eta),
        }
        regime = flow.regime
    except DomainError as exc:
        rate_part = {"note": f"weak-drive model out of regime: {exc}"}
        regime = rate_model.regime_of(cfg.detuning, cfg.g)
    flows = floquet.dressed_flows(cfg, hot, cold)
    payload = {
        "command": "currents",
        "regime": regime,
        "rate_model": rate_part,
        "floquet": {
            "j_hot_w": round12(internal_to_watts(flows.j_hot)),
            "j_cold_w": round12(internal_to_watts(flows.j_cold)),
            "p_abs_w": round12(internal_to_watts(flows.p_abs)),
            "conservation_residual_rel": round12(
                flows.energy_balance_residual),
        },
    }
    lines = [f"energy flows ({regime} regime); per atom, watts"]
    for tag in ("rate_model", "floquet"):
        kv = ", ".join(f"{k}={_human(v)}" for k, v in payload[tag].items())
        lines.append(f"  {tag:10s} {kv}")
    return payload, lines


def cmd_tmin(doc: dict, args):
    from . import analysis
    cfg = _atom(doc)
    t_cold = _temperature("cold_bath", doc)
    # the floor and the current its bracketed root is taken from: one
    # balance for both
    exact, current = analysis._floor(cfg, t_cold)
    payload = {"command": "tmin",
               "t_min_exact_k": round12(internal_to_kelvin(exact))}
    if cfg.g > 0 and cfg.g < cfg.detuning:
        asymptotic = analysis.min_temp_asymptotic(cfg)
        payload["t_min_asymptotic_k"] = round12(internal_to_kelvin(asymptotic))
        payload["relative_gap"] = round12(abs(exact - asymptotic)
                                          / max(exact, 1e-300))
    if exact > 0:
        root = analysis._bracketed_root(exact, current)
        # _bracketed_root raises unless the current is negative at exact/10
        # and positive at 10 exact, so the signs are known once it returns
        payload["bracket_check"] = {
            "j_sign_below": -1,
            "j_sign_above": 1,
            "bisect_root_k": round12(internal_to_kelvin(root)),
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
                     f"/{bc['j_sign_above']}; root finder agrees to "
                     f"{bc['bisect_rel_difference']:.3g}")
    return payload, lines


def cmd_compare(doc: dict, args):
    from . import analysis
    cfg = _atom(doc)
    comp = doc["compare"]
    rabi = (_internal(doc, "compare", "rabi_thz", thz_to_internal)
            if "rabi_thz" in comp else cfg.rabi)
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
    from . import cell as cellmod
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
    from . import cell as cellmod
    cfg = _atom(doc)
    cell = _cell(doc)
    sc = doc["scan"]
    t_cold = _temperature("cold_bath", doc) if "cold_bath" in doc else 0.0

    dataset = None
    if "dataset_csv" in sc:
        dataset = cellmod.load_absorption_csv(
            _resolve_path(sc["dataset_csv"], args.config))

    if "g0_thz" in doc["hot_bath"]:
        g0 = _internal(doc, "hot_bath", "g0_thz", thz_to_internal)
    elif dataset is not None:
        g0 = cellmod.calibrate_g0(dataset, cfg, cell).g0
    else:
        raise ConfigError("scan needs hot_bath.g0_thz or a dataset to "
                          "calibrate from")

    lo, hi, step = sc["delta_min_thz"], sc["delta_max_thz"], sc["delta_step_thz"]
    span = (hi - lo) / step
    if not span < MAX_SCAN_ROWS - 0.5:
        raise ConfigError(f"scan grid has more than {MAX_SCAN_ROWS} rows")
    n = int(math.floor(max(span, -1.0) + 0.5)) + 1   # none if hi < lo
    deltas = (lo + k * step for k in range(n) if lo + k * step <= hi + step * 1e-9)
    return (cellmod.scan_rows(cell, cfg, g0, deltas, dataset=dataset,
                              t_cold=t_cold),
            cellmod.scan_metadata(cell, g0, dataset=dataset, t_cold=t_cold))


def _human(v) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def _utc_timestamp(ns: int) -> str:
    """The UTC time ``ns`` nanoseconds after the epoch, as
    ``datetime.now(timezone.utc).isoformat()`` writes it: to the whole
    microsecond below, with no fraction when that is zero."""
    seconds, ns = divmod(ns, 10**9)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    micros = ns // 1000
    return f"{stamp}.{micros:06d}+00:00" if micros else f"{stamp}+00:00"


def _emit(result, args) -> None:
    payload, lines = result
    require_finite(payload)
    if not args.no_metadata:
        payload = dict(payload)
        payload["metadata"] = {
            "generated_at": _utc_timestamp(time.time_ns()),
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


def _scan_paths(out: str) -> tuple[Path, Path]:
    """PATH.csv and PATH.json for ``--out PATH``; a ``.csv`` or ``.json``
    suffix of PATH is dropped first, any other suffix is kept."""
    base = Path(out or "scan_result")   # an empty --out is no --out
    if base.suffix in (".csv", ".json"):
        base = base.with_suffix("")
    return Path(f"{base}.csv"), Path(f"{base}.json")


def _emit_scan(result, args) -> None:
    """Stream the scan's rows, as they are computed, to the two files of
    _scan_paths."""
    from . import cell as cellmod
    rows, metadata = result
    if args.no_metadata:
        metadata = None
    else:
        metadata = {**metadata, "generated_at": _utc_timestamp(time.time_ns())}
    csv_path, json_path = _scan_paths(args.out)
    cellmod.write_scan(rows, csv_path, json_path, metadata)
    sys.stdout.write(f"wrote {csv_path} and {json_path}\n")


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


_FORMATS = ("csv", "json", "table")
# each option -> its word in the usage line.  --no-metadata is the one
# flag, --set gathers every value, and each other option keeps its last
# value in the attribute of its name
_OPTIONS = {
    "--config": "--config PATH",
    "--set": "[--set K=V]...",
    "--out": "[--out PATH]",
    "--no-metadata": "[--no-metadata]",
    "--format": "[--format {" + ",".join(_FORMATS) + "}]",
}
_HELP = ("-h", "--help")


class _UsageError(Exception):
    """A malformed command line, worded as one line naming the argument."""


def _options(command: str) -> tuple:
    """The options ``command`` takes: --format on the point commands only."""
    return tuple(o for o in _OPTIONS if o != "--format" or command != "scan")


def _usage(command: str) -> str:
    return " ".join(["usage: licore", command,
                     *(_OPTIONS[o] for o in _options(command))])


def _is_value(token: str) -> bool:
    """Whether ``token`` may be an option's value, as argparse reads it:
    it does not start with "-", or is "-" or a negative number."""
    return (not token.startswith("-") or token == "-"
            or re.fullmatch(r"-\d+|-\d*\.\d+", token) is not None)


def _parse_argv(argv):
    """The command and its options read from ``argv``, as attributes of a
    namespace; None where argv asks for help, which is then printed.
    Raises _UsageError at the first argument it cannot read."""
    names = list(_commands())
    expected = f"expected one of {', '.join(names)}"
    if not argv:
        raise _UsageError(f"no command given; {expected}")
    command, *rest = argv
    if command in _HELP:
        print("\n".join(map(_usage, names)))
        return None
    if not _is_value(command):
        raise _UsageError(f"{command!r} comes before the command; {expected}")
    if command not in names:
        raise _UsageError(f"{command!r} is not a command; {expected}")
    args = types.SimpleNamespace(
        command=command, config=None, set=[], no_metadata=False,
        out="scan_result" if command == "scan" else None, format="json")
    options = _options(command)
    tokens = iter(rest)
    for token in tokens:
        if token in _HELP:
            print(_usage(command))
            return None
        option, eq, value = token.partition("=")
        if option not in options:
            raise _UsageError(f"{command} does not take {token!r}")
        if option == "--no-metadata":
            if eq:
                raise _UsageError(f"{option} takes no value, got {token!r}")
            args.no_metadata = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or not _is_value(value):
                raise _UsageError(f"{option} expects a value")
        if option == "--set":
            args.set.append(value)
        elif option == "--format" and value not in _FORMATS:
            raise _UsageError(f"--format expects one of {', '.join(_FORMATS)}, "
                              f"not {value!r}")
        else:
            setattr(args, option[2:], value)
    if args.config is None:
        raise _UsageError(f"{command} needs --config PATH")
    return args


def _check_out(args) -> None:
    """Raise, before any work, the error that writing ``--out`` would
    raise: the path, or a file the command writes (both of a scan's), is
    a directory, or the first file written has no directory to go in."""
    out = Path(args.out)
    scan_files = _scan_paths(args.out) if args.command == "scan" else ()
    for path in (out, *scan_files):
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                    str(path))
    first = scan_files[0] if scan_files else out
    if not first.parent.is_dir():
        try:
            os.stat(first.parent)
            code = errno.ENOTDIR    # the parent is a file
        except OSError as exc:
            code = exc.errno        # the parent is missing, or under a file
        raise OSError(code, os.strerror(code), str(first))


def main(argv=None) -> int:
    """Run one command on ``argv`` (sys.argv[1:] by default) and return its
    exit code.  ``-h`` or ``--help`` prints one usage line per command and
    returns 0; a malformed argv prints one line naming the bad argument and
    returns 2, before any file is read or written."""
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    if args is None:
        return 0
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
            if args.out:
                _check_out(args)
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
