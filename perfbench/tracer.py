"""Span tracer that wraps licore's functions from outside the package.

Every module-level function of a layer module that is public, or that
another licore module imports, is replaced by a timing wrapper at every
module that binds it (so ``licore.floquet.solve_pipeline`` and
``licore.cell.solve_pipeline`` are both wrapped).  The spectrum ``value``
methods and ``AtomDriveConfig.attenuated`` are wrapped on their classes.

Each call records its duration and its self time (duration minus the time
its wrapped children cover), aggregated per (phase, span name).  Spans of
the coarse layers are also kept in memory, one operation id per benchmark
operation, and written out at the end; the high-frequency leaves
(spectra, config, rate_model) are counted and timed but not stored.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from time import perf_counter

import licore

LAYER_MODULES = ("floquet", "rate_model", "analysis", "cell", "spectra")
CLI_FUNCTIONS = {"main": "cli.main", "load_config": "cli.load_config",
                 "_emit": "cli.emit", "_emit_scan": "cli.emit"}
# counted and timed, but too frequent to keep every span in memory
UNSTORED_LAYERS = ("spectra", "config", "rate_model")
MAX_SPANS = 200_000


def _targets(modules: dict) -> dict:
    """Map each function object to wrap onto its span name."""
    imported_elsewhere = {id(obj) for mod in modules.values()
                          for obj in vars(mod).values()
                          if inspect.isfunction(obj) and obj.__module__ != mod.__name__}
    targets = {}
    for layer in LAYER_MODULES:
        mod = modules[layer]
        for name, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if name.startswith("_") and id(obj) not in imported_elsewhere:
                continue
            targets[obj] = f"{layer}.{name}"
    cli = modules["cli"]
    for name, obj in vars(cli).items():
        if inspect.isfunction(obj) and obj.__module__ == cli.__name__:
            if name in CLI_FUNCTIONS:
                targets[obj] = CLI_FUNCTIONS[name]
            elif name.startswith("cmd_"):
                targets[obj] = "cli.cmd"
    return targets


def _method_targets(modules: dict) -> list:
    """(class, attribute, span name) for the wrapped methods."""
    spectra = modules["spectra"]
    out = [(modules["config"].AtomDriveConfig, "attenuated",
            "config.attenuated")]
    for obj in vars(spectra).values():
        if (inspect.isclass(obj) and obj.__module__ == spectra.__name__
                and "value" in vars(obj) and not inspect.isabstract(obj)):
            out.append((obj, "value", "spectra.value"))
    return out


class Tracer:
    """Aggregated self times plus stored spans; install() patches licore."""

    def __init__(self):
        self.phase = "setup"
        self.op = 0
        # (phase, span name) -> [calls, total seconds, self seconds, errors]
        self.stats: dict = {}
        # (op id, span id, parent span id or 0, name, start, end)
        self.spans: list = []
        self.spans_dropped = 0
        self._stack: list = []      # [span id, seconds covered by children]
        self._next_id = 0
        self._patches = None

    def begin(self, phase: str, op: int) -> None:
        self.phase, self.op = phase, op

    def _wrap(self, fn, name: str):
        stack, stats, spans = self._stack, self.stats, self.spans
        store = not name.startswith(UNSTORED_LAYERS)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            failed = 0
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                key = (self.phase, name)
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                rec[3] += failed
                if store:
                    if len(spans) < MAX_SPANS:
                        spans.append((self.op, span_id, parent, name, start, end))
                    else:
                        self.spans_dropped += 1

        return wrapper

    def _plan(self) -> list:
        """(owner, attribute, original, wrapper) for every site to patch."""
        modules = {info.name: importlib.import_module(f"licore.{info.name}")
                   for info in pkgutil.iter_modules(licore.__path__)}
        plan = []
        for fn, name in _targets(modules).items():
            wrapper = self._wrap(fn, name)
            for mod in modules.values():
                for attr, obj in vars(mod).items():
                    if obj is fn:
                        plan.append((mod, attr, fn, wrapper))
        for cls, attr, name in _method_targets(modules):
            fn = vars(cls)[attr]
            plan.append((cls, attr, fn, self._wrap(fn, name)))
        return plan

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches or ():
            setattr(owner, attr, original)

    def merge(self, doc: dict) -> None:
        """Add the stats and spans a traced subprocess wrote with dump()."""
        for phase, name, calls, total, busy, errors in doc["stats"]:
            rec = self.stats.setdefault((phase, name), [0, 0.0, 0.0, 0])
            rec[0] += calls
            rec[1] += total
            rec[2] += busy
            rec[3] += errors
        room = MAX_SPANS - len(self.spans)
        self.spans.extend(tuple(s) for s in doc["spans"][:max(room, 0)])
        self.spans_dropped += doc["spans_dropped"] + max(len(doc["spans"]) - room, 0)

    def to_doc(self) -> dict:
        return {
            "stats": [[phase, name, *rec] for (phase, name), rec
                      in sorted(self.stats.items())],
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_doc(), fh)

    def total(self, prefix: str, field: int, phases=None) -> float:
        """Sum of one stats field (0 calls, 1 total s, 2 self s, 3 errors)
        over the span named ``prefix`` or, for a layer, every span in it."""
        out = 0
        for (phase, name), rec in self.stats.items():
            if phases is not None and phase not in phases:
                continue
            if name == prefix or name.startswith(prefix + "."):
                out += rec[field]
        return out
