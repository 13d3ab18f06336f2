#!/usr/bin/env python3
"""licore benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload exact-drive --seed 1 --seconds 30 --trace 0

Run from the root of a licore checkout; the package is imported from
``src/``.  There are five phases: CLI invocations, exact-solver points,
strong-drive scan rows, all-row calibrations and blocks of the weak-drive
scan.
Each workload names the phases it is about.  ``--trace 0`` runs those
phases for ``--seconds`` and every other phase for a fixed number of probe
chunks spread over the run, so every end-to-end metric is measured on
every workload, and prints the end-to-end metrics, each chunk's time
scaled by the host's speed at that moment (see reference_seconds).
``--trace 1`` runs whole rounds of a fixed basket of the workload's own operations, each once
untraced and once with licore's functions wrapped, and prints the
per-layer metrics per round and the tracing overhead.  The last line of
standard output is the result; the line before it carries the machine,
the sample counts and any failure messages.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"
SETUP_REPEATS = 7
JOBS2_REPEATS = 3

PHASES = ("cli", "exact", "strong_scan", "calibrate", "weak_scan")
# the phases each workload is about
WORKLOAD_PHASES = {
    # start-up dominates: imports and jsonschema, trivial numerics
    "cli-cold": ("cli",),
    # floquet and the cell quadrature around it, no calibration
    "exact-drive": ("exact", "strong_scan"),
    # rate_model, the quad integrand and the brentq/least_squares loops
    "weak-cell": ("calibrate", "weak_scan"),
}
# chunks per input that every phase runs, own or not, also when --seconds
# is short.  A chunk is one operation on one input: a command of the CLI
# mix, an exact point, a strong-scan row, a calibration dataset, or a block
# of the weak scan.  CLI mixes have two to six commands; each gets enough
# probes for CLI_PROBES invocations in all
CLI_PROBES = 12
PROBES_PER_INPUT = {"exact": 8, "strong_scan": 6, "calibrate": 10,
                    "weak_scan": 12}

# The host's speed swings by up to 1.8x, from one second to the next and
# from minute to minute, in CPU time as much as in wall time, and each CPU
# on its own.  This fixed computation, small numpy solves like licore's
# own, is timed after every chunk on the same CPU, and each chunk's time is
# scaled to a host on which the reference takes REFERENCE_NOMINAL_S (about
# the fast state of the 2-vCPU x86_64 host the benchmark was tuned on).
REFERENCE_SOLVES = 60
REFERENCE_NOMINAL_S = 3e-4
_REF_MATRIX = np.eye(6) * 6.0 + np.random.default_rng(0).random((6, 6))
_REF_RHS = np.ones(6)
# A fresh interpreter runs for about a second, over which the host's speed
# may switch, so the reference at its two ends tells only part of it.  On
# the tuning host, CLI times read while the reference was slow came out 15-
# 25% below those read while it was fast when scaled by the full ratio, 0-
# 12% above with its square root, and within 6% either way with the ratio
# to the power 0.6; the fitted slope of log time on log reference was
# 0.4-0.6.  Subprocess timings use that power.
SUBPROCESS_EXPONENT = 0.6


def reference_seconds() -> float:
    t0 = perf_counter()
    for _ in range(REFERENCE_SOLVES):
        np.linalg.solve(_REF_MATRIX, _REF_RHS)
    return perf_counter() - t0


def host_scale(host: float, exponent: float = 1.0) -> float:
    """Factor from a time taken when the reference took ``host`` seconds
    to the time on the nominal host."""
    return (REFERENCE_NOMINAL_S / host) ** exponent


END_TO_END_UNITS = {
    "setup_s": "s", "cli_p50_s": "s",
    "exact_points_per_s": "1/s", "strong_scan_rows_per_s": "1/s",
    "calibrate_s": "s", "weak_scan_rows_per_s": "1/s",
    "success_ratio": "ratio", "peak_rss_mb": "MB",
}


class PhaseLog:
    """Timed chunks of one phase: (seconds, units of work, input key, host
    seconds) each, where host seconds is what the reference computation
    took around the chunk."""

    def __init__(self, exponent: float = 1.0):
        self.chunks: list = []
        self.attempted = 0
        self.failed = 0
        self.exponent = exponent      # see host_scale

    @property
    def seconds(self) -> float:
        return sum(c[0] for c in self.chunks)

    @property
    def units(self) -> int:
        return sum(c[1] for c in self.chunks)

    def typical(self):
        """Seconds per unit on the nominal host: each chunk's time scaled by
        host_scale, the median taken per input and averaged over the
        inputs; None when no chunk completed any work."""
        by_key = {}
        for t, u, key, host in self.chunks:
            if u:
                by_key.setdefault(key, []).append(
                    t / u * host_scale(host, self.exponent))
        if not by_key:
            return None
        return statistics.fmean(statistics.median(v) for v in by_key.values())

    def summary(self) -> dict:
        per_unit = sorted(c[0] / c[1] for c in self.chunks if c[1])
        if not per_unit:
            return {"chunks": len(self.chunks)}
        return {"chunks": len(self.chunks), "best_s_per_unit": per_unit[0],
                "p50_s_per_unit": statistics.median(per_unit),
                "p90_s_per_unit": per_unit[math.ceil(0.9 * len(per_unit)) - 1]}


class Run:
    def __init__(self, args, workdir: Path, cpus: set):
        import phases
        self.phases = phases
        self.args = args
        self.own = WORKLOAD_PHASES[args.workload]
        self.workdir = workdir
        self.env = phases.cli_env(ROOT)
        self.tracer = None
        self.next_op = 0
        self.failures: list = []
        self.extra: dict = {}
        self.inputs = None
        self.untimed = PhaseLog()     # warm-up and the jobs pair
        self.cpus = cpus              # for the jobs pair; the rest uses one
        self.host_samples: list = []  # every reference_seconds() of the run

    def host_probe(self) -> float:
        """Time the reference now; return the mean of this and the previous
        time, the host's speed just before and just after a chunk."""
        before = self.host_samples[-1] if self.host_samples else None
        self.host_samples.append(reference_seconds())
        after = self.host_samples[-1]
        return after if before is None else 0.5 * (before + after)

    # -- set-up --------------------------------------------------------------

    def setup(self) -> tuple:
        """Fresh-interpreter import plus input generation, repeated; returns
        ([(seconds, host seconds)] per repeat, import-time breakdowns)."""
        times, breakdowns = [], []
        argv = [sys.executable, *(["-X", "importtime"] if self.args.trace else []),
                "-c", "import licore.cli"]
        self.host_probe()
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            proc = subprocess.run(argv, env=self.env, capture_output=True,
                                  text=True, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"import licore.cli failed: {proc.stderr[-500:]}")
            self.inputs = self.phases.Inputs(self.args.workload, self.args.seed,
                                             self.workdir)
            times.append((perf_counter() - t0, self.host_probe()))
            if self.args.trace:
                breakdowns.append(parse_importtime(proc.stderr))
        return times, breakdowns

    def warm_up(self) -> None:
        """Lazy set-up inside numpy/scipy, outside every timed phase, and
        the photon-budget count of the whole weak scan."""
        ph, inp = self.phases, self.inputs
        for op in (lambda: ph.exact_op(inp.exact_points[0]),
                   lambda: ph.calibrate_op(inp, 0),
                   lambda: ph.photon_budget_op(inp, self.extra),
                   lambda: ph.weak_scan_op(inp, 0, ph.weak_block(0))):
            self._attempt("warm_up", self.untimed, op)

    # -- inputs and operations -----------------------------------------------

    def inputs_of(self, phase: str) -> int:
        """Number of distinct inputs of a phase: the commands of the CLI mix,
        the exact points, the strong-scan rows, the calibration datasets, or
        the weak-scan blocks."""
        inp = self.inputs
        return {"cli": len({c for c, _ in inp.cli_calls}),
                "exact": len(inp.exact_points),
                "strong_scan": len(self.phases.STRONG_GRID_THZ),
                "calibrate": len(inp.calibrations),
                "weak_scan": self.phases.WEAK_BLOCKS}[phase]

    def probes(self, phase: str) -> int:
        """Probe chunks of a phase in every timed run, the same number for
        each of its inputs."""
        n = self.inputs_of(phase)
        if phase == "cli":
            return math.ceil(CLI_PROBES / n) * n
        return PROBES_PER_INPUT[phase] * n

    def covering_chunks(self, phase: str) -> list:
        """Chunk indices that cover each input of a phase once."""
        if phase != "cli":
            return list(range(self.inputs_of(phase)))
        first = {}
        for index, (command, _) in enumerate(self.inputs.cli_calls):
            first.setdefault(command, index)
        return list(first.values())

    def input_key(self, phase: str, index: int):
        if phase == "cli":
            calls = self.inputs.cli_calls
            return calls[index % len(calls)][0]
        return index % self.inputs_of(phase)

    def _op(self, phase: str, index: int, traced: bool) -> int:
        ph, inp = self.phases, self.inputs
        self.next_op += 1
        op = self.next_op
        if phase == "cli":
            call = inp.cli_calls[index % len(inp.cli_calls)]
            if not traced:
                return ph.cli_op(inp, call, op, self.env)
            out = self.workdir / f"trace_{op}.json"
            try:
                units = ph.cli_op(inp, call, op, self.env,
                                  launcher=HERE / "launch_cli.py", trace_out=out)
                self.tracer.merge(json.loads(out.read_text()))
            finally:
                out.unlink(missing_ok=True)
            return units
        if traced:
            self.tracer.begin(phase, op)
        if phase == "exact":
            return ph.exact_op(inp.exact_points[index % len(inp.exact_points)])
        if phase == "strong_scan":
            return ph.strong_scan_op(inp, index % len(ph.STRONG_GRID_THZ))
        if phase == "calibrate":
            return ph.calibrate_op(inp, index % len(inp.calibrations))
        return ph.weak_scan_op(inp, op, ph.weak_block(index % ph.WEAK_BLOCKS))

    def _attempt(self, phase: str, log: PhaseLog, op) -> int:
        """Run one operation; a failure is counted and never stops the run."""
        log.attempted += 1
        try:
            return op()
        except Exception as exc:
            log.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{phase}: {type(exc).__name__}: {exc}")
            return 0

    def chunk(self, phase: str, index: int, log: PhaseLog, traced: bool) -> float:
        """Run and time chunk ``index`` of a phase: one operation on input
        ``index`` (cycling over the inputs).  Returns its seconds."""
        if traced:
            self.tracer.install()
        t0 = perf_counter()
        try:
            units = self._attempt(phase, log,
                                  lambda: self._op(phase, index, traced))
        finally:
            seconds = perf_counter() - t0
            if traced:
                self.tracer.uninstall()
        host = self.host_probe()
        log.chunks.append((seconds, units, self.input_key(phase, index), host))
        return seconds

    # -- the two kinds of run ------------------------------------------------

    def run_timed(self) -> dict:
        """The workload's own phases for --seconds, the next chunk going to
        the one with the least time so far, so each gets an equal share;
        every phase also gets its probe chunks, due evenly over the run and
        finished after it."""
        logs = {p: PhaseLog(SUBPROCESS_EXPONENT if p == "cli" else 1.0)
                for p in PHASES}
        least = {p: self.probes(p) for p in PHASES}
        spent = dict.fromkeys(PHASES, 0.0)
        start = perf_counter()
        while True:
            done = min((perf_counter() - start) / self.args.seconds, 1.0)
            due = [p for p in PHASES if len(logs[p].chunks) < least[p] * done]
            if due:
                phase = min(due, key=lambda p: len(logs[p].chunks) / least[p])
            elif done < 1.0:
                phase = min(self.own, key=spent.get)
            else:
                break
            spent[phase] += self.chunk(phase, len(logs[phase].chunks),
                                       logs[phase], traced=False)
        return logs

    def run_traced(self) -> tuple:
        """Whole rounds of the basket (the covering chunks of every own
        phase, so each input once) until --seconds is up, at least one.
        Each chunk runs untraced and then traced.  Returns (untraced logs,
        traced logs, rounds)."""
        basket = [(p, i) for p in self.own for i in self.covering_chunks(p)]
        untraced = {p: PhaseLog() for p in PHASES}
        traced = {p: PhaseLog() for p in PHASES}
        rounds = 0
        start = perf_counter()
        while rounds == 0 or perf_counter() - start < self.args.seconds:
            for phase, index in basket:
                self.chunk(phase, index, untraced[phase], traced=False)
                self.chunk(phase, index, traced[phase], traced=True)
            rounds += 1
        return untraced, traced, rounds

    def jobs2_pair(self) -> dict:
        """The weak scan serial and with jobs=2, untraced, alternating."""
        serial, pooled = [], []
        os.sched_setaffinity(0, self.cpus)
        for _ in range(JOBS2_REPEATS):
            for jobs, sink in ((1, serial), (2, pooled)):
                t0 = perf_counter()
                self._attempt("jobs_pair", self.untimed,
                              lambda: self.phases.weak_scan(self.inputs,
                                                            jobs=jobs))
                sink.append(perf_counter() - t0)
        return {"serial": statistics.median(serial),
                "jobs2": statistics.median(pooled)}


def parse_importtime(stderr: str) -> dict:
    """Module name -> (self s, cumulative s) from ``python -X importtime``."""
    out = {}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)\s*$", line)
        if m:
            out[m.group(3)] = (int(m.group(1)) * 1e-6, int(m.group(2)) * 1e-6)
    return out


def import_metrics(breakdowns: list) -> dict:
    def med(fn):
        return statistics.median(fn(b) for b in breakdowns)

    def cum(name):
        return lambda b: b.get(name, (0.0, 0.0))[1]

    return {
        "import.licore_cli_s": med(cum("licore.cli")),
        "import.licore_units_s": med(cum("licore.units")),
        "import.scipy_s": med(lambda b: sum(v[0] for k, v in b.items()
                                            if k == "scipy" or k.startswith("scipy."))),
        "import.jsonschema_s": med(cum("jsonschema")),
        "import.scipy_constants_s": med(cum("scipy.constants")),
        "import.scipy_optimize_s": med(cum("scipy.optimize")),
        "import.scipy_integrate_s": med(cum("scipy.integrate")),
    }


def machine_info(cpus: set) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(cpus),
        "pinned_to_cpu": min(cpus),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "jsonschema": version("jsonschema"),
    }


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _inverse(x):
    return None if x is None else 1.0 / x


def end_to_end(logs: dict, setup: list, attempted: int, failed: int) -> dict:
    """Every timing is scaled to the nominal host (see PhaseLog.typical).
    A phase that completed no work reports null."""
    return {
        "setup_s": statistics.median(t * host_scale(host, SUBPROCESS_EXPONENT)
                                     for t, host in setup),
        "cli_p50_s": logs["cli"].typical(),
        "exact_points_per_s": _inverse(logs["exact"].typical()),
        "strong_scan_rows_per_s": _inverse(logs["strong_scan"].typical()),
        "calibrate_s": logs["calibrate"].typical(),
        "weak_scan_rows_per_s": _inverse(logs["weak_scan"].typical()),
        "success_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tr, imports: dict, rounds: int, traced: dict, untraced: dict,
              extra: dict) -> dict:
    """Per-layer metrics per round of the basket, plus the overhead."""
    def calls(name):
        return tr.total(name, 0) / rounds

    def busy(name):
        return tr.total(name, 2) / rounds

    def calls_per_row(name, phases, rows):
        return tr.total(name, 0, phases) / rows if rows else 0.0

    out = dict(imports)
    for layer in ("cli", "floquet", "rate_model", "spectra", "analysis", "cell"):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.busy_s"] = busy(layer)
        out[f"{layer}.errors"] = tr.total(layer, 3) / rounds
    out["cli.load_config.busy_s"] = busy("cli.load_config")
    out["cli.cmd.busy_s"] = busy("cli.cmd")
    out["cli.emit.busy_s"] = busy("cli.emit")
    for fn in ("build_liouvillian", "steady_state", "heat_currents",
               "solve_pipeline", "heat_current_exact"):
        out[f"floquet.{fn}.calls"] = calls(f"floquet.{fn}")
        out[f"floquet.{fn}.busy_s"] = busy(f"floquet.{fn}")
    strong_rows = traced["strong_scan"].units
    out["floquet.solves_per_strong_row"] = calls_per_row(
        "floquet.solve_pipeline", ("strong_scan",), strong_rows)
    out["spectra.value.calls"] = calls("spectra.value")
    out["config.attenuated.busy_s"] = busy("config.attenuated")
    out["cell.integrand_evals"] = calls("config.attenuated")
    out["cell.integrand_evals_per_row"] = calls_per_row(
        "config.attenuated", ("strong_scan", "weak_scan"),
        strong_rows + traced["weak_scan"].units)
    out["cell.calibrate_g0.busy_s"] = busy("cell.calibrate_g0")
    out["cell.detuning_scan.busy_s"] = busy("cell.detuning_scan")
    out["cell.serialize.busy_s"] = busy("cell.write_scan_csv") + busy("cell.scan_records")
    out["cell.detuning_scan_serial_s"] = extra["jobs_pair"]["serial"]
    out["cell.detuning_scan_jobs2_s"] = extra["jobs_pair"]["jobs2"]
    out["cell.photon_budget_violations"] = extra.get("photon_budget_violations", 0)
    out["analysis.min_temp_bisect.calls"] = calls("analysis.min_temp_bisect")
    out["analysis.min_temp_bisect.busy_s"] = busy("analysis.min_temp_bisect")
    # the same chunks traced and untraced, over the whole run
    plain = sum(log.seconds for log in untraced.values())
    out["trace.overhead_ratio"] = sum(log.seconds for log in traced.values()) / plain
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_PHASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "licore" / "__init__.py").is_file():
        print(f"no licore package under {ROOT / 'src'}; run from a licore "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    # each CPU of the host changes speed on its own, so the reference
    # measures the CPU a chunk ran on only if everything runs on one CPU;
    # CLI subprocesses inherit this
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        run = Run(args, workdir, cpus)
        setup, breakdowns = run.setup()
        run.warm_up()
        if args.trace:
            from tracer import Tracer
            run.tracer = Tracer()
            untraced, traced, rounds = run.run_traced()
            run.extra["jobs_pair"] = run.jobs2_pair()
            logs = [run.untimed, *untraced.values(), *traced.values()]
        else:
            untraced = run.run_timed()
            logs = [run.untimed, *untraced.values()]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    timings = {p: untraced[p].summary() for p in PHASES}
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(cpus),
        "timings": timings,
        "cli_p90_s_unscaled": timings["cli"].get("p90_s_per_unit"),
        "reference_s": dict(zip(("p05", "p50", "p95"), statistics.quantiles(
            run.host_samples, n=20)[::9])),
        "setup_log": setup,
        "chunk_log": {p: untraced[p].chunks for p in PHASES},
        "fail_ratio": failed / attempted, "failures": run.failures,
        "photon_budget_violations": run.extra.get("photon_budget_violations"),
        "photon_budget_rows": len(run.phases.WEAK_GRID_THZ),
    }
    if args.trace:
        values = per_layer(run.tracer, import_metrics(breakdowns), rounds,
                           traced, untraced, run.extra)
        units = {name: layer_unit(name) for name in values}
        spans_path = RUNS / f"spans-{args.workload}-seed{args.seed}.json"
        run.tracer.dump(spans_path)
        info["rounds"] = rounds
        info["spans"] = len(run.tracer.spans) + run.tracer.spans_dropped
        info["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        values = end_to_end(untraced, setup, attempted, failed)
        units = END_TO_END_UNITS
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (RUNS / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps({"info": info, "result": result}, indent=2))
    print(json.dumps({k: v for k, v in info.items()
                      if k not in ("chunk_log", "setup_log")}))
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_row"):
        return "1/row"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
