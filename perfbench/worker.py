"""Runs one workload in a fresh process and prints its measurements as JSON.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and ``COSYM3_THREADS``
removed.  The workload is repeated in whole passes until at least
``--seconds`` have gone by.  Only the calls into cosym3 are timed; verdicts are
checked after each pass.

Untraced passes are timed against the speed loop of ``speed.py`` and reported
at its reference speed.  With ``--trace 1`` untraced and traced passes
alternate, both timed raw, and the per-layer numbers come from the traced
ones.  ``--setup-only`` stops after the imports
and input generation, for timing set-up in a fresh process.
``--record-fingerprints`` writes the fingerprint of every verdict of every
workload, over all inputs, to ``fingerprints.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from speed import SpeedProbe
from workloads import WORKLOADS, make_units, verdicts, verdicts_per_unit

HERE = Path(__file__).resolve().parent
FINGERPRINTS = HERE / "fingerprints.json"
TRACE_DIR = HERE / "out"
CHECK_SHOWN = 10


def run_pass(units, probe=None, tracer=None):
    """One pass over the units.

    Returns the results and each unit's latency, raw and at the reference
    speed; the time spent timing the speed loop is left out of both.
    """
    results, marks = [], []
    clock = time.perf_counter
    root = tracer.open("bench.pass") if tracer else None
    for unit in units:
        span = tracer.open("bench.unit") if tracer else None
        spent = probe.spent if probe else 0.0
        t0 = clock()
        try:
            result = unit.call()
        except Exception as err:  # a raising unit fails its verdicts
            result = err
        t1 = clock()
        if tracer:
            tracer.close(span)
        results.append(result)
        marks.append((t0, t1, t1 - t0 - ((probe.spent if probe else 0.0) - spent)))
    if tracer:
        tracer.close(root)
    raw = [m[2] for m in marks]
    scaled = [r * probe.scale(t0, t1) for (t0, t1, r) in marks] if probe else raw
    return results, scaled, raw


class Checker:
    """Counts verdicts and why they failed: known answer, fingerprint, torsion."""

    def __init__(self, workload: str, reference: dict):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []

    def check(self, units, results) -> dict[str, str]:
        prints = {}
        for unit, result in zip(units, results):
            if isinstance(result, Exception):
                self._fail(unit.key, ["raised " + type(result).__name__ + ": " + str(result)],
                           verdicts_per_unit(self.workload))
                continue
            for v in verdicts(self.workload, unit, result):
                reasons = []
                if not v.known_ok:
                    reasons.append("disagrees with known answer")
                if self.reference[self.workload].get(v.key) != v.fingerprint:
                    reasons.append("differs from recorded fingerprint")
                if v.torsion is not None and (
                    self.reference[self.workload + ".torsion"].get(v.key) != v.torsion
                ):
                    reasons.append("torsion differs from regression reference")
                prints[v.key] = v.fingerprint
                if reasons:
                    self._fail(v.key, reasons, 1)
                else:
                    self.attempted += 1
        return prints

    def _fail(self, key: str, reasons: list[str], count: int) -> None:
        self.attempted += count
        self.failed += count
        if len(self.failures) < CHECK_SHOWN:
            self.failures.append({"verdict": key, "reasons": reasons})


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    units = make_units(workload, seed)
    checker = Checker(workload, json.loads(FINGERPRINTS.read_text()))
    passes, raw_passes, unit_latencies, loops = [], [], [], []
    maxrss_kb = None
    traced_walls, layer_runs, trace_prints, plain_prints = [], [], [], []
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.add(workloads, "dump_json", tracer.spanned(workloads.dump_json, "cli.json"))
    start = time.perf_counter()
    while True:
        if trace:
            # Raw times on both sides: the speed probe would land inside spans.
            results, _, raw = run_pass(units)
        else:
            with SpeedProbe() as probe:
                results, latencies, raw = run_pass(units, probe)
            passes.append(sum(latencies))
            unit_latencies.extend(latencies)
            loops.append(statistics.median(probe.loops))
        raw_passes.append(sum(raw))
        # Peak memory of one pass, before later passes add allocator noise.
        maxrss_kb = maxrss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        plain_prints.append(checker.check(units, results))
        if trace:
            tracer.install()
            try:
                mark = tracer.mark()
                results, _, raw = run_pass(units, tracer=tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(sum(raw))
            layer_runs.append(tracer.summarize(mark))
            trace_prints.append(checker.check(units, results))
        if time.perf_counter() - start >= seconds:
            break
    out = {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "passes": passes,
        "raw_passes": raw_passes,
        "unit_latencies": unit_latencies,
        "loop_s": statistics.median(loops) if loops else None,
        "units_per_pass": len(units),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures,
        "maxrss_kb": maxrss_kb,
    }
    if trace:
        path = TRACE_DIR / f"spans-{workload}-seed{seed}.txt"
        tracer.write(path, {k: out[k] for k in ("workload", "seed", "python", "nproc", "cpus")})
        out["trace"] = {
            "layers": layer_metrics(tracer.names, layer_runs, traced_walls, raw_passes),
            "deterministic": all(_counts(r) == _counts(layer_runs[0]) for r in layer_runs),
            "fingerprints_agree": all(p == plain_prints[0] for p in trace_prints + plain_prints),
            "spans": len(tracer.span_name),
            "spans_file": str(path.relative_to(HERE.parent)),
        }
    return out


def _counts(run: dict) -> dict:
    """The parts of a traced pass that must repeat exactly."""
    return {"calls": run["calls"], "counters": run["counters"]}


def layer_metrics(
    names: list[str], runs: list[dict], traced: list[float], untraced: list[float]
) -> dict:
    """Per-layer metrics of one traced pass: counts from the first, times as medians.

    ``names`` holds every span name the tracer registered, so a function that
    a workload never calls still reports zero calls.
    """
    first = runs[0]
    out: dict[str, float] = {}
    for name in sorted(names):
        out[f"{name}.calls"] = first["calls"].get(name, 0)
        out[f"{name}.self_s"] = statistics.median(r["self_ns"].get(name, 0) for r in runs) / 1e9
    c = first["counters"]
    out["exterior.Multivector.count"] = c.get("exterior.Multivector.count", 0)
    out["operators.GradedOperator.from_function.columns"] = c.get(
        "operators.GradedOperator.from_function.columns", 0
    )
    out["operators.nonzeros"] = c.get("operators.nonzeros", 0)
    columns = c.get("operators.columns", 0)
    out["operators.zero_column_ratio"] = c.get("operators.zero_columns", 0) / columns if columns else 0.0
    cells = c.get("linalg.solve_in_span.cells", 0)
    out["linalg.solve_in_span.density"] = c.get("linalg.solve_in_span.nonzeros", 0) / cells if cells else 0.0
    out["trace_overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    return out


def record_fingerprints() -> None:
    """Fingerprint every verdict of every workload over all of its inputs."""
    table: dict[str, dict[str, str]] = {}
    for workload in WORKLOADS:
        units = make_units(workload, 0)
        results, _, _ = run_pass(units)
        table[workload] = {}
        for unit, result in zip(units, results):
            if isinstance(result, Exception):
                raise result
            for v in verdicts(workload, unit, result):
                if not v.known_ok:
                    raise SystemExit(f"{workload}: {v.key} disagrees with its known answer")
                table[workload][v.key] = v.fingerprint
                if v.torsion is not None:
                    table.setdefault(workload + ".torsion", {})[v.key] = v.torsion
    FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-fingerprints", action="store_true")
    args = parser.parse_args(argv)
    if args.record_fingerprints:
        record_fingerprints()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        make_units(args.workload, args.seed)
        return 0
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
