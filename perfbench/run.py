"""cosym3 benchmark: time to the same verdicts on four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload twists-b4 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

The loop is closed: one process, one caller, no threads.  Each workload runs
in a fresh worker process (``worker.py``) with ``src`` on ``PYTHONPATH`` and
``COSYM3_THREADS`` removed, so set-up time and peak memory are per workload.
Set-up time is the median over several fresh processes that start the
interpreter, import cosym3 and generate the inputs.  All of them run pinned
to one core, and times are reported at the reference speed of ``speed.py``.

With ``--trace 0`` the result carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics, from spans
recorded around every public cosym3 function.  ``--workload all`` runs every
workload untraced and also prints ``mismatch_ratio``.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_LOOP_S, loop_time, pin_to_one_cpu, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("identities-n2", "so41-n2", "twists-b4", "faults-n1")
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "COSYM3_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return env


def worker_cmd(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), *args]


def time_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall time of fresh processes that only import cosym3 and make inputs.

    Returns the times at the reference speed and raw.  One untimed probe
    comes first, so that compiling the bytecode is not counted.
    """
    cmd = worker_cmd("--setup-only", "--workload", workload, "--seed", str(seed))
    scaled, raw = [], []
    for i in range(SETUP_PROBES + 1):
        loops = [loop_time() for _ in range(3)]
        t0 = time.perf_counter()
        # No timeout: waiting with one polls the child every 50 ms.
        subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL, check=True)
        wall = time.perf_counter() - t0
        loops += [loop_time() for _ in range(3)]
        if i:
            raw.append(wall)
            scaled.append(wall * scale(loops))
    return scaled, raw


def run_worker(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    cmd = worker_cmd(
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    )
    proc = subprocess.run(
        cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(measured: dict, setup: list[float]) -> dict[str, float]:
    latencies = measured["unit_latencies"]
    return {
        "wall_s": statistics.median(measured["passes"]),
        "unit_p50_ms": statistics.median(latencies) * 1e3,
        "unit_p95_ms": percentile(latencies, 0.95) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": measured["maxrss_kb"] / 1024,
    }


def describe(measured: dict) -> list[str]:
    lines = [
        f"# workload {measured['workload']}  seed {measured['seed']}  "
        f"python {measured['python']}  nproc {measured['nproc']}  cpus {measured['cpus']}  "
        f"passes {len(measured['raw_passes'])} x {measured['units_per_pass']} units  "
        f"unit samples {len(measured['unit_latencies'])}"
    ]
    if measured["loop_s"]:
        lines.append(
            f"# speed loop {measured['loop_s'] * 1e3:.3f} ms (reference "
            f"{REFERENCE_LOOP_S * 1e3:g} ms); raw pass walls "
            + ", ".join(f"{w:.3f}" for w in measured["raw_passes"])
            + f" s; raw setup median {statistics.median(measured['raw_setup']):.4f} s "
            f"over {len(measured['raw_setup'])} probes"
        )
    lines.append(
        f"# mismatch_ratio {measured['failed']}/{measured['attempted']} verdicts "
        "(known answers, recorded fingerprints; torsion as regression reference)"
    )
    for failure in measured["failures"]:
        lines.append(f"#   FAIL {failure['verdict']}: {'; '.join(failure['reasons'])}")
    trace = measured.get("trace")
    if trace:
        lines.append(
            f"# traced: {trace['spans']} spans in {trace['spans_file']}; "
            f"counts repeat {trace['deterministic']}; "
            f"traced and untraced fingerprints agree {trace['fingerprints_agree']}"
        )
    return lines


def result(spec: list[dict], values: dict[str, float], measured: dict) -> dict:
    correct = measured["failed"] == 0
    trace = measured.get("trace")
    if trace:
        correct = correct and trace["deterministic"] and trace["fingerprints_agree"]
    metrics = {}
    for metric in spec:
        if metric["name"] not in values:
            raise BenchError(f"no measurement for metric {metric['name']}")
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    return {
        "correct": correct,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }


def run_one(bench: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    if trace:
        measured = run_worker(workload, seed, seconds, 1, deadline)
        out = result(bench["per_layer"], measured["trace"]["layers"], measured)
    else:
        setup, raw_setup = time_setup(workload, seed)
        measured = run_worker(workload, seed, seconds, 0, deadline)
        measured["raw_setup"] = raw_setup
        out = result(bench["end_to_end"], end_to_end(measured, setup), measured)
    for line in describe(measured):
        print(line)
    for name, metric in out["metrics"].items():
        print(f"#   {name:48s} {metric['value']:.6g} {metric['unit']}")
    return out


def run_all(bench: dict, seed: int, seconds: int) -> dict:
    """Every workload untraced; metrics named ``<workload>.<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out = run_one(bench, workload, seed, seconds, 0)
        combined["correct"] &= out["correct"]
        combined["attempted"] += out["attempted"]
        combined["failed"] += out["failed"]
        metrics = dict(out["metrics"])
        metrics["mismatch_ratio"] = {"value": out["failed"] / out["attempted"], "unit": "ratio"}
        for name, metric in metrics.items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(f"# {'workload':14s}" + "".join(f"{m['name']:>14s}" for m in bench["end_to_end"])
          + f"{'mismatch_ratio':>16s}")
    for workload in WORKLOADS:
        row = [combined["metrics"][f"{workload}.{m['name']}"] for m in bench["end_to_end"]]
        ratio = combined["metrics"][f"{workload}.mismatch_ratio"]["value"]
        print(f"# {workload:14s}" + "".join(f"{r['value']:>10.5g} {r['unit']:3s}" for r in row)
              + f"{ratio:>16.4g}")
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cosym3 benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "cosym3" / "__init__.py").is_file():
        print(f"error: no cosym3 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    pin_to_one_cpu()
    try:
        if args.workload == "all":
            out = run_all(bench, args.seed, args.seconds)
        else:
            out = run_one(bench, args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.SubprocessError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
