"""Self-tests of the benchmark: its contract, its known answers and its tracer.

Run from the root of the repository (about three minutes; every workload is
traced twice):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from cosym3 import cellular  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
PREDICTION = re.compile(r"([A-Za-z]\w*(?:\.\w+)+)=(\d+)")


def test_benchmark_json_contract():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]
    assert 1 <= BENCH["run_seconds"] <= 60
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in BENCH[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_fixed_dimensions_are_independent_known_answers():
    paper = workloads.twist_key(cellular.unit_translation_twist())
    assert workloads.fixed_dimensions(paper) == (1, 0, 4, 0, 1)
    assert workloads.convolve((1, 0, 4, 0, 1)) == (1, 3, 7, 13, 13, 7, 3, 1)
    identity = workloads.twist_key(cellular.TwistMap(((1, 1), (2, 1), (3, 1), (4, 1))))
    assert workloads.convolve(workloads.fixed_dimensions(identity)) == (1, 7, 21, 35, 35, 21, 7, 1)
    # -id fixes exactly the even exterior powers.
    minus = workloads.twist_key(cellular.TwistMap(((1, -1), (2, -1), (3, -1), (4, -1))))
    assert workloads.fixed_dimensions(minus) == (1, 0, 6, 0, 1)
    assert len({workloads.twist_key(t) for t in workloads.all_twists()}) == 384


def test_seed_orders_inputs_only():
    a = [u.key for u in workloads.make_units("twists-b4", 1)]
    b = [u.key for u in workloads.make_units("twists-b4", 2)]
    assert a != b and sorted(a) == sorted(b)
    assert a == [u.key for u in workloads.make_units("twists-b4", 1)]
    faults = [u.key for u in workloads.make_units("faults-n1", 1)]
    assert len(faults) == 28 and sum(k.startswith("phi") for k in faults) == 18


def _traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        run.worker_cmd("--workload", workload, "--seed", str(seed), "--seconds", "1",
                       "--trace", "1"),
        env=run.child_env(), stdout=subprocess.PIPE, text=True, check=True, timeout=170,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_runs() -> dict[str, tuple[dict, dict]]:
    return {w: (_traced(w, 1), _traced(w, 2)) for w in run.WORKLOADS}


def test_bypass_predictions_hold_as_exact_counts(traced_runs):
    for w in BENCH["workloads"]:
        predictions = PREDICTION.findall(w["why"])
        assert predictions, w["name"]
        layers = traced_runs[w["name"]][0]["trace"]["layers"]
        for name, value in predictions:
            assert layers[name] == int(value), (w["name"], name)


def test_two_traced_runs_give_identical_counts(traced_runs):
    for first, second in traced_runs.values():
        a, b = first["trace"]["layers"], second["trace"]["layers"]
        counted = [
            k for k in a
            if k.endswith((".calls", ".columns", ".count")) or k == "operators.nonzeros"
        ]
        assert counted
        assert {k: a[k] for k in counted} == {k: b[k] for k in counted}


def test_traced_and_untraced_verdicts_agree(traced_runs):
    for first, second in traced_runs.values():
        for measured in (first, second):
            assert measured["failed"] == 0, measured["failures"]
            assert measured["trace"]["fingerprints_agree"]
            assert measured["trace"]["deterministic"]


def test_every_layer_metric_is_nonzero_on_some_workload(traced_runs):
    for metric in BENCH["per_layer"]:
        values = [runs[0]["trace"]["layers"][metric["name"]] for runs in traced_runs.values()]
        assert any(values), metric["name"]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_every_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "faults-n1", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=180,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    # A traced run checks the verdicts of an untraced and a traced pass.
    assert out["correct"] and out["failed"] == 0 and out["attempted"] == 28 * (1 + trace)
    assert set(out["metrics"]) == {m["name"] for m in BENCH[section]}
    units = {m["name"]: m["unit"] for m in BENCH[section]}
    assert all(m["unit"] == units[name] for name, m in out["metrics"].items())
    if trace == 0:
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [*BENCH["command"], "--workload", "twists-b4", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
