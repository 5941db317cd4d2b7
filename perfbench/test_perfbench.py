"""Smoke test of the benchmark harness on a tiny scenario.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from sensesec import channels, sca, solver  # noqa: E402

TINY = {"n_tx": 2, "n_rx": 1, "n_eve": 1, "n_users": 1,
        "sinr_targets": (10.0,), "rician_factors": (2.0,)}


def declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def attributes():
    owners = (channels, sca, solver, solver.BarrierProblem, solver._RealBlock)
    return {(owner.__name__, name): value
            for owner in owners for name, value in vars(owner).items()}


def check_result(result, section, attempted):
    assert result["correct"] is True
    assert result["attempted"] == attempted
    assert result["failed"] == 0
    units = declared(section)
    assert set(result["metrics"]) == set(units)
    for name, unit in units.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], (int, float))
    json.dumps(result, allow_nan=False)


def test_untraced_run_reports_end_to_end_metrics_and_patches_nothing():
    before = attributes()
    result, detail = run.measure(TINY, [1, 2], seed=3, trace=False)
    after = attributes()
    assert all(after[key] is value for key, value in before.items())
    check_result(result, "end_to_end", attempted=2)
    assert result["metrics"]["newton_steps"]["value"] > 0
    assert detail["env"]["blas_threads"]
    assert [row["channel_seed"] for row in detail["designs"]] == [1, 2]


def test_traced_run_reports_layers_and_restores_attributes():
    before = attributes()
    result, detail = run.measure(TINY, [1], seed=3, trace=True)
    after = attributes()
    assert all(after[key] is value for key, value in before.items())
    check_result(result, "per_layer", attempted=2)
    layers = {k: m["value"] for k, m in result["metrics"].items()}
    # A correct traced run repeated the untraced pass exactly; the solver
    # count also holds steps of the Eve re-check solve, if one ran.
    untraced = detail["designs"][0]["newton_steps"]
    assert layers["solver.newton_steps"] >= untraced > 0
    assert layers["solver.merit_calls"] >= layers["solver.newton_steps"]
    assert 0.0 < layers["solver.linesearch_accept_ratio"] <= 1.0
    assert layers["sca.build_calls"] >= detail["traced_designs"][0]["outer_iters"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_start",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
