"""Committed benchmark records (BENCH_*.json at the repository root): every
paired run must be a correct run at one BLAS thread, on both sides."""

import json
from pathlib import Path

import pytest

RECORDS = sorted((Path(__file__).resolve().parent.parent).glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_every_recorded_run_is_correct_at_one_blas_thread(path):
    record = json.loads(path.read_text())
    pairs = record["runs"] + record.get("traced_runs", [])
    assert pairs
    for pair in pairs:
        for side in ("parent", "change"):
            detail, result = pair[side]
            assert result["correct"] is True, (side, pair.get("pair"))
            assert result["failed"] == 0, (side, pair.get("pair"))
            threads = detail["env"]["blas_threads"]
            assert threads and set(threads.values()) == {"1"}, threads
