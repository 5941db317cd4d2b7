"""tools/ab.py, the interleaved A/B timer, on a one-design panel with both
sides set to the working tree.  Timings are not asserted: on a shared host
they show nothing about the code."""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import ab  # noqa: E402


def test_ab_reports_parity_and_ratios_of_one_tree_against_itself():
    src = str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "--a", src, "--b", src,
         "--workload", "eve_active", "--seconds", "1", "--reps", "2"],
        capture_output=True, text=True, timeout=300, check=True)
    (line,) = out.stdout.splitlines()
    report = json.loads(line)
    assert set(report) == {"workload", "seconds", "seed", "a", "b",
                           "blas_threads", "parity", "ab", "aa", "setup"}
    assert set(report["blas_threads"].values()) == {"1"}

    parity = report["parity"]
    assert parity["designs"] == 1 and parity["equal"] is True
    assert parity["identical"] is True
    (design,) = parity["per_design"]
    assert design["channel_seed"] == 1 and design["equal"] is True
    assert design["identical"] is True
    assert design["a"] == design["b"]
    assert set(design["a"]) == {"status", "outer_iters", "newton_steps",
                                "anchor_newton_steps", "certified",
                                "solver_statuses", "mi_legit", "mi_eve",
                                "weights_sha1"}
    assert design["a"]["status"] == "optimal"

    assert set(report["setup"]) == {"ab", "aa"}
    for summary in (report["ab"], report["aa"], *report["setup"].values()):
        assert set(summary) == {"median", "q1", "q3", "second_faster",
                                "reps", "ratios"}
        assert summary["reps"] == len(summary["ratios"]) == 2
        assert 0 <= summary["second_faster"] <= 2


def test_setup_samples_put_every_side_in_every_slot(monkeypatch, tmp_path):
    # The order of run.setup_sample's fresh processes, recorded by the tree
    # each one reads: over a repetition's rounds, each side is sampled first,
    # second and third equally often, whatever the repetition.
    srcs = [(tmp_path / side).resolve() for side in ("a", "b", "aa")]
    order = []

    def recording_sample(config, seeds):
        order.append(ab.run.SRC)
        return float(len(order))

    monkeypatch.setattr(ab.run, "SRC", ab.run.SRC)
    monkeypatch.setattr(ab.run, "setup_sample", recording_sample)
    for rep in range(4):
        order.clear()
        ab.setup_times(srcs, {}, [1], rep)
        rounds = [order[i:i + len(srcs)]
                  for i in range(0, len(order), len(srcs))]
        assert len(rounds) == ab.SETUP_SAMPLES
        assert all(sorted(r) == sorted(srcs) for r in rounds)
        slots = Counter((src, slot) for r in rounds
                        for slot, src in enumerate(r))
        assert set(slots.values()) == {ab.SETUP_SAMPLES // len(srcs)}
        assert len(slots) == len(srcs) ** 2
