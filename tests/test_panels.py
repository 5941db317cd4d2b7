"""Bounds of the perfbench panels, one row per workload of perfbench/run.py.

One fresh process at one BLAS thread, where every count here is
deterministic, runs ``run.measure`` on each workload's 45 s panel with
run.py's ``--seed 1`` streams: the panel untraced, then traced.  It passes no
record key, so it writes nothing.  Every panel must be correct with no failed
design, have its row's design count, end every design "optimal" and read 0 on
each layer of ``ZERO_LAYERS``.  A row bounds these readings from above:

- ``outer_iters``, the most outer iterations of a design; 1 means every
  design stops certified after its first subproblem, the relaxation;
- ``slack_outer_iters``, the same over designs whose Eve MI ends more than
  the row's ``slack_nats`` below the cap: their first subproblem's Eve row
  bounds every design that meets the cap, so its certificate stops them;
- ``subproblem_newton_steps``, the untraced designs' (run.py's
  ``newton_steps``), and ``anchor_newton_steps``, the traced
  ``solver.newton_steps`` minus those: the anchor solves' steps;
- any layer metric, by its name.

Step bounds lie 2% above the counts their changes landed with: eve_active
443 + 108, cold_start 320 + 185 and tight_sinr 161.  tight_sinr's Newton
systems alone take the jitter path: 35 factorizations fail and are retried
with a larger diagonal shift.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

from sensesec import channels, sca

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402

# No barrier stage reaches its step cap, every subproblem solve returns
# "optimal", and no design builds a phase-I problem: every anchor starts at
# closed-form min-power beams and every subproblem at an interior warm start.
ZERO_LAYERS = ("solver.stage_cap_hits", "sca.subproblems_nonoptimal",
               "solver.phase1_runs")


class Panel(NamedTuple):
    designs: int
    bounds: dict            # reading -> its largest allowed value
    slack_nats: float | None = None


PANELS = {
    "eve_active": Panel(12, {"outer_iters": 2, "slack_outer_iters": 1,
                             "subproblem_newton_steps": 452,
                             "anchor_newton_steps": 110},
                        slack_nats=sca.EVE_RECHECK_SLACK),
    "cold_start": Panel(20, {"outer_iters": 1, "subproblem_newton_steps": 326,
                             "anchor_newton_steps": 188}),
    "tight_sinr": Panel(8, {"outer_iters": 1, "subproblem_newton_steps": 164,
                            "solver.jitter_escalations": 35}),
    "large_array": Panel(5, {"outer_iters": 1}),
}

# 45 s panels (BENCHMARK.json's run_seconds), run.py's --seed 1, traced.
MEASURE = """import json, sys
sys.path[:0] = sys.argv[1:3]
import run
print(json.dumps({w: run.measure(run.WORKLOADS[w][0], run.channel_seeds(w, 45),
                                 1, True) for w in sys.argv[3:]}))"""


def readings(workload, panel, result, detail):
    designs = detail["designs"] + detail["traced_designs"]
    steps = sum(design["newton_steps"] for design in detail["designs"])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values.update(outer_iters=max(design["outer_iters"] for design in designs),
                  subproblem_newton_steps=steps,
                  anchor_newton_steps=values["solver.newton_steps"] - steps)
    if panel.slack_nats is not None:
        cap = channels.ScenarioConfig(**run.WORKLOADS[workload][0]).eve_mi_cap
        values["slack_outer_iters"] = max(
            (design["outer_iters"] for design in designs
             if design["mi_eve"] < cap - panel.slack_nats), default=0)
    return values


def test_every_workload_has_a_row():
    assert set(PANELS) == set(run.WORKLOADS), (
        f"workloads without a row: {sorted(set(run.WORKLOADS) - set(PANELS))}"
        f"; rows without a workload: {sorted(set(PANELS) - set(run.WORKLOADS))}")


def test_every_panel_meets_its_row():
    out = subprocess.run(
        [sys.executable, "-c", MEASURE, str(run.SRC), str(PERFBENCH), *PANELS],
        env={**os.environ, **run.BLAS_ENV}, capture_output=True, text=True,
        timeout=600)
    assert out.returncode == 0, out.stderr
    runs = json.loads(out.stdout)
    errors = []
    for workload, panel in PANELS.items():
        result, detail = runs[workload]
        if len(detail["designs"]) != panel.designs:
            errors.append(f"{workload}: designs reads "
                          f"{len(detail['designs'])}, not {panel.designs}")
        if not result["correct"] or result["failed"]:
            errors.append(f"{workload}: {result['failed']} failed designs; "
                          f"{detail['problems']}")
            continue
        statuses = [design["status"]
                    for design in detail["designs"] + detail["traced_designs"]]
        if set(statuses) != {"optimal"}:
            errors.append(f"{workload}: statuses {statuses}")
        values = readings(workload, panel, result, detail)
        for name, bound in {**dict.fromkeys(ZERO_LAYERS, 0),
                            **panel.bounds}.items():
            if values[name] > bound:
                errors.append(f"{workload}: {name} reads {values[name]}, "
                              f"above its bound {bound}")
    assert not errors, "\n".join(errors)
