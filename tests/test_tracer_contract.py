"""The benchmark's layer tracer (perfbench/spans.py) reads its per-stage
counts from the solver's records: a SolverResult's ``history`` entries
(t, objective, newton_steps, point) and _run_barrier's (x, Newton steps,
status, history).  One traced eve_active design pins what it reads."""

import sys
from pathlib import Path

from sensesec import channels, sca, solver
from sensesec.linalg import RngState

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402


def test_traced_counts_equal_the_solver_records(monkeypatch):
    results = []

    def recording_solve(*args, **kwargs):
        res = solve(*args, **kwargs)
        results.append(res)
        return res

    solve = sca.solve
    monkeypatch.setattr(sca, "solve", recording_solve)
    # Design 1 of perfbench's eve_active panel, with run.py's --seed 1 stream.
    cfg = channels.ScenarioConfig(eve_mi_cap=1.0)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(1))
    tracer = spans.Tracer()
    with spans.tracing(tracer):
        sol, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg,
                                       RngState(1).child("design1"))
    layers = tracer.layer_metrics()

    assert sol.status == "optimal" and len(trace.rows) >= 2
    # The anchor solve, then one solve per row.
    assert len(results) == 1 + len(trace.rows)
    entries = [entry for res in results for entry in res.history]
    assert all(len(entry) == 4 for entry in entries)
    steps = sum(entry[2] for entry in entries)
    assert layers["solver.stages"] == len(entries)
    assert layers["solver.newton_steps"] == steps == (
        trace.anchor_newton_steps
        + sum(row.solver_iterations for row in trace.rows))
    assert spans.STAGE_CAP == solver.STAGE_MAX_STEPS
    assert layers["solver.stage_cap_hits"] == sum(
        entry[2] >= solver.STAGE_MAX_STEPS for entry in entries)
    assert layers["solver.phase1_runs"] == 0
