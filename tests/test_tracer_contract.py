"""The benchmark's layer tracer (perfbench/spans.py) reads its per-stage
counts from the solver's records: a SolverResult's ``history`` entries
(t, objective, newton_steps, point) and _run_barrier's (x, Newton steps,
status, history), and its jitter escalations from the calls of
solver.cho_factor, which it wraps by name.  One traced eve_active design and
one traced tight_sinr design pin what it reads."""

import sys
from pathlib import Path

import numpy as np

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


def test_traced_jitter_escalations_are_the_failed_factorizations(monkeypatch):
    # spans.py counts jitter escalations as solver.cho_factor calls beyond
    # one per solver._newton_direction.  Design 1 of perfbench's tight_sinr
    # panel, the one workload whose solves take the jitter path, escalates
    # on every LinAlgError that an independent wrapper on that name sees.
    failures = []

    def recording_cho_factor(*args, **kwargs):
        try:
            return cho_factor(*args, **kwargs)
        except np.linalg.LinAlgError:
            failures.append(args[0].shape)
            raise

    cho_factor = solver.cho_factor
    monkeypatch.setattr(solver, "cho_factor", recording_cho_factor)
    cfg = channels.ScenarioConfig(sinr_targets=(1e4,))
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(1))
    tracer = spans.Tracer()
    with spans.tracing(tracer):
        sol, _ = sca.run_sca_no_an(links, stats_r, stats_e, cfg,
                                   RngState(1).child("design1"))
    assert solver.cho_factor is recording_cho_factor

    assert sol.status == "optimal"
    assert tracer.layer_metrics()["solver.jitter_escalations"] \
        == len(failures) == 3
