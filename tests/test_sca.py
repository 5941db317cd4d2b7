import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TINY, random_expansion
from sensesec import channels, metrics, sca, solver
from sensesec.linalg import RngState
from sensesec.solver import InfeasibleError


def anchor_point(links, cfg):
    """sca's anchor of the beam rows of ``links``: (matrices, Newton steps)."""
    return sca._anchor_point(sca._beam_rows_problem(links, cfg), links, cfg)


@pytest.fixture
def solver_results(monkeypatch):
    """Every SolverResult that sca.solve returns while the test runs."""
    results = []

    def recording_solve(*args, **kwargs):
        res = solve(*args, **kwargs)
        results.append(res)
        return res

    solve = sca.solve
    monkeypatch.setattr(sca, "solve", recording_solve)
    return results


@pytest.mark.parametrize("channel_seed", [1, 2])
def test_tiny_design_is_feasible_and_no_stage_hits_the_cap(channel_seed,
                                                           solver_results):
    cfg = TINY
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(channel_seed))
    sol, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg,
                                   RngState(channel_seed))

    assert solver_results and len(trace.rows) >= 1
    stage_steps = [stage[2] for res in solver_results for stage in res.history]
    assert max(stage_steps) < solver.STAGE_MAX_STEPS

    # Recompute the design's numbers rather than trusting its status.
    r_x = metrics.transmit_covariance(sol.weights)
    rates = metrics.sinr(links, sol.weights, cfg.noise_comm)
    assert np.all(rates >= np.asarray(cfg.sinr_targets) * (1.0 - 1e-6))
    assert float(np.real(np.trace(r_x))) <= cfg.power_budget * (1.0 + 1e-6)
    mi_eve = metrics.sensing_mi(stats_e, r_x, cfg.frame_len)
    assert mi_eve <= cfg.eve_mi_cap + sca.EVE_RECHECK_SLACK


def test_an_extra_channel_is_rejected_naming_both_counts():
    cfg = channels.ScenarioConfig()
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(1))
    with pytest.raises(ValueError, match=r"^4 channel vectors .* for 3 users"):
        sca.run_sca_no_an(links + links[:1], stats_r, stats_e, cfg,
                          RngState(1))


def test_a_missing_channel_is_rejected_naming_both_counts():
    cfg = channels.ScenarioConfig()
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(1))
    with pytest.raises(ValueError, match=r"^2 channel vectors .* for 3 users"):
        sca.run_sca_no_an(links[:2], stats_r, stats_e, cfg, RngState(1))


def test_channels_of_another_array_are_rejected_naming_both_shapes():
    cfg = channels.ScenarioConfig()
    links, _, _ = channels.build_scenario(
        dataclasses.replace(cfg, n_tx=4), RngState(1))
    _, stats_r, stats_e = channels.build_scenario(cfg, RngState(1))
    with pytest.raises(ValueError, match=(r"shapes \[\(4,\), \(4,\), \(4,\)\] "
                                          r"for 3 users of 6 antennas")):
        sca.run_sca_no_an(links, stats_r, stats_e, cfg, RngState(1))


@pytest.mark.parametrize("which", ["stats_r", "stats_e"])
def test_statistics_of_another_array_are_rejected_naming_both_counts(which):
    cfg = channels.ScenarioConfig()
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(1))
    _, *small = channels.build_scenario(
        dataclasses.replace(cfg, n_tx=4), RngState(1))
    stats = {"stats_r": stats_r, "stats_e": stats_e}
    stats[which] = small[which == "stats_e"]
    with pytest.raises(ValueError,
                       match=rf"^{which} has n_tx = 4, but cfg.n_tx = 6$"):
        sca.run_sca_no_an(links, **stats, cfg=cfg, rng=RngState(1))


def test_the_beam_rows_declare_one_batched_psd_block():
    # W_k >= 0 of every user is one LMI block with one coordinate row per
    # user, in the anchor's rows and in every subproblem.
    cfg = channels.ScenarioConfig()
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(1))
    rows = solver.BarrierProblem(sca._beam_rows_problem(links, cfg))
    assert [blk.coords.shape for blk in rows.lmi_blocks] == [(3, 36)]
    state = sca.SCAState(sca._anchor_start(links, cfg), 0.0, sca.PENALTY_INIT)
    sub = solver.BarrierProblem(sca.build_subproblem_no_an(
        state, links, stats_r, sca._eve_row(state, stats_e, cfg), cfg))
    assert [blk.coords.shape for blk in sub.lmi_blocks] == [(3, 36)]
    assert len(sub.obj_blocks) == 1


@pytest.mark.parametrize("cap", [5.0, math.inf], ids=["cap5", "no-cap"])
def test_every_subproblem_extends_the_beam_rows_problem(cap):
    # The anchor is the analytic center of each subproblem's own beam rows:
    # the W_k come first, at the rows problem's offsets, and so do its rows
    # and its W_k >= 0 block, with kappa's column zero there.
    cfg = dataclasses.replace(channels.ScenarioConfig(), eve_mi_cap=cap)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(1))
    rows_prob = sca._beam_rows_problem(links, cfg)
    state = sca.SCAState(sca._anchor_start(links, cfg), 0.0, sca.PENALTY_INIT)
    eve_row = sca._eve_row(state, stats_e, cfg)
    sub_prob = sca.build_subproblem_no_an(state, links, stats_r, eve_row, cfg)
    n_rows = 1 + cfg.n_users            # the power row and one SINR row each

    def layout(blocks):
        return [(blk.name, blk.offset, blk.size) for blk in blocks]

    assert layout(sub_prob.blocks[:cfg.n_users]) == layout(rows_prob.blocks)
    assert [blk.name for blk in sub_prob.blocks[cfg.n_users:]] \
        == ["kappa"] * math.isfinite(cap)
    rows, sub = map(solver.BarrierProblem, (rows_prob, sub_prob))
    assert rows.A.shape[0] == n_rows
    assert np.array_equal(sub.A[:n_rows, :rows.n], rows.A)
    assert np.array_equal(sub.b[:n_rows], rows.b)
    assert not np.any(sub.A[:n_rows, rows.n:])
    assert np.array_equal(sub.lmi_blocks[0].coords, rows.lmi_blocks[0].coords)
    if math.isfinite(cap):
        # Then kappa >= 0 as the row -kappa <= 0, and the Eve row after it.
        unit = np.eye(sub.n)[sub_prob.blocks[-1].offset]
        assert len(sub.b) == n_rows + 2
        assert np.array_equal(sub.A[n_rows], -unit) and sub.b[n_rows] == 0.0
        eve_weights = np.tile(solver.hermitian_weights(eve_row.grad),
                              cfg.n_users)
        assert np.array_equal(sub.A[n_rows + 1], np.append(eve_weights, -1.0))
        assert sub.b[n_rows + 1] == eve_row.rhs
    else:
        assert len(sub.b) == n_rows


@pytest.mark.parametrize("cfg", [TINY, channels.ScenarioConfig()],
                         ids=["tiny", "default"])
def test_design_depends_on_the_scenario_alone(cfg):
    # The first expansion point is the interior anchor, so the design's
    # random stream matters only to Gaussian randomization.
    scenario = channels.build_scenario(cfg, RngState(1))
    (sol1, trace1), (sol2, trace2) = [
        sca.run_sca_no_an(*scenario, cfg, RngState(seed)) for seed in (1, 2)]
    assert np.array_equal(sol1.weights, sol2.weights)
    assert (sol1.mi_legit, sol1.mi_eve, sol1.status) \
        == (sol2.mi_legit, sol2.mi_eve, sol2.status)
    assert trace1 == trace2


@pytest.mark.parametrize("cfg, channel_seed", [
    (TINY, 1), (TINY, 2), (dataclasses.replace(TINY, power_budget=1e-3), 1)],
    ids=["tiny-1", "tiny-2", "tiny-1mW-1"])
def test_loose_intermediate_centering_keeps_every_iterate(cfg, channel_seed,
                                                          monkeypatch):
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(channel_seed))

    def design():
        _, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg,
                                     RngState(channel_seed))
        return trace.rows

    loose = design()
    monkeypatch.setattr(solver, "CENTERING_TOL", solver.NEWTON_TOL)
    tight = design()

    assert len(loose) == len(tight)
    for a, b in zip(loose, tight):
        assert abs(a.mi_legit - b.mi_legit) <= 1e-9
        assert abs(a.mi_eve - b.mi_eve) <= 1e-9
    assert (sum(row.solver_iterations for row in loose)
            < sum(row.solver_iterations for row in tight))


@pytest.mark.parametrize("channel_seed", [1, 2, 3, 4])
@pytest.mark.parametrize("cfg", [channels.ScenarioConfig(eve_mi_cap=1.0),
                                 channels.ScenarioConfig(power_budget=1e-3)],
                         ids=["eve-cap-1", "1mW"])
def test_loose_centering_costs_fewer_steps_over_a_whole_design(
        cfg, channel_seed, monkeypatch):
    # Tight centering can win on a single subproblem; summed over the warm
    # subproblem solves of a design, loose centering must win.
    warm = []

    def recording_solve(problem, initial=None):
        res = solve(problem, initial=initial)
        if initial is not None:
            warm.append((problem, initial, res.iterations))
        return res

    solve = sca.solve
    monkeypatch.setattr(sca, "solve", recording_solve)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(channel_seed))
    sca.run_sca_no_an(links, stats_r, stats_e, cfg, RngState(channel_seed))
    monkeypatch.setattr(solver, "CENTERING_TOL", solver.NEWTON_TOL)
    tight = [solve(problem, initial=initial).iterations
             for problem, initial, _ in warm]

    assert warm
    assert sum(steps for _, _, steps in warm) < sum(tight)


def test_predictor_lands_on_the_minimizer_along_the_tangent(monkeypatch):
    # Each prediction of solver._predict from x, centered at t, makes one
    # merit call and lands on x + alpha* tangent, with alpha* the exact
    # minimizer of the merit at t' = t BARRIER_GROWTH along the tangent;
    # alpha* (1 +- 1e-3) lowers that merit no further.
    merit_calls, predictions = [0], []

    def counting_merit(self, x, t):
        merit_calls[0] += 1
        return merit(self, x, t)

    def recording_predict(bp, x, t, tangent, line):
        t_next = t * solver.BARRIER_GROWTH
        best = solver._line_minimizer(*bp.line_model(line, tangent, t_next))
        before = merit_calls[0]
        out = predict(bp, x, t, tangent, line)
        predictions.append((bp, x, t_next, tangent, best, out,
                            merit_calls[0] - before))
        return out

    merit, predict = solver.BarrierProblem.merit, solver._predict
    monkeypatch.setattr(solver.BarrierProblem, "merit", counting_merit)
    monkeypatch.setattr(solver, "_predict", recording_predict)
    cfg = channels.ScenarioConfig(eve_mi_cap=1.0)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(1))
    sca.run_sca_no_an(links, stats_r, stats_e, cfg, RngState(1))

    assert len(predictions) >= 10
    for bp, x, t_next, tangent, best, out, calls in predictions:
        assert best is not None and calls == 1
        assert np.array_equal(out, x + best * tangent)
        at_best = merit(bp, out, t_next)
        for nearby in (best * (1.0 - 1e-3), best * (1.0 + 1e-3)):
            assert merit(bp, x + nearby * tangent, t_next) >= at_best


def count_phase_one_problems(monkeypatch):
    """The barrier problems that phase I is built for while the test runs."""
    built = []
    phase1_problem = solver._phase1_problem

    def counting_phase1_problem(bp):
        built.append(bp)
        return phase1_problem(bp)

    monkeypatch.setattr(solver, "_phase1_problem", counting_phase1_problem)
    return built


def test_one_milliwatt_design_runs_no_phase_one(monkeypatch):
    # The anchor solve starts at closed-form min-power beams, the SDR at the
    # anchor itself, and the design is certified there.
    built = count_phase_one_problems(monkeypatch)
    cfg = channels.ScenarioConfig(power_budget=1e-3)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(2))
    sol, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg, RngState(2))

    assert built == []
    assert sol.certified and trace.certified and len(trace.rows) == 1
    assert_beams_meet_the_limits(sol.weights, links, stats_e, cfg)


def test_one_milliwatt_binding_cap_design_runs_no_phase_one(monkeypatch):
    # The certified design of the test above has an Eve MI of 0.072 nats; a
    # cap of 0.065 binds, so the loop runs past the SDR.  Every later warm
    # start keeps at least ANCHOR_BLEND of the anchor's small margin in the
    # beam rows, so it is interior.
    built = count_phase_one_problems(monkeypatch)
    cfg = channels.ScenarioConfig(power_budget=1e-3, eve_mi_cap=0.065)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(2))
    sol, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg, RngState(2))

    assert built == []
    assert not sol.certified and not trace.certified
    assert len(trace.rows) > 1 and sol.status == "optimal"
    assert_beams_meet_the_limits(sol.weights, links, stats_e, cfg)


@pytest.mark.parametrize("channel_seed", [1, 2, 3, 4])
def test_first_stage_of_the_first_subproblem_starts_kappa_centered(
        channel_seed, solver_results):
    # _start_values pads kappa to 1e-4, about 1e-4 of its central value at
    # the first stage's t = 100; Newton's method on the whole merit took 15
    # damped steps there, one per doubling of kappa, before the solver
    # centered kappa alone at that t.
    cfg = channels.ScenarioConfig(power_budget=1e-3)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(channel_seed))
    sca.run_sca_no_an(links, stats_r, stats_e, cfg, RngState(channel_seed))
    _, first, *_ = solver_results        # the anchor solve comes first
    assert first.history[0][2] <= 3


@given(channel_seed=st.integers(1, 1000),
       power_budget=st.sampled_from([1e-3, 1.0]),
       eve_mi_cap=st.floats(0.01, 5.0))
@settings(max_examples=15, deadline=None)
def test_tiny_designs_meet_their_limits(channel_seed, power_budget, eve_mi_cap):
    cfg = dataclasses.replace(TINY, power_budget=power_budget,
                              eve_mi_cap=eve_mi_cap)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(channel_seed))
    try:
        sol, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg,
                                       RngState(channel_seed))
    except InfeasibleError:
        # One user sees no interference: its best SINR is P |h|^2 / noise.
        h = np.asarray(links[0])
        best = power_budget * np.vdot(h, h).real / cfg.noise_comm
        assert best <= cfg.sinr_targets[0] * (1.0 + sca.SINR_MARGIN)
        return

    assert_beams_meet_the_limits(sol.weights, links, stats_e, cfg)
    if sol.status == "optimal":
        assert np.all(sol.rank_certs >= sca.RANK_ONE_THRESHOLD)
    if trace.converged_at is not None:
        last = trace.rows[-1]
        assert max(last.kappa, last.rho_max) <= sca.TOL_PENALTY
        # The rank-one residual tr W - lambda_max(W) of each returned matrix,
        # which the last row reports.
        residuals = []
        for mat in sol.weight_mats:
            eigs = np.linalg.eigvalsh(mat)
            residuals.append(np.sum(eigs) - eigs[-1])
            assert residuals[-1] <= sca.TOL_PENALTY
        assert abs(last.rho_max - max(residuals)) <= 1e-12
        # A certified stop comes after the first and only row, with the
        # beams at the relaxed MI and within the cap, with no slack.
        # Its Eve row is an inactive Taylor row, or, when the anchor's Eve
        # MI reaches the cap, the trace relaxation, which may be active: it
        # bounds the Eve MI from below.
        assert sol.certified == trace.certified
        if trace.certified:
            assert trace.converged_at == len(trace.rows) == 1
            assert sol.mi_eve <= eve_mi_cap
            anchor, _ = anchor_point(links, cfg)
            if metrics.sensing_mi(stats_e, sum(anchor),
                                  cfg.frame_len) >= eve_mi_cap:
                assert last.mi_eve_surrogate <= last.mi_eve + 1e-12
            else:
                assert last.kappa == 0.0 and last.mi_eve_surrogate < eve_mi_cap
            assert last.mi_legit - sol.mi_legit == last.beam_mi_gap <= 1e-9


@pytest.mark.parametrize("exp_mats, message", [
    ([np.eye(2)] * 2, "expansion point count does not match user count"),
    ([np.eye(3)], "expansion matrix dimension mismatch")],
    ids=["count", "dimension"])
def test_subproblem_rejects_mismatched_expansion_matrices(exp_mats, message):
    cfg = TINY
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(1))
    eve_row = sca._eve_row(sca.SCAState([np.eye(2)], 0.0, 1.0), stats_e, cfg)
    with pytest.raises(ValueError, match=message):
        sca.build_subproblem_no_an(sca.SCAState(exp_mats, 0.0, 1.0), links,
                                   stats_r, eve_row, cfg)


def test_subproblem_maps_match_closed_forms():
    cfg = channels.ScenarioConfig()
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(1))
    exp_mats = random_expansion(cfg, RngState(1))
    state = sca.SCAState(exp_mats, 0.3, 2.0)
    users = range(cfg.n_users)
    # tr W_k - u_k^H W_k u_k, u_k the top unit eigenvector of the expansion
    # matrix.
    tops = [np.linalg.eigh(m)[1][:, -1] for m in exp_mats]

    def close(a, b):
        return np.abs(np.asarray(a) - b).max() <= 1e-12 * max(np.abs(b).max(), 1.0)

    for cap in (cfg.eve_mi_cap, math.inf):
        capped = dataclasses.replace(cfg, eve_mi_cap=cap)
        prob = sca.build_subproblem_no_an(
            state, links, stats_r, sca._eve_row(state, stats_e, capped), capped)
        bp = solver.BarrierProblem(prob)
        # The W_k, and kappa only with the Eve row.
        eve_row = math.isfinite(cap)
        names = [f"W{k}" for k in users] + ["kappa"] * eve_row
        assert [blk.name for blk in prob.blocks] == names
        assert prob.n == cfg.n_users * cfg.n_tx ** 2 + eve_row
        x = np.random.default_rng(0).standard_normal(prob.n)
        vals = prob.unpack(x)
        mats = [vals[f"W{k}"] for k in users]
        kappa = vals["kappa"][0, 0].real if eve_row else 0.0
        tx_cov = sum(mats)

        scale_r = cfg.frame_len / stats_r.noise_power
        (obj_block,) = bp.obj_blocks
        assert close(obj_block.assemble(x), np.eye(stats_r.dim)
                     + scale_r * metrics._scaled_quadratic(stats_r, tx_cov))
        residuals = [np.trace(mats[k]).real
                     - np.vdot(tops[k], mats[k] @ tops[k]).real for k in users]
        assert close(bp.c @ x, -state.eve_weight * kappa
                     - state.penalty_weight * sum(residuals))

        # Each inequality row A x <= b, as A x - b, in build order: power,
        # SINR, then kappa bound and Eve bound (finite cap only).
        eve = metrics.sensing_mi_taylor_bound(
            stats_e, tx_cov, state.exp_cov, cfg.frame_len) - kappa - cap
        power = np.trace(tx_cov).real - cfg.power_budget
        sinrs = []
        for k, link in enumerate(links):
            h = np.asarray(link)
            gains = [np.real(h.conj() @ m @ h) for m in mats]
            target = cfg.sinr_targets[k] * (1.0 + sca.SINR_MARGIN)
            sinrs.append(target * (sum(gains) - gains[k] + cfg.noise_comm)
                         - gains[k])
        expected = [power] + sinrs + [-kappa, eve] * eve_row
        got = bp.A @ x - bp.b
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert close(g, e)

        # The W_k >= 0 share one coefficient stack: one batch of n_users.
        (lmi_batch,) = bp.lmi_blocks
        assert lmi_batch.batch_size == cfg.n_users
        for k, lmi in enumerate(lmi_batch.assemble(x)):
            assert close(lmi, mats[k])
        for blk in (lmi_batch, obj_block):
            assert close(blk.mats, np.conj(blk.mats.transpose(0, 2, 1)))
            assert close(blk.offset, blk.offset.conj().T)

        # The objective maps sum_k W_k: its coordinates read one stack of
        # n_tx^2 coefficients, not one per user, and so do the W_k >= 0.
        size = cfg.n_tx ** 2
        assert len(obj_block.mats) == len(lmi_batch.mats) == size == 36
        assert obj_block.coords.size == cfg.n_users * size == 108
        assert np.array_equal(obj_block.rows,
                              np.tile(np.arange(size), cfg.n_users))
        assert np.array_equal(lmi_batch.rows, np.arange(size))


@pytest.mark.parametrize("cfg, certified", [
    (TINY, True), (channels.ScenarioConfig(power_budget=1e-3), True),
    (channels.ScenarioConfig(eve_mi_cap=1.0), False)],
    ids=["tiny", "one_milliwatt", "binding_cap"])
def test_trace_rows_report_the_residuals_of_their_iterate(cfg, certified,
                                                          solver_results,
                                                          monkeypatch):
    states = []
    build = sca.build_subproblem_no_an

    def recording_build(state, *args):
        states.append(state)
        return build(state, *args)

    monkeypatch.setattr(sca, "build_subproblem_no_an", recording_build)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(1))
    _, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg, RngState(1))

    # After the anchor solve, one build and one solve per outer iteration.
    # The binding cap's anchor exceeds the cap, so its first row is the
    # trace relaxation; a certified design stops after its first.
    rows = trace.rows
    assert trace.certified is certified
    assert len(rows) == 1 if certified else len(rows) > 1
    assert len(states) == len(rows) == len(solver_results) - 1
    for row, state, res in zip(rows, states, solver_results[1:]):
        mats = [res.values[f"W{k}"] for k in range(cfg.n_users)]
        # Every row's rank residual is the iterate's own, tr W_k -
        # lambda_max(W_k), at or below the penalized one along the top
        # eigenvector of the expansion matrix.
        residual = max(np.trace(m).real - np.linalg.eigvalsh(m)[-1]
                       for m in mats)
        tops = map(sca._top_direction, state.exp_weight_mats)
        penalized = max(np.trace(m).real - np.vdot(u, m @ u).real
                        for m, u in zip(mats, tops))
        assert residual <= penalized + 1e-12
        tx_cov = metrics.transmit_covariance(mats)
        # The first row caps tr A_e(R) at e^cap - 1 when the anchor's Eve MI
        # reaches the cap, and reports log1p(tr A_e(R)), with A_e(R) the Eve
        # MI's log-det argument minus I; every other row the Taylor bound at
        # its expansion point.
        relaxed = row.index == 1 and metrics.sensing_mi(
            stats_e, state.exp_cov, cfg.frame_len) >= cfg.eve_mi_cap
        if relaxed:
            trace_a = cfg.frame_len / stats_e.noise_power * np.trace(
                metrics._scaled_quadratic(stats_e, tx_cov)).real
            bound = math.log1p(trace_a)
        else:
            bound = metrics.sensing_mi_taylor_bound(
                stats_e, tx_cov, state.exp_cov, cfg.frame_len)
        assert relaxed is (cfg.eve_mi_cap == 1.0 and row.index == 1)
        assert abs(row.mi_eve_surrogate - bound) <= 1e-12
        assert abs(row.rho_max - residual) <= 1e-12
        assert abs(row.kappa - max(0.0, bound - cfg.eve_mi_cap)) <= 1e-12
        # Power and SINR margin are the iterate's own, and it meets the
        # budget and the tightened targets: the barrier keeps it interior.
        power = sum(np.trace(m).real for m in mats)
        margin = np.min(metrics.sinr(links, mats, cfg.noise_comm)
                        / np.asarray(cfg.sinr_targets))
        assert abs(row.power - power) <= 1e-12 * power
        assert abs(row.sinr_margin - margin) <= 1e-12 * margin
        assert row.power <= cfg.power_budget
        assert row.sinr_margin >= (1.0 + sca.SINR_MARGIN) * (1.0 - 1e-9)
        if row.index == 1 and (relaxed or bound < cfg.eve_mi_cap):
            # Relaxed MI minus the MI of the beams sqrt(tr W_k) u_k.
            beams = eigenvector_beams(mats)
            gap = (metrics.sensing_mi(stats_r, tx_cov, cfg.frame_len)
                   - metrics.sensing_mi(stats_r,
                                        metrics.transmit_covariance(beams),
                                        cfg.frame_len))
            assert abs(row.beam_mi_gap - gap) <= 1e-12
            assert row.beam_mi_gap <= 1e-9
        else:
            # No certificate is tried after the SDR or with an active Taylor
            # row.
            assert row.beam_mi_gap is None


@pytest.mark.parametrize("cfg", [channels.ScenarioConfig(eve_mi_cap=1.0),
                                 channels.ScenarioConfig(power_budget=1e-3)],
                         ids=["eve-cap-1", "1mW"])
def test_eve_slack_is_priced_at_the_anchor_multiplier_estimate(cfg,
                                                               monkeypatch):
    problems = []
    build = sca.build_subproblem_no_an

    def recording_build(*args):
        problems.append(build(*args))
        return problems[-1]

    monkeypatch.setattr(sca, "build_subproblem_no_an", recording_build)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(1))
    _, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg, RngState(1))

    # Least-squares multiplier of the Eve row at the anchor covariance R0:
    # <grad MI_r, grad MI_e> / ||grad MI_e||^2, with <A, B> = Re tr(A B) on
    # Hermitian matrices.
    r0 = metrics.transmit_covariance(anchor_point(links, cfg)[0])
    grad_r, grad_e = (metrics.sensing_mi_gradient(stats, r0, cfg.frame_len)
                      for stats in (stats_r, stats_e))
    w_hat = max(0.0, np.trace(grad_r @ grad_e).real) \
        / np.trace(grad_e @ grad_e).real
    first = max(sca.PENALTY_INIT, w_hat)

    # kappa's coefficient in the first objective, read at its unit vector.
    (kappa,) = [blk for blk in problems[0].blocks if blk.name == "kappa"]
    unit = np.zeros(problems[0].n)
    unit[kappa.offset] = 1.0
    assert problems[0].objective[0] @ unit \
        == pytest.approx(-first, rel=1e-12)
    # The 1 mW design is certified at the SDR; the binding cap runs on.
    assert len(problems) == len(trace.rows)
    assert len(trace.rows) == 1 if trace.certified else len(trace.rows) > 1
    assert trace.certified is (cfg.power_budget < 1.0)
    for i, (row, problem) in enumerate(zip(trace.rows, problems)):
        assert row.eve_weight == pytest.approx(
            first * sca.PENALTY_GROWTH ** i, rel=1e-12)
        # The first subproblem is the SDR, with no rank penalty.
        penalty = 0.0 if i == 0 \
            else sca.PENALTY_INIT * sca.PENALTY_GROWTH ** (i - 1)
        assert row.penalty_weight == pytest.approx(penalty, rel=1e-12)
        # At W_0 = I and every other coordinate 0, the linear objective is
        # -p (tr I - u^H I u) = -p (n - 1).
        (w0,) = [blk for blk in problem.blocks if blk.name == "W0"]
        x = np.zeros(problem.n)
        x[w0.offset:w0.offset + w0.size] = solver.pack_hermitian(
            np.eye(cfg.n_tx))
        assert problem.objective[0] @ x \
            == pytest.approx(-penalty * (cfg.n_tx - 1), rel=1e-12)


def test_infinite_eve_cap_computes_no_multiplier_estimate(monkeypatch):
    def no_gradient(*args):
        raise AssertionError("gradient computed without an Eve row")

    monkeypatch.setattr(sca, "sensing_mi_gradient", no_gradient)
    cfg = dataclasses.replace(TINY, eve_mi_cap=math.inf)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(1))
    sol, _ = sca.run_sca_no_an(links, stats_r, stats_e, cfg, RngState(1))
    assert sol.status == "optimal"


def test_eve_without_target_gain_gives_a_zero_multiplier_estimate():
    # A zero target response gives an Eve MI of 0 for every design.
    cfg = dataclasses.replace(TINY, eve_target_gains=(0.0,), eve_mi_cap=1.0)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(1))
    sol, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg, RngState(1))
    assert sol.status == "optimal" and sol.mi_eve == 0.0
    assert trace.rows[0].eve_weight == sca.PENALTY_INIT


@pytest.mark.parametrize("channel_seed", [2, 7, 12])
def test_binding_eve_cap_converges_in_few_outer_iterations(channel_seed):
    # Priced at 1e-3 nats per nat, kappa needed 8 outer iterations of
    # penalty growth on each of these channels before it reached 0.
    cfg = channels.ScenarioConfig(eve_mi_cap=1.0)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(channel_seed))
    sol, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg,
                                   RngState(channel_seed))
    assert sol.status == "optimal"
    assert len(trace.rows) <= 6


# Legitimate MI that the loop reaches at eve_mi_cap 1 when run to
# TOL_OBJ_NATS = 1e-9 with kappa priced like the rank residuals: the limits
# of the SCA iterates on these channels.  A design at the default tolerance
# stops after 2 outer iterations, 1.9e-6, 2.6e-6 and 1.3e-5 nats short of
# them.
EVE_CAP_LIMITS = {14: 5.6966022050, 17: 5.8230151844, 28: 5.8672897313}


@pytest.mark.parametrize("channel_seed", sorted(EVE_CAP_LIMITS))
def test_tightly_converged_binding_cap_design_reaches_the_limit(channel_seed,
                                                                monkeypatch):
    monkeypatch.setattr(sca, "TOL_OBJ_NATS", 1e-9)
    cfg = channels.ScenarioConfig(eve_mi_cap=1.0)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(channel_seed))
    sol, _ = sca.run_sca_no_an(links, stats_r, stats_e, cfg,
                               RngState(channel_seed))
    assert sol.status == "optimal"
    assert_beams_meet_the_limits(sol.weights, links, stats_e, cfg)
    assert sol.mi_legit >= EVE_CAP_LIMITS[channel_seed] - 1e-8


@pytest.mark.parametrize("channel_seed", [1, 2, 3])
def test_solution_reports_the_eve_bound_its_last_subproblem_enforced(
        channel_seed, monkeypatch):
    states = []
    build = sca.build_subproblem_no_an

    def recording_build(state, *args):
        states.append(state)
        return build(state, *args)

    monkeypatch.setattr(sca, "build_subproblem_no_an", recording_build)
    cfg = channels.ScenarioConfig(eve_mi_cap=1.0)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(channel_seed))
    sol, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg, RngState(1))

    # One state per solved subproblem; none is built after the last.
    assert len(states) == len(trace.rows) > 1
    enforced = metrics.sensing_mi_taylor_bound(
        stats_e, metrics.transmit_covariance(sol.weights), states[-1].exp_cov,
        cfg.frame_len)
    assert abs(sol.mi_eve_surrogate - enforced) <= 1e-12
    assert sol.mi_eve <= sol.mi_eve_surrogate + 1e-12


def tiny_optimum_lower_bound(links, stats_r, stats_e, cfg):
    """Best legitimate MI over rank-one TINY designs R = p u u^H, on a grid
    of unit directions u = (cos a, sin a e^{ib}) refined around its best
    cell.  Each MI is log(1 + g p) with g = (L / sigma^2) ||S B conj(u)||^2,
    so a direction's best power is min(P, (e^cap - 1) / g_eve), kept when it
    meets the SINR floor.  Every grid value is reachable, so the result
    bounds the global optimum from below."""
    h = np.asarray(links[0])

    def gain(stats, u):
        (block,) = stats.blocks
        v = np.tensordot(block, u.conj(), axes=1)
        return (cfg.frame_len / stats.noise_power
                * np.tensordot(stats.eigvals, np.abs(v) ** 2, axes=1))

    def best_mi(a, b):
        u = np.stack([np.cos(a), np.sin(a) * np.exp(1j * b)])
        power = np.minimum(cfg.power_budget,
                           np.expm1(cfg.eve_mi_cap) / gain(stats_e, u))
        signal = power * np.abs(np.tensordot(h.conj(), u, axes=1)) ** 2
        return np.where(signal >= cfg.sinr_targets[0] * cfg.noise_comm,
                        np.log1p(gain(stats_r, u) * power), -np.inf)

    # A 101 x 201 grid over every direction, then windows of +-4 cells
    # around the best point, each with a third of the previous cell size.
    a, b = np.linspace(0.0, np.pi / 2, 101), np.linspace(0.0, 2 * np.pi, 201)
    cell = np.array([a[1] - a[0], b[1] - b[0]])
    best = -np.inf
    for _ in range(15):
        grid = np.meshgrid(a, b, indexing="ij")
        vals = best_mi(*grid)
        top = np.unravel_index(np.argmax(vals), vals.shape)
        best = max(best, float(vals[top]))
        a, b = (g[top] + 4.0 * c * np.linspace(-1.0, 1.0, 41)
                for g, c in zip(grid, cell))
        cell /= 3.0
    return best


# Optima of TINY at 1 W from a 2001 x 4001 direction grid, equal on channel
# seeds 1 and 2 (the SINR target does not bind).
TINY_OPTIMA = {1.0: 3.3495, 0.1: 3.0319, 0.01: 1.9403}


@pytest.mark.parametrize("channel_seed", [1, 2])
@pytest.mark.parametrize("eve_mi_cap", sorted(TINY_OPTIMA))
def test_tiny_design_reaches_the_global_optimum(eve_mi_cap, channel_seed):
    cfg = dataclasses.replace(TINY, eve_mi_cap=eve_mi_cap)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(channel_seed))
    bound = tiny_optimum_lower_bound(links, stats_r, stats_e, cfg)
    assert bound >= TINY_OPTIMA[eve_mi_cap] - 1e-4

    sol, _ = sca.run_sca_no_an(links, stats_r, stats_e, cfg,
                               RngState(channel_seed))
    assert sol.status == "optimal"
    assert_beams_meet_the_limits(sol.weights, links, stats_e, cfg)
    assert sol.mi_legit >= bound - 1e-3


# Scenarios whose warm-started subproblems ran barrier stages to their step
# cap while every solve began at BARRIER_T0: TINY at 1 W, and the default
# scenario with Eve's target at 50 degrees, where the cap costs 0.6-0.7
# nats of legitimate MI.  At 1 kW with 20 dB less user noise, a warm start
# at a fixed duality gap instead of a margin in the beam rows sat 1e-5 from
# the W_k >= 0 boundary, against entries of about 1e3, and every solve then
# ran a stage to its cap.
STALL_CASES = [(dataclasses.replace(TINY, eve_mi_cap=cap), seed)
               for seed in (1, 2, 3, 4) for cap in (0.01, 0.3, 1.0)]
STALL_CASES.append((channels.ScenarioConfig(
    eve_target_angles=(math.radians(50.0),), eve_mi_cap=1.0), 1))
STALL_CASES += [(channels.ScenarioConfig(
    power_budget=1e3, noise_comm=1e-2, eve_mi_cap=1.0), seed)
    for seed in (1, 2, 3)]


def stall_case_id(cfg, seed):
    if cfg.n_tx == 2:
        name = "tiny"
    elif cfg.power_budget > 1.0:
        name = "kilowatt"
    else:
        name = "eve50deg"
    return f"{name}-cap{cfg.eve_mi_cap}-{seed}"


@pytest.mark.parametrize(
    "cfg, channel_seed", STALL_CASES,
    ids=[stall_case_id(cfg, seed) for cfg, seed in STALL_CASES])
def test_no_barrier_stage_stalls_at_its_cap(cfg, channel_seed, solver_results):
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(channel_seed))
    sol, _ = sca.run_sca_no_an(links, stats_r, stats_e, cfg,
                               RngState(channel_seed))

    assert sol.status == "optimal"
    assert all(steps < solver.STAGE_MAX_STEPS
               for res in solver_results for _, _, steps, _ in res.history)
    assert_beams_meet_the_limits(sol.weights, links, stats_e, cfg)


def beam_margin_of(links, cfg):
    """Smallest slack of the power, SINR and W_k >= 0 rows at per-user
    matrices, read from the anchor's problem."""
    rows = sca._beam_rows_problem(links, cfg)
    bp = solver.BarrierProblem(rows)
    return lambda mats: bp.strict_margin(
        rows.pack({f"W{k}": m for k, m in enumerate(mats)}))


def test_each_warm_start_is_the_deepest_stage_point_with_the_margin(
        monkeypatch):
    solves = []                  # (problem, initial, result) of every solve

    def recording_solve(problem, initial=None):
        res = solve(problem, initial=initial)
        solves.append((problem, initial, res))
        return res

    solve = sca.solve
    monkeypatch.setattr(sca, "solve", recording_solve)
    cfg = channels.ScenarioConfig(eve_mi_cap=1.0)
    names = [f"W{k}" for k in range(cfg.n_users)]
    picked, warm = [], 0
    # perfbench's eve_active panel, channel seeds 1-12, and 13-14: 12 warm
    # starts, one per design but those of channels 6 and 13, which certify
    # after their first solve.
    for channel_seed in range(1, 15):
        solves.clear()
        links, stats_r, stats_e = channels.build_scenario(
            cfg, RngState(channel_seed))
        sol, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg,
                                       RngState(channel_seed))
        assert sol.status == "optimal"

        (_, _, anchor_res), *subproblems = solves
        anchor = [anchor_res.values[name] for name in names]
        margin = beam_margin_of(links, cfg)
        floor = sca.ANCHOR_BLEND * margin(anchor)
        for (prev, _, prev_res), (_, initial, _) in zip(subproblems,
                                                       subproblems[1:]):
            warm += 1
            start = [initial[name] for name in names]
            candidates = [[prev.unpack(x)[name] for name in names]
                          for *_, x in prev_res.history if x is not None]
            expected = None
            for depth in range(len(candidates) - 1, -1, -1):
                if margin(candidates[depth]) >= floor:
                    expected = candidates[depth]
                    picked.append(len(candidates) - 1 - depth)
                    break
            if expected is None:
                expected = [(1.0 - sca.ANCHOR_BLEND) * prev_res.values[name]
                            + sca.ANCHOR_BLEND * a
                            for name, a in zip(names, anchor)]
            for got, want in zip(start, expected):
                assert np.array_equal(got, want)
    # On this panel no start falls back to the blend, and none is the
    # previous solve's final iterate, whose matrices are nearly rank one.
    assert warm >= 12 and len(picked) == warm
    assert min(picked) >= 1


@given(channel_seed=st.integers(1, 1000),
       power_budget=st.sampled_from([1e-3, 1.0]),
       eve_mi_cap=st.floats(0.01, 5.0))
@settings(max_examples=15, deadline=None)
def test_blend_keeps_anchor_blend_of_the_anchor_margin(channel_seed,
                                                       power_budget,
                                                       eve_mi_cap):
    cfg = dataclasses.replace(TINY, power_budget=power_budget,
                              eve_mi_cap=eve_mi_cap)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(channel_seed))
    try:
        anchor, _ = anchor_point(links, cfg)
    except InfeasibleError:
        return
    sol, _ = sca.run_sca_no_an(links, stats_r, stats_e, cfg,
                               RngState(channel_seed))
    # A solve without stage points leaves only the last candidate: the final
    # matrices, here the design's nearly rank-one ones, blended toward the
    # anchor.
    final = solver.SolverResult(
        values={f"W{k}": m for k, m in enumerate(sol.weight_mats)},
        objective=0.0, iterations=0, status="optimal")
    margin = beam_margin_of(links, cfg)
    blend = sca._warm_start(None, final, anchor, margin)

    for got, m, a in zip(blend, sol.weight_mats, anchor):
        assert np.array_equal(
            got, (1.0 - sca.ANCHOR_BLEND) * m + sca.ANCHOR_BLEND * a)
    assert margin(blend) >= sca.ANCHOR_BLEND * margin(anchor) > 0.0


@pytest.mark.parametrize("channel_seed", [1, 2])
def test_tiny_subproblem_solution_meets_its_constraints(channel_seed):
    cfg = TINY
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(channel_seed))
    exp_mats = random_expansion(cfg, RngState(channel_seed))
    state = sca.SCAState(exp_mats, sca.PENALTY_INIT, sca.PENALTY_INIT)
    res = sca.solve(sca.build_subproblem_no_an(
        state, links, stats_r, sca._eve_row(state, stats_e, cfg), cfg))
    mats = [res.values[f"W{k}"] for k in range(cfg.n_users)]
    tx_cov = sum(mats)

    # Recompute each constraint from the returned values.
    targets = np.asarray(cfg.sinr_targets) * (1.0 + sca.SINR_MARGIN)
    rates = metrics.sinr(links, mats, cfg.noise_comm)
    assert np.all(rates >= targets * (1.0 - 1e-6))
    assert np.trace(tx_cov).real <= cfg.power_budget * (1.0 + 1e-6)
    eve_bound = metrics.sensing_mi_taylor_bound(stats_e, tx_cov, state.exp_cov,
                                                cfg.frame_len)
    assert eve_bound - res.values["kappa"][0, 0].real <= cfg.eve_mi_cap + 1e-6


def test_design_status_reports_a_non_optimal_subproblem(monkeypatch):
    cfg = TINY
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(1))
    solve = sca.solve

    def stage_cap_solve(*args, **kwargs):
        return dataclasses.replace(solve(*args, **kwargs), status="stage-cap")

    monkeypatch.setattr(sca, "solve", stage_cap_solve)
    sol, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg, RngState(1))
    assert trace.converged_at is not None
    assert sol.status == "stage-cap"


def test_unreachable_sinr_targets_raise_infeasible(monkeypatch):
    cfg = dataclasses.replace(TINY, sinr_targets=(1e9,), power_budget=1e-3)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(1))
    calls = []
    solve = sca.solve

    def counting_solve(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(sca, "solve", counting_solve)
    with pytest.raises(InfeasibleError,
                       match="unreachable within the power budget"):
        sca.run_sca_no_an(links, stats_r, stats_e, cfg, RngState(1))
    # The min-power fixed point certifies it before any solve.
    assert calls == []


def test_anchor_beyond_the_phase_one_box_designs():
    # At 1e9 W the anchor's traces are of order 1e8 W, far beyond the box of
    # radius 1e4 about the origin that phase I searches; the closed-form
    # start needs no box.
    cfg = channels.ScenarioConfig(power_budget=1e9, noise_comm=1e4,
                                  eve_mi_cap=math.inf)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(1))
    sol, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg, RngState(1))
    assert sol.status == "optimal" and trace.converged_at == len(trace.rows)
    assert_beams_meet_the_limits(sol.weights, links, stats_e, cfg)


@pytest.mark.parametrize("channel_seed", [1, 2, 3])
@pytest.mark.parametrize("power_budget, noise_comm", [(1e10, 1e5), (1e11, 1e6)],
                         ids=["1e10W", "1e11W"])
def test_high_power_designs_end_optimal_within_their_limits(
        power_budget, noise_comm, channel_seed, monkeypatch):
    # The 1e9 W scenario above scaled by 10 and 100, where eigenvalue
    # round-off of order eps * 1e10 W exceeds any absolute feasibility
    # tolerance.  Every point a barrier solve returns passed its domain
    # test, so a status names the barrier's own outcome.  The loop tests the
    # rank residual relative to the budget: in watts, at these budgets, it
    # sits on a round-off floor above TOL_PENALTY.
    calls = []
    solve = sca.solve

    def recording_solve(problem, initial=None):
        res = solve(problem, initial=initial)
        calls.append((problem, res))
        return res

    monkeypatch.setattr(sca, "solve", recording_solve)
    cfg = channels.ScenarioConfig(power_budget=power_budget,
                                  noise_comm=noise_comm, eve_mi_cap=math.inf)
    links, stats_r, stats_e = channels.build_scenario(cfg,
                                                      RngState(channel_seed))
    sol, _ = sca.run_sca_no_an(links, stats_r, stats_e, cfg,
                               RngState(channel_seed))
    for problem, res in calls:
        x = problem.pack(res.values)
        assert solver.BarrierProblem(problem).in_domain(x)
        assert res.status in {"optimal", "stage-cap", "line-search-failed"}
    assert sol.status == "optimal"
    assert_beams_meet_the_limits(sol.weights, links, stats_e, cfg)


def test_infinite_eve_cap_drops_the_eve_constraint(solver_results):
    cfg = dataclasses.replace(TINY, eve_mi_cap=math.inf)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(1))
    state = sca.SCAState(random_expansion(cfg, RngState(1)), sca.PENALTY_INIT,
                         sca.PENALTY_INIT)
    rows = {}
    for cap in (TINY.eve_mi_cap, math.inf):
        capped = dataclasses.replace(cfg, eve_mi_cap=cap)
        prob = sca.build_subproblem_no_an(
            state, links, stats_r, sca._eve_row(state, stats_e, capped), capped)
        rows[cap] = len(prob.ineqs)
    assert rows == {TINY.eve_mi_cap: 4, math.inf: 2}

    sol, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg, RngState(1))
    assert sol.status == "optimal"
    # Every solve is counted: the anchor's and one per outer iteration.
    assert len(solver_results) == len(trace.rows) + 1
    r_x = metrics.transmit_covariance(sol.weights)
    rates = metrics.sinr(links, sol.weights, cfg.noise_comm)
    assert np.all(rates >= np.asarray(cfg.sinr_targets) * (1.0 - 1e-6))
    assert float(np.real(np.trace(r_x))) <= cfg.power_budget * (1.0 + 1e-6)


@pytest.mark.parametrize("cfg", [TINY, channels.ScenarioConfig(power_budget=1e-3)],
                         ids=["tiny", "one_milliwatt"])
def test_anchor_is_strictly_inside_the_beam_constraints(cfg):
    links, _, _ = channels.build_scenario(cfg, RngState(1))
    mats, _ = anchor_point(links, cfg)
    assert_strictly_inside_the_beam_rows(mats, links, cfg)


def assert_strictly_inside_the_beam_rows(mats, links, cfg):
    power = float(np.real(np.trace(metrics.transmit_covariance(mats))))
    assert power < cfg.power_budget
    targets = np.asarray(cfg.sinr_targets) * (1.0 + sca.SINR_MARGIN)
    assert np.all(metrics.sinr(links, mats, cfg.noise_comm) > targets)
    for m in mats:
        assert np.linalg.eigvalsh(m)[0] > 0.0


def least_power(links, cfg):
    """The least power of beams that meet the tightened SINR targets: the
    downlink powers that meet them exactly along the unit MMSE directions
    of the min-power fixed point (Schubert & Boche, IEEE TVT 2004)."""
    links = np.column_stack(links)
    targets = np.asarray(cfg.sinr_targets) * (1.0 + sca.SINR_MARGIN)
    filters = sca._min_power_filters(links, targets, cfg.noise_comm, np.inf)
    dirs = filters / np.linalg.norm(filters, axis=0)
    gains = np.abs(links.conj().T @ dirs) ** 2
    signal = np.diag(gains)
    system = np.diag(signal / targets + signal) - gains
    return float(np.sum(np.linalg.solve(
        system, np.full(len(signal), cfg.noise_comm))))


@pytest.mark.parametrize("channel_seed", [1, 2, 3])
@pytest.mark.parametrize("cfg", [TINY, channels.ScenarioConfig(),
                                 channels.ScenarioConfig(power_budget=1e-3)],
                         ids=["tiny", "default", "one_milliwatt"])
def test_anchor_is_strictly_inside_a_budget_that_barely_fits(cfg,
                                                             channel_seed):
    # A budget 1e-3 above the targets' least power, where 1e-3 below it
    # has no interior: the start built from the verdict's own min-power
    # directions lies strictly inside the beam rows, and so does the anchor
    # centered from it.
    links, _, _ = channels.build_scenario(cfg, RngState(channel_seed))
    least = least_power(links, cfg)
    with pytest.raises(InfeasibleError):
        sca._anchor_start(links, dataclasses.replace(
            cfg, power_budget=(1.0 - 1e-3) * least))
    cfg = dataclasses.replace(cfg, power_budget=(1.0 + 1e-3) * least)
    assert_strictly_inside_the_beam_rows(sca._anchor_start(links, cfg),
                                         links, cfg)
    mats, _ = anchor_point(links, cfg)
    assert_strictly_inside_the_beam_rows(mats, links, cfg)


@pytest.mark.parametrize("cfg", [TINY, channels.ScenarioConfig()],
                         ids=["tiny", "default"])
def test_anchor_solve_stops_after_its_first_stage(cfg, solver_results):
    links, _, _ = channels.build_scenario(cfg, RngState(1))
    anchor_point(links, cfg)
    # A solve without an objective is done once its first stage centers it.
    assert [len(res.history) for res in solver_results] == [1]
    assert solver_results[0].status == "optimal"


def closed_form_start_agrees_with_phase_one(links, cfg):
    """True when the closed-form start exists, which must then lie inside
    the barrier domain; either way phase I, run from the origin by a solve
    without a start, must reach the same verdict."""
    prob = sca._beam_rows_problem(links, cfg)
    try:
        start = sca._anchor_start(links, cfg)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            solver.solve(prob)
        return False
    values = {f"W{k}": m for k, m in enumerate(start)}
    assert solver.BarrierProblem(prob).in_domain(prob.pack(values))
    assert solver.solve(prob).status == "optimal"
    return True


def test_closed_form_verdict_matches_phase_one_on_cold_start_channels():
    # perfbench's cold_start workload (1 mW) on channel seeds 1-58.
    cfg = channels.ScenarioConfig(power_budget=1e-3)
    infeasible = [seed for seed in range(1, 59)
                  if not closed_form_start_agrees_with_phase_one(
                      channels.build_scenario(cfg, RngState(seed))[0], cfg)]
    assert infeasible == [21, 22, 25, 47, 50]


@given(channel_seed=st.integers(1, 1000), n_users=st.sampled_from([1, 2]),
       sinr_target=st.floats(1.0, 1e4),
       power_budget=st.sampled_from([1e-3, 1.0]))
@settings(max_examples=30, deadline=None)
def test_closed_form_verdict_matches_phase_one_on_tiny_draws(
        channel_seed, n_users, sinr_target, power_budget):
    cfg = dataclasses.replace(TINY, n_users=n_users, user_angles=(),
                              sinr_targets=(sinr_target,),
                              power_budget=power_budget)
    links, _, _ = channels.build_scenario(cfg, RngState(channel_seed))
    closed_form_start_agrees_with_phase_one(links, cfg)


def test_anchor_takes_fewer_newton_steps_than_with_phase_one(monkeypatch):
    cfg = channels.ScenarioConfig(power_budget=1e-3)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(1))
    _, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg, RngState(1))

    # The same solve without a start: phase I's barrier, then centering.
    steps = []
    run_barrier = solver._run_barrier

    def counting_run_barrier(*args, **kwargs):
        out = run_barrier(*args, **kwargs)
        steps.append(out[1])
        return out

    monkeypatch.setattr(solver, "_run_barrier", counting_run_barrier)
    res = solver.solve(sca._beam_rows_problem(links, cfg))
    assert len(steps) == 2 and steps[1] == res.iterations
    assert 0 < trace.anchor_newton_steps < sum(steps)


def assert_beams_meet_the_limits(weights, links, stats_e, cfg):
    r_x = metrics.transmit_covariance(weights)
    rates = metrics.sinr(links, weights, cfg.noise_comm)
    assert np.all(rates >= np.asarray(cfg.sinr_targets) * (1.0 - 1e-6))
    assert float(np.real(np.trace(r_x))) <= cfg.power_budget * (1.0 + 1e-9)
    mi_eve = metrics.sensing_mi(stats_e, r_x, cfg.frame_len)
    assert mi_eve <= cfg.eve_mi_cap + sca.EVE_RECHECK_SLACK


def test_randomization_without_a_feasible_draw_is_flagged(monkeypatch):
    # No relaxed solution passes a rank-one threshold above 1, so every
    # design randomizes; with no candidates, no draw can be feasible.
    monkeypatch.setattr(sca, "RANK_ONE_THRESHOLD", 1.5)
    monkeypatch.setattr(sca, "RANDOMIZATION_CANDIDATES", 0)
    links, stats_r, stats_e = channels.build_scenario(TINY, RngState(1))
    sol, _ = sca.run_sca_no_an(links, stats_r, stats_e, TINY, RngState(1))
    assert sol.status == "randomization-failed"


def test_accepted_randomization_draw_meets_the_limits(monkeypatch):
    monkeypatch.setattr(sca, "RANK_ONE_THRESHOLD", 1.5)
    links, stats_r, stats_e = channels.build_scenario(TINY, RngState(1))
    sol, _ = sca.run_sca_no_an(links, stats_r, stats_e, TINY, RngState(1))
    assert sol.status == "optimal"
    assert_beams_meet_the_limits(sol.weights, links, stats_e, TINY)


def test_randomization_keeps_only_draws_within_the_limits():
    # The anchor's beam matrices have full rank: among three users, 88 of
    # the 100 draws from them miss a SINR target.
    cfg = channels.ScenarioConfig()
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(1))
    mats, _ = anchor_point(links, cfg)
    beams = sca._gaussian_randomization(mats, links, stats_r, stats_e, cfg,
                                        RngState(1))
    assert beams is not None
    assert_beams_meet_the_limits(beams, links, stats_e, cfg)


def test_design_over_the_eve_cap_is_not_reported_optimal(monkeypatch,
                                                         solver_results):
    # No Eve MI meets the cap with a slack of -inf.
    monkeypatch.setattr(sca, "EVE_RECHECK_SLACK", -math.inf)
    links, stats_r, stats_e = channels.build_scenario(TINY, RngState(1))
    sol, trace = sca.run_sca_no_an(links, stats_r, stats_e, TINY, RngState(1))

    assert sol.status == "limits-violated"
    # Every solve is counted: the anchor's and one per outer iteration,
    # none after the limits check.
    assert len(solver_results) == len(trace.rows) + 1


def plain_sdr(links, stats_r, cfg, sinr_scale=1.0 - 1e-6):
    """Per-user matrices W_k of the semidefinite relaxation without an Eve
    constraint (Luo et al., IEEE SP Mag. 2010): maximize the legitimate
    sensing MI of sum_k W_k over W_k >= 0, power <= budget and SINR >=
    target * sinr_scale, with every row written out here from its closed
    form."""
    n, users = cfg.n_tx, range(cfg.n_users)
    prob = solver.ConicSubproblem()
    names = [f"W{k}" for k in users]
    for name in names:
        prob.add_hermitian(name, n)
        prob.add_lmi(prob.matrix_map(np.zeros((n, n)),
                                     {name: solver.hermitian_basis(n)}))
    prob.add_ineq(prob.scalar_map(dict.fromkeys(
        names, solver.hermitian_weights(np.eye(n)))), cfg.power_budget)
    for k, link in enumerate(links):
        # target (sum_{j != k} h^H W_j h + noise) - h^H W_k h <= 0
        h = np.asarray(link)
        gain = solver.hermitian_weights(np.outer(h, h.conj()))
        target = cfg.sinr_targets[k] * sinr_scale
        prob.add_ineq(prob.scalar_map({
            name: (-1.0 if j == k else target) * gain
            for j, name in enumerate(names)}), -target * cfg.noise_comm)
    # MI = logdet(I + (L / sigma^2) sqrt(Lam) sum_i B_i R* B_i^H sqrt(Lam)),
    # linear in R = sum_k W_k inside the log-det.
    root = np.sqrt(stats_r.eigvals)
    coefs = np.stack([
        root[:, None] * sum(b @ e.conj() @ b.conj().T for b in stats_r.blocks)
        * root[None, :] for e in solver.hermitian_basis(n)])
    scale = cfg.frame_len / stats_r.noise_power
    prob.set_objective(logdet=prob.matrix_map(
        np.eye(stats_r.dim), {tuple(names): scale * coefs}))
    res = solver.solve(prob)
    assert res.status == "optimal"
    return [res.values[name] for name in names]


@pytest.mark.parametrize("channel_seed", [1, 2])
@pytest.mark.parametrize("power_budget", [1.0, 1e-3], ids=["1W", "1mW"])
@pytest.mark.parametrize("base", [TINY, channels.ScenarioConfig()],
                         ids=["tiny", "default"])
def test_design_without_eve_cap_matches_the_plain_sdr(base, power_budget,
                                                      channel_seed):
    cfg = dataclasses.replace(base, power_budget=power_budget,
                              eve_mi_cap=math.inf)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(channel_seed))
    sol, _ = sca.run_sca_no_an(links, stats_r, stats_e, cfg,
                               RngState(channel_seed))
    mats = plain_sdr(links, stats_r, cfg)
    sdr_mi = metrics.sensing_mi(stats_r, sum(mats), cfg.frame_len)

    # The rank-one design is feasible for the relaxation, so it cannot beat
    # it; a rank-one relaxation is tight and the design must reach it.
    assert sol.mi_legit <= sdr_mi + 1e-7
    if all(metrics.rank_one_certificate(m) >= sca.RANK_ONE_THRESHOLD
           for m in mats):
        assert sol.mi_legit >= sdr_mi - 1e-3


# Scenarios whose Eve cap does not bind: perfbench's cold_start workload
# (1 mW) on channel seeds 1-3, its tight_sinr workload (40 dB targets) on
# seed 1, and the default scenario.
CERTIFIED_CASES = [(channels.ScenarioConfig(power_budget=1e-3), seed)
                   for seed in (1, 2, 3)]
CERTIFIED_CASES += [(channels.ScenarioConfig(sinr_targets=(1e4,)), 1),
                    (channels.ScenarioConfig(), 1)]


@pytest.mark.parametrize(
    "cfg, channel_seed", CERTIFIED_CASES,
    ids=["cold_start-1", "cold_start-2", "cold_start-3", "tight_sinr-1",
         "default-1"])
def test_certified_design_reaches_the_cap_free_sdr_bound(cfg, channel_seed):
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(channel_seed))
    sol, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg,
                                   RngState(channel_seed))
    assert sol.status == "optimal"
    assert sol.certified and trace.certified and trace.converged_at == 1
    assert_beams_meet_the_limits(sol.weights, links, stats_e, cfg)

    # The SDR at the design's tightened SINR targets, without the Eve row,
    # bounds every design from above; a certified one reaches it.
    mats = plain_sdr(links, stats_r,
                     dataclasses.replace(cfg, eve_mi_cap=math.inf),
                     sinr_scale=1.0 + sca.SINR_MARGIN)
    bound = metrics.sensing_mi(stats_r, sum(mats), cfg.frame_len)
    assert sol.mi_legit >= bound - solver.OBJ_TOL


# Outer iterations of perfbench's eve_active designs (Eve cap 1 nat) on
# channel seeds 1-3, whose anchors exceed the cap, so that the first
# subproblem caps tr A_e(R) instead of the Eve MI's expansion at the anchor.
EVE_ACTIVE_OUTER_ITERS = {1: 2, 2: 2, 3: 2}


def eigenvector_beams(mats):
    """The beams sqrt(tr W_k) u_k, u_k the top unit eigenvector of W_k."""
    return [np.sqrt(np.trace(m).real) * np.linalg.eigh(m)[1][:, -1]
            for m in mats]


@pytest.mark.parametrize("channel_seed", sorted(EVE_ACTIVE_OUTER_ITERS))
def test_binding_cap_design_is_never_certified(channel_seed, solver_results):
    cfg = channels.ScenarioConfig(eve_mi_cap=1.0)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(channel_seed))
    sol, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg,
                                   RngState(channel_seed))
    assert sol.status == "optimal"
    assert not sol.certified and not trace.certified
    # The certificate is tried on the trace relaxation's solution, whose
    # eigenvector beams exceed the cap: log1p(tr A_e) at most the cap does
    # not bound the Eve MI from above.
    anchor_res, first = solver_results[:2]
    anchor = [anchor_res.values[f"W{k}"] for k in range(cfg.n_users)]
    assert metrics.sensing_mi(stats_e, sum(anchor),
                              cfg.frame_len) >= cfg.eve_mi_cap
    beams = eigenvector_beams(first.values[f"W{k}"]
                              for k in range(cfg.n_users))
    assert metrics.sensing_mi(stats_e, metrics.transmit_covariance(beams),
                              cfg.frame_len) > cfg.eve_mi_cap
    assert trace.rows[0].beam_mi_gap is not None
    assert trace.rows[0].mi_eve_surrogate <= trace.rows[0].mi_eve
    assert len(trace.rows) == EVE_ACTIVE_OUTER_ITERS[channel_seed]


@pytest.mark.parametrize("cfg", [TINY, channels.ScenarioConfig()],
                         ids=["tiny", "default"])
def test_trace_row_bounds_the_eve_mi_from_below(cfg):
    # A cap below the expansion point's Eve MI makes the first subproblem's
    # row the trace relaxation Re tr(G_0 R) - kappa <= e^cap - 1.
    cfg = dataclasses.replace(cfg, eve_mi_cap=1e-3)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(1))
    state = sca.SCAState(random_expansion(cfg, RngState(1)), 0.0, 1.0)
    assert metrics.sensing_mi(stats_e, state.exp_cov,
                              cfg.frame_len) >= cfg.eve_mi_cap
    row = sca._eve_row(state, stats_e, cfg)
    assert row.relaxed and row.rhs == math.expm1(cfg.eve_mi_cap)

    gen = np.random.default_rng(7)
    for i in range(100):
        rank = 1 + i % cfg.n_tx
        a = (gen.standard_normal((cfg.n_tx, rank))
             + 1j * gen.standard_normal((cfg.n_tx, rank)))
        r_x = 10.0 ** gen.uniform(-3.0, 1.0) * (a @ a.conj().T) / cfg.n_tx
        # tr A_e(R), with A_e(R) the Eve MI's log-det argument minus I.
        trace_a = cfg.frame_len / stats_e.noise_power * np.trace(
            metrics._scaled_quadratic(stats_e, r_x)).real
        assert abs(np.trace(row.grad @ r_x).real - trace_a) \
            <= 1e-12 * max(1.0, trace_a)
        assert row.bound(r_x) == pytest.approx(math.log1p(trace_a), rel=1e-12)
        assert row.bound(r_x) <= metrics.sensing_mi(stats_e, r_x,
                                                    cfg.frame_len) + 1e-12


def test_eve_active_designs_stop_on_their_own_rank_residual():
    # perfbench's eve_active panel, channel seeds 1-12.  Stopping on the
    # rank residual along the expansion's top eigenvector, channels 5, 7,
    # 9, 10, 11 and 12 ran a third outer iteration: that residual read
    # 1.0e-6 to 3.1e-6 W, while each iterate's own was at most 3e-9 W.
    cfg = channels.ScenarioConfig(eve_mi_cap=1.0)
    for channel_seed in range(1, 13):
        links, stats_r, stats_e = channels.build_scenario(
            cfg, RngState(channel_seed))
        sol, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg,
                                       RngState(channel_seed))
        assert sol.status == "optimal"
        assert len(trace.rows) <= 2
        assert trace.rows[-1].rho_max <= sca.TOL_PENALTY
        assert_beams_meet_the_limits(sol.weights, links, stats_e, cfg)


def test_one_milliwatt_design_certifies_within_the_solver_gap(monkeypatch):
    # perfbench's cold_start channel seed 11.  A certificate that required
    # 1e-9 nats sent a design whose eigenvector beams reached the relaxed MI
    # within 1.007e-9 to a second outer iteration; the relaxation's own
    # solve only bounds its gap by OBJ_TOL.  Its beams now come within
    # 9.9e-10, and no panel design lands between 1e-9 and OBJ_TOL, so the
    # extracted beams are scaled by 1 - 3e-8, which puts the gap at about
    # 4.9e-9 and still meets the SINR targets that the subproblem tightens
    # by SINR_MARGIN.  Its Eve row is an inactive Taylor row, so the
    # cap-free SDR bounds every design.
    extract = sca._extract_solution

    def shrunk_extract(weight_mats, *args):
        scale = (1.0 - 3e-8) ** 2
        return extract([scale * m for m in weight_mats], *args)

    monkeypatch.setattr(sca, "_extract_solution", shrunk_extract)
    cfg = channels.ScenarioConfig(power_budget=1e-3)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(11))
    sol, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg, RngState(11))
    assert sol.status == "optimal"
    assert sol.certified and trace.certified and len(trace.rows) == 1
    assert 1e-9 < trace.rows[0].beam_mi_gap <= solver.OBJ_TOL
    assert_beams_meet_the_limits(sol.weights, links, stats_e, cfg)
    mats = plain_sdr(links, stats_r,
                     dataclasses.replace(cfg, eve_mi_cap=math.inf),
                     sinr_scale=1.0 + sca.SINR_MARGIN)
    bound = metrics.sensing_mi(stats_r, sum(mats), cfg.frame_len)
    assert sol.mi_legit >= bound - solver.OBJ_TOL


def test_eve_active_design_below_the_cap_stops_after_one_solve(solver_results):
    # perfbench's eve_active channel seed 6: the anchor exceeds the cap of 1
    # nat, the design's Eve MI is 0.29 nats.  Its Taylor row at the anchor
    # took 3 outer iterations; the trace row's solution is certified.
    cfg = channels.ScenarioConfig(eve_mi_cap=1.0)
    links, stats_r, stats_e = channels.build_scenario(cfg, RngState(6))
    sol, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg, RngState(6))
    anchor = [solver_results[0].values[f"W{k}"] for k in range(cfg.n_users)]
    assert metrics.sensing_mi(stats_e, sum(anchor),
                              cfg.frame_len) >= cfg.eve_mi_cap

    assert sol.status == "optimal"
    assert sol.certified and trace.certified and len(trace.rows) == 1
    assert sol.mi_eve <= cfg.eve_mi_cap
    assert_beams_meet_the_limits(sol.weights, links, stats_e, cfg)
    # The solution reports the bound its row enforced, log1p(tr A_e(R)).
    r_x = metrics.transmit_covariance(sol.weights)
    trace_a = cfg.frame_len / stats_e.noise_power * np.trace(
        metrics._scaled_quadratic(stats_e, r_x)).real
    assert sol.mi_eve_surrogate == pytest.approx(math.log1p(trace_a),
                                                 rel=1e-12)
    assert sol.mi_eve_surrogate <= sol.mi_eve


def test_certified_designs_meet_a_cap_of_three_nats_without_slack():
    # perfbench's eve_active scenario at a cap of 3 nats, channel seeds 1-12:
    # the trace row's solution certifies 10 of the 12 designs.  The other two
    # end at the cap after 3 outer iterations.
    cfg = channels.ScenarioConfig(eve_mi_cap=3.0)
    certified = 0
    for channel_seed in range(1, 13):
        links, stats_r, stats_e = channels.build_scenario(
            cfg, RngState(channel_seed))
        sol, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg,
                                       RngState(channel_seed))
        assert sol.status == "optimal"
        assert_beams_meet_the_limits(sol.weights, links, stats_e, cfg)
        if sol.certified:
            certified += 1
            assert len(trace.rows) == 1
            mi_eve = metrics.sensing_mi(
                stats_e, metrics.transmit_covariance(sol.weights),
                cfg.frame_len)
            assert mi_eve <= cfg.eve_mi_cap
    assert certified == 10


DEFAULT_DESIGN = """
import json, sys
from sensesec import channels, sca
from sensesec.linalg import RngState
cfg = channels.ScenarioConfig(eve_mi_cap=float(sys.argv[1]))
seed = int(sys.argv[2])
links, stats_r, stats_e = channels.build_scenario(cfg, RngState(seed))
sol, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg, RngState(seed))
print(json.dumps([sol.status, len(trace.rows), sol.mi_legit, sol.mi_eve]))
"""


def outputs_at_one_and_two_blas_threads(code, *args):
    """Parsed JSON output of ``code`` run with ``args`` at one and at two
    BLAS threads.  BLAS reads its thread count at import, so each count
    needs a fresh interpreter; the two run side by side."""
    src = str(Path(sca.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        runs.append(subprocess.Popen(
            [sys.executable, "-c", code, *map(str, args)], env=env,
            stdout=subprocess.PIPE, text=True))
    outputs = [json.loads(run.communicate()[0]) for run in runs]
    assert all(run.returncode == 0 for run in runs)
    return outputs


@pytest.mark.parametrize("eve_mi_cap, channel_seed",
                         [(channels.ScenarioConfig.eve_mi_cap, 1), (1.0, 2)],
                         ids=["default-cap", "binding-cap"])
def test_default_design_agrees_at_one_and_two_blas_threads(eve_mi_cap,
                                                           channel_seed):
    (status1, outer1, legit1, eve1), (status2, outer2, legit2, eve2) = \
        outputs_at_one_and_two_blas_threads(DEFAULT_DESIGN, repr(eve_mi_cap),
                                            channel_seed)
    assert (status1, outer1) == (status2, outer2)
    assert abs(legit1 - legit2) <= 1e-9
    assert abs(eve1 - eve2) <= 1e-9


DOCUMENTED_DESIGNS = """
import json
from sensesec import channels, sca
from sensesec.linalg import RngState
out = []
for cap in (5.0, 1.0):
    cfg = channels.ScenarioConfig(eve_mi_cap=cap)
    for seed in (1, 2, 3):
        links, stats_r, stats_e = channels.build_scenario(cfg, RngState(seed))
        sol, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg,
                                       RngState(seed))
        out.append([sol.status, trace.anchor_newton_steps, len(trace.rows),
                    sum(r.solver_iterations for r in trace.rows),
                    repr(sol.mi_legit), repr(sol.mi_eve)])
print(json.dumps(out))
"""


def test_documented_designs_agree_across_blas_thread_counts():
    # The solver module docstring's designs: the default scenario at Eve
    # caps 5 and 1 on channel seeds 1-3.  Statuses, anchor and subproblem
    # Newton steps, outer iterations and both MIs, to the last bit, are the
    # same at one and at two BLAS threads.
    one, two = outputs_at_one_and_two_blas_threads(DOCUMENTED_DESIGNS)
    assert len(one) == 6
    assert one == two


WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from conftest import TINY
from sensesec import channels, sca
from sensesec.linalg import RngState
links, stats_r, stats_e = channels.build_scenario(TINY, RngState(1))
sol, trace = sca.run_sca_no_an(links, stats_r, stats_e, TINY, RngState(1))
libs = None
if sys.platform.startswith("linux"):
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps
                       if "openblas" in line.split()[-1]})
print(json.dumps([sol.status, sorted(m for m, mod in sys.modules.items()
                                     if m.split(".")[0] == "scipy" and mod),
                  libs]))
"""


def test_design_runs_without_scipy():
    # A design needs numpy alone: with scipy blocked from import, TINY is
    # designed, no scipy module loads, and the process maps one OpenBLAS,
    # numpy's, whose LAPACK factors every Newton system.
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(sca.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, tests, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY], env=env,
                         check=True, capture_output=True, text=True)
    status, scipy_modules, openblas = json.loads(out.stdout)
    assert status == "optimal"
    assert scipy_modules == []
    if sys.platform.startswith("linux"):
        assert len(openblas) == 1, openblas


def random_panel(seed, power_exp, sinr_exp, cap_exp):
    """80 seeded random scenarios [(cfg, channel seed)], drawn per scenario in
    this order: n_tx from {4, 6}, n_users from {1, 2, 3}, the power budget
    10**uniform(*power_exp) W, one SINR target 10**uniform(*sinr_exp) for
    every user, the Eve cap 10**uniform(*cap_exp) nats, Eve's target angle
    uniform in [20, 160] degrees and the channel seed from 1-999; Rician
    factor 2 and every other field at its default."""
    rng = np.random.default_rng(seed)
    panel = []
    for _ in range(80):
        n_tx = int(rng.choice([4, 6]))
        n_users = int(rng.choice([1, 2, 3]))
        power_budget = 10.0 ** rng.uniform(*power_exp)
        sinr_target = 10.0 ** rng.uniform(*sinr_exp)
        eve_mi_cap = 10.0 ** rng.uniform(*cap_exp)
        angle = rng.uniform(math.radians(20.0), math.radians(160.0))
        channel_seed = int(rng.integers(1, 1000))
        panel.append((channels.ScenarioConfig(
            n_tx=n_tx, n_users=n_users, power_budget=power_budget,
            sinr_targets=(sinr_target,) * n_users,
            rician_factors=(2.0,) * n_users, eve_mi_cap=eve_mi_cap,
            eve_target_angles=(angle,)), channel_seed))
    return panel


def test_random_easy_panel_designs_are_optimal_within_their_limits():
    # The ROADMAP's R80-easy panel: 1 mW-100 W, SINR targets 0-30 dB and Eve
    # caps 0.03-6.3 nats, 241 outer iterations in all.  Its budgets span
    # five decades, so it exercises the line search on as many scales.
    outer = 0
    for cfg, channel_seed in random_panel(12345, (-3.0, 2.0), (0.0, 3.0),
                                          (-1.5, 0.8)):
        links, stats_r, stats_e = channels.build_scenario(
            cfg, RngState(channel_seed))
        sol, trace = sca.run_sca_no_an(links, stats_r, stats_e, cfg,
                                       RngState(1).child("d"))
        assert sol.status == "optimal", (cfg, channel_seed)
        assert_beams_meet_the_limits(sol.weights, links, stats_e, cfg)
        outer += len(trace.rows)
    assert outer == 241
