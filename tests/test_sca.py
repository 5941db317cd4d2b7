import numpy as np
import pytest

from sensesec import channels, metrics, sca
from sensesec.linalg import RngState

# Smallest scenario the SCA loop handles: two transmit antennas, one user.
TINY = channels.ScenarioConfig(n_tx=2, n_rx=1, n_eve=1, n_users=1,
                               sinr_targets=(10.0,), rician_factors=(2.0,))
STAGE_CAP = 60


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
    assert max(stage_steps) < STAGE_CAP

    # Recompute the design's numbers rather than trusting its status.
    r_x = metrics.transmit_covariance(sol.weights)
    rates = metrics.sinr(links, sol.weights, cfg.noise_comm)
    assert np.all(rates >= np.asarray(cfg.sinr_targets) * (1.0 - 1e-6))
    assert float(np.real(np.trace(r_x))) <= cfg.power_budget * (1.0 + 1e-6)
    mi_eve = metrics.sensing_mi(stats_e, r_x, cfg.frame_len)
    assert mi_eve <= cfg.eve_mi_cap + sca.EVE_RECHECK_SLACK
