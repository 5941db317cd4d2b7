import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from sensesec import channels
from sensesec.channels import (
    ScenarioConfig,
    SensingStats,
    build_scenario,
    build_sensing_stats,
    default_loading,
    sample_rician_channel,
    steering_vector,
)
from sensesec.linalg import RngState, sample_complex_gaussian


class TestSteering:
    def test_broadside_all_ones(self):
        v = steering_vector(math.pi / 2, 4)
        assert np.allclose(v, np.ones(4), atol=1e-12)

    def test_endfire(self):
        v = steering_vector(0.0, 2)
        assert np.allclose(v, [1.0, np.exp(-1j * np.pi)])

    def test_unit_modulus_and_phase_increment(self):
        v = steering_vector(math.pi / 3, 6)
        assert np.allclose(np.abs(v), 1.0)
        phases = np.unwrap(np.angle(v))
        incs = np.diff(phases)
        assert np.allclose(incs, -np.pi * math.cos(math.pi / 3), atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            steering_vector(-0.1, 4)
        with pytest.raises(ValueError):
            steering_vector(math.pi + 0.1, 4)


class TestRician:
    def cfg(self, **kw):
        return ScenarioConfig(**kw)

    def test_los_only_limit(self):
        cfg = self.cfg(rician_factors=(float("inf"),) * 3)
        ch = sample_rician_channel(cfg, 0, RngState(0))
        assert np.array_equal(ch, steering_vector(cfg.user_angles[0], cfg.n_tx))

    def test_zero_factor_zero_mean(self):
        cfg = self.cfg(rician_factors=(0.0,) * 3)
        draws = np.stack([
            sample_rician_channel(cfg, 0, RngState(0).child(str(i)))
            for i in range(10_000)
        ])
        mean_norm = np.linalg.norm(draws.mean(axis=0))
        assert mean_norm < 0.05 * math.sqrt(cfg.n_tx)

    def test_expected_energy(self):
        cfg = self.cfg(rician_factors=(1.0,) * 3, n_tx=6)
        energies = [
            np.linalg.norm(sample_rician_channel(cfg, 1, RngState(1).child(str(i)))) ** 2
            for i in range(10_000)
        ]
        assert abs(np.mean(energies) - 6.0) < 0.3


class TestSensingStats:
    def test_single_target_rank_one(self):
        stats = build_sensing_stats([math.radians(60)], [1.0], n_rx=2, n_tx=6,
                                    loading=0.0, noise_power=1.0)
        assert abs(stats.eigvals[0] - 12.0) < 1e-9
        assert np.all(np.abs(stats.eigvals[1:]) < 1e-9)

    def test_no_targets_identity(self):
        stats = build_sensing_stats([], [], n_rx=2, n_tx=3, loading=1.0,
                                    noise_power=1.0)
        assert np.allclose(stats.cov, np.eye(6))
        assert np.allclose(stats.eigvals, 1.0)

    def test_two_targets_rank_two(self):
        stats = build_sensing_stats([math.radians(50), math.radians(110)],
                                    [1.0, 0.7], n_rx=2, n_tx=4, loading=0.0,
                                    noise_power=1.0)
        rank = int(np.sum(stats.eigvals > 1e-9 * stats.eigvals[0]))
        assert rank == 2

    @pytest.mark.parametrize("n_tx", [1, 4])
    @pytest.mark.parametrize("n_rx", [1, 2, 3])
    def test_block_partition_identity(self, n_rx, n_tx):
        # sum_i P_i R* P_i^H equals U^H (R* kron I_rx) U for random PSD R:
        # with K the commutation matrix, K (I_rx kron A) K^T = A kron I_rx.
        rng = np.random.default_rng(5)
        stats = build_sensing_stats([0.9, 1.8], [1.0, 0.5], n_rx=n_rx,
                                    n_tx=n_tx, loading=1e-3, noise_power=1.0)
        a = rng.standard_normal((n_tx, n_tx)) \
            + 1j * rng.standard_normal((n_tx, n_tx))
        r = a @ a.conj().T
        lhs = sum(p @ r.conj() @ p.conj().T for p in stats.blocks)
        kron = np.kron(r.conj(), np.eye(n_rx))
        rhs = stats.eigvecs.conj().T @ kron @ stats.eigvecs
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_blocks_stack_to_unitary(self):
        stats = build_sensing_stats([1.0], [1.0], n_rx=2, n_tx=3, loading=1e-3,
                                    noise_power=1.0)
        p = np.hstack(stats.blocks)
        assert np.max(np.abs(p @ p.conj().T - np.eye(6))) < 1e-10

    def test_legit_eve_same_inputs_differ_only_in_noise(self):
        a = build_sensing_stats([1.0], [2.0], 2, 4, 1e-3, 1.0)
        b = build_sensing_stats([1.0], [2.0], 2, 4, 1e-3, 2.5)
        assert np.array_equal(a.cov, b.cov)
        assert np.array_equal(a.eigvals, b.eigvals)
        assert a.noise_power != b.noise_power

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            build_sensing_stats([1.0, 2.0], [1.0], 2, 4, 0.0, 1.0)

    def test_default_loading(self):
        assert default_loading([]) == 1.0
        assert abs(default_loading([1.0]) - 1e-3) < 1e-15


class TestScenarioConfig:
    def test_defaults_valid(self):
        cfg = ScenarioConfig()
        assert cfg.n_tx == 6 and cfg.n_users == 3
        assert len(cfg.sinr_targets) == 3
        assert len(cfg.user_angles) == 3

    def test_scalar_broadcast(self):
        cfg = ScenarioConfig(n_users=4, sinr_targets=(50.0,), rician_factors=(3.0,))
        assert cfg.sinr_targets == (50.0,) * 4
        assert cfg.rician_factors == (3.0,) * 4

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(power_budget=-1.0)
        with pytest.raises(ValueError):
            ScenarioConfig(n_users=2, sinr_targets=(10.0, 20.0, 30.0))

    @pytest.mark.parametrize("kw", [
        {"n_tx": 2.5}, {"frame_len": 30.5}, {"n_eve": 2.5},
        {"n_users": 2.5, "sinr_targets": (10.0,), "rician_factors": (2.0,)},
        {"n_rx": (1, 2)}],
        ids=["n_tx", "frame_len", "n_eve", "n_users", "n_rx-sequence"])
    def test_fractional_count_rejected(self, kw):
        key = next(iter(kw))
        with pytest.raises(ValueError, match=f"'{key}' must be an integer"):
            ScenarioConfig(**kw)

    def test_integral_float_count_becomes_int(self):
        cfg = ScenarioConfig(n_tx=4.0, frame_len=1e1)
        assert (cfg.n_tx, cfg.frame_len) == (4, 10)
        assert isinstance(cfg.n_tx, int) and isinstance(cfg.frame_len, int)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", [f.name for f in fields(ScenarioConfig)])
    def test_non_finite_value_rejected(self, name, bad):
        # A tuple field gets the value in its last entry.
        value = getattr(ScenarioConfig(), name)
        value = value[:-1] + (bad,) if isinstance(value, tuple) else bad
        if bad == math.inf and name in ("eve_mi_cap", "rician_factors"):
            # No Eve constraint, or a pure line-of-sight channel.
            assert getattr(ScenarioConfig(**{name: value}), name) == value
        else:
            with pytest.raises(ValueError):
                ScenarioConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("rician_factors", (-1.0,)), ("rician_factors", (-0.5,)),
        ("rician_factors", (2.0, 2.0, -2.0)),
        ("user_angles", (-0.1,)), ("user_angles", (1.0, 2.0, math.pi + 0.1)),
        ("radar_target_angles", (-1e-3,)), ("eve_target_angles", (4.0,))],
        ids=["rician-1", "rician-0.5", "rician-2", "user-0.1", "user-pi+0.1",
             "radar-1e-3", "eve-4"])
    def test_out_of_range_value_rejected(self, name, value):
        # build_scenario would fail on these without naming the field.
        with pytest.raises(ValueError, match=name):
            ScenarioConfig(**{name: value})

    def test_range_ends_accepted(self):
        cfg = ScenarioConfig(rician_factors=(0.0,), user_angles=(0.0, 1.0, math.pi),
                             radar_target_angles=(math.pi,), eve_target_angles=(0.0,))
        build_scenario(cfg, RngState(1))

    def test_infinite_rician_factor_is_line_of_sight(self):
        cfg = ScenarioConfig(rician_factors=(math.inf,))
        assert cfg.rician_factors == (math.inf,) * cfg.n_users
        links, _, _ = build_scenario(cfg, RngState(1))
        for link, angle in zip(links, cfg.user_angles):
            assert np.array_equal(link, steering_vector(angle, cfg.n_tx))


def test_build_scenario_deterministic():
    cfg = ScenarioConfig()
    ch1, sr1, se1 = build_scenario(cfg, RngState(3))
    ch2, sr2, se2 = build_scenario(cfg, RngState(3))
    for a, b in zip(ch1, ch2):
        assert np.array_equal(a, b)
    assert np.array_equal(sr1.cov, sr2.cov)
    assert np.array_equal(se1.eigvals, se2.eigvals)
    assert sr1.n_rx == cfg.n_rx and se1.n_rx == cfg.n_eve


def assert_stats_equal(a, b):
    for f in fields(SensingStats):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "blocks":
            assert len(x) == len(y)
            assert all(np.array_equal(p, q) for p, q in zip(x, y))
        else:
            assert np.array_equal(x, y), f.name


def test_channel_draws_of_one_config_share_its_sensing_stats():
    cfg = ScenarioConfig(eve_mi_cap=1.0)
    _, sr1, se1 = build_scenario(cfg, RngState(1))
    _, sr2, se2 = build_scenario(cfg, RngState(2))
    assert sr1 is sr2 and se1 is se2
    assert_stats_equal(sr1, build_sensing_stats(
        cfg.radar_target_angles, cfg.radar_target_gains, cfg.n_rx, cfg.n_tx,
        default_loading(cfg.radar_target_gains), cfg.noise_radar))
    assert_stats_equal(se1, build_sensing_stats(
        cfg.eve_target_angles, cfg.eve_target_gains, cfg.n_eve, cfg.n_tx,
        default_loading(cfg.eve_target_gains), cfg.noise_eve))


@pytest.mark.parametrize("name", ["cov", "eigvals", "eigvecs", "blocks"])
def test_shared_sensing_stats_are_read_only(name):
    _, stats_r, stats_e = build_scenario(ScenarioConfig(), RngState(1))
    for stats in (stats_r, stats_e):
        arrays = getattr(stats, name)
        for arr in arrays if name == "blocks" else (arrays,):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                arr *= 2.0


@pytest.mark.parametrize("n_tx", [2, 6, 8])
@pytest.mark.parametrize("channel_seed", [1, 2, 3])
def test_rician_scattering_matches_the_covariance_draw(channel_seed, n_tx):
    # The white CN(0, I) draw equals a draw through the identity's Cholesky
    # factor bit for bit.
    cfg = ScenarioConfig(n_tx=n_tx)
    links, _, _ = build_scenario(cfg, RngState(channel_seed))
    for user, link in enumerate(links):
        rng = RngState(channel_seed).child("channels").child(f"user{user}")
        k_factor = cfg.rician_factors[user]
        old = (math.sqrt(k_factor / (k_factor + 1.0))
               * steering_vector(cfg.user_angles[user], n_tx)
               + math.sqrt(1.0 / (k_factor + 1.0))
               * sample_complex_gaussian(rng, np.eye(n_tx)))
        assert np.array_equal(sample_rician_channel(cfg, user, rng), old)
        assert np.array_equal(link, old)


def test_channels_import_stays_light():
    # Building scenarios needs numpy alone: the solver and scipy load only
    # with a design.
    src = str(Path(channels.__file__).resolve().parents[1])
    code = ("import sys, sensesec.channels; print(' '.join(sorted(m for m in "
            "sys.modules if m.split('.')[0] == 'scipy' "
            "or m in ('sensesec.solver', 'sensesec.sca'))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.split() == []
