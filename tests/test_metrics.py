import math

import numpy as np
import pytest

from sensesec.channels import stats_from_covariance
from sensesec.linalg import psd_sqrt
from sensesec.metrics import (
    _scaled_quadratic,
    rank_one_certificate,
    sensing_mi,
    sensing_mi_gradient,
    sensing_mi_taylor_bound,
    sinr,
    transmit_covariance,
)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_psd(rng, n, rank=None, scale=1.0):
    a = random_complex(rng, n, rank or n)
    return scale * (a @ a.conj().T) / n


def random_hermitian(rng, n):
    a = random_complex(rng, n, n)
    return 0.5 * (a + a.conj().T)


def random_stats(rng, n_rx, n_tx, noise_power=1.0, rank=None):
    dim = n_rx * n_tx
    cov = random_psd(rng, dim, rank=rank)
    return stats_from_covariance(cov, n_rx, n_tx, noise_power)


def identity_stats(n_rx, n_tx, noise_power=1.0):
    return stats_from_covariance(np.eye(n_rx * n_tx), n_rx, n_tx, noise_power)


def mi_kron_oracle(stats, r_x, frame_len):
    """Unreduced MI: log det(I + sigma^-2 R_h (L R_X* kron I_rx))."""
    kron = np.kron(frame_len * np.conj(r_x), np.eye(stats.n_rx))
    arg = np.eye(stats.dim) + stats.cov @ kron / stats.noise_power
    sign, logdet = np.linalg.slogdet(arg)
    assert abs(sign - 1.0) < 1e-9
    return float(logdet)


def mi_from_waveform_oracle(stats, r_x, frame_len):
    """MI from an explicit waveform X with X X^H = L R_X exactly."""
    n_tx = stats.n_tx
    assert frame_len >= n_tx
    basis = np.eye(frame_len)[:, :n_tx]
    x = math.sqrt(frame_len) * psd_sqrt(r_x) @ basis.T
    xt = np.kron(x.T, np.eye(stats.n_rx))
    arg = np.eye(stats.n_rx * frame_len) \
        + xt @ stats.cov @ xt.conj().T / stats.noise_power
    sign, logdet = np.linalg.slogdet(arg)
    assert abs(sign - 1.0) < 1e-9
    return float(logdet)


class TestTransmitCovariance:
    def test_single_user_rank_one(self):
        w = math.sqrt(2.0) * np.eye(4)[:, 0]
        r = transmit_covariance([w])
        assert np.allclose(r, 2.0 * np.outer(np.eye(4)[:, 0], np.eye(4)[:, 0]))

    def test_orthonormal_scaled(self):
        p, k = 3.0, 2
        w = [math.sqrt(p / k) * np.eye(4)[:, j] for j in range(k)]
        r = transmit_covariance(w)
        assert np.allclose(r, (p / k) * np.diag([1, 1, 0, 0]))

    def test_trace_equals_sum(self):
        rng = np.random.default_rng(0)
        mats = [random_psd(rng, 5) for _ in range(3)]
        r = transmit_covariance(mats)
        assert abs(np.trace(r) - sum(np.trace(m) for m in mats)) < 1e-12

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError):
            transmit_covariance([np.ones(3), np.ones(4)])


class TestSinr:
    def test_single_user_closed_form(self):
        h = 2.0 * np.eye(4)[:, 0]
        w = math.sqrt(5.0) * np.eye(4)[:, 0]
        out = sinr([h], [w], noise_power=1.0)
        assert abs(out[0] - 5.0 * 4.0) < 1e-12

    def test_orthogonal_beam_zero(self):
        h = np.eye(4)[:, 0]
        w = np.eye(4)[:, 1]
        assert sinr([h], [w], noise_power=1.0)[0] == 0.0

    def test_two_user_matches_scalar_arithmetic(self):
        rng = np.random.default_rng(1)
        hs = [random_complex(rng, 4) for _ in range(2)]
        ws = [random_complex(rng, 4) for _ in range(2)]
        noise = 0.7
        out = sinr(hs, ws, noise)
        for k in range(2):
            num = abs(np.vdot(hs[k], ws[k])) ** 2
            den = noise + sum(abs(np.vdot(hs[k], ws[j])) ** 2
                              for j in range(2) if j != k)
            assert abs(out[k] - num / den) < 1e-12

    def test_matrix_and_vector_forms_agree(self):
        rng = np.random.default_rng(2)
        hs = [random_complex(rng, 4) for _ in range(3)]
        ws = [random_complex(rng, 4) for _ in range(3)]
        mats = [np.outer(w, w.conj()) for w in ws]
        assert np.allclose(sinr(hs, ws, 1.0), sinr(hs, mats, 1.0))


class TestSensingMI:
    def test_white_case_closed_form(self):
        stats = identity_stats(2, 3, noise_power=0.5)
        p, frame_len = 0.2, 10
        got = sensing_mi(stats, p * np.eye(3), frame_len)
        want = 6 * math.log(1.0 + frame_len * p / 0.5)
        assert abs(got - want) < 1e-10

    def test_zero_covariance(self):
        stats = identity_stats(2, 3)
        assert sensing_mi(stats, np.zeros((3, 3)), 30) == 0.0

    def test_matches_kron_oracle_rank_one_cov(self):
        rng = np.random.default_rng(7)
        stats = random_stats(rng, 2, 4, noise_power=0.8, rank=1)
        r_x = random_psd(rng, 4)
        got = sensing_mi(stats, r_x, 15)
        assert abs(got - mi_kron_oracle(stats, r_x, 15)) < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_kron_oracle_random(self, seed):
        rng = np.random.default_rng(100 + seed)
        stats = random_stats(rng, 2, 3, noise_power=1.3)
        r_x = random_psd(rng, 3)
        got = sensing_mi(stats, r_x, 8)
        assert abs(got - mi_kron_oracle(stats, r_x, 8)) < 1e-6

    def test_matches_explicit_waveform(self):
        rng = np.random.default_rng(8)
        stats = random_stats(rng, 2, 3)
        r_x = random_psd(rng, 3)
        got = sensing_mi(stats, r_x, 12)
        assert abs(got - mi_from_waveform_oracle(stats, r_x, 12)) < 1e-6

    def test_monotone_in_psd_order(self):
        rng = np.random.default_rng(9)
        stats = random_stats(rng, 2, 4)
        for _ in range(10):
            r = random_psd(rng, 4)
            bump = random_complex(rng, 4, 1)
            r_plus = r + bump @ bump.conj().T
            assert sensing_mi(stats, r_plus, 10) >= sensing_mi(stats, r, 10) - 1e-10

    def test_non_psd_rejected(self):
        stats = identity_stats(2, 3)
        with pytest.raises(ValueError):
            sensing_mi(stats, np.diag([1.0, -1.0, 0.0]), 10)

    def test_dim_mismatch_rejected(self):
        stats = identity_stats(2, 3)
        with pytest.raises(ValueError):
            sensing_mi(stats, np.eye(4), 10)


class TestGradient:
    def directional_fd(self, stats, r_x, direction, frame_len, t=1e-5):
        up = sensing_mi(stats, r_x + t * direction, frame_len)
        dn = sensing_mi(stats, r_x - t * direction, frame_len)
        return (up - dn) / (2.0 * t)

    def test_white_zero_point_value(self):
        # At R_X = 0 with identity target covariance the gradient is
        # (L / sigma^2) * n_rx * I; the finite-difference check pins the
        # constant (no factor-2 convention ambiguity survives the oracle).
        stats = identity_stats(2, 3, noise_power=2.0)
        frame_len = 7
        g = sensing_mi_gradient(stats, np.zeros((3, 3)), frame_len)
        want = (frame_len / 2.0) * 2 * np.eye(3)
        assert np.max(np.abs(g - want)) < 1e-9
        rng = np.random.default_rng(0)
        delta = random_hermitian(rng, 3)
        fd = self.directional_fd(stats, 0.2 * np.eye(3), delta, frame_len)
        g2 = sensing_mi_gradient(stats, 0.2 * np.eye(3), frame_len)
        assert abs(np.real(np.trace(g2 @ delta)) - fd) < 1e-5 * max(abs(fd), 1e-12)

    def test_zero_target_covariance_zero_gradient(self):
        stats = stats_from_covariance(np.zeros((6, 6)), 2, 3, 1.0)
        g = sensing_mi_gradient(stats, np.eye(3), 10)
        assert np.max(np.abs(g)) == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(200 + seed)
        n_tx = int(rng.integers(2, 7))
        n_rx = int(rng.integers(1, 4))
        stats = random_stats(rng, n_rx, n_tx, noise_power=float(rng.uniform(0.5, 2.0)))
        r_x = random_psd(rng, n_tx) + 0.1 * np.eye(n_tx)
        frame_len = int(rng.integers(4, 31))
        g = sensing_mi_gradient(stats, r_x, frame_len)
        assert np.max(np.abs(g - g.conj().T)) < 1e-12
        delta = random_hermitian(rng, n_tx)
        fd = self.directional_fd(stats, r_x, delta, frame_len)
        pred = float(np.real(np.trace(g @ delta)))
        assert abs(pred - fd) < 1e-5 * max(abs(fd), 1e-9)


class TestTaylorBound:
    def test_equality_at_expansion_point(self):
        rng = np.random.default_rng(31)
        stats = random_stats(rng, 2, 4)
        r = random_psd(rng, 4)
        bound = sensing_mi_taylor_bound(stats, r, r, 20)
        assert abs(bound - sensing_mi(stats, r, 20)) < 1e-10

    def test_global_upper_bound_200_pairs(self):
        rng = np.random.default_rng(32)
        stats = random_stats(rng, 2, 4, noise_power=0.7)
        for _ in range(200):
            r = random_psd(rng, 4, scale=float(rng.uniform(0.1, 3.0)))
            r_ref = random_psd(rng, 4, scale=float(rng.uniform(0.1, 3.0)))
            bound = sensing_mi_taylor_bound(stats, r, r_ref, 25)
            actual = sensing_mi(stats, r, 25)
            assert bound - actual >= -1e-8

    def test_zero_target_covariance(self):
        stats = stats_from_covariance(np.zeros((4, 4)), 2, 2, 1.0)
        rng = np.random.default_rng(33)
        bound = sensing_mi_taylor_bound(stats, random_psd(rng, 2),
                                        random_psd(rng, 2), 10)
        assert bound == 0.0


def test_rank_one_certificate():
    v = np.array([1.0, 2.0j, -1.0])
    assert abs(rank_one_certificate(np.outer(v, v.conj())) - 1.0) < 1e-12
    assert abs(rank_one_certificate(np.eye(3)) - 1.0 / 3.0) < 1e-12
    assert rank_one_certificate(np.zeros((2, 2))) == 0.0


def test_scaled_quadratic_of_a_stack_is_the_stack_of_its_results():
    rng = np.random.default_rng(3)
    stats = random_stats(rng, 2, 3)
    stack = np.stack([[random_hermitian(rng, 3) for _ in range(4)]
                      for _ in range(2)])
    batched = _scaled_quadratic(stats, stack)
    single = np.stack([[_scaled_quadratic(stats, r) for r in row]
                       for row in stack])
    assert batched.shape == (2, 4, 6, 6)
    assert batched.tobytes() == single.tobytes()


@pytest.mark.parametrize("call, message", [
    (lambda: transmit_covariance([np.ones((2, 3))]),
     "neither a vector nor a square matrix"),
    (lambda: transmit_covariance([]), "need at least one beamformer"),
    (lambda: sinr([np.ones(2), np.ones(2)], [np.ones(2)], 1.0),
     "one beamformer per user required")],
    ids=["beamformer-shape", "no-beamformer", "user-count"])
def test_metrics_reject_bad_beamformers(call, message):
    with pytest.raises(ValueError, match=message):
        call()
