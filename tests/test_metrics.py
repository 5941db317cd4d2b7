import math

import numpy as np
import pytest

from sensesec.channels import build_sensing_stats, stats_from_covariance
from sensesec.linalg import commutation_matrix, psd_sqrt, vec
from sensesec.metrics import (
    _scaled_quadratic,
    an_conditional_entropy,
    an_eve_covariance,
    an_eve_gram,
    an_eve_mi_bound,
    rank_one_certificate,
    sensing_mi,
    sensing_mi_gradient,
    sensing_mi_taylor_bound,
    sensing_mi_with_an,
    sinr,
    transmit_covariance,
)

LOG_2PIE = math.log(2.0 * math.pi * math.e)


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

    def test_an_leakage_lowers_sinr(self):
        rng = np.random.default_rng(3)
        hs = [random_complex(rng, 4)]
        ws = [random_complex(rng, 4)]
        base = sinr(hs, ws, 1.0)
        with_an = sinr(hs, ws, 1.0, an_cov=np.eye(4))
        assert with_an[0] < base[0]


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


class TestANAware:
    def test_reduction_at_zero_an(self):
        rng = np.random.default_rng(41)
        stats = random_stats(rng, 2, 4)
        r_x = random_psd(rng, 4)
        zero = np.zeros((4, 4))
        assert sensing_mi_with_an(stats, r_x, zero, 12) \
            == sensing_mi(stats, r_x, 12)

    def test_symmetry_in_sum(self):
        rng = np.random.default_rng(42)
        stats = random_stats(rng, 2, 4)
        r_n = random_psd(rng, 4)
        assert sensing_mi_with_an(stats, np.zeros((4, 4)), r_n, 12) \
            == sensing_mi(stats, r_n, 12)

    def test_additivity(self):
        rng = np.random.default_rng(43)
        stats = random_stats(rng, 2, 4)
        r_x, r_n = random_psd(rng, 4), random_psd(rng, 4)
        assert abs(sensing_mi_with_an(stats, r_x, r_n, 9)
                   - sensing_mi(stats, r_x + r_n, 9)) < 1e-12


class TestANEntropyTerms:
    def make_samples(self, rng, count, n_rx, n_tx):
        return random_complex(rng, count, n_rx, n_tx)

    def test_noise_only_value(self):
        stats = identity_stats(2, 3, noise_power=1.7)
        rng = np.random.default_rng(51)
        samples = self.make_samples(rng, 4, 2, 3)
        frame_len = 6
        got = an_conditional_entropy(stats, np.zeros((3, 3)), frame_len, samples)
        want = 2 * frame_len * math.log(2 * math.pi * math.e * 1.7)
        assert abs(got - want) < 1e-12

    def test_zero_channel_sample(self):
        stats = identity_stats(2, 3, noise_power=0.9)
        samples = np.zeros((1, 2, 3), dtype=complex)
        rng = np.random.default_rng(52)
        got = an_conditional_entropy(stats, random_psd(rng, 3), 5, samples)
        want = 2 * 5 * math.log(2 * math.pi * math.e * 0.9)
        assert abs(got - want) < 1e-12

    def test_sample_mean_linearity(self):
        stats = identity_stats(2, 3, noise_power=1.0)
        rng = np.random.default_rng(53)
        samples = self.make_samples(rng, 2, 2, 3)
        r_n = random_psd(rng, 3)
        both = an_conditional_entropy(stats, r_n, 7, samples)
        single = [an_conditional_entropy(stats, r_n, 7, samples[j:j + 1])
                  for j in range(2)]
        assert abs(both - 0.5 * (single[0] + single[1])) < 1e-12

    def test_against_dense_determinant_display(self):
        # Per-sample value minus its constant equals the dense determinant of
        # the displayed argument sigma^2 I + L K (I kron R_N*) K^T h h^H,
        # normalized by its own noise-only determinant.
        rng = np.random.default_rng(54)
        n_rx, n_tx, frame_len = 2, 3, 11
        stats = identity_stats(n_rx, n_tx, noise_power=1.3)
        samples = self.make_samples(rng, 3, n_rx, n_tx)
        r_n = random_psd(rng, n_tx)
        got = an_conditional_entropy(stats, r_n, frame_len, samples)
        const = n_rx * frame_len * math.log(2 * math.pi * math.e * 1.3)
        k = commutation_matrix(n_tx, n_rx)
        dense_terms = []
        for h_mat in samples:
            h = vec(h_mat)
            arg = 1.3 * np.eye(n_rx * n_tx) + frame_len * (
                k @ np.kron(np.eye(n_rx), np.conj(r_n)) @ k.T
            ) @ np.outer(h, h.conj())
            sign, logdet = np.linalg.slogdet(arg)
            assert abs(np.real(sign) - 1.0) < 1e-9
            dense_terms.append(np.real(logdet) - n_rx * n_tx * math.log(1.3))
        assert abs((got - const) - float(np.mean(dense_terms))) < 1e-9

    def test_quadratic_form_is_channel_gram_trace(self):
        # h^H (R_N* kron I) h = tr(H R_N H^H) = tr(H^H H R_N).
        rng = np.random.default_rng(55)
        h_mat = random_complex(rng, 2, 3)
        r_n = random_psd(rng, 3)
        h = vec(h_mat)
        quad = np.real(h.conj() @ np.kron(np.conj(r_n), np.eye(2)) @ h)
        want = np.real(np.trace(h_mat @ r_n @ h_mat.conj().T))
        assert abs(quad - want) < 1e-10

    def test_empty_samples_rejected(self):
        stats = identity_stats(2, 3)
        with pytest.raises(ValueError):
            an_conditional_entropy(stats, np.eye(3), 5,
                                   np.zeros((0, 2, 3), dtype=complex))


class TestANCovariance:
    def test_constant_samples(self):
        rng = np.random.default_rng(61)
        h0 = random_complex(rng, 2, 3)
        r_n = random_psd(rng, 3)
        samples = np.stack([h0, h0])
        got = an_eve_covariance(samples, r_n, 4)
        want = np.kron(np.eye(4), h0 @ r_n @ h0.conj().T)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_zero_an(self):
        rng = np.random.default_rng(62)
        samples = random_complex(rng, 3, 2, 3)
        got = an_eve_covariance(samples, np.zeros((3, 3)), 5)
        assert np.max(np.abs(got)) == 0.0

    def test_matches_naive_kronecker(self):
        rng = np.random.default_rng(63)
        n_rx = frame_len = 2
        samples = random_complex(rng, 3, n_rx, 4)
        r_n = random_psd(rng, 4)
        got = an_eve_covariance(samples, r_n, frame_len)
        naive = np.zeros((n_rx * frame_len, n_rx * frame_len), dtype=complex)
        for h in samples:
            lift = np.kron(np.eye(frame_len), h)
            naive += lift @ np.kron(np.eye(frame_len), r_n) @ lift.conj().T
        naive /= samples.shape[0]
        assert np.max(np.abs(got - naive)) < 1e-10


class TestANMIBound:
    def test_zero_an_zero_bound(self):
        rng = np.random.default_rng(71)
        stats = identity_stats(2, 3, noise_power=0.8)
        samples = random_complex(rng, 5, 2, 3)
        assert an_eve_mi_bound(stats, np.zeros((3, 3)), 9, samples) == 0.0

    def test_decreasing_in_noise_power(self):
        rng = np.random.default_rng(72)
        samples = random_complex(rng, 5, 2, 3)
        r_n = random_psd(rng, 3)
        vals = []
        for noise in [0.5, 1.0, 4.0, 16.0, 256.0, 1e6]:
            stats = identity_stats(2, 3, noise_power=noise)
            vals.append(an_eve_mi_bound(stats, r_n, 9, samples))
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_is_difference_of_components(self):
        from sensesec.metrics import an_eve_marginal_entropy
        rng = np.random.default_rng(73)
        stats = identity_stats(2, 3, noise_power=1.1)
        samples = random_complex(rng, 4, 2, 3)
        r_n = random_psd(rng, 3)
        bound = an_eve_mi_bound(stats, r_n, 9, samples)
        diff = an_eve_marginal_entropy(stats, r_n, 9, samples) \
            - an_conditional_entropy(stats, r_n, 9, samples)
        assert abs(bound - diff) < 1e-12

    def test_gram_matches_definition(self):
        rng = np.random.default_rng(74)
        samples = random_complex(rng, 4, 2, 3)
        r_n = random_psd(rng, 3)
        want = sum(h @ r_n @ h.conj().T for h in samples) / 4
        assert np.max(np.abs(an_eve_gram(samples, r_n) - want)) < 1e-12


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
