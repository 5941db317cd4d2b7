import numpy as np
import pytest

from sensesec.channels import stats_from_covariance
from sensesec.linalg import (
    NotPositiveDefiniteError,
    RngState,
    check_hermitian,
    logdet_psd,
    psd_sqrt,
    require_hermitian,
    sample_white_gaussian,
)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_psd(rng, n, rank=None):
    a = random_complex(rng, n, rank or n)
    return a @ a.conj().T / n


def commutation_matrix(m, n):
    """Dense permutation K with K @ vec(A) = vec(A.T) for every m x n A."""
    src = np.arange(m * n)
    k = np.zeros((m * n, m * n))
    k[src // m + (src % m) * n, src] = 1.0
    return k


class TestCommutation:
    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_permutation_property_all_small_dims(self, m, n):
        # The sensing blocks are strided column slices of U^H; they must equal
        # the column blocks of U^H K, K the commutation matrix of an
        # n_tx x n_rx matrix, bit for bit.
        rng = np.random.default_rng(m * 31 + n)
        k = commutation_matrix(m, n)
        a = random_complex(rng, m, n)
        assert np.array_equal(k @ a.reshape(-1, order="F"),
                              a.T.reshape(-1, order="F"))
        assert np.array_equal(k @ k.T, np.eye(m * n))
        stats = stats_from_covariance(random_psd(rng, m * n), n_rx=n, n_tx=m,
                                      noise_power=1.0)
        p = stats.eigvecs.conj().T @ k
        assert len(stats.blocks) == n
        for i, block in enumerate(stats.blocks):
            assert np.array_equal(block, p[:, i * m:(i + 1) * m])


class TestLogDet:
    def test_identity(self):
        assert logdet_psd(np.eye(3)) == 0.0

    def test_diagonal_exponentials(self):
        assert abs(logdet_psd(np.diag([np.e, np.e**2])) - 3.0) < 1e-12

    def test_matches_eigenvalue_sum(self):
        rng = np.random.default_rng(12)
        a = random_psd(rng, 5) + 0.1 * np.eye(5)
        expected = float(np.sum(np.log(np.linalg.eigvalsh(a))))
        assert abs(logdet_psd(a) - expected) < 1e-10

    def test_det_commutation_identity(self):
        # log det(I + AB) = log det(I + BA); B = s A^H keeps both sides
        # Hermitian PD so logdet_psd applies.
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = random_complex(rng, 4, 6)
            b = rng.uniform(0.2, 2.0) * a.conj().T
            lhs = logdet_psd(np.eye(4) + a @ b)
            rhs = logdet_psd(np.eye(6) + b @ a)
            assert abs(lhs - rhs) < 1e-8

    def test_det_commutation_identity_general(self):
        # General (non-Hermitian product) version via slogdet.
        rng = np.random.default_rng(14)
        a = random_complex(rng, 4, 6)
        b = random_complex(rng, 6, 4)
        lhs = np.linalg.slogdet(np.eye(4) + a @ b)
        rhs = np.linalg.slogdet(np.eye(6) + b @ a)
        assert abs(lhs.logabsdet - rhs.logabsdet) < 1e-8
        assert abs(lhs.sign - rhs.sign) < 1e-8

    def test_non_pd_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            logdet_psd(np.diag([1.0, 0.0]))
        with pytest.raises(NotPositiveDefiniteError):
            logdet_psd(np.diag([1.0, -2.0]))


def root_draws(rng, cov, count):
    """``count`` CN(0, cov) draws psd_sqrt(cov) @ u, u ~ CN(0, I), as rows:
    the draw of sca's Gaussian randomization."""
    return (psd_sqrt(cov) @ sample_white_gaussian(rng, (len(cov), count))).T


class TestComplexGaussian:
    def test_zero_covariance_draws_zeros(self):
        out = root_draws(RngState(0), np.zeros((2, 2)), 3)
        assert out.shape == (3, 2) and not np.any(out)

    def test_empirical_covariance_identity(self):
        draws = root_draws(RngState(42, "gauss-cov"), np.eye(2), 100_000)
        emp = draws.T @ draws.conj() / draws.shape[0]
        rel = np.linalg.norm(emp - np.eye(2)) / np.linalg.norm(np.eye(2))
        assert rel < 0.05
        # Circular symmetry: pseudo-covariance vanishes.
        pseudo = draws.T @ draws / draws.shape[0]
        assert np.abs(pseudo).max() < 0.05

    def test_empirical_covariance_structured(self):
        cov = np.array([[2.0, 0.5 + 0.5j], [0.5 - 0.5j, 1.0]])
        draws = root_draws(RngState(5, "gauss-structured"), cov, 100_000)
        emp = draws.T @ draws.conj() / draws.shape[0]
        assert np.linalg.norm(emp - cov) / np.linalg.norm(cov) < 0.05

    def test_rank_deficient_covariance_draws_in_its_range(self):
        cov = np.outer([1.0, 1.0], [1.0, 1.0])
        draws = root_draws(RngState(3), cov, 10_000)
        assert np.all(np.isfinite(draws))
        assert np.abs(draws[:, 0] - draws[:, 1]).max() < 1e-12
        emp = draws.T @ draws.conj() / draws.shape[0]
        assert np.linalg.norm(emp - cov) / np.linalg.norm(cov) < 0.05

    def test_non_psd_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            root_draws(RngState(0), np.diag([1.0, -1.0]), 1)

    def test_determinism(self):
        a = sample_white_gaussian(RngState(9, "s"), 3)
        b = sample_white_gaussian(RngState(9, "s"), 3)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = sample_white_gaussian(RngState(9, "s1"), 3)
        b = sample_white_gaussian(RngState(9, "s2"), 3)
        assert not np.array_equal(a, b)


def test_rng_child_streams_are_stable():
    r = RngState(17)
    c1 = r.child("alpha").generator().standard_normal(4)
    c2 = RngState(17).child("alpha").generator().standard_normal(4)
    assert np.array_equal(c1, c2)


def test_require_hermitian_rejects_a_non_square_input():
    with pytest.raises(ValueError,
                       match=r"probe must be square, got shape \(2, 3\)"):
        require_hermitian(np.ones((2, 3)), name="probe")


def test_check_hermitian_returns_its_input_unsymmetrized():
    # Within rtol of Hermitian: the check passes the value as given, while
    # require_hermitian returns the symmetrized copy.
    a = np.array([[1.0, 2.0 + 1e-12], [2.0, 3.0]], dtype=complex)
    checked = check_hermitian(a, name="probe")
    assert checked is a
    assert not np.array_equal(require_hermitian(a), a)
    with pytest.raises(ValueError, match="probe is not Hermitian"):
        check_hermitian(np.array([[1.0, 2.0], [0.0, 1.0]]), name="probe")


def test_psd_sqrt_rejects_a_negative_eigenvalue():
    with pytest.raises(NotPositiveDefiniteError,
                       match="significantly negative eigenvalue"):
        psd_sqrt(np.diag([1.0, -1e-3]))
