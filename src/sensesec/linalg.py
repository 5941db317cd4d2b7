"""Complex linear-algebra foundation: Hermitian eigenstructure, stable
log-determinants, and seeded circular Gaussian sampling.

All matrices are plain numpy arrays with native complex dtype.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

HERMITIAN_RTOL = 1e-10


class NotPositiveDefiniteError(ValueError):
    """Raised when a factorization requires a positive definite matrix."""


def require_hermitian(a, name="matrix"):
    """Validate Hermitian symmetry to HERMITIAN_RTOL and return the exactly
    symmetrized copy."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.conj().T).max() > HERMITIAN_RTOL * scale:
        raise ValueError(
            f"{name} is not Hermitian within rtol={HERMITIAN_RTOL}")
    return 0.5 * (a + a.conj().T)


def hermitian_eig(a):
    """Eigendecomposition of a Hermitian matrix with reproducible ordering.

    Returns (eigvals, eigvecs) with eigenvalues sorted descending.  Each
    eigenvector's global phase is fixed (largest-magnitude entry made real
    positive) and near-degenerate columns are ordered lexicographically on
    rounded components, so repeated runs produce identical factors.
    """
    a = require_hermitian(a)
    w, u = np.linalg.eigh(a)
    w, u = w[::-1].copy(), u[:, ::-1].copy()
    # Phase canonicalization.
    for j in range(u.shape[1]):
        col = u[:, j]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if np.abs(pivot) > 0:
            u[:, j] = col * (np.conj(pivot) / np.abs(pivot))
    # Deterministic order inside (numerically) degenerate eigenvalue groups.
    scale = max(np.abs(w).max(), 1.0)
    keys = np.round(w / scale, 10)
    order = np.arange(len(w))
    # Groups are independent, so any visiting order will do; np.unique would
    # import numpy.ma (about 10 ms) on its first call.
    for val in set(keys.tolist()):
        grp = np.nonzero(keys == val)[0]
        if len(grp) > 1:
            cols = [tuple(np.round(np.concatenate([u[:, g].real, u[:, g].imag]), 9))
                    for g in grp]
            order[grp] = grp[np.lexsort(np.array(cols).T[::-1])]
    return w[order], u[:, order]


def logdet_psd(a):
    """log det of a Hermitian positive definite matrix via Cholesky.

    Raises NotPositiveDefiniteError when the smallest pivot is not positive.
    """
    a = require_hermitian(a)
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("matrix is not positive definite") from exc
    return 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))


def psd_sqrt(a, tol=1e-12):
    """Hermitian PSD square root (eigenvalue clipping at -tol*scale)."""
    w, u = hermitian_eig(a)
    scale = max(abs(w[0]), 1.0) if len(w) else 1.0
    if len(w) and w[-1] < -tol * scale:
        raise NotPositiveDefiniteError("matrix has a significantly negative eigenvalue")
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.conj().T


@dataclass(frozen=True)
class RngState:
    """Deterministic random stream identified by (seed, stream label).

    Identical (seed, stream) pairs reproduce identical sample sequences.
    Streams are single-owner: parallel work must derive children with
    distinct labels instead of sharing one generator.
    """

    seed: int
    stream: str = "root"

    def child(self, label):
        return RngState(self.seed, f"{self.stream}/{label}")

    def generator(self):
        digest = hashlib.sha256(self.stream.encode()).digest()
        spawn_key = tuple(int.from_bytes(digest[i:i + 4], "big") for i in range(0, 16, 4))
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=spawn_key)
        return np.random.Generator(np.random.PCG64(seq))


def sample_complex_gaussian(rng, covariance, size=None):
    """Circularly-symmetric zero-mean complex Gaussian samples from the
    RngState ``rng``.

    A Cholesky factor is used, with 1e-12 diagonal loading retried when the
    covariance is numerically rank deficient; a zero covariance draws zeros.
    size=None returns one sample, otherwise an array of ``size`` stacked
    samples along axis 0.
    """
    cov = require_hermitian(covariance, name="covariance")
    n = len(cov)
    count = 1 if size is None else int(size)
    if not np.any(cov):
        out = np.zeros((count, n), dtype=complex)
        return out[0] if size is None else out

    scale = np.abs(np.diag(cov)).max()
    if np.min(np.linalg.eigvalsh(cov)) < -1e-8 * max(scale, 1.0):
        raise NotPositiveDefiniteError("covariance is not positive semidefinite")
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        factor = np.linalg.cholesky(cov + 1e-12 * max(scale, 1.0) * np.eye(n))

    # x = F u with u ~ CN(0, I) gives E[x x^H] = F F^H.
    out = sample_white_gaussian(rng, (count, n)) @ factor.T
    return out[0] if size is None else out


def sample_white_gaussian(rng, shape):
    """CN(0, I) samples of the given shape from the RngState ``rng``: the
    real parts, then the imaginary parts, scaled by sqrt(1/2)."""
    gen = rng.generator()
    return (gen.standard_normal(shape)
            + 1j * gen.standard_normal(shape)) * np.sqrt(0.5)
