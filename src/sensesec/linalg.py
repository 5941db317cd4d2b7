"""Complex linear-algebra foundation: Hermitian validation, stable
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


def check_hermitian(a, name):
    """Validate Hermitian symmetry to HERMITIAN_RTOL and return ``a`` as a
    complex array, unchanged."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.conj().T).max() > HERMITIAN_RTOL * scale:
        raise ValueError(
            f"{name} is not Hermitian within rtol={HERMITIAN_RTOL}")
    return a


def require_hermitian(a, name="matrix"):
    """Validate Hermitian symmetry to HERMITIAN_RTOL and return the exactly
    symmetrized copy."""
    a = check_hermitian(a, name)
    return 0.5 * (a + a.conj().T)


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


def psd_sqrt(a):
    """Hermitian PSD square root (eigenvalue clipping at -1e-12*scale)."""
    w, u = np.linalg.eigh(require_hermitian(a))     # ascending
    scale = max(abs(w[-1]), 1.0) if len(w) else 1.0
    if len(w) and w[0] < -1e-12 * scale:
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


def sample_white_gaussian(rng, shape):
    """CN(0, I) samples of the given shape from the RngState ``rng``: the
    real parts, then the imaginary parts, scaled by sqrt(1/2)."""
    gen = rng.generator()
    return (gen.standard_normal(shape)
            + 1j * gen.standard_normal(shape)) * np.sqrt(0.5)
