"""Closed-form performance metrics: per-user SINR, sensing mutual
information for the legitimate receiver and the eavesdropper, the MI
gradient with respect to the transmit covariance, and the affine Eve-MI
bound that the SCA design enforces.  The artificial-noise metrics
(sensing_mi_with_an and the sampled an_* surrogates) have no caller yet:
no design uses artificial noise.

All mutual information values are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import logdet_psd, require_hermitian

PSD_TOL = 1e-8
LOG_2PIE = math.log(2.0 * math.pi * math.e)


def _as_weight_matrices(beamformers):
    """Normalize per-user beamformers to PSD matrices (w -> w w^H)."""
    mats = []
    for b in beamformers:
        b = np.asarray(b, dtype=complex)
        if b.ndim == 1:
            mats.append(np.outer(b, b.conj()))
        elif b.ndim == 2 and b.shape[0] == b.shape[1]:
            mats.append(b)
        else:
            raise ValueError(f"beamformer with shape {b.shape} is neither a "
                             "vector nor a square matrix")
    dims = {m.shape[0] for m in mats}
    if len(dims) > 1:
        raise ValueError(f"beamformer dimensions disagree: {sorted(dims)}")
    return mats


def check_psd(a, name="matrix", tol=PSD_TOL):
    """Validate Hermitian PSD-ness and return the symmetrized matrix."""
    a = require_hermitian(a, name=name)
    scale = max(float(np.real(np.trace(a))), 1.0)
    smallest = float(np.min(np.linalg.eigvalsh(a)))
    if smallest < -tol * scale:
        raise ValueError(f"{name} is not PSD (min eigenvalue {smallest:.3e})")
    return a


def transmit_covariance(beamformers):
    """Transmit covariance sum_k W_k (or sum_k w_k w_k^H)."""
    mats = _as_weight_matrices(beamformers)
    if not mats:
        raise ValueError("need at least one beamformer")
    return sum(mats)


def sinr(channels, beamformers, noise_power, an_cov=None):
    """Per-user SINR; interference sums |h_k^H w_j|^2 over j != k, plus the
    artificial-noise leakage h_k^H R_N h_k when an AN covariance is given."""
    mats = _as_weight_matrices(beamformers)
    vectors = [np.asarray(getattr(ch, "vector", ch), dtype=complex) for ch in channels]
    if len(vectors) != len(mats):
        raise ValueError("one beamformer per user required")
    out = np.zeros(len(vectors))
    for k, h in enumerate(vectors):
        powers = [float(np.real(h.conj() @ w @ h)) for w in mats]
        leak = 0.0
        if an_cov is not None:
            leak = float(np.real(h.conj() @ an_cov @ h))
        denom = noise_power + leak + sum(p for j, p in enumerate(powers) if j != k)
        out[k] = powers[k] / denom
    return out


def _scaled_quadratic(stats, r_x):
    """sqrt(L)-free core: sqrt(Lam) (sum_i B_i R* B_i^H) sqrt(Lam).  ``r_x``
    may stack covariances on leading axes; each result equals that of its
    covariance alone, bit for bit."""
    acc = np.zeros(r_x.shape[:-2] + (stats.dim, stats.dim), dtype=complex)
    rc = r_x.conj()
    for block in stats.blocks:
        acc += block @ rc @ block.conj().T
    root = np.sqrt(np.clip(stats.eigvals, 0.0, None))
    return root[:, None] * acc * root[None, :]


def sensing_mi(stats, r_x, frame_len):
    """Sensing MI log det(I + sigma^-2 L Lam sum_i B_i R_X* B_i^H) in nats.

    Evaluated in the symmetrized form so the argument is Hermitian PD.
    """
    r_x = check_psd(np.asarray(r_x, dtype=complex), name="transmit covariance")
    if r_x.shape != (stats.n_tx, stats.n_tx):
        raise ValueError(f"covariance shape {r_x.shape} does not match "
                         f"n_tx={stats.n_tx}")
    core = _scaled_quadratic(stats, r_x)
    scale = frame_len / stats.noise_power
    return logdet_psd(np.eye(stats.dim) + scale * core)


def sensing_mi_with_an(stats, r_x, r_n, frame_len):
    """AN-aware legitimate MI: the receiver knows the noise waveform, so the
    AN covariance adds to the transmit covariance."""
    r_x = np.asarray(r_x, dtype=complex)
    r_n = np.asarray(r_n, dtype=complex)
    if r_n.shape != r_x.shape:
        raise ValueError("AN covariance shape mismatch")
    return sensing_mi(stats, r_x + r_n, frame_len)


def sensing_mi_gradient(stats, r_x, frame_len):
    """Gradient of sensing_mi with respect to the (Hermitian) transmit
    covariance: the unique Hermitian G with d MI = tr(G dR).

    Computed as conj(sigma^-2 L sum_i B_i^H S M^-1 S B_i) with
    S = sqrt(Lam) and M the symmetrized log-det argument.
    """
    r_x = check_psd(np.asarray(r_x, dtype=complex), name="transmit covariance")
    core = _scaled_quadratic(stats, r_x)
    scale = frame_len / stats.noise_power
    m = np.eye(stats.dim) + scale * core
    root = np.sqrt(np.clip(stats.eigvals, 0.0, None))
    try:
        minv = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise ValueError("MI log-det argument is singular") from exc
    inner = root[:, None] * minv * root[None, :]
    acc = np.zeros((stats.n_tx, stats.n_tx), dtype=complex)
    for block in stats.blocks:
        acc += block.conj().T @ inner @ block
    grad = scale * acc.conj()
    return 0.5 * (grad + grad.conj().T)


def sensing_mi_taylor_bound(stats, r_x, r_x_ref, frame_len):
    """Affine global upper bound of sensing_mi: first-order expansion around
    ``r_x_ref``.  Concavity in the transmit covariance makes the tangent
    dominate everywhere, with equality at the expansion point."""
    r_x = require_hermitian(np.asarray(r_x, dtype=complex), name="covariance")
    r_x_ref = np.asarray(r_x_ref, dtype=complex)
    base = sensing_mi(stats, r_x_ref, frame_len)
    grad = sensing_mi_gradient(stats, r_x_ref, frame_len)
    return base + float(np.real(np.trace(grad @ (r_x - r_x_ref))))


# ---------------------------------------------------------------------------
# Artificial-noise surrogates for the eavesdropper


def _an_sample_array(samples):
    arr = np.asarray(getattr(samples, "samples", samples), dtype=complex)
    if arr.ndim != 3:
        raise ValueError("samples must be a (count, n_rx, n_tx) array")
    if arr.shape[0] < 1:
        raise ValueError("need at least one channel sample")
    return arr


def an_eve_gram(samples, an_cov):
    """Reduced per-antenna AN covariance block: mean_j H_j R_N H_j^H."""
    arr = _an_sample_array(samples)
    r_n = np.asarray(an_cov, dtype=complex)
    return np.einsum("jab,bc,jdc->ad", arr, r_n, arr.conj()) / arr.shape[0]


def an_eve_covariance(samples, an_cov, frame_len):
    """Covariance of the vectorized AN component seen by the eavesdropper,
    assembled as I_L kron (mean_j H_j R_N H_j^H); PSD and block diagonal."""
    gram = an_eve_gram(samples, an_cov)
    return np.kron(np.eye(frame_len), gram)


def an_conditional_entropy(stats_e, an_cov, frame_len, samples):
    """Sampled conditional entropy of the eavesdropper's observation given
    channel and waveform, in nats.

    Per sample the determinant has a rank-one AN term, so it collapses to
    n log(2 pi e sigma^2) + log(1 + sigma^-2 L tr(H R_N H^H)) with
    n = n_rx * L; the constant matches the marginal-entropy term so the
    two cancel in the MI bound.
    """
    arr = _an_sample_array(samples)
    r_n = check_psd(np.asarray(an_cov, dtype=complex), name="AN covariance")
    sigma2 = stats_e.noise_power
    n = stats_e.n_rx * frame_len
    quad = np.real(np.einsum("jab,bc,jac->j", arr, r_n, arr.conj()))
    quad = np.clip(quad, 0.0, None)
    return n * math.log(2.0 * math.pi * math.e * sigma2) \
        + float(np.mean(np.log1p(frame_len * quad / sigma2)))


def an_eve_marginal_entropy(stats_e, an_cov, frame_len, samples):
    """Gaussian upper bound of the eavesdropper's marginal entropy given the
    waveform: log det(2 pi e (sigma^2 I + R_AN)) over the n_rx*L dims,
    evaluated block-wise."""
    gram = an_eve_gram(samples, an_cov)
    sigma2 = stats_e.noise_power
    n = stats_e.n_rx * frame_len
    block = sigma2 * np.eye(stats_e.n_rx) + gram
    return n * LOG_2PIE + frame_len * logdet_psd(block)


def an_eve_mi_bound(stats_e, an_cov, frame_len, samples):
    """Sampled upper-bound surrogate of the eavesdropper MI under AN: the
    marginal-entropy bound minus the sampled conditional entropy.  Zero at
    R_N = 0 and decreasing toward zero as the noise floor grows.

    Evaluated in the cancelled form (the 2*pi*e and noise constants of the
    two entropies are identical) so R_N = 0 gives exactly zero.
    """
    arr = _an_sample_array(samples)
    r_n = check_psd(np.asarray(an_cov, dtype=complex), name="AN covariance")
    sigma2 = stats_e.noise_power
    gram = an_eve_gram(arr, r_n)
    marginal_part = frame_len * logdet_psd(np.eye(stats_e.n_rx) + gram / sigma2)
    quad = np.clip(np.real(np.einsum("jab,bc,jac->j", arr, r_n, arr.conj())), 0.0, None)
    conditional_part = float(np.mean(np.log1p(frame_len * quad / sigma2)))
    return marginal_part - conditional_part


def rank_one_certificate(weight_mat):
    """lambda_max / trace of a PSD matrix; 1.0 certifies rank one."""
    w = np.linalg.eigvalsh(weight_mat)
    trace = float(np.sum(w))
    if trace <= 0:
        return 0.0
    return float(w[-1] / trace)


@dataclass
class BeamformerSolution:
    """Designed beamformers with achieved metrics.

    ``mi_eve`` is always the closed-form eavesdropper MI at the returned
    transmit covariance; ``mi_eve_surrogate`` is the bound the design
    enforced, the last subproblem's affine expansion, at that covariance.
    A ``certified`` design is globally optimal for the tightened SINR
    targets, within the solver's duality gap; any other design is only a
    stationary point of the penalty SCA.
    """

    weights: list                  # per-user vectors
    weight_mats: list              # per-user PSD matrices
    an_cov: np.ndarray | None
    mi_legit: float
    mi_eve: float
    mi_eve_surrogate: float
    sinrs: np.ndarray
    power: float
    rank_certs: np.ndarray
    status: str = "optimal"
    certified: bool = False
