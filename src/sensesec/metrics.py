"""Closed-form performance metrics: per-user SINR, sensing mutual
information for the legitimate receiver and the eavesdropper, the MI
gradient with respect to the transmit covariance, and the affine Eve-MI
bound that the SCA design enforces.

All mutual information values are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import logdet_psd, require_hermitian

PSD_TOL = 1e-8


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


def check_psd(a, name="matrix"):
    """Check Hermitian PSD-ness to PSD_TOL; return the symmetrized matrix."""
    a = require_hermitian(a, name=name)
    scale = max(float(np.real(np.trace(a))), 1.0)
    smallest = float(np.min(np.linalg.eigvalsh(a)))
    if smallest < -PSD_TOL * scale:
        raise ValueError(f"{name} is not PSD (min eigenvalue {smallest:.3e})")
    return a


def transmit_covariance(beamformers):
    """Transmit covariance sum_k W_k (or sum_k w_k w_k^H)."""
    mats = _as_weight_matrices(beamformers)
    if not mats:
        raise ValueError("need at least one beamformer")
    return sum(mats)


def sinr(channels, beamformers, noise_power):
    """Per-user SINR, with ``channels`` the users' (n_tx,) channel vectors
    h_k; interference sums |h_k^H w_j|^2 over j != k."""
    mats = _as_weight_matrices(beamformers)
    vectors = [np.asarray(h, dtype=complex) for h in channels]
    if len(vectors) != len(mats):
        raise ValueError("one beamformer per user required")
    out = np.zeros(len(vectors))
    for k, h in enumerate(vectors):
        powers = [float(np.real(h.conj() @ w @ h)) for w in mats]
        denom = noise_power + sum(p for j, p in enumerate(powers) if j != k)
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
    enforced, the last subproblem's Eve row, at that covariance: an affine
    expansion, which bounds ``mi_eve`` from above, or for a design certified
    on a trace relaxation of the cap, log(1 + tr A_e), which bounds it from
    below.  A ``certified`` design's legitimate MI lies within 2 OBJ_TOL
    (solver.OBJ_TOL, 1e-8 nats) of the global optimum for the tightened SINR
    targets, whether or not its cap binds: the relaxation's solve ends
    within its duality-gap bound OBJ_TOL of the relaxed optimum, and the
    certificate accepts beams within OBJ_TOL of the relaxed MI.  Any other
    design is only a stationary point of the penalty SCA.
    """

    weights: list                  # per-user vectors
    weight_mats: list              # per-user PSD matrices
    mi_legit: float
    mi_eve: float
    mi_eve_surrogate: float
    sinrs: np.ndarray
    power: float
    rank_certs: np.ndarray
    status: str = "optimal"
    certified: bool = False
