"""Scenario configuration, Rician communication channels, and sensing
statistics (target-response covariances with their eigenstructure) for the
legitimate radar receiver and the eavesdropper.

A scenario is a ScenarioConfig built in Python.  Every quantity is in linear
units: powers in watts, SINR targets as ratios, angles in radians.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .linalg import require_hermitian, sample_white_gaussian


def steering_vector(angle, n):
    """ULA steering vector at half-wavelength spacing.

    Entry m is exp(-j*pi*m*cos(angle)), m = 0..n-1; all entries unit modulus.
    """
    if not 0.0 <= angle <= math.pi:
        raise ValueError(f"angle {angle} outside [0, pi]")
    m = np.arange(n)
    return np.exp(-1j * np.pi * m * np.cos(angle))


@dataclass(frozen=True)
class SensingStats:
    """Second-order statistics of one receiver's target response.

    ``blocks`` holds, for each receive antenna i, the columns i, i + n_rx,
    ... of U^H, which turn Kronecker-structured quadratic forms in the
    transmit covariance into small per-antenna products.

    U holds the eigenvectors as LAPACK's eigh returns them.  Any orthonormal
    basis of a repeated eigenvalue's eigenspace gives the same sensing MI,
    log det(I + (L/sigma^2) Lam^1/2 sum_i B_i R B_i^H Lam^1/2), since
    Lam^1/2 is constant on that eigenspace.
    """

    noise_power: float      # watts
    n_rx: int
    n_tx: int
    cov: np.ndarray         # (n_rx*n_tx, n_rx*n_tx) Hermitian PSD
    eigvals: np.ndarray     # descending, nonnegative
    eigvecs: np.ndarray     # unitary
    blocks: tuple           # n_rx arrays of shape (n_rx*n_tx, n_tx)

    @property
    def dim(self):
        return self.n_rx * self.n_tx


def stats_from_covariance(cov, n_rx, n_tx, noise_power):
    """SensingStats for a given target-response covariance: its eigh
    eigenstructure, eigenvalues descending, with LAPACK's eigenvectors
    (any basis of a repeated eigenvalue's eigenspace gives the same MI),
    plus the receive-antenna column partition of U^H.

    ``cov``, ``eigvals``, ``eigvecs`` and every block are read-only:
    build_scenario shares one SensingStats among all channel draws of a
    configuration, so an in-place write raises instead of reaching them
    all."""
    cov = require_hermitian(cov, name="target covariance")
    if cov.shape[0] != n_rx * n_tx:
        raise ValueError(f"covariance dim {cov.shape[0]} != n_rx*n_tx "
                         f"= {n_rx * n_tx}")
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
    if eigvals[-1] < -1e-9 * max(eigvals[0], 1.0):
        raise ValueError("target covariance is not PSD")
    eigvals = np.clip(eigvals, 0.0, None)
    # vec(G) stacks the columns of the n_rx x n_tx response G, so receive
    # antenna i owns the entries i, i + n_rx, ...
    blocks = tuple(eigvecs.conj().T[:, i::n_rx].copy() for i in range(n_rx))
    for arr in (cov, eigvals, eigvecs) + blocks:
        arr.setflags(write=False)
    return SensingStats(noise_power=float(noise_power), n_rx=n_rx, n_tx=n_tx,
                        cov=cov, eigvals=eigvals, eigvecs=eigvecs, blocks=blocks)


def build_sensing_stats(angles, gains, n_rx, n_tx, loading, noise_power):
    """Point-target response covariance plus diagonal loading.

    The covariance is sum_m gain_m^2 * v_m v_m^H + loading*I with
    v_m = vec(a_rx(theta_m) a_tx(theta_m)^T); its eigenstructure and the
    receive-antenna block partition are precomputed for MI evaluation.
    """
    angles = tuple(float(a) for a in np.atleast_1d(angles))
    gains = tuple(float(g) for g in np.atleast_1d(gains))
    if len(angles) != len(gains):
        raise ValueError("angles and gains must have equal length")
    if loading < 0:
        raise ValueError("diagonal loading must be nonnegative")
    if not angles and loading == 0:
        raise ValueError("need at least one target or positive loading")
    dim = n_rx * n_tx
    cov = np.zeros((dim, dim), dtype=complex)
    for theta, beta in zip(angles, gains):
        v = np.outer(steering_vector(theta, n_rx),
                     steering_vector(theta, n_tx)).reshape(-1, order="F")
        cov += (beta ** 2) * np.outer(v, v.conj())
    cov += loading * np.eye(dim)
    return stats_from_covariance(cov, n_rx, n_tx, noise_power)


def default_loading(gains):
    """Diagonal loading at 1e-3 of the mean raw eigenvalue, sum_m gain_m^2
    (1 if no targets).  The array size cancels: each v_m has squared norm
    n_rx n_tx, the covariance's dimension, so the raw trace sum_m gain_m^2
    n_rx n_tx spreads over n_rx n_tx eigenvalues."""
    gains = np.atleast_1d(gains)
    if gains.size == 0:
        return 1.0
    return 1e-3 * float(np.sum(gains ** 2))


# ScenarioConfig fields that may be +inf (no Eve constraint, pure line of
# sight); every other value must be finite.
_INF_ALLOWED = ("eve_mi_cap", "rician_factors")


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario: antennas, users, budgets, noise and targets.  The
    channel draw is the RngState given to ``build_scenario``, and the SCA
    constants of the design live in ``sca``.

    Stored units: watts, linear SINR, radians, nats.
    """

    n_tx: int = 6
    n_rx: int = 2
    n_eve: int = 2
    n_users: int = 3
    frame_len: int = 30
    power_budget: float = 1.0                 # watts (30 dBm)
    sinr_targets: tuple = (100.0, 100.0, 100.0)   # linear (20 dB)
    eve_mi_cap: float = 5.0                   # nats
    noise_comm: float = 1e-5                  # watts
    noise_radar: float = 1.0                  # watts
    noise_eve: float = 1.0                    # watts
    rician_factors: tuple = (2.0, 2.0, 2.0)
    user_angles: tuple = ()                   # radians; auto-spread when empty
    radar_target_angles: tuple = (math.radians(60.0),)
    radar_target_gains: tuple = (1.0,)
    eve_target_angles: tuple = (math.radians(30.0),)
    eve_target_gains: tuple = (1.0,)

    def __post_init__(self):
        for f in fields(self):
            if f.type == "int":
                object.__setattr__(self, f.name,
                                   _integer(f.name, getattr(self, f.name)))
        object.__setattr__(self, "sinr_targets",
                           _per_user(self.sinr_targets, self.n_users, "sinr_targets"))
        object.__setattr__(self, "rician_factors",
                           _per_user(self.rician_factors, self.n_users, "rician_factors"))
        angles = self.user_angles or _spread_angles(self.n_users)
        object.__setattr__(self, "user_angles",
                           _per_user(angles, self.n_users, "user_angles"))
        self.validate()

    def validate(self):
        for f in fields(self):
            vals = np.asarray(getattr(self, f.name), dtype=float).ravel()
            inf_ok = f.name in _INF_ALLOWED
            if not np.all(np.isfinite(vals) | (inf_ok & (vals == np.inf))):
                raise ValueError(f"{f.name} must be finite"
                                 f"{' or +inf' if inf_ok else ''}, got "
                                 f"{getattr(self, f.name)!r}")
        if min(self.n_tx, self.n_rx, self.n_eve, self.n_users) < 1:
            raise ValueError("antenna and user counts must be >= 1")
        if self.frame_len < 1:
            raise ValueError("frame length must be >= 1")
        for name in ("power_budget", "eve_mi_cap", "noise_comm", "noise_radar",
                     "noise_eve"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if any(g <= 0 for g in self.sinr_targets):
            raise ValueError("SINR targets must be positive")
        if any(k < 0 for k in self.rician_factors):
            raise ValueError(f"rician_factors must be nonnegative, got "
                             f"{self.rician_factors!r}")
        for name in ("user_angles", "radar_target_angles", "eve_target_angles"):
            if not all(0.0 <= a <= math.pi for a in getattr(self, name)):
                raise ValueError(f"{name} must lie in [0, pi], got "
                                 f"{getattr(self, name)!r}")
        if len(self.radar_target_angles) != len(self.radar_target_gains):
            raise ValueError("radar target angles/gains length mismatch")
        if len(self.eve_target_angles) != len(self.eve_target_gains):
            raise ValueError("eve target angles/gains length mismatch")


def _integer(key, val):
    """An integer field; a fraction is an error, not truncated."""
    if isinstance(val, float) and val.is_integer():
        return int(val)
    try:
        return operator.index(val)
    except TypeError:
        raise ValueError(
            f"field {key!r} must be an integer, got {val!r}") from None


def _as_tuple(val):
    if isinstance(val, (list, tuple)):
        return tuple(float(v) for v in val)
    return (float(val),)


def _per_user(values, n_users, name):
    vals = _as_tuple(values)
    if len(vals) == 1:
        vals = vals * n_users
    if len(vals) != n_users:
        raise ValueError(f"{name} needs 1 or {n_users} entries, got {len(vals)}")
    return vals


def _spread_angles(n_users):
    # Users evenly placed over [40, 140] degrees, away from array endfire.
    degs = np.linspace(40.0, 140.0, n_users)
    return tuple(math.radians(d) for d in degs)


def sample_rician_channel(cfg, user, rng):
    """Draw user ``user``'s Rician channel h_k, an (n_tx,) complex vector:
    K/(K+1)-weighted LoS plus CN(0,1) scattering.  An infinite Rician
    factor returns the pure LoS steering vector."""
    k_factor = cfg.rician_factors[user]
    los = steering_vector(cfg.user_angles[user], cfg.n_tx)
    if math.isinf(k_factor):
        return los
    nlos = sample_white_gaussian(rng, cfg.n_tx)
    return math.sqrt(k_factor / (k_factor + 1.0)) * los \
        + math.sqrt(1.0 / (k_factor + 1.0)) * nlos


def sample_user_channels(cfg, rng):
    return [sample_rician_channel(cfg, k, rng.child(f"user{k}"))
            for k in range(cfg.n_users)]


def build_scenario(cfg, rng):
    """Realize one scenario: (channels, stats_r, stats_e), with channels the
    list of the users' (n_tx,) channel vectors and the sensing stats of the
    radar receiver and the eavesdropper.

    Only the channels are random.  The two SensingStats depend on the
    configuration alone, so they are built once per configuration and every
    channel draw of it returns the same, read-only, objects."""
    return (sample_user_channels(cfg, rng.child("channels")),
            *_sensing_stats(cfg))


@functools.lru_cache
def _sensing_stats(cfg):
    """(stats_r, stats_e) of the radar receiver and the eavesdropper."""
    load_r = default_loading(cfg.radar_target_gains)
    load_e = default_loading(cfg.eve_target_gains)
    stats_r = build_sensing_stats(cfg.radar_target_angles, cfg.radar_target_gains,
                                  cfg.n_rx, cfg.n_tx, load_r, cfg.noise_radar)
    stats_e = build_sensing_stats(cfg.eve_target_angles, cfg.eve_target_gains,
                                  cfg.n_eve, cfg.n_tx, load_e, cfg.noise_eve)
    return stats_r, stats_e
