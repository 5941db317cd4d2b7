import math

import numpy as np
from hypothesis import settings

from sensesec.channels import ScenarioConfig

# Property tests draw the same examples on every run, so that runs at
# different BLAS thread counts check the same scenarios.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


# Smallest scenario the SCA loop handles: two transmit antennas, one user.
TINY = ScenarioConfig(n_tx=2, n_rx=1, n_eve=1, n_users=1,
                      sinr_targets=(10.0,), rician_factors=(2.0,))


def random_expansion(cfg, rng):
    """Per-user rank-one matrices w_k w_k^H of random beams, an expansion
    point for subproblem tests: CN(0, (P/(K n_tx)) I) projected to the
    power ball."""
    gen = rng.generator()
    scale = math.sqrt(cfg.power_budget / (cfg.n_users * cfg.n_tx))
    weights = [scale * (gen.standard_normal(cfg.n_tx)
                        + 1j * gen.standard_normal(cfg.n_tx)) * math.sqrt(0.5)
               for _ in range(cfg.n_users)]
    total = sum(float(np.real(w.conj() @ w)) for w in weights)
    if total > cfg.power_budget:
        factor = math.sqrt(cfg.power_budget / total)
        weights = [w * factor for w in weights]
    return [np.outer(w, w.conj()) for w in weights]
