"""Preference-vector generators.

The paper finds the empirical preference values ``{P_i}`` to be long-tailed:
most are small, a few are up to ten times larger than typical, and a
lognormal with ``mu ≈ -4.3`` and ``sigma ≈ 1.7`` approximates their tail far
better than an exponential (Figure 7), so synthesis draws them from that
lognormal.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = ["lognormal_preferences"]

#: Maximum-likelihood lognormal parameters the paper reports for both datasets.
PAPER_LOGNORMAL_MU = -4.3
PAPER_LOGNORMAL_SIGMA = 1.7


def lognormal_preferences(
    n_nodes: int,
    *,
    mu: float = PAPER_LOGNORMAL_MU,
    sigma: float = PAPER_LOGNORMAL_SIGMA,
    seed: int | np.random.Generator = 0,
) -> np.ndarray:
    """Draw a normalised preference vector from a lognormal distribution.

    The defaults are the paper's maximum-likelihood estimates.  The returned
    vector is normalised to sum to one (the convention used throughout the
    package).
    """
    if n_nodes < 1:
        raise ValidationError("n_nodes must be >= 1")
    if sigma < 0:
        raise ValidationError("sigma must be non-negative")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    values = rng.lognormal(mu, sigma, int(n_nodes))
    return values / values.sum()
