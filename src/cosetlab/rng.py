"""Seed handling and the finite-law draw rule.

Every stochastic routine in the package takes an explicit seed, so
re-ordered execution cannot change results.  ``derived_seed`` maps a
master seed plus a tuple of non-negative integer path components (role
id, candidate index, grid point, ...) to one integer seed; the
derivation is pure, so any unit of work can be reproduced in isolation.

Every draw from a finite law, channel outputs included, is ``inverse_cdf``:
the rule of ``Generator.choice(p=w / w.sum())``, at the same uniforms.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derived_seed(master: int, *path: int) -> int:
    """Single integer reproducing the generator stream for one unit of work."""
    return int(np.random.SeedSequence([int(master), *[int(p) for p in path]]).generate_state(1)[0])


def cdf_rows(weights: np.ndarray) -> np.ndarray:
    """Normalize, cumsum, divide by the last entry: each row's CDF ends at exactly 1."""
    cdf = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
    cdf /= cdf[:, -1:]
    return cdf


def inverse_cdf(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row of non-negative weights, the index ``Generator.choice`` draws at uniform u.

    A single row of weights serves every uniform.  Every row needs a
    positive total.  The normalized cumulative sum ends at exactly 1 > u
    and stays flat across zero weights, so the index always has positive
    weight.
    """
    cdf = cdf_rows(weights)
    if len(cdf) == 1:  # one row for every uniform: a sorted search, as choice runs it
        return cdf[0].searchsorted(u, side="right")
    return np.count_nonzero(cdf <= u[:, None], axis=1)
