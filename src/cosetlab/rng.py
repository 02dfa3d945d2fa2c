"""Seed handling.

Every stochastic routine in the package takes an explicit seed, so
re-ordered execution cannot change results.  ``derived_seed`` maps a
master seed plus a tuple of non-negative integer path components (role
id, candidate index, grid point, ...) to one integer seed; the
derivation is pure, so any unit of work can be reproduced in isolation.
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
