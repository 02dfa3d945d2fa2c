"""Seed handling, the finite-law rule, the product-law rule and the draw rule.

Every stochastic routine in the package takes an explicit seed, so
re-ordered execution cannot change results.  ``derived_seed`` maps a
master seed plus a tuple of non-negative integer path components (role
id, candidate index, grid point, ...) to one integer seed; the
derivation is pure, so any unit of work can be reproduced in isolation.

Every table the package treats as a finite law (a joint, a channel, an
input law, a decision problem or rule, the sampler's weights) passes
``checked_law``.  Every word's weight under per-position letter laws is
``product_law`` for a listed set of words (a coset, the sampler's members,
or one coset per row of a batch) and ``product_table`` or
``product_blocks`` for every word of ``word_table(q, n)`` at once (the
exhaustive error sums): the table form runs the same left-to-right fold a
position at a time over contiguous blocks instead of gathering each
position, so both give the same floats.
Every draw from a finite law, channel outputs included, is
``inverse_cdf``: the rule of ``Generator.choice(p=w / w.sum())``, at the
same uniforms.  The rule is two parts, the CDF rows of the weights
(``cdf_rows``) and the search of the uniforms in them (``search_cdf``), so a
law that never changes holds its rows and pays only the search.
"""

from __future__ import annotations

import numpy as np

from . import gf_linalg

# How far a law's total may lie from 1: joints, channel rows, input laws and
# decision problems get MASS_TOL; rule rows and sampler weights, often
# computed (posteriors, marginals), get LOOSE_MASS_TOL.
MASS_TOL = 1e-12
LOOSE_MASS_TOL = 1e-9


def make_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derived_seed(master: int, *path: int) -> int:
    """Single integer reproducing the generator stream for one unit of work."""
    return int(np.random.SeedSequence([int(master), *[int(p) for p in path]]).generate_state(1)[0])


def checked_law(table, name: str, ndim: int = 2, rows: bool = False,
                tol: float = MASS_TOL) -> np.ndarray:
    """``table`` as a read-only float64 copy, once it is a finite law.

    The table must be non-empty with ``ndim`` dimensions and every entry
    >= 0, so NaN fails; its total, or with ``rows`` each row's total, must
    lie within ``tol`` of 1, so an infinite entry fails too.  Otherwise a
    ValueError names the table.
    """
    law = np.array(table, dtype=np.float64)
    if law.ndim != ndim or law.size == 0:
        raise ValueError(f"{name} must be {ndim}-d and non-empty, got shape {law.shape}")
    if not (law >= 0.0).all():
        raise ValueError(f"{name} has a negative or NaN entry")
    if not (np.abs(law.sum(axis=-1 if rows else None) - 1.0) <= tol).all():
        raise ValueError(f"{name} {'rows' if rows else 'mass'} must sum to 1 within {tol}")
    law.flags.writeable = False
    return law


def product_law(letters: np.ndarray, words: np.ndarray, op=np.multiply) -> np.ndarray:
    """out[..., i] = letters[..., 0, words[i, 0]] op ... op letters[..., n-1, words[i, n-1]]

    for a (..., n, q) table of per-position letter weights and (m, n) words,
    folded left to right as a per-word loop would (``np.add`` sums log-weights).
    With (rows, m, n) words, one word list per row of a (rows, n, q) table,
    out[r, i] folds row r's letters over words[r, i] the same way, so each
    row gets the floats of its own call.
    """
    if words.ndim == 2:
        out = letters[..., 0, words[:, 0]]
        for k in range(1, words.shape[1]):
            op(out, letters[..., k, words[:, k]], out=out)
        return out
    rows, n, q = letters.shape
    flat = letters.reshape(-1)
    base = np.arange(rows)[:, None] * (n * q)  # row r's letters start at r n q
    out = flat[words[..., 0] + base]
    for k in range(1, n):
        op(out, flat[words[..., k] + (base + k * q)], out=out)
    return out


def product_blocks(letters: np.ndarray, blocks, op=np.multiply):
    """Yield ``product_law(letters, word_table(q, n)[s], op)`` for each slice s of ``blocks``.

    ``letters`` is a (..., n, q) table and each slice a range of word
    indices, so a block of words is a contiguous part of one table.  The
    table of the low positions is built once, as
    P_k = op(P_{k-1}[..., None, :], letters[..., k, :, None]) flattened; the
    words of one value of the high positions are one run of it, and a run
    folds in its high letters one column at a time.  That is the fold of
    ``product_law``, with the same floats.  The low table takes as many
    positions as fit a sixteenth of a ``gf_linalg.chunks`` block (64 KB of
    float64, below the 128 KB from which glibc maps an allocation on its
    own), and the run is one buffer of its size per call, so a call maps
    and unmaps no table.  The latest run is kept for the next block, and
    each block is copied, contiguous, from the runs it spans.
    """
    n, q = letters.shape[-2:]
    # the words of a sixteenth of a chunk
    most = next(gf_linalg.chunks(q ** n, 16 * letters.size // (n * q))).stop
    low = 1
    while low < n and q ** (low + 1) <= most:
        low += 1
    table = letters[..., 0, :]
    for k in range(1, low):
        table = op(table[..., None, :], letters[..., k, :, None]).reshape(*table.shape[:-1], -1)
    size = q ** low
    highs = gf_linalg.word_table(q, n - low)  # row r: the high letters of run r
    run, index = table if low == n else np.empty_like(table), -1
    for s in blocks:
        block = np.empty(table.shape[:-1] + (s.stop - s.start,), dtype=table.dtype)
        for r in range(s.start // size, -(-s.stop // size)):
            if r != index:
                index = r
                for k, digit in enumerate(highs[r]):
                    op(table if k == 0 else run, letters[..., low + k, digit, None], out=run)
            lo, hi = max(s.start, r * size), min(s.stop, (r + 1) * size)
            block[..., lo - s.start:hi - s.start] = run[..., lo - r * size:hi - r * size]
        yield block


def product_table(letters: np.ndarray, op=np.multiply) -> np.ndarray:
    """``product_law(letters, word_table(q, n), op)``, every word at once, as one block."""
    n, q = letters.shape[-2:]
    return next(product_blocks(letters, (slice(0, q ** n),), op))


def cdf_rows(weights: np.ndarray) -> np.ndarray:
    """The rows of the draw rule: each row of non-negative weights (last axis) as its
    normalized cumulative sum, divided by its last entry.

    Every row needs a positive total.  A row then ends at exactly 1 and stays
    flat across zero weights, so ``search_cdf`` always lands on a positive
    weight.  A fixed law (a channel's rows) computes them once.
    """
    cdf = np.cumsum(weights / weights.sum(axis=-1, keepdims=True), axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def search_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The search of the draw rule: per row of ``cdf_rows``, the count of entries <= u.

    ``u`` has the rows' leading shape, except that a 2-d single row serves
    every uniform.  Since 1 > u, the count is an index of the row.
    """
    if cdf.shape[:-1] == (1,):  # one row for every uniform: a sorted search, as choice runs it
        return cdf[0].searchsorted(u, side="right")
    return np.count_nonzero(cdf <= u[..., None], axis=-1)


def inverse_cdf(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row of non-negative weights, the index ``Generator.choice`` draws at uniform u:
    ``search_cdf`` over the ``cdf_rows`` of ``weights``, with the shapes of ``search_cdf``."""
    return search_cdf(cdf_rows(weights), u)
