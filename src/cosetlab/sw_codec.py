"""Source coding with decoder side information over a linear syndrome code.

The encoder transmits the syndrome A x of a source block; the decoder
searches the solution coset of that syndrome for the block that best
explains the side information, either by exact posterior maximization
(ties broken toward the lexicographically smallest block) or by sampling
the posterior restricted to the coset.

Error probabilities are computed exactly when the (q |Y|)^n joint
outcomes fit the cap, and otherwise by Monte Carlo with a Wilson-style
standard error that stays positive at observed counts of 0.  The exact sum
runs over all (x, y) pairs, or, for an additive pair (Y = X + Z mod q with
X uniform), over the q^n noise words alone, one coset of ker A at a time.
A Monte Carlo estimate draws every trial from one generator seeded by its
seed: first all (x, y) pairs, as one ``rng.inverse_cdf`` draw over the
flattened joint at ``random((trials, n))``, then, for the stochastic
decoder only, one uniform per trial.  The trials then decode a
``gf_linalg.chunks`` block of trials at a time, over one coset buffer that
the estimate owns: row t holds the kernel shifted by trial t's source
block, (x_t + kernel) mod q, the words of ``coset_array`` in its order, so
no block allocates a coset, and each trial is scored and its ties broken
as in a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .ensembles import sample_map, uniform_ensemble
from .errors import CapExceededError, DecodeFailure
from .gf_linalg import (FieldSpec, GfVector, LinearMap, checked_ints, chunks, coset_array, matvec,
                        segments, word_table)
from .rng import derived_seed, inverse_cdf, make_rng, product_law, product_table
from .sources_channels import JointSource

MAP_EXACT = "map-exact"
STOCHASTIC = "stochastic"

EXACT_ERROR_CAP = 2 ** 24


@dataclass(frozen=True)
class ErrorEstimate:
    """Exact error probability or a Monte Carlo estimate with its precision."""

    value: float
    mode: str                      # "exact" | "monte-carlo"
    trials: Optional[int] = None
    std_err: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0 + 1e-12:
            raise ValueError("error probability must lie in [0, 1]")
        if self.mode == "monte-carlo" and (self.trials is None or self.std_err is None):
            raise ValueError("Monte Carlo estimates carry trials and std_err")
        if self.mode == "exact" and self.std_err is not None:
            raise ValueError("exact values carry no standard error")


def wilson_std_err(successes: int, trials: int) -> float:
    """Half-width scale of the Wilson interval at z=1; positive even at 0 hits."""
    center = (successes + 0.5) / (trials + 1.0)
    return math.sqrt(center * (1.0 - center) / (trials + 1.0))


class SwCodec:
    """A syndrome code (A, decoder) for a joint source.

    The decoder kind is fixed at construction: exact posterior
    maximization over the coset, or sampling the posterior restricted to
    the coset.
    """

    def __init__(self, matrix: LinearMap, source: JointSource,
                 decoder: str = MAP_EXACT):
        if decoder not in (MAP_EXACT, STOCHASTIC):
            raise ValueError(f"unknown decoder kind {decoder!r}")
        if source.x_size != matrix.field.q:
            raise ValueError("source X alphabet must match the code field")
        self.matrix = matrix
        self.source = source
        self.decoder = decoder
        self.field: FieldSpec = matrix.field
        self.n: int = matrix.cols
        self.solver = matrix.solver()

    @property
    def rate(self) -> float:
        """(1/n) log2 |Im A| = (rank/n) log2 q."""
        return self.matrix.rank / self.n * math.log2(self.field.q)


def encode(codec: SwCodec, x: GfVector) -> GfVector:
    """Syndrome of the source block."""
    return matvec(codec.matrix, x)


# Posteriors within this relative distance of the best are tied.  The margin
# is far above the rounding of a summed log-score (about 1e-13), so equal
# posteriors tie whatever order the sum is taken in.
_MAP_TIE_RTOL = 1e-9
_TIE_LOG2 = math.log2(1.0 - _MAP_TIE_RTOL)


def _lex_rank(members: np.ndarray) -> np.ndarray:
    """rank[i] = place of members[i] in lexicographic order, column 0 the primary key."""
    rank = np.empty(len(members), dtype=np.int64)
    rank[np.lexsort(members.T[::-1])] = np.arange(len(members))
    return rank


def _map_pick(members: np.ndarray, scores: np.ndarray, rank: Optional[np.ndarray] = None):
    """(index of the MAP member, live) of the coset for each row of log-posteriors.

    ``scores[..., i]`` is log2 of member i's posterior, -inf when it is 0;
    leading axes index a batch of side-information blocks.  ``members`` is
    one (m, n) coset shared by every row, or (rows, m, n), one coset per row
    of 2-d scores.  Ties follow the rule stated on decode_map: among a
    row's tied members the lowest ``rank`` wins, the members' _lex_rank.
    With no rank given, the tied (row, member) pairs are ranked by the
    _lex_rank of their words, all rows at once: that order, read within one
    row, is the lexicographic order of the row's tied words.  A row is live
    when some member has positive posterior.
    """
    best = scores.max(axis=-1, keepdims=True)
    tied = scores >= best + _TIE_LOG2
    picks = tied.argmax(axis=-1)
    if np.count_nonzero(tied) > picks.size:
        if rank is None:
            flat = tied.reshape(-1, tied.shape[-1])
            row, i = np.nonzero(flat)
            words = members[i] if members.ndim == 2 else members[row, i]
            rank = np.empty(flat.shape, dtype=np.int64)
            rank[row, i] = _lex_rank(words)
            rank = rank.reshape(tied.shape)
        picks = np.where(tied, rank, tied.size).argmin(axis=-1)
    return picks, best[..., 0] > -np.inf


class MapTable(NamedTuple):
    """The MAP decision table of a fixed coset's members (see ``map_table``)."""

    onehot: np.ndarray  # (members, n q) float64: onehot[i, k q + members[i, k]] = 1
    rank: np.ndarray    # each member's _lex_rank


def map_table(members: np.ndarray, q: int) -> MapTable:
    """The one-hot table and lexicographic ranks of a coset held for many decodes.

    The table takes members x n q float64 entries, q times the entries of
    the int64 members themselves; the caller bounds it before it is built.
    """
    count, n = members.shape
    onehot = np.zeros((count, n * q))
    onehot[np.arange(count)[:, None], np.arange(n) * q + members] = 1.0
    return MapTable(onehot, _lex_rank(members))


def _check_y(codec: SwCodec, y) -> np.ndarray:
    if np.shape(y) != (codec.n,):
        raise ValueError("side information must have one symbol per position")
    y_arr = np.array(checked_ints(y, "side information"), dtype=np.int64)
    if np.any((y_arr < 0) | (y_arr >= codec.source.y_size)):
        raise ValueError("side-information symbol out of range")
    return y_arr


def _decide(decoder: str, cond: np.ndarray, members: np.ndarray, y: np.ndarray,
            u: Optional[np.ndarray] = None, table: Optional[MapTable] = None):
    """(picks, live): the coset member each row of y decodes to, and whether
    that row's coset carries posterior mass (a dead row's pick means nothing).

    ``y`` is a (batch, n) array of side-information blocks and ``members``
    one (m, n) coset for every row or (batch, m, n), one coset per row; each
    row decodes as a batch of one would.  MAP decoding takes the _map_pick
    member.  Its log-scores are the product law of the letters
    log2 mu(a | y_k), folded a position at a time, or, with the
    ``map_table(members, q)`` of a coset held for many decodes, one product
    of the batch's letters with the table's one-hot rows, zero letters
    counted as 0; a second product with the zero-letter indicator then marks
    the members that take a zero letter as -inf.  The fold and the product
    add in different orders, which the tie margin absorbs.  A channel code
    holds the table of its one fixed coset.  ``decode_map`` and the
    syndrome-code Monte Carlo, whose coset changes with every call or
    trial, fold, the Monte Carlo over one coset per row.  Posterior
    sampling always folds: it draws member i with probability proportional
    to prod_k mu(members[i, k] | y_k), by the sampler's inverse-CDF rule at
    the row's uniform in ``u``.
    """
    letters = cond.T[y]  # letters[j, k, a] = mu(a | y[j, k])
    if decoder == MAP_EXACT:
        if table is None:
            with np.errstate(divide="ignore"):  # log2 0 = -inf marks a zero letter
                return _map_pick(members, product_law(np.log2(letters), members, np.add))
        flat = letters.reshape(len(y), -1)
        zero = flat == 0.0
        scores = np.log2(flat, out=np.zeros_like(flat), where=~zero) @ table.onehot.T
        if zero.any():
            scores[zero @ table.onehot.T > 0.0] = -np.inf
        return _map_pick(members, scores, table.rank)
    nu = product_law(letters, members)
    live = nu.sum(axis=1) > 0.0
    picks = np.zeros(len(y), dtype=np.int64)
    picks[live] = inverse_cdf(nu[live], u[live])
    return picks, live


def _coset(codec: SwCodec, c: GfVector) -> np.ndarray:
    sol = codec.solver.solve(c)
    if sol.is_empty:
        raise DecodeFailure("syndrome outside the image of the encoding map")
    return coset_array(sol)


def _decode(codec: SwCodec, members: np.ndarray, y, decoder: str, seed,
            table: Optional[MapTable] = None) -> GfVector:
    y_arr = _check_y(codec, y)
    u = make_rng(seed).random(1) if decoder == STOCHASTIC else None
    (pick,), (live,) = _decide(decoder, codec.source.cond_x_given_y, members, y_arr[None], u,
                               table)
    if not live:
        raise DecodeFailure("coset carries zero posterior mass")
    return GfVector.from_array(codec.field, members[pick])


def decode_map(codec: SwCodec, c: GfVector, y) -> GfVector:
    """Coset member maximizing the posterior.

    Members whose posterior lies within a relative 1e-9 of the maximum are
    tied, and the lexicographically smallest tied member is returned, so
    rounding in the summed log-scores never splits equal posteriors.  A
    coset whose members all have zero posterior raises DecodeFailure.
    """
    return _decode(codec, _coset(codec, c), y, MAP_EXACT, None)


def decode_stochastic(codec: SwCodec, c: GfVector, y, seed) -> GfVector:
    """Sample the posterior restricted to the syndrome coset."""
    return _decode(codec, _coset(codec, c), y, STOCHASTIC, seed)


def _lost_mass(decoder: str, letters: np.ndarray, order: np.ndarray, starts: np.ndarray) -> float:
    """Mass the decoder loses over the segments (cosets) at ``starts`` of the words
    ``word_table(q, n)[order]``, summed over the rows of word weights p: the rows
    of ``product_table(letters)``, permuted by ``order``.

    With P = sum p over a segment, MAP decoding keeps max p and posterior
    sampling keeps sum p^2 / P, losing (P^2 - sum p^2) / P: exactly 0 when
    one word holds all of P.
    """
    p = product_table(letters)[..., order]
    total = np.add.reduceat(p, starts, axis=1)
    if decoder == MAP_EXACT:
        lost = total - np.maximum.reduceat(p, starts, axis=1)
    else:
        lost = np.divide(total * total - np.add.reduceat(p * p, starts, axis=1), total,
                         out=np.zeros_like(total), where=total > 0.0)
    return float(lost.sum())


def _noise_law(joint: np.ndarray) -> Optional[np.ndarray]:
    """P_Z = q mu(0, .) when the joint is additive, else None: |Y| = q and
    mu(x, y) = mu(0, (y - x) mod q) exactly on every cell, so X is uniform
    and Y = X + Z with Z ~ P_Z independent of X.
    """
    q, ys = joint.shape
    x = np.arange(q)
    if ys != q or not np.array_equal(joint, joint[0, (x[None, :] - x[:, None]) % q]):
        return None
    return q * joint[0]


def _exact_error(codec: SwCodec) -> float:
    """Sum over (y, coset) of the coset's probability mass the decoder loses.

    The cap counts the (q |Y|)^n joint outcomes and is read before anything
    is enumerated, whichever path then runs.  An additive joint (see
    _noise_law; tested on the table, never on the source's kind) is summed
    in the noise domain: with z = y - x each (y, coset) term is a coset C of
    ker A, met q^n times at weight q^-n, so the error is the sum over the
    q^n / |ker A| cosets of the mass lost under P_Z alone.  Any other joint
    takes _joint_error.
    """
    q, n = codec.field.q, codec.n
    ys = codec.source.y_size
    if (q ** n) * (ys ** n) > EXACT_ERROR_CAP:
        raise CapExceededError(f"exact error needs {(q ** n) * (ys ** n)} joint outcomes, "
                               f"above the cap {EXACT_ERROR_CAP}")
    pz = _noise_law(codec.source.joint)
    if pz is None:
        return _joint_error(codec)
    order, _, starts = segments(word_table(q, n), codec.matrix)
    return _lost_mass(codec.decoder, np.broadcast_to(pz, (1, n, q)), order, starts)


def _joint_error(codec: SwCodec) -> float:
    """The exact error summed over every (y, syndrome coset) of the joint law:
    words sorted by syndrome, side-information blocks a chunk at a time."""
    q, n, ys = codec.field.q, codec.n, codec.source.y_size
    order, _, starts = segments(word_table(q, n), codec.matrix)
    return sum(_lost_mass(codec.decoder, codec.source.joint.T[word_table(ys, n, s.start, s.stop)],
                          order, starts)
               for s in chunks(ys ** n, len(order)))


def _mc_error(codec: SwCodec, trials: int, seed) -> int:
    """Failure count, every trial from one generator, in the order the module docstring states."""
    kernel = codec.solver.kernel  # the coset cap is read before any draw
    rng = make_rng(seed)
    flat = inverse_cdf(codec.source.joint.reshape(1, -1), rng.random((trials, codec.n)))
    x, y = np.divmod(flat, codec.source.y_size)
    u = rng.random(trials) if codec.decoder == STOCHASTIC else None
    cond = codec.source.cond_x_given_y
    buffer = np.empty((next(chunks(trials, kernel.size)).stop, *kernel.shape), dtype=np.int64)
    failures = 0
    for s in chunks(trials, kernel.size):
        # member 0 of each row is x_t itself (kernel row 0 is the zero word), and
        # its positive posterior keeps the coset live
        members = buffer[:s.stop - s.start]
        np.remainder(np.add(x[s, None], kernel, out=members), codec.field.q, out=members)
        picks, _ = _decide(codec.decoder, cond, members, y[s], None if u is None else u[s])
        failures += np.count_nonzero(picks)
    return failures


def _estimate(codec, mode: str, trials: int, seed, exact, mc) -> ErrorEstimate:
    """Exact error sum ``exact(codec)``, clamped, or failure count ``mc(codec, trials, seed)``."""
    if mode == "exact":
        return ErrorEstimate(value=min(max(exact(codec), 0.0), 1.0), mode="exact")
    if mode == "mc":
        if trials < 1:
            raise ValueError("trials must be positive")
        failures = mc(codec, trials, seed)
        return ErrorEstimate(value=failures / trials, mode="monte-carlo",
                             trials=trials, std_err=wilson_std_err(failures, trials))
    raise ValueError(f"unknown error mode {mode!r}")


def error_probability(codec: SwCodec, mode: str = "exact", trials: int = 10000,
                      seed: int = 0) -> ErrorEstimate:
    """Decoding error probability, exact or Monte Carlo.

    Exact mode sums mu(x, y) * [decode(A x, y) != x] over the whole joint
    space (stochastic decoders integrate the decoder's own randomness in
    closed form).  Monte Carlo samples i.i.d. pairs from one generator
    seeded by ``seed``: all pairs first, then one uniform per trial for the
    stochastic decoder.
    """
    return _estimate(codec, mode, trials, seed, _exact_error, _mc_error)


def rows_for_rate(n: int, rate: float, q: int) -> int:
    """Largest syndrome length whose rate does not exceed the target.

    Treating the target as a budget keeps rate-sum conditions (such as
    r + R below the input entropy) intact after discretization; the
    realized rate l/n log2 q is reported alongside every result.
    """
    l = int(math.floor(n * rate / math.log2(q) + 1e-9))
    return min(max(l, 0), n)


def rate_sweep(source: JointSource, rates, ns, trials: int, seed: int,
               decoder: str = MAP_EXACT, matrices_per_point: int = 1):
    """Monte Carlo error of sampled codes across a (rate, n) grid.

    Each grid point samples ``matrices_per_point`` uniform matrices at the
    nearest achievable syndrome length and estimates the decoding error of
    each; one CSV-ready row per sampled matrix.  Rates above the
    conditional entropy of the source should show decaying error in n,
    rates below should not.
    """
    field = FieldSpec(source.x_size)
    rows = []
    for ri, r in enumerate(rates):
        for ni, n in enumerate(ns):
            l = rows_for_rate(n, r, field.q)
            for mi in range(matrices_per_point):
                point_seed = derived_seed(seed, ri, ni, mi)
                if l == 0:
                    a = LinearMap(field, (), cols=n)
                else:
                    a = sample_map(uniform_ensemble(field, l, n), point_seed)
                codec = SwCodec(a, source, decoder=decoder)
                est = error_probability(codec, mode="mc", trials=trials, seed=point_seed)
                rows.append({
                    "source": source.kind,
                    "p": source.param,
                    "n": n,
                    "l": l,
                    "rate": codec.rate,
                    "decoder": decoder,
                    "mode": est.mode,
                    "error": est.value,
                    "std_err": est.std_err,
                    "trials": est.trials,
                    "seed": point_seed,
                })
    return rows
