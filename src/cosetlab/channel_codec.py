"""Channel codes built from a source code with decoder side information.

A message m is encoded by drawing a channel input from the input law
conditioned on two linear constraints, A x = c (the syndrome shared with
the decoder) and B x = m (the message).  The decoder runs the underlying
side-information decoder on (c, y) and applies B to its output, so any
working syndrome decoder yields a channel code.

The error probability has two parts: messages whose constraint coset
carries no probability mass (a modeled encoder error), and decoding
failures weighted by the conditional input law on each coset.  Both are
computed exactly on small instances and by Monte Carlo otherwise.  A code
enumerates its decoder coset {x : A x = c} when it is built, so a coset
above the enumeration cap raises CapExceededError there; ``decode`` and both
evaluators read that one copy.  As every encoder coset lies in it, the code
also sorts it once into a segment per message, and a MAP code holds the
decision table of the sorted members, so its decoder scores a batch of
outputs with one product.  An exact ``encode`` draws from its message's
segment, laid out in the order of the stacked (A; B) solution, so it solves,
enumerates and weighs nothing per call; an MCMC encode solves (A; B) and
walks.  The Monte Carlo evaluator draws its input from
the message's segment, draws every trial from one generator and decodes
the trials in batches.  The code search samples
random (B, c) pairs against the underlying syndrome decoder's error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np

from .crng_sampler import (EXACT, ConstrainedDistribution, ConstraintSet, _draw,
                           _normalize_weights, _pick)
from .ensembles import IMAGE_TABLE_CAP, sample_map
from .errors import CapExceededError, EmptyCosetError
from .gf_linalg import (GfVector, LinearMap, _row_reduce, chunks, concat_vectors, coset_array,
                        matvec, segments, span_array, stack_maps)
from .rng import derived_seed, inverse_cdf, make_rng, product_blocks, product_law
from .sources_channels import Channel
from .sw_codec import (EXACT_ERROR_CAP, MAP_EXACT, STOCHASTIC, ErrorEstimate, SwCodec, _decide,
                       _decode, _estimate, _map_pick, map_table,
                       error_probability as sw_error_probability)

MESSAGE_ENUMERATION_CAP = 2 ** 16


class ChannelCodec:
    """Bundle (A via the SW codec, B, c) with the channel it is used on.

    The code holds what every decode and evaluation reads: the checked
    input law, the decoder coset {x : A x = c} in A-kernel order, that coset
    grouped by message (``_message_segments``) and, for a MAP decoder, the
    ``sw_codec.map_table`` of the grouped members, so a MAP decision is one
    product per batch of outputs.  Two parts are built on first use: the
    stacked (A; B) map (``stacked``), which MCMC encodes and
    ``encoder_distribution`` read, and the exact encoder's table.  The
    table has n q float64 entries per member, q times the entries of the
    coset: 8 KB for a 32-member GF(2) coset of length 16, 16 MB for a
    2^16-member coset with n q = 32.  A table above
    ``ensembles.IMAGE_TABLE_CAP`` entries is refused with CapExceededError
    before the coset is enumerated, as a coset above the enumeration cap is.
    """

    def __init__(self, sw: SwCodec, b_map: LinearMap, syndrome: GfVector, channel: Channel):
        if b_map.field != sw.field or b_map.cols != sw.n:  # refused as stack_maps refuses it
            raise ValueError("maps must share field and column count")
        if channel.input_size != sw.field.q:
            raise ValueError("channel input alphabet must match the code field")
        if channel.output_size != sw.source.y_size:
            raise ValueError("channel output alphabet must match the decoder's side information")
        solution = sw.solver.solve(syndrome)  # c must match A's field and row count
        if solution.is_empty:
            raise ValueError("syndrome lies outside the image of the syndrome map")
        entries = sw.solver.kernel_size * sw.n * sw.field.q
        if sw.decoder == MAP_EXACT and entries > IMAGE_TABLE_CAP:
            raise CapExceededError(f"MAP decision table of {entries} entries is above the "
                                   f"cap {IMAGE_TABLE_CAP}")
        self.coset = coset_array(solution)  # the decoder's coset, in A-kernel order
        self.coset.flags.writeable = False  # read-only, like the kernel
        self.sw = sw
        self.b_map = b_map
        self.syndrome = syndrome
        self.channel = channel
        self.n = sw.n
        self.field = sw.field
        self.law = _normalize_weights(sw.source.x_marginal, self.n, self.field.q)  # checked once
        # one reduction of B^T gives a basis of Im B, and its row count is rank B
        rref, _, pivots = _row_reduce(b_map.as_array().T, self.field)
        self._msg_basis = rref[:len(pivots)]  # (rank, l)
        self.segments = _message_segments(self)
        self.table = (map_table(self.segments[0], self.field.q) if sw.decoder == MAP_EXACT
                      else None)

    @cached_property
    def stacked(self) -> LinearMap:
        """The stacked (A; B) map, built on first use."""
        return stack_maps([self.sw.matrix, self.b_map])

    @cached_property
    def _encoder(self):
        """The exact encoder's table, built on first use: each consistent message's
        segment index, keyed by its entries, and every segment's members and input
        weights, (segments, q^d, n) and (segments, q^d) for d free columns of (A; B).

        A segment's rows are in the order ``coset_array`` gives the solution of
        (A; B) x = (c; m): ``AffineSolver`` puts the particular solution at 0 on
        the free columns and its kernel basis is the identity there, in
        ``span_array`` order, so a member's row is the base-q number of its
        entries on the free columns, the first most significant.
        """
        members, member_msg, starts, px, _ = self.segments
        q = self.field.q
        pivots = _row_reduce(np.vstack((self.sw.matrix.as_array(), self.b_map.as_array())),
                             self.field)[2]
        free = [col for col in range(self.n) if col not in pivots]
        at = np.empty((len(starts), q ** len(free)), dtype=np.int64)
        at[member_msg, members[:, free] @ q ** np.arange(len(free) - 1, -1, -1)] = \
            np.arange(len(members))
        messages = (members[starts] @ self.b_map.as_array().T) % q
        return {tuple(m): k for k, m in enumerate(messages.tolist())}, members[at], px[at]

    @property
    def r(self) -> float:
        return self.sw.rate

    @property
    def R(self) -> float:
        """(1/n) log2 |Im B| = (rank B / n) log2 q."""
        return len(self._msg_basis) / self.n * math.log2(self.field.q)

    @property
    def message_count(self) -> int:
        return self.field.q ** len(self._msg_basis)

    def messages(self) -> np.ndarray:
        """All of Im B as an (|M|, l) array, in deterministic order."""
        if self.message_count > MESSAGE_ENUMERATION_CAP:
            raise CapExceededError(f"message space of size {self.message_count} exceeds "
                                   f"the cap {MESSAGE_ENUMERATION_CAP}")
        return span_array(self._msg_basis, self.field.q)

    def random_message(self, rng: np.random.Generator) -> GfVector:
        """Uniform over Im B: uniform coefficients of the image basis."""
        coefficients = rng.integers(0, self.field.q, size=len(self._msg_basis))
        return GfVector.from_array(self.field, (coefficients @ self._msg_basis) % self.field.q)

    def encoder_distribution(self, m: GfVector, mode: str = EXACT) -> ConstrainedDistribution:
        """The reference view of ``encode``'s law, not its path: one pair on the stacked
        (A; B), whose solver, and so coset order, is that of the pairs (A, c), (B, m)."""
        constraints = ConstraintSet(((self.stacked, concat_vectors((self.syndrome, m),
                                                                   self.field)),))
        return ConstrainedDistribution(self.sw.source.x_marginal, constraints, mode=mode)


def build(sw: SwCodec, b_map: LinearMap, channel: Channel, seed) -> ChannelCodec:
    """Fix (B, c): c = A x for an input block x drawn from the input law.

    Drawing x from the input law and applying A is exactly a draw of c
    from the image distribution of A, and both sides of the link share
    the resulting (B, c).
    """
    x = inverse_cdf(sw.source.x_marginal[None], make_rng(seed).random(sw.n))
    c = matvec(sw.matrix, GfVector.from_array(sw.field, x))
    return ChannelCodec(sw, b_map, c, channel)


def encode(codec: ChannelCodec, m: GfVector, seed, mode: str = EXACT) -> Optional[GfVector]:
    """Channel input for message m, or None when its coset has no mass.

    An exact encode draws from m's row of the code's encoder table with
    ``crng_sampler._pick``, the exact step of ``_draw``, so it returns what
    ``_draw`` returns on the solution of (A; B) x = (c; m) at the same seed,
    with no solve, coset or weighting.  An MCMC encode solves that system and
    walks under the code's checked input law.  The None outcome is the modeled
    encoder error: it counts toward the error probability rather than raising.
    """
    rhs = concat_vectors((codec.syndrome, m), codec.field)  # refuses m of another field
    if len(m) != codec.b_map.rows:
        raise ValueError("right-hand side does not match the matrix")
    try:
        if mode == EXACT:
            index, members, weights = codec._encoder
            k = index.get(m.entries)
            if k is None:
                return None  # m is outside Im B or its (A; B) system is inconsistent
            x = GfVector.from_array(codec.field, _pick(members[k], weights[k], seed))
        else:
            x = _draw(codec.stacked.solver().solve(rhs), codec.law, mode, seed)
    except EmptyCosetError:
        return None
    assert matvec(codec.sw.matrix, x) == codec.syndrome and matvec(codec.b_map, x) == m
    return x


def decode(codec: ChannelCodec, y, seed=0) -> GfVector:
    """Run the side-information decoder on the shared syndrome's coset, then apply B.

    MAP decoding reads the code's table; posterior sampling draws over the
    coset in A-kernel order, as ``sw_codec.decode_stochastic`` does.
    """
    members = codec.coset if codec.table is None else codec.segments[0]
    return matvec(codec.b_map, _decode(codec.sw, members, y, codec.sw.decoder, seed, codec.table))


def _message_segments(codec: ChannelCodec):
    """The decoder's coset grouped by message, with each member's input weight;
    the code computes it once, when it is built, and holds it as ``segments``.

    Every encoder coset {x : A x = c, B x = m} lies in the decoder's coset
    {x : A x = c}, so sorting that coset by the code of B x makes each
    consistent message one contiguous segment.  Returns the sorted members,
    each member's segment index, the segment starts, each member's weight
    under the input law, and each segment's total weight (0 marks a
    mass-zero coset, an encoder error).
    """
    order, member_msg, starts = segments(codec.coset, codec.b_map)
    members = codec.coset[order]
    px = product_law(codec.law, members)
    return members, member_msg, starts, px, np.add.reduceat(px, starts)


def _exact_error(codec: ChannelCodec) -> float:
    """Encoder-error share plus the decoding error, every channel output at once.

    The message segments of the decoder's coset give both the conditional
    input law of each message and the decoder's candidates.  Each member's
    channel law W(y | x) and posterior score over every output y come from
    the table form of the product law (``rng.product_blocks``), a chunk of
    outputs at a time.
    """
    n = codec.n
    outputs = codec.channel.output_size ** n
    m_count = codec.message_count
    members, member_msg, starts, px, mass = codec.segments
    # every consistent message's segment has q^(n - rank (A; B)) members
    terms = m_count * (len(members) // len(starts)) * outputs
    if terms > EXACT_ERROR_CAP:
        raise CapExceededError(f"exact channel error needs {terms} terms, "
                               f"above the cap {EXACT_ERROR_CAP}")

    # encoder law: x given its message m, drawn uniformly; mass-zero or
    # inconsistent messages are encoder errors
    good = mass > 0.0
    encoder_weight = np.divide(px, m_count * mass[member_msg], out=np.zeros_like(px),
                               where=good[member_msg])
    err = (m_count - np.count_nonzero(good)) / m_count

    # one table row per member x, from its letters mu(x_k | b) (log2 for MAP) and
    # W(b | x_k) at each output letter b; the sums read a block's transpose, laid
    # out in memory as product_law laid out the (outputs, members) weights, so
    # every sum runs in the same order
    cond = codec.sw.source.cond_x_given_y
    blocks = list(chunks(outputs, len(members) * n))
    if codec.sw.decoder == MAP_EXACT:
        with np.errstate(divide="ignore"):  # log2 0 = -inf marks a zero letter
            posts = product_blocks(np.log2(cond)[members], blocks, np.add)
    else:
        posts = product_blocks(cond[members], blocks)
    for post, w_y in zip(posts, product_blocks(codec.channel.transition[members], blocks)):
        if codec.sw.decoder == MAP_EXACT:
            # a dead row decodes to no message (-1), a miss for every member
            picks, live = _map_pick(members, post.T, codec.table.rank)
            decoded = np.where(live, member_msg[picks], -1)
            miss = decoded[:, None] != member_msg[None, :]
        else:
            hits = np.add.reduceat(post.T, starts, axis=1)
            total = hits.sum(axis=1, keepdims=True)  # posterior mass per message, summed
            p_hit = np.divide(hits, total, out=np.zeros_like(hits), where=total > 0.0)
            miss = 1.0 - p_hit[:, member_msg]
        err += float((w_y.T * miss).sum(axis=0) @ encoder_weight)
    return err


def _mc_error(codec: ChannelCodec, trials: int, seed: int) -> int:
    """Failure count of message -> encoder -> channel -> decoder trials, all from one generator.

    It draws, in order: the messages, spread evenly over Im B from one
    uniform offset (unbiased, and the Wilson std_err becomes a conservative
    bound); one uniform per sent trial for the encoder; the channel
    outputs; and, for the stochastic decoder, one uniform per trial.
    """
    members, member_msg, starts, px, mass = codec.segments
    # every consistent message's coset has q^(n - rank (A; B)) members, so
    # the segments are the rows of one table
    seg_px = px.reshape(len(starts), -1)
    size = seg_px.shape[1]
    rng = make_rng(seed)
    count = codec.message_count
    # index k < len(starts) is the message of segment k; the remaining
    # indices are the messages with empty cosets
    msg = np.minimum(np.floor((np.arange(trials) + rng.random()) * (count / trials)), count - 1)
    sent = msg[msg < len(starts)].astype(np.int64)
    sent = sent[mass[sent] > 0.0]  # the rest are encoder errors: failures
    u = rng.random(len(sent))
    x_index = np.empty(len(sent), dtype=np.int64)
    for s in chunks(len(sent), size):
        x_index[s] = sent[s] * size + inverse_cdf(seg_px[sent[s]], u[s])
    y = codec.channel.sample_outputs(members[x_index], rng)

    decoder, cond = codec.sw.decoder, codec.sw.source.cond_x_given_y
    u = rng.random(len(sent)) if decoder == STOCHASTIC else None
    hits = 0
    for s in chunks(len(sent), len(members) * codec.n):
        picks, live = _decide(decoder, cond, members, y[s], None if u is None else u[s],
                              codec.table)
        # a coset without posterior mass is a failure
        hits += np.count_nonzero(live & (member_msg[picks] == sent[s]))
    return trials - int(hits)


def error_probability(codec: ChannelCodec, mode: str = "exact", trials: int = 10000,
                      seed: int = 0) -> ErrorEstimate:
    """Message error probability of the assembled channel code.

    Exact mode evaluates both terms of the error expression: the uniform
    share of messages with mass-zero cosets, plus the conditional-law
    weighted probability of decoding to the wrong message.  Monte Carlo
    mode runs message -> encoder -> channel -> decoder trials; encoder
    errors count as failures.
    """
    return _estimate(codec, mode, trials, seed, _exact_error, _mc_error)


@dataclass
class SearchResult:
    """Best (B, c) pair found by random search, with its context."""

    best_codec: ChannelCodec
    best_error: ErrorEstimate
    baseline_error: ErrorEstimate
    candidate_errors: List[ErrorEstimate]
    candidate_seeds: List[int]
    master_seed: int

    @property
    def delta_hat(self) -> float:
        return self.best_error.value - self.baseline_error.value

    def rows(self) -> List[dict]:
        codec = self.best_codec
        out = []
        for k, est in enumerate(self.candidate_errors):
            out.append({
                "channel": codec.channel.kind,
                "p": codec.channel.param,
                "n": codec.n,
                "lA": codec.sw.matrix.rows,
                "lB": codec.b_map.rows,
                "r": codec.r,
                "R": codec.R,
                "candidate": k,
                "error": est.value,
                "std_err": est.std_err,
                "baseline_error": self.baseline_error.value,
                "delta_hat": self.delta_hat,
                "seed": self.candidate_seeds[k],
            })
        return out


def search_code(sw: SwCodec, ensemble_b, channel: Channel, candidates: int,
                trials: int, seed: int) -> SearchResult:
    """Random search over (B, c) pairs; returns the best with the baseline.

    The baseline is the error of the underlying syndrome decoder on the
    codec's own joint source (for a matched setup, the joint induced by
    the input law and the channel).  Candidate evaluations depend only on
    (seed, candidate index), so each can be reproduced in isolation.
    """
    if candidates < 1:
        raise ValueError("need at least one candidate")
    baseline = sw_error_probability(sw, mode="mc", trials=trials,
                                    seed=derived_seed(seed, 0))

    errors, seeds = [], []
    for k in range(candidates):
        b = sample_map(ensemble_b, derived_seed(seed, 1, k))
        codec = build(sw, b, channel, derived_seed(seed, 2, k))
        seeds.append(derived_seed(seed, 3, k))
        errors.append(error_probability(codec, mode="mc", trials=trials, seed=seeds[-1]))
        if k == 0 or errors[k].value < errors[best_k].value:  # ties: lowest index
            best_k, best = k, codec
    return SearchResult(best_codec=best, best_error=errors[best_k],
                        baseline_error=baseline, candidate_errors=errors,
                        candidate_seeds=seeds, master_seed=seed)
