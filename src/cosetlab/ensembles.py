"""Ensembles of linear maps with certified hash-property parameters.

An ensemble is a distribution over l x n matrices.  Its quality as a
universal-hash-style family is summarized by a pair (alpha, beta)
computed from the type spectrum

    S(t) = (1/N) sum_b |{x : A_b x = 0, type(x) = t}|,

the expected number of kernel words of each type t over the N members,
where a type is a word's symbol-count tuple (c_0, ..., c_{q-1}):

    alpha = max over heavy types of S(t) / S_uniform(t)
    beta  = sum over light types of S(t)

where "heavy" means Hamming weight > gamma * n and S_uniform(t) =
|T| / q^l.  The pair certifies the collision bound: for every x, the total
probability of x' colliding with x more often than alpha / |Im ensemble|
is at most beta.  Every kind contains full-rank members (the sparse kind
by its identity block, the uniform kind because l <= n, and expurgation
keeps a full-rank member whenever it keeps any), so |Im ensemble| = q^l.

Expurgation conditions the ensemble on the kernel containing no light
(low-weight) words, which drives beta to exactly 0 at the price of a
larger alpha.  The closed-form bound alpha / (1 - beta) from the parent
ensemble requires beta < 1; the exact expurgated alpha is available from
the expurgated spectrum whenever full enumeration is feasible and is
what the certifier uses.

Members are equally likely and linear, so a collision is a count over
the difference of the two words:

    P(A x = A x') = K[x' - x] / N,   K[d] = |{b : A_b d = 0}|.

All exact results come from one table of every word of GF(q)^n, one
table of image codes A_b x and this kernel count K:
expurgation keeps a member iff no light non-zero word maps to 0, the
types and their class sizes are the word table grouped by symbol counts,
the type spectrum is K summed over each group, the direct collision pair
takes the maximum of K over d != 0, and the per-word collision check of
the certifier is one sum over K that every word shares.  Each sum is an
exact integer, so S, alpha, beta and the certified alpha each take one
division and are the correctly rounded rationals on any BLAS kernel.

Members with the same kernel partition the words into the same cosets,
so K, each collision-set hit and each partition defect depend on a
member only through its kernel: the table keeps one row of image codes
per kernel class (171 rows for the 6,561 members of the uniform GF(3)
2 x 4 ensemble), and every sum over members is a sum over classes
weighted by their sizes.
The collision sets are read from the kernel indicator [A_b d = 0]:
A_b x = A_b u for some x in G \\ {u} iff A_b maps some difference x - u
to 0, so one product per block of class rows, of that indicator with
every pair's difference words, checks every (G, u) pair.  The partition
bound takes, per block of class rows and per image m of GF(q)^l, one
product of the indicator [A_b x = m] with the (Q, T) weights of every
pair; with more images than pairs it buckets the weights per pair, row
and image instead, so its cost never grows with both counts.  Its lhs sums
float Q weights, so it can move in its last bits between BLAS kernels;
only the violation count reaches the CSV.

A spec keeps its exact table: the first exact function that needs it
builds it, read-only, and the spec frees it when the spec is freed, so a
params step and the certifier on one spec enumerate the ensemble once.
The table holds its member count and arrays, never the spec, so no
reference cycle delays that.

Every cap is checked from the spec's sizes before anything is
enumerated.  Exact enumeration is capped at 2^20 ensemble members
(counted before expurgation).  The members x l x n member array, the
members x q^n image-code table and the q^n x n word table it indexes are
each capped at 2^24 entries; the uniform closed form builds only the word
table.  Beyond a cap CapExceededError is raised and no sampled estimate
exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import CapExceededError, ExpurgationError
from .gf_linalg import FieldSpec, LinearMap, chunks, image_codes, word_table
from .rng import make_rng

UNIFORM = "uniform-linear"
SYSTEMATIC_SPARSE = "systematic-sparse"
EXPURGATED = "expurgated"


ENSEMBLE_ENUMERATION_CAP = 2 ** 20
IMAGE_TABLE_CAP = 2 ** 24

# Expurgated sampling gives up after this many rejected draws.
_MAX_REJECTIONS = 10000

# Strict comparisons against float thresholds get this much relative slack,
# so borderline-equal collision probabilities are not misread as violations.
_REL_SLACK = 1e-12


@dataclass(frozen=True)
class EnsembleSpec:
    """A named distribution over l x n matrices over GF(q)."""

    kind: str
    field: FieldSpec
    rows: int
    cols: int
    row_weight: Optional[int] = None          # systematic-sparse only
    inner: Optional["EnsembleSpec"] = None    # expurgated only
    gamma: Optional[float] = None             # expurgated only

    def __post_init__(self):
        if self.kind not in (UNIFORM, SYSTEMATIC_SPARSE, EXPURGATED):
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if not 1 <= self.rows <= self.cols:
            raise ValueError("need 1 <= rows <= cols")
        if self.kind == SYSTEMATIC_SPARSE:
            if self.rows >= self.cols:
                raise ValueError("systematic-sparse needs rows < cols")
            if self.row_weight is None or self.row_weight < 1:
                raise ValueError("systematic-sparse needs row_weight >= 1")
        if self.kind == EXPURGATED:
            if self.inner is None:
                raise ValueError("expurgated ensembles wrap an inner ensemble")
            if self.gamma is None or not 0.0 < self.gamma < 1.0:
                raise ValueError("expurgation weight fraction must satisfy 0 < gamma < 1")
            if (self.inner.field, self.inner.rows, self.inner.cols) != (
                    self.field, self.rows, self.cols):
                raise ValueError("inner ensemble shape must match")

    @cached_property
    def _table(self):
        """(member count N, all words, class codes, class sizes, kernel count K) of the
        full ensemble, built on first exact use and kept read-only for the spec's life.

        Members with one kernel share their coset partition of the words, so
        the table keeps one image-code row per kernel class (see _kernel_classes):
        codes[c, i] encodes its first member's A_b applied to word i (word 0 is
        the zero word), and sizes[c] counts the class's members.  K[d] =
        |{b : A_b d = 0}| = sizes @ [codes == 0] is an exact integer sum.
        Every kind has a full-rank member, so the members reach all q^l images.
        Every cap is checked before anything is built.  The table holds no
        reference to the spec, so reference counts alone free it with the spec.
        """
        q = self.field.q
        words = _all_words(q, self.cols, _member_count(self))
        full = image_codes(enumerate_ensemble(self).arrays, q, words)
        codes, sizes = _kernel_classes(full)
        kernel = sizes @ (codes == 0)
        for table in (words, codes, sizes, kernel):
            table.flags.writeable = False
        return len(full), words, codes, sizes, kernel


def uniform_ensemble(field: FieldSpec, rows: int, cols: int) -> EnsembleSpec:
    return EnsembleSpec(UNIFORM, field, rows, cols)


def sparse_ensemble(field: FieldSpec, rows: int, cols: int, row_weight: int) -> EnsembleSpec:
    return EnsembleSpec(SYSTEMATIC_SPARSE, field, rows, cols, row_weight=row_weight)


def expurgate(inner: EnsembleSpec, gamma: float) -> EnsembleSpec:
    return EnsembleSpec(EXPURGATED, inner.field, inner.rows, inner.cols,
                        inner=inner, gamma=gamma)


@dataclass(frozen=True)
class HashParams:
    """(alpha, beta) pair certifying a collision/partition bound."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def kernel_min_weight(a: LinearMap) -> float:
    """Minimum weight over non-zero kernel words; inf for a trivial kernel."""
    weights = np.count_nonzero(a.solver().kernel, axis=1)
    nz = weights[weights > 0]
    return float(nz.min()) if nz.size else math.inf


def _systematic(q: int, l: int, n: int, cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """``[I | 0]`` plus value ``vals[b, r, k]`` at block column ``cols[b, r, k]`` of row r.

    ``cols`` and ``vals`` are (count, l, row_weight) picks; a column may be
    picked twice, so accumulated values can cancel and each row carries at
    most row_weight non-zeros in its block.  Returns (count, l, n) residues.
    """
    count = cols.shape[0]
    arrays = np.zeros((count, l, n), dtype=np.int64)
    arrays[:, :, :l] = np.eye(l, dtype=np.int64)
    np.add.at(arrays, (np.arange(count)[:, None, None], np.arange(l)[:, None], l + cols), vals)
    arrays %= q
    return arrays


def sample_map(spec: EnsembleSpec, seed) -> LinearMap:
    """Draw one matrix from the ensemble (deterministic per seed)."""
    rng = make_rng(seed)
    q = spec.field.q
    if spec.kind == UNIFORM:
        return LinearMap.from_array(spec.field, rng.integers(0, q, size=(spec.rows, spec.cols)))
    if spec.kind == SYSTEMATIC_SPARSE:
        shape = (1, spec.rows, spec.row_weight)
        cols = rng.integers(0, spec.cols - spec.rows, size=shape)
        vals = rng.integers(1, q, size=shape)
        arr = _systematic(q, spec.rows, spec.cols, cols, vals)[0]
        return LinearMap.from_array(spec.field, arr)
    # expurgated: reject until the kernel clears the weight threshold
    threshold = spec.gamma * spec.cols
    for _ in range(_MAX_REJECTIONS):
        cand = sample_map(spec.inner, rng)
        if kernel_min_weight(cand) > threshold:
            return cand
    raise ExpurgationError(
        f"expurgation infeasible at gamma={spec.gamma}: no matrix with kernel "
        f"minimum weight > {threshold} found in {_MAX_REJECTIONS} attempts")


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class EnumeratedEnsemble:
    """All members of a (tiny) ensemble, each drawn with probability 1/count."""

    arrays: np.ndarray   # (count, rows, cols) residues

    @property
    def count(self) -> int:
        return self.arrays.shape[0]

    @property
    def probs(self) -> np.ndarray:
        return np.full(self.count, 1.0 / self.count)


def _member_count(spec: EnsembleSpec) -> int:
    """Members the exact enumeration builds, before any expurgation, from the
    spec's sizes alone; CapExceededError above the cap."""
    if spec.kind == EXPURGATED:
        return _member_count(spec.inner)
    q, l, n = spec.field.q, spec.rows, spec.cols
    if spec.kind == UNIFORM:
        name, base, exp = "uniform", q, l * n
    else:
        name, base, exp = "sparse", (n - l) * (q - 1), spec.row_weight * l
    count = base ** exp
    if count > ENSEMBLE_ENUMERATION_CAP:
        shown = count if count < 10 ** 12 else f"{base}^{exp}"  # a long count as its power
        raise CapExceededError(f"{name} ensemble has {shown} members, "
                               f"above the cap {ENSEMBLE_ENUMERATION_CAP}")
    return count


def _all_words(q: int, n: int, members: int) -> np.ndarray:
    """Every word of GF(q)^n, once a members x q^n image-code table (none for
    0 members) and the q^n x n word table itself fit the cap."""
    if members * q ** n > IMAGE_TABLE_CAP:
        raise CapExceededError(f"image-code table of {members} members x {q}^{n} codes "
                               f"is above the cap {IMAGE_TABLE_CAP}; shrink l or n")
    if q ** n * n > IMAGE_TABLE_CAP:
        raise CapExceededError(f"word table of {q}^{n} words x {n} entries is above the "
                               f"cap {IMAGE_TABLE_CAP}; shrink n")
    return word_table(q, n)


def _kernel_classes(codes: np.ndarray):
    """(codes of each class's first member, class sizes) of the members of an
    image-code table grouped by kernel, that is by their indicator [codes == 0].

    Each block of indicator rows is packed to bits, and every row is read as
    whole uint64 keys; a stable sort of the keys puts each class in one run,
    led by its first member.
    """
    count, n_words = codes.shape
    n_bytes = -(-n_words // 8)
    packed = np.zeros((count, -(-n_bytes // 8) * 8), dtype=np.uint8)
    for s in chunks(count, n_words):
        packed[s, :n_bytes] = np.packbits(codes[s] == 0, axis=1)
    keys = packed.view(np.uint64)
    order = np.lexsort(keys.T)
    keys = keys[order]
    lead = np.ones(count, dtype=bool)
    lead[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    starts = np.flatnonzero(lead)
    return codes[order[starts]], np.diff(starts, append=count)


def enumerate_ensemble(spec: EnsembleSpec) -> EnumeratedEnsemble:
    """Materialize the full ensemble; CapExceededError, before anything is built,
    beyond a cap."""
    q, l, n = spec.field.q, spec.rows, spec.cols
    count = _member_count(spec)
    if spec.kind != EXPURGATED and count * l * n > IMAGE_TABLE_CAP:
        raise CapExceededError(f"member array of {count} members x {l} x {n} entries "
                               f"is above the cap {IMAGE_TABLE_CAP}; shrink l or n")
    if spec.kind == UNIFORM:
        return EnumeratedEnsemble(word_table(q, l * n).reshape(count, l, n))
    if spec.kind == SYSTEMATIC_SPARSE:
        digits = word_table((n - l) * (q - 1), spec.row_weight * l).reshape(
            count, l, spec.row_weight)
        return EnumeratedEnsemble(_systematic(q, l, n, digits // (q - 1), 1 + digits % (q - 1)))
    # expurgated: keep the members that map no light non-zero word to 0,
    # i.e. whose kernel minimum weight exceeds gamma * n
    words = _all_words(q, n, count)
    inner = enumerate_ensemble(spec.inner)
    weights = np.count_nonzero(words, axis=1)
    light = words[(weights > 0) & (weights <= spec.gamma * n)]
    keep = (image_codes(inner.arrays, q, light) != 0).all(axis=1)
    if not keep.any():
        raise ExpurgationError(
            f"expurgation invalid at gamma={spec.gamma}: no ensemble member survives")
    return EnumeratedEnsemble(inner.arrays[keep])


def members(spec: EnsembleSpec):
    """(LinearMap, probability) pairs of the full ensemble."""
    ens = enumerate_ensemble(spec)
    for arr in ens.arrays:
        yield LinearMap.from_array(spec.field, arr), 1.0 / ens.count


# ---------------------------------------------------------------------------
# type spectrum and (alpha, beta)
# ---------------------------------------------------------------------------

def _spectrum(spec: EnsembleSpec):
    """(types, class sizes, kernel counts, N) over the types of GF(q)^n: S = counts / N.

    A type is a word's symbol-count tuple; the types come out in
    lexicographic order, so the zero type (n, 0, ..., 0) is last.
    """
    q, l, n = spec.field.q, spec.rows, spec.cols
    if spec.kind == UNIFORM:
        # closed form: a non-zero word is in 1 of q^l kernels, the zero word in all;
        # it needs no image-code table
        words, total = _all_words(q, n, 0), q ** l
        kernel = np.where(words.any(axis=1), 1.0, total)
    else:
        total, words, _, _, kernel = spec._table
    symbols = np.stack([np.count_nonzero(words == a, axis=1) for a in range(q)], axis=1)
    types, inverse, sizes = np.unique(symbols, axis=0, return_inverse=True, return_counts=True)
    return types, sizes, np.bincount(inverse.ravel(), weights=kernel), total


def type_spectrum(spec: EnsembleSpec) -> dict:
    """Expected number of kernel words per type, S(t), exactly.

    Keyed by symbol-count tuples (c_0, ..., c_{q-1}) summing to n.
    Closed form |T| / q^l for the uniform kind; otherwise the kernel count K
    summed over the words of each type, over the member count.
    """
    types, _, counts, total = _spectrum(spec)
    return {tuple(int(c) for c in t): float(v) for t, v in zip(types, counts / total)}


def compute_hash_params(spec: EnsembleSpec, gamma: Optional[float] = None) -> HashParams:
    """(alpha, beta) of the ensemble's own distribution at the given gamma.

    For an expurgated spec the threshold is the spec's own gamma and the
    spectrum is the expurgated one, so beta comes out exactly 0 and alpha
    is the exact expurgated value (not the alpha/(1-beta) upper bound,
    which is available from :func:`expurgated_params_bound` when the
    parent's beta is below 1).

    The pair certifies the collision bound only when the collision
    probability is type-invariant; for the systematic-sparse kind use
    :func:`certified_collision_params` instead.
    """
    if spec.kind == EXPURGATED:
        if gamma is not None and gamma != spec.gamma:
            raise ValueError("gamma of an expurgated spec is fixed at construction")
        gamma = spec.gamma
    elif gamma is None:
        raise ValueError("gamma is required for non-expurgated ensembles")
    q, l, n = spec.field.q, spec.rows, spec.cols
    threshold = gamma * n
    # below 0 the zero word, in every kernel, is heavy; from n on, no type is
    if not 0.0 <= threshold < n:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma}")
    types, sizes, counts, total = _spectrum(spec)
    weights = n - types[:, 0]
    heavy = weights > threshold
    alpha = float((counts[heavy] * q ** l / (sizes[heavy] * total)).max())
    beta = float(counts[(weights > 0) & ~heavy].sum() / total)
    # expurgation empties the light types by construction
    assert spec.kind != EXPURGATED or beta == 0.0, "expurgated ensemble kept a light kernel word"
    return HashParams(alpha=alpha, beta=beta)


def certified_collision_params(spec: EnsembleSpec) -> HashParams:
    """Tightest (alpha, 0) pair from the exact pairwise collision probabilities.

    alpha = |Im| * max over x != x' of P(A x = A x'), which certifies the
    collision bound by construction.  For ensembles whose collision
    probability depends on x - x' only through its type (uniform,
    expurgated-uniform) this equals the type-spectrum alpha; the
    systematic-sparse kind is not type-invariant (its identity block
    pins the first coordinates), so this direct pair is the one to
    certify it with.
    """
    total, _, _, _, kernel = spec._table
    alpha = spec.field.q ** spec.rows * kernel[1:].max() / total
    return HashParams(alpha=float(alpha), beta=0.0)


def expurgated_params_bound(inner: EnsembleSpec, gamma: float) -> HashParams:
    """Closed-form pair (alpha/(1-beta), 0) for the expurgated ensemble.

    Valid only when the parent ensemble's beta at this gamma is below 1;
    otherwise the bound degenerates and an ExpurgationError is raised.
    """
    parent = compute_hash_params(inner, gamma=gamma)
    if parent.beta >= 1.0:
        raise ExpurgationError(
            f"expurgation invalid: beta={parent.beta} >= 1 at gamma={gamma}, "
            "the closed-form expurgated alpha is undefined")
    return HashParams(alpha=parent.alpha / (1.0 - parent.beta), beta=0.0)


# ---------------------------------------------------------------------------
# exact certification
# ---------------------------------------------------------------------------

@dataclass
class PairCheck:
    """One exact two-sided bound evaluation."""

    label: str
    lhs: float
    rhs: float

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + _REL_SLACK) + _REL_SLACK


@dataclass
class CertificationReport:
    spec: EnsembleSpec
    params: HashParams
    collision_checked: int
    collision_violations: list
    partition_checks: list       # balanced-coloring style (Q, T) bounds
    collision_set_checks: list   # collision-resistance style (G, u) bounds
    gamma: Optional[float] = None  # weight threshold behind the certified pair

    @property
    def passed(self) -> bool:
        return (not self.collision_violations
                and all(c.ok for c in self.partition_checks)
                and all(c.ok for c in self.collision_set_checks))

    def csv_row(self) -> dict:
        checked = (self.collision_checked + len(self.partition_checks)
                   + len(self.collision_set_checks))
        violations = (len(self.collision_violations)
                      + sum(1 for c in self.partition_checks if not c.ok)
                      + sum(1 for c in self.collision_set_checks if not c.ok))
        return {
            "kind": self.spec.kind,
            "q": self.spec.field.q,
            "l": self.spec.rows,
            "n": self.spec.cols,
            "gamma": "" if self.gamma is None else self.gamma,
            "alpha": self.params.alpha,
            "beta": self.params.beta,
            "violations": violations,
            "checked": checked,
        }


def random_partition_pairs(field: FieldSpec, n: int, count: int, seed):
    """(Q, T) pairs: Q a random non-negative weighting, T a random non-empty set."""
    rng = make_rng(seed)
    size = field.q ** n
    pairs = []
    for _ in range(count):
        q_fn = rng.random(size)
        t_mask = rng.random(size) < 0.5
        if not t_mask.any():
            t_mask[rng.integers(0, size)] = True
        pairs.append((q_fn, t_mask))
    return pairs


def random_collision_pairs(field: FieldSpec, n: int, count: int, seed):
    """(G, u) pairs: G a random subset of words, u a random word index."""
    rng = make_rng(seed)
    size = field.q ** n
    pairs = []
    for _ in range(count):
        g_mask = rng.random(size) < 0.5
        u = int(rng.integers(0, size))
        pairs.append((g_mask, u))
    return pairs


def _partition_defects(codes, sizes, qt, q_total, im_size) -> np.ndarray:
    """lhs[k] = mean over members b of sum_{m in Im} | Q_k(T_k n C_b(m)) / Q_k(T_k) - 1/|Im| |.

    Im is GF(q)^l, reached by every kind's full-rank members.  Row c of ``codes``
    stands for the sizes[c] members of its kernel class: they share its cosets,
    and each image they miss adds 1/|Im|, so they share its defect.  With no
    more images than pairs, one product per block of rows and per image m, of
    the indicator [A_b x = m] with the (words, pairs) weights, gives the mass
    Q_k(T_k n C_b(m)) of every row and pair.  Otherwise one bincount per block collects qt[k, i]
    in bucket (k, b, m) over the words i that row b maps to m.  The products
    cost about as much per image as the buckets per pair, so the loop runs
    over the fewer of the two.
    """
    pairs, n_words = qt.shape
    # a C-contiguous copy: the product with the transposed view is far slower
    weights = np.ascontiguousarray(qt.T)
    lhs = np.zeros(pairs)
    for s in chunks(len(codes), pairs * n_words):
        block = codes[s]
        rows = len(block)
        if im_size <= pairs:
            defect = np.zeros((rows, pairs))
            for m in range(im_size):
                mass = (block == m).astype(np.float64) @ weights
                defect += np.abs(mass / q_total - 1.0 / im_size)
        else:
            bucket = (np.arange(pairs)[:, None, None] * rows
                      + np.arange(rows)[None, :, None]) * im_size + block[None, :, :]
            mass = np.bincount(bucket.ravel(),
                               weights=np.broadcast_to(qt[:, None, :], bucket.shape).ravel(),
                               minlength=pairs * rows * im_size).reshape(pairs, rows, im_size)
            defect = np.abs(mass / q_total[:, None, None] - 1.0 / im_size).sum(axis=2).T
        lhs += sizes[s] @ defect
    return lhs / sizes.sum()


def _collision_hits(codes, words, q: int, collision_pairs) -> np.ndarray:
    """hits[b, k] = [A_b x = A_b u for some x in G \\ {u}] of the k-th (G, u) pair.

    ``words`` is the full word table that indexes ``codes``, whose row b is a
    member, or a kernel class, since a hit depends only on the kernel.
    Column k of D marks the difference words (x - u) mod q, and row b hits
    pair k iff it maps one of them to 0.
    """
    place = q ** np.arange(words.shape[1])
    # float32 is enough: a count of hits is positive whenever one term is
    diffs = np.zeros((len(words), len(collision_pairs)), dtype=np.float32)
    for k, (g_mask, u) in enumerate(collision_pairs):
        g_idx = np.flatnonzero(g_mask)
        diffs[(words[g_idx[g_idx != u]] - words[u]) % q @ place, k] = 1.0
    hits = np.empty((len(codes), len(collision_pairs)), dtype=bool)
    for s in chunks(len(codes), len(words) * len(collision_pairs)):
        hits[s] = ((codes[s] == 0) @ diffs) > 0
    return hits


def _mask(mask, size: int, label: str) -> np.ndarray:
    """``mask`` as an array; ValueError naming ``label`` unless it is a boolean
    mask of ``size`` entries."""
    mask = np.asarray(mask)
    if mask.dtype != np.bool_ or mask.shape != (size,):
        raise ValueError(f"{label} must be a boolean mask of {size} entries")
    return mask


def certify_hash_property(spec: EnsembleSpec, params: HashParams,
                          partition_pairs: Sequence = (),
                          collision_pairs: Sequence = (),
                          gamma: Optional[float] = None) -> CertificationReport:
    """Exhaustively verify the collision bound and the two derived bounds.

    For every word x the certified inequality is checked exactly: the
    total collision probability restricted to partners exceeding
    alpha / |Im| must stay within beta.  Each supplied (Q, T) pair is
    checked against the partition bound

        E[ sum_m | Q(T n C(m))/Q(T) - 1/|Im| | ]
            <= sqrt(alpha - 1 + (beta + 1) |Im| max_{u in T} Q(u) / Q(T))

    and each (G, u) pair against the collision-set bound

        P( (G \\ {u}) meets C(A u) ) <= |G| alpha / |Im| + beta.

    Violations are collected in the report, never raised; a pair that is
    not a finite Q >= 0 with mass on a mask T, or a mask G with a word index
    u, over the q^n words is a ValueError naming it.
    """
    q = spec.field.q
    im_size, size = q ** spec.rows, q ** spec.cols
    partition_pairs = [(np.asarray(q_fn, dtype=np.float64), _mask(t, size, f"partition-{k}: T"))
                       for k, (q_fn, t) in enumerate(partition_pairs)]
    for k, (q_fn, t_mask) in enumerate(partition_pairs):
        if q_fn.shape != (size,) or not (np.isfinite(q_fn) & (q_fn >= 0.0)).all():
            raise ValueError(f"partition-{k}: Q must be {size} finite entries >= 0")
        if not (q_fn[t_mask] > 0.0).any():
            raise ValueError(f"partition-{k}: Q must put positive mass on T")
    collision_pairs = [(_mask(g, size, f"collision-set-{k}: G"), u)
                       for k, (g, u) in enumerate(collision_pairs)]
    for k, (_, u) in enumerate(collision_pairs):
        if not isinstance(u, (int, np.integer)) or not 0 <= u < size:
            raise ValueError(f"collision-set-{k}: u must be an index in [0, {size}), got {u!r}")
    total, words, codes, sizes, kernel = spec._table

    # P(A x = A x') = K[x' - x] / N: every word sees the same partner counts
    partners = kernel[1:]
    over = partners * im_size > params.alpha * total * (1.0 + _REL_SLACK)
    mass = float(partners[over].sum() / total)
    violations = []
    if mass > params.beta * (1.0 + _REL_SLACK) + _REL_SLACK:
        violations = [f"x={tuple(int(v) for v in w)}: "
                      f"excess collision mass {mass} > beta {params.beta}" for w in words]

    partition_checks = []
    if partition_pairs:
        qt = np.array([q_fn * t_mask for q_fn, t_mask in partition_pairs])
        q_total = qt.sum(axis=1)
        lhs = _partition_defects(codes, sizes, qt, q_total, im_size)
        for k, (q_fn, t_mask) in enumerate(partition_pairs):
            q_max = float(q_fn[t_mask].max())
            arg = params.alpha - 1.0 + (params.beta + 1.0) * im_size * q_max / q_total[k]
            partition_checks.append(PairCheck(label=f"partition-{k}", lhs=float(lhs[k]),
                                              rhs=math.sqrt(max(arg, 0.0))))

    collision_set_checks = []
    if collision_pairs:
        hits = _collision_hits(codes, words, q, collision_pairs)
        for k, (g_mask, u) in enumerate(collision_pairs):
            rhs = np.count_nonzero(g_mask) * params.alpha / im_size + params.beta
            collision_set_checks.append(PairCheck(label=f"collision-set-{k}", rhs=rhs,
                                                  lhs=int(sizes @ hits[:, k]) / total))

    return CertificationReport(spec=spec, params=params,
                               collision_checked=len(words),
                               collision_violations=violations,
                               partition_checks=partition_checks,
                               collision_set_checks=collision_set_checks,
                               gamma=spec.gamma if gamma is None else gamma)
