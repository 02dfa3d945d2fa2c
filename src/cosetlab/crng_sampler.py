"""Constrained random number generation.

Draw x from an i.i.d. (or per-letter) distribution conditioned on a set
of linear constraints A x = c, B x = m, ...  The maps and the law are
fixed while the value (c, m, ...) changes per draw, so the one draw body,
``_draw``, reads a solution and a checked (n, q) law.  Exact mode enumerates the
solution coset and samples from the renormalized weights by the package's
one draw rule, ``rng.inverse_cdf`` (the rule of ``Generator.choice``), so
a seed gives the draw ``choice`` would give.  That exact step, ``_pick``, takes
the members and their weights, so a caller that holds a coset's members in
the solution's order (a channel code's encoder table) draws without solving.
MCMC mode runs a lazy sequential-scan Metropolis walk whose proposals add
a random scalar multiple of a null-space basis vector, so every state of
the chain satisfies the constraints by construction and the acceptance
ratio needs only single-letter weight products.  The chain's generator draws
its proposals in blocks: BLOCK = 4096 steps ``rng.integers(0, q, size=BLOCK)``,
then BLOCK uniforms ``rng.random(BLOCK)``.  Each proposal takes one step and
one uniform, used or not, and a step of 0 is lazy, so a seed fixes the chain.

Exact mode and ``mass`` are capped at cosets of COSET_ENUMERATION_CAP
(gf_linalg, 2^16) members; MCMC draws enumerate nothing.  Whether the
constraint set is empty is decided exactly by a rank test, never sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, repeat
from typing import Iterator, List, Tuple

import numpy as np

from . import gf_linalg
from .errors import CapExceededError, EmptyCosetError
from .gf_linalg import FieldSpec, GfVector, concat_vectors, coset_array, matvec, stack_maps
from .rng import LOOSE_MASS_TOL, checked_law, inverse_cdf, make_rng, product_law

EXACT = "exact"
MCMC = "mcmc"

# MCMC schedule: 50 n sweeps of burn-in, 50 n more before a draw and
# THIN_SWEEPS between the TV check's states, one proposal per kernel
# basis row per sweep.  Mixing is an empirical setting, not a claim.
BURN_IN_SWEEPS_PER_LETTER = 50
SWEEPS_PER_LETTER = 50
THIN_SWEEPS = 1
# The walk draws its proposals' steps and uniforms this many at a time.
BLOCK = 4096


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Conjunction of linear constraints {(A, c), (B, m), ...} on GF(q)^n."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple(self.pairs)
        if not pairs:
            raise ValueError("at least one constraint pair is required")
        for a, c in pairs:
            if len(c) != a.rows or c.field != a.field:
                raise ValueError("constraint value does not match its map")
        object.__setattr__(self, "pairs", pairs)
        stacked = stack_maps([a for a, _ in pairs])  # the maps must share field and length
        rhs = concat_vectors([c for _, c in pairs], stacked.field)
        object.__setattr__(self, "solution", stacked.solver().solve(rhs))

    @property
    def field(self) -> FieldSpec:
        return self.pairs[0][0].field

    @property
    def n(self) -> int:
        return self.pairs[0][0].cols

    @property
    def is_consistent(self) -> bool:
        return not self.solution.is_empty

    @property
    def coset_size(self) -> int:
        return self.solution.size

    def satisfied_by(self, x: GfVector) -> bool:
        return all(matvec(a, x) == c for a, c in self.pairs)


def _normalize_weights(weights, n: int, q: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape not in ((q,), (n, q)):
        raise ValueError(f"weights must have shape ({n}, {q}) or ({q},)")
    return checked_law(np.broadcast_to(w, (n, q)), "per-letter weights", rows=True,
                       tol=LOOSE_MASS_TOL)


@dataclass(frozen=True, eq=False)
class ConstrainedDistribution:
    """mu restricted to a constraint coset.

    ``weights`` is either a length-q single-letter distribution shared by
    all positions (the i.i.d. case) or an (n, q) array of per-letter
    distributions.  ``mode`` selects exact coset enumeration or the MCMC
    walk; the MCMC schedule (``burn_in``, ``sweeps``) is in sweeps, read
    from the module's per-letter constants when used.
    """

    weights: np.ndarray
    constraints: ConstraintSet
    mode: str = EXACT

    def __post_init__(self):
        if self.mode not in (EXACT, MCMC):
            raise ValueError(f"unknown sampling mode {self.mode!r}")
        object.__setattr__(self, "weights", _normalize_weights(self.weights, self.n, self.field.q))

    @property
    def burn_in(self) -> int:
        return BURN_IN_SWEEPS_PER_LETTER * self.n

    @property
    def sweeps(self) -> int:
        return SWEEPS_PER_LETTER * self.n

    @property
    def field(self) -> FieldSpec:
        return self.constraints.field

    @property
    def n(self) -> int:
        return self.constraints.n


def _member_weights(sol: gf_linalg.AffineSolution,
                    law: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(members, unnormalized probabilities) of the enumerated coset."""
    cap = gf_linalg.COSET_ENUMERATION_CAP
    if sol.size > cap:
        raise CapExceededError(
            f"coset of size {sol.size} exceeds the enumeration cap {cap}, so its exact "
            "law and mass are unavailable; an mcmc draw needs them only when its walk "
            "ends on a zero-weight state")
    members = coset_array(sol)
    return members, product_law(law, members)


def mass(dist: ConstrainedDistribution) -> float:
    """Total probability the unconstrained law puts on the coset (exact mode)."""
    sol = dist.constraints.solution
    return 0.0 if sol.is_empty else float(_member_weights(sol, dist.weights)[1].sum())


def _walk(sol: gf_linalg.AffineSolution, law: np.ndarray, rng: np.random.Generator, first: int,
          every: int) -> Iterator[List[int]]:
    """States of one Metropolis chain: after ``first`` sweeps, then after each ``every`` more.

    The chain starts at the particular solution.  A sweep proposes one move
    per row of the solver's kernel basis, in order, each with the next step s
    and uniform u of the stream (blocks of BLOCK steps, then BLOCK uniforms).
    s = 0 is the lazy step; otherwise the move adds s times the row and,
    with num and den the weights of the new and old letters on its support,
    is accepted when den = 0 (a free move off a zero-weight state) or
    u * den < num (never when num = 0).  Each yield is the chain's own
    state list, which the following sweeps update in place.
    """
    q = sol.field.q
    state = list(sol.particular.entries)
    # each move touches only its support: (position, step, letter weights)
    rows = law.tolist()
    moves = [[(i, b, rows[i]) for i, b in enumerate(v) if b] for v in sol.solver.basis.tolist()]
    proposals = chain.from_iterable(zip(rng.integers(0, q, size=BLOCK).tolist(),
                                        rng.random(BLOCK).tolist()) for _ in count())
    sweeps = first
    while True:
        # zip takes the move first, so no proposal is drawn past the schedule
        for move, (s, u) in zip(chain.from_iterable(repeat(moves, sweeps)), proposals):
            if s == 0:
                continue  # lazy step, keeps the chain aperiodic
            num = den = 1.0
            for i, b, w in move:
                a = state[i]
                num *= w[(a + s * b) % q]
                den *= w[a]
            if den == 0.0 or u * den < num:
                for i, b, _ in move:
                    state[i] = (state[i] + s * b) % q
        yield state
        sweeps = every


def _pick(members: np.ndarray, probs: np.ndarray, seed) -> np.ndarray:
    """The exact draw: the row of ``members`` that ``inverse_cdf`` picks under the
    unnormalized ``probs`` at ``make_rng(seed).random(1)``.  EmptyCosetError, before
    any uniform is drawn, when ``probs`` carry no mass."""
    if probs.sum() <= 0.0:
        raise EmptyCosetError("coset carries zero probability mass: encoder error")
    return members[inverse_cdf(probs[None], make_rng(seed).random(1))[0]]


def _draw(sol: gf_linalg.AffineSolution, law: np.ndarray, mode: str, seed) -> GfVector:
    """The draw body: one member of the coset of ``sol`` under the checked (n, q) ``law``.

    Neither mode returns a state of zero weight.  The walk accepts no move
    onto such a state, so it ends on one only when the coset may carry no
    mass; that is then decided exactly, within the coset cap.
    """
    if mode not in (EXACT, MCMC):
        raise ValueError(f"unknown sampling mode {mode!r}")
    if sol.is_empty:
        raise EmptyCosetError("constraints are inconsistent: encoder error")
    if mode == EXACT:
        return GfVector.from_array(sol.field, _pick(*_member_weights(sol, law), seed))
    sweeps = (BURN_IN_SWEEPS_PER_LETTER + SWEEPS_PER_LETTER) * len(law)
    state = next(_walk(sol, law, make_rng(seed), sweeps, 0))
    if not all(law[i, a] > 0.0 for i, a in enumerate(state)):
        if _member_weights(sol, law)[1].sum() <= 0.0:
            raise EmptyCosetError("coset carries zero probability mass: encoder error")
        raise RuntimeError("the MCMC walk ended on a zero-weight state of a coset "
                           "with positive mass")
    return GfVector.from_array(sol.field, state)


def draw(dist: ConstrainedDistribution, seed) -> GfVector:
    """One sample by ``_draw``; every output is asserted to satisfy all constraints."""
    out = _draw(dist.constraints.solution, dist.weights, dist.mode, seed)
    assert dist.constraints.satisfied_by(out)
    return out


def exact_distribution(dist: ConstrainedDistribution) -> Tuple[np.ndarray, np.ndarray]:
    """(members, normalized probabilities); the reference law for TV checks."""
    members, probs = _member_weights(dist.constraints.solution, dist.weights)
    total = probs.sum()
    if total <= 0.0:
        raise EmptyCosetError("coset carries zero probability mass")
    return members, probs / total


def tv_distance_check(dist: ConstrainedDistribution, draws: int, seed) -> float:
    """Total-variation distance of empirical draws from the exact conditional.

    Exact mode samples i.i.d.  MCMC mode runs a single chain (burn-in from
    the distribution's schedule, then THIN_SWEEPS sweeps between retained
    states) so the check measures the stationary marginal; THIN_SWEEPS = 0
    with no burn-in degenerates the chain to its start point, which is
    useful as a negative control.
    """
    if draws < 1:
        raise ValueError("need at least one draw")
    members, exact = exact_distribution(dist)
    rng = make_rng(seed)
    if dist.mode == EXACT:
        counts = np.bincount(inverse_cdf(exact[None], rng.random(draws)), minlength=len(exact))
    else:
        counts = np.zeros(len(exact))
        index = {tuple(row): i for i, row in enumerate(members.tolist())}
        walk = _walk(dist.constraints.solution, dist.weights, rng,
                     dist.burn_in + THIN_SWEEPS, THIN_SWEEPS)
        for _ in range(draws):
            counts[index[tuple(next(walk))]] += 1
    emp = counts / draws
    return float(0.5 * np.abs(emp - exact).sum())
