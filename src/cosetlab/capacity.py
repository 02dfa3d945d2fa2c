"""Channel capacity by alternating maximization, with support restrictions.

The solver keeps the standard two-sided bracket: at input law r the
per-input divergences D_x = KL(W(.|x) || p_y) give I(r) = sum r_x D_x as
a lower bound and max_x D_x as an upper bound on the capacity over the
allowed support.  Iteration stops when the (running) bracket gap is
within the tolerance, so the returned value is within the tolerance of
the true restricted capacity.

Restricting the support to at most q symbols and maximizing over all
such supports gives the finite-signaling-alphabet capacity, which is
non-decreasing in q and approaches the unrestricted value.  The sweep
is one batched solve over all candidate supports, whose winning rows,
bit-identical to single solves, it returns without a bracket trace; a
support whose upper bracket falls below a rival's lower bracket is
retired, not solved to the tolerance, so only supports that still
compete can raise "no convergence".  Exhaustive support search is
capped at alphabet size 16; larger alphabets raise CapExceededError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from .errors import CapExceededError
from .sources_channels import Channel

SUPPORT_SEARCH_CAP = 16
_MAX_ITER = 200000


@dataclass(frozen=True, eq=False)
class CapacityResult:
    """Capacity value with its optimizing input (read-only) and convergence
    evidence (frozen)."""

    capacity: float
    input_dist: np.ndarray
    iterations: int
    residual: float
    support: tuple
    bracket_trace: tuple = ()

    def __post_init__(self):
        if self.capacity < -1e-12:
            raise ValueError("capacity cannot be negative")


def blahut_arimoto(channel: Channel, support: Optional[Sequence[int]] = None,
                   tol: float = 1e-9) -> CapacityResult:
    """Capacity of a discrete memoryless channel, inputs outside ``support`` pinned to 0."""
    nx = channel.input_size
    support = tuple(range(nx)) if support is None else tuple(sorted(set(int(s) for s in support)))
    if not support or any(not 0 <= s < nx for s in support):
        raise ValueError("support must be a non-empty subset of the input alphabet")
    trace = []
    (res,) = _solve(channel, [support], tol, trace)
    return replace(res, bracket_trace=tuple(trace))


def _solve(channel: Channel, supports, tol: float,
           trace: Optional[list] = None, groups=()) -> List[Optional[CapacityResult]]:
    """Blahut-Arimoto on every sorted support at once, one masked input-law row each.

    Rows are combined only by elementwise products and last-axis sums (no
    BLAS), so each row's result is bit-identical to the batch of one on its
    support.  A row leaves at its own convergence, or with result None once
    its upper bracket plus ``tol`` is below the best lower bracket of every
    row of ``groups`` (boolean, maxima x supports) holding it; ``trace``
    (batch of one) receives the running bracket after every iteration.
    Rows still open after _MAX_ITER iterations raise RuntimeError.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    w = channel.transition
    allowed = np.zeros((len(supports), channel.input_size), dtype=bool)
    for b, support in enumerate(supports):
        allowed[b, list(support)] = True
    pin = np.where(allowed, 0.0, -math.inf)  # keeps inputs off the support out of max and update
    r = allowed / allowed.sum(axis=1, keepdims=True)
    logw = np.log2(np.where(w > 0.0, w, 1.0))  # 0 where w = 0
    w_t = np.ascontiguousarray(w.T)
    live = np.arange(len(supports))  # result slot of each live row
    best_lo, best_hi = np.full(len(supports), -math.inf), np.full(len(supports), math.inf)
    lo_all = np.full(len(supports), -math.inf)  # lower brackets, kept after rows leave
    results = [None] * len(supports)
    for it in range(1, _MAX_ITER + 1):
        p_y = (r[:, None, :] * w_t).sum(axis=2)
        log_py = np.log2(np.where(p_y > 0.0, p_y, 1.0))  # 0 where p_y = 0
        d = (w * (logw - log_py[:, None, :])).sum(axis=2)  # KL(W(.|x) || p_y) in bits
        best_lo = np.maximum(best_lo, (r * d).sum(axis=1))
        d += pin
        hi = d.max(axis=1)
        best_hi = np.minimum(best_hi, hi)
        if trace is not None:
            trace.append((best_lo.item(0), best_hi.item(0)))
        gap = best_hi - best_lo
        done = gap <= tol
        if len(groups):
            lo_all[live] = best_lo
            rival = np.where(groups, lo_all, -math.inf).max(axis=1, keepdims=True)
            done |= ((best_hi + tol < rival) | ~groups[:, live]).all(axis=0)
        if np.count_nonzero(done):  # cheaper than done.any() on a batch of one
            for j in np.flatnonzero(done & (gap <= tol)):
                input_dist = r[j].copy()
                input_dist.flags.writeable = False
                results[live[j]] = CapacityResult(
                    capacity=max(best_lo.item(j), 0.0), input_dist=input_dist, iterations=it,
                    residual=gap.item(j), support=supports[live[j]])
            if done.all():
                return results
            keep = ~done
            live, pin, r, d, hi, best_lo, best_hi = (
                a[keep] for a in (live, pin, r, d, hi, best_lo, best_hi))
        r = r * np.exp2(d - hi[:, None])
        r /= r.sum(axis=1, keepdims=True)
    raise RuntimeError(f"no convergence to tol={tol} within {_MAX_ITER} iterations")


def signaling_sweep(channel: Channel, q_values: Sequence[int], tol: float = 1e-9):
    """Best capacity over supports of size at most q, for each requested q.

    Exhaustive over all supports, so the sweep is exactly non-decreasing
    in q; alphabets above 16 symbols raise CapExceededError.  All
    candidates are one batched solve, bit-identical to single solves, and
    each q returns its winner's row of that solve, with an empty
    ``bracket_trace`` (:func:`blahut_arimoto` traces a single support).
    The first maximum wins (smallest, then lexicographically first
    support).  A candidate whose upper bracket falls below a rival's lower
    bracket for each of its q is retired, not solved to ``tol``, so only
    competing candidates can raise "no convergence".
    """
    nx = channel.input_size
    for qv in q_values:
        if not 1 <= qv <= nx:
            raise ValueError("support size bound must lie in [1, input alphabet size]")
    if nx > SUPPORT_SEARCH_CAP:
        raise CapExceededError(
            f"alphabet of size {nx} is too large for exhaustive support search "
            f"(cap {SUPPORT_SEARCH_CAP})")
    if not q_values:
        return []
    supports = [s for k in range(1, max(q_values) + 1)
                for s in itertools.combinations(range(nx), k)]
    eligible = np.array([[len(s) <= qv for s in supports] for qv in q_values])
    results = _solve(channel, supports, tol, groups=eligible)
    caps = np.array([-math.inf if res is None else res.capacity for res in results])
    return [results[int(np.argmax(np.where(e, caps, -math.inf)))] for e in eligible]
