"""Stochastic decision rules for guessing a state from an observation.

Exact error probabilities of decision rules on a finite joint law, the
optimal maximum a posteriori rule, and the verification that sampling
the posterior at most doubles the MAP error.  A rule is its table
q(u-hat | v); a deterministic rule's rows are one-hot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import LOOSE_MASS_TOL, MASS_TOL, checked_law, make_rng

_ZERO_FRACTION = 0.3  # share of cells zeroed in the half of random problems that get zeros


@dataclass(frozen=True, eq=False)
class DecisionProblem:
    """Known joint law p_UV of a hidden state U and an observation V; frozen, and
    ``p_v`` and ``posterior`` are read-only, so they stay those of the checked joint."""

    joint: np.ndarray

    def __post_init__(self):
        mat = checked_law(self.joint, "joint table")
        p_v = mat.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            posterior = np.where(p_v[None, :] > 0.0, mat / p_v[None, :], 0.0)
        for name, value in (("joint", mat), ("p_v", p_v), ("posterior", posterior)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def u_size(self) -> int:
        return self.joint.shape[0]

    @property
    def v_size(self) -> int:
        return self.joint.shape[1]


@dataclass(frozen=True, eq=False)
class DecisionRule:
    """A conditional table q(u-hat | v): row v is the law of the guess at v (frozen)."""

    table: np.ndarray   # (|V|, |U|)

    def __post_init__(self):
        object.__setattr__(self, "table", checked_law(self.table, "rule table", rows=True,
                                                      tol=LOOSE_MASS_TOL))


def rule_error(prob: DecisionProblem, rule: DecisionRule) -> float:
    """sum_v p(v) sum_u p(u|v) (1 - q(u|v)), exactly."""
    if rule.table.shape != (prob.v_size, prob.u_size):
        raise ValueError("rule alphabets do not match the problem")
    correct = (prob.posterior.T * rule.table).sum(axis=1)  # sum_u p(u|v) q(u|v)
    return float((prob.p_v * (1.0 - correct)).sum())


def map_rule(prob: DecisionProblem) -> DecisionRule:
    """One-hot rows at argmax_u p(u|v); ties go to the smallest state index."""
    return DecisionRule(np.eye(prob.u_size)[prob.posterior.argmax(axis=0)])


def posterior_rule(prob: DecisionProblem) -> DecisionRule:
    """Guess by sampling the posterior itself.

    Observations with zero probability get an arbitrary valid row (they
    never contribute to the error).
    """
    tab = prob.posterior.T.copy()
    empty = tab.sum(axis=1) <= 0.0
    tab[empty, 0] = 1.0
    return DecisionRule(tab)


@dataclass(frozen=True)
class FactorTwoReport:
    err_map: float
    err_posterior: float
    ratio: float
    passed: bool


def verify_factor2(prob: DecisionProblem) -> FactorTwoReport:
    """Exact check that posterior sampling at most doubles the MAP error."""
    err_map = rule_error(prob, map_rule(prob))
    err_post = rule_error(prob, posterior_rule(prob))
    if err_map > 0.0:
        ratio = err_post / err_map
    else:
        ratio = 1.0 if err_post <= MASS_TOL else math.inf
    return FactorTwoReport(err_map=err_map, err_posterior=err_post, ratio=ratio,
                           passed=err_post <= 2.0 * err_map + MASS_TOL)


def random_problem(rng: np.random.Generator, max_u: int = 4, max_v: int = 4) -> DecisionProblem:
    """Random joint with occasional hard zeros for edge coverage."""
    u = int(rng.integers(1, max_u + 1))
    v = int(rng.integers(1, max_v + 1))
    mat = rng.random((u, v))
    if rng.random() < 0.5:
        mat = np.where(rng.random((u, v)) < _ZERO_FRACTION, 0.0, mat)
    if mat.sum() <= 0.0:
        mat[0, 0] = 1.0
    return DecisionProblem(mat / mat.sum())


def random_problems(count: int, seed, max_u: int = 4, max_v: int = 4):
    rng = make_rng(seed)
    return [random_problem(rng, max_u=max_u, max_v=max_v) for _ in range(count)]
