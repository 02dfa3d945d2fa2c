import dataclasses
import math

import numpy as np
import pytest

from cosetlab import crng_sampler as crng
from cosetlab import gf_linalg
from cosetlab.errors import CapExceededError, EmptyCosetError
from cosetlab.gf_linalg import FieldSpec, GfVector, LinearMap
from cosetlab.rng import inverse_cdf

F2 = FieldSpec(2)
A_PARITY = LinearMap(F2, ((1, 1, 0), (0, 1, 1)))  # kernel {000, 111}


def kernel_constraints(c=(0, 0)):
    return crng.ConstraintSet(((A_PARITY, GfVector(F2, c)),))


def test_inverse_cdf_matches_generator_choice():
    rng = np.random.default_rng(11)
    weights = rng.random((200, 9)) * (rng.random((200, 9)) < 0.5)
    weights[np.arange(200), rng.integers(0, 9, 200)] += 0.1  # every row has mass
    weights[::7] *= 1e-300  # tiny totals too
    seeds = rng.integers(0, 2 ** 32, 200)
    u = np.array([np.random.default_rng(s).random() for s in seeds])
    expected = [np.random.default_rng(s).choice(9, p=w / w.sum()) for s, w in zip(seeds, weights)]
    assert inverse_cdf(weights, u).tolist() == expected
    # one row of weights serves every uniform
    first = [np.random.default_rng(s).choice(9, p=weights[0] / weights[0].sum()) for s in seeds]
    assert inverse_cdf(weights[:1], u).tolist() == first


@pytest.mark.parametrize("shape", [(3, 4), (1, 5), (2, 1, 3)])
def test_inverse_cdf_draws_each_row_of_a_stack(shape):
    # rows lie along the last axis and u has the leading shape; a (1, n, K) stack
    # is n rows, not one row for every uniform
    rng = np.random.default_rng(sum(shape))
    weights = rng.random(shape + (6,)) * (rng.random(shape + (6,)) < 0.6)
    weights[..., 2] += 0.1  # every row has mass
    seeds = rng.integers(0, 2 ** 32, shape)
    u = np.vectorize(lambda s: np.random.default_rng(s).random())(seeds)
    expected = np.empty(shape, dtype=np.int64)
    for i in np.ndindex(*shape):
        w = weights[i]
        expected[i] = np.random.default_rng(seeds[i]).choice(6, p=w / w.sum())
    assert np.array_equal(inverse_cdf(weights, u), expected)


def test_constraint_set_basics():
    cs = kernel_constraints()
    assert cs.is_consistent and cs.coset_size == 2 and cs.n == 3
    assert cs.satisfied_by(GfVector(F2, (1, 1, 1)))
    assert not cs.satisfied_by(GfVector(F2, (1, 0, 0)))


def test_mass_uniform_counting():
    dist = crng.ConstrainedDistribution(np.array([0.5, 0.5]), kernel_constraints())
    assert crng.mass(dist) == pytest.approx(0.25, abs=1e-15)


def test_mass_inconsistent_is_zero():
    bad = crng.ConstraintSet(((LinearMap(F2, ((1, 1), (1, 1))), GfVector(F2, (0, 1))),))
    dist = crng.ConstrainedDistribution(np.array([0.5, 0.5]), bad)
    assert crng.mass(dist) == 0.0


def test_mass_bernoulli_product():
    dist = crng.ConstrainedDistribution(np.array([0.9, 0.1]), kernel_constraints())
    assert crng.mass(dist) == pytest.approx(0.9 ** 3 + 0.1 ** 3, abs=1e-15)


def test_exact_conditional_ratio():
    dist = crng.ConstrainedDistribution(np.array([0.9, 0.1]), kernel_constraints())
    members, probs = crng.exact_distribution(dist)
    by_member = {tuple(int(v) for v in m): p for m, p in zip(members, probs)}
    assert by_member[(0, 0, 0)] == pytest.approx(0.729 / 0.730, abs=1e-12)


def test_mass_cap_suggests_mcmc(monkeypatch):
    monkeypatch.setattr(gf_linalg, "COSET_ENUMERATION_CAP", 2 ** 10)
    wide = LinearMap(F2, ((1,) * 20,))
    cs = crng.ConstraintSet(((wide, GfVector(F2, (0,))),))
    dist = crng.ConstrainedDistribution(np.array([0.5, 0.5]), cs)
    with pytest.raises(CapExceededError, match="mcmc"):
        crng.mass(dist)


def test_draw_dirac_weights():
    # point mass on 111, which satisfies the constraints
    weights = np.array([[0.0, 1.0]] * 3)
    dist = crng.ConstrainedDistribution(weights, kernel_constraints())
    for seed in range(5):
        assert crng.draw(dist, seed).entries == (1, 1, 1)


def test_draw_inconsistent_signals_encoder_error():
    bad = crng.ConstraintSet(((LinearMap(F2, ((1, 1), (1, 1))), GfVector(F2, (0, 1))),))
    dist = crng.ConstrainedDistribution(np.array([0.5, 0.5]), bad)
    with pytest.raises(EmptyCosetError):
        crng.draw(dist, 0)


def test_draw_zero_mass_signals_encoder_error():
    weights = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])  # forces 010, not in coset
    dist = crng.ConstrainedDistribution(weights, kernel_constraints())
    assert crng.mass(dist) == 0.0
    with pytest.raises(EmptyCosetError):
        crng.draw(dist, 0)


def test_every_draw_satisfies_constraints():
    rng = np.random.default_rng(8)
    a = LinearMap.from_array(F2, rng.integers(0, 2, (2, 6)))
    c = GfVector.from_array(F2, rng.integers(0, 2, 2))
    cs = crng.ConstraintSet(((a, c),))
    if not cs.is_consistent:
        pytest.skip("unlucky draw")
    for mode in (crng.EXACT, crng.MCMC):
        dist = crng.ConstrainedDistribution(np.array([0.7, 0.3]), cs, mode=mode)
        for seed in range(8):
            assert cs.satisfied_by(crng.draw(dist, seed))


def test_exact_tv_small_uniform_coset():
    a = LinearMap(F2, ((1, 0, 1, 0), (0, 1, 0, 1)))
    cs = crng.ConstraintSet(((a, GfVector(F2, (1, 0))),))
    dist = crng.ConstrainedDistribution(np.array([0.5, 0.5]), cs)
    assert cs.coset_size == 4
    assert crng.tv_distance_check(dist, 100000, seed=11) <= 0.02


def _size16_constraints():
    rng = np.random.default_rng(3)
    while True:
        a = LinearMap.from_array(F2, rng.integers(0, 2, (2, 6)))
        if a.rank == 2:
            return crng.ConstraintSet(((a, GfVector(F2, (1, 0))),))


def test_exact_tv_skewed_weights():
    dist = crng.ConstrainedDistribution(np.array([0.7, 0.3]), _size16_constraints())
    assert crng.tv_distance_check(dist, 100000, seed=12) <= 0.02


def test_mcmc_tv_default_schedule():
    dist = crng.ConstrainedDistribution(np.array([0.7, 0.3]), _size16_constraints(),
                                        mode=crng.MCMC)
    assert dist.burn_in == 300 and dist.sweeps == 300  # 50 sweeps per letter
    assert crng.tv_distance_check(dist, 10000, seed=13) <= 0.05


def stop_the_walk(monkeypatch):
    # no burn-in, no sweeps before a draw and none between retained states
    for name in ("BURN_IN_SWEEPS_PER_LETTER", "SWEEPS_PER_LETTER", "THIN_SWEEPS"):
        monkeypatch.setattr(crng, name, 0)


def test_mcmc_degenerate_chain_is_far(monkeypatch):
    stop_the_walk(monkeypatch)
    dist = crng.ConstrainedDistribution(np.array([0.7, 0.3]), _size16_constraints(),
                                        mode=crng.MCMC)
    assert crng.tv_distance_check(dist, 1000, seed=14) > 0.5


def test_mcmc_draw_never_returns_zero_weight_state(monkeypatch):
    # the coset of (1, 0) is {100, 011}, and the walk starts at 100
    cs = kernel_constraints((1, 0))
    one_live = np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])  # only 011 has weight
    assert crng.draw(crng.ConstrainedDistribution(one_live, cs, mode=crng.MCMC),
                     seed=0).entries == (0, 1, 1)
    dead = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.5]])  # neither member has weight
    with pytest.raises(EmptyCosetError):
        crng.draw(crng.ConstrainedDistribution(dead, cs, mode=crng.MCMC), seed=0)
    stop_the_walk(monkeypatch)
    stuck = crng.ConstrainedDistribution(one_live, cs, mode=crng.MCMC)
    with pytest.raises(RuntimeError, match="positive mass"):
        crng.draw(stuck, seed=0)
    monkeypatch.setattr(gf_linalg, "COSET_ENUMERATION_CAP", 1)
    with pytest.raises(CapExceededError):
        crng.draw(stuck, seed=0)


def test_per_letter_weights():
    weights = np.array([[0.6, 0.4], [0.2, 0.8], [0.5, 0.5]])
    dist = crng.ConstrainedDistribution(weights, kernel_constraints())
    assert crng.mass(dist) == pytest.approx(0.6 * 0.2 * 0.5 + 0.4 * 0.8 * 0.5, abs=1e-15)


def test_unknown_mode_is_refused():
    with pytest.raises(ValueError, match="gibbs"):
        crng.ConstrainedDistribution(np.array([0.5, 0.5]), kernel_constraints(), mode="gibbs")


def test_a_distribution_is_frozen_after_its_checks():
    # mode and weights are checked once, at construction, so neither may change after
    dist = crng.ConstrainedDistribution(np.array([0.5, 0.5]), kernel_constraints())
    with pytest.raises(dataclasses.FrozenInstanceError):
        dist.mode = "gibbs"
    with pytest.raises(dataclasses.FrozenInstanceError):
        dist.weights = np.array([[2.0, -1.0]] * 3)
    assert dist.mode == crng.EXACT and not dist.weights.flags.writeable
    assert crng.mass(dist) == pytest.approx(0.25, abs=1e-15)


def test_weight_validation():
    with pytest.raises(ValueError):
        crng.ConstrainedDistribution(np.array([0.5, 0.6]), kernel_constraints())
    with pytest.raises(ValueError):
        crng.ConstrainedDistribution(np.array([0.5, 0.5, 0.0]), kernel_constraints())


def test_zero_row_constraint_spans_space():
    z = LinearMap(F2, (), cols=3)
    cs = crng.ConstraintSet(((z, GfVector(F2, ())),))
    assert cs.coset_size == 8
    dist = crng.ConstrainedDistribution(np.array([0.5, 0.5]), cs)
    assert crng.mass(dist) == pytest.approx(1.0, abs=1e-12)


def reference_walk(dist, seed, sweeps):
    """Per-proposal Metropolis walk on the documented (step, uniform) stream.

    Yields the state after each sweep.  Proposals come in blocks of
    ``BLOCK`` steps followed by ``BLOCK`` uniforms, one of each per proposal.
    """
    rng = np.random.default_rng(seed)
    q = dist.field.q
    sol = dist.constraints.solution
    state = sol.particular.as_array()
    k = crng.BLOCK  # proposals used from the current block
    for _ in range(sweeps):
        for v in sol.solver.basis:
            if k == crng.BLOCK:
                steps = rng.integers(0, q, size=crng.BLOCK)
                uniforms = rng.random(crng.BLOCK)
                k = 0
            s, u = int(steps[k]), float(uniforms[k])
            k += 1
            if s == 0:
                continue
            support = np.flatnonzero(v)
            new = (state + s * v) % q
            num = math.prod(float(dist.weights[i, new[i]]) for i in support)
            den = math.prod(float(dist.weights[i, state[i]]) for i in support)
            if den == 0.0 or u * den < num:
                state = new
        yield tuple(int(a) for a in state)


def random_coset(q, rows, n, seed):
    field = FieldSpec(q)
    rng = np.random.default_rng(seed)
    while True:
        a = LinearMap.from_array(field, rng.integers(0, q, (rows, n)))
        if a.rank == rows:
            return crng.ConstraintSet(((a, GfVector.from_array(field, rng.integers(0, q, rows))),))


WALK_CASES = {
    "gf2-iid": (2, 2, 6, [0.7, 0.3]),
    "gf2-per-letter-zeros": (2, 2, 6, [[0.0, 1.0], [0.6, 0.4], [1.0, 0.0],
                                       [0.5, 0.5], [0.2, 0.8], [0.9, 0.1]]),
    "gf3-iid-zero": (3, 2, 5, [0.5, 0.0, 0.5]),
    "gf3-per-letter-zeros": (3, 1, 4, [[0.0, 0.5, 0.5], [0.2, 0.3, 0.5],
                                       [0.6, 0.0, 0.4], [0.1, 0.1, 0.8]]),
    "gf5-iid": (5, 2, 4, [0.3, 0.25, 0.2, 0.15, 0.1]),
    "gf5-iid-zeros": (5, 1, 4, [0.4, 0.0, 0.3, 0.0, 0.3]),
}


@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_walk_matches_reference_state_for_state(case):
    q, rows, n, weights = WALK_CASES[case]
    dist = crng.ConstrainedDistribution(np.array(weights), random_coset(q, rows, n, 2),
                                        mode=crng.MCMC)
    walk = crng._walk(dist.constraints.solution, dist.weights, np.random.default_rng(6), 1, 1)
    for k, ref in enumerate(reference_walk(dist, 6, 2000)):
        assert tuple(next(walk)) == ref, f"sweep {k + 1}"


@pytest.mark.parametrize("q, rows, n, weights", [
    (3, 2, 5, [0.5, 0.3, 0.2]),
    (5, 2, 4, [0.3, 0.25, 0.2, 0.25, 0.0]),
])
def test_mcmc_tv_default_schedule_odd_prime(q, rows, n, weights):
    dist = crng.ConstrainedDistribution(np.array(weights), random_coset(q, rows, n, 1),
                                        mode=crng.MCMC)
    assert dist.constraints.coset_size == q ** (n - rows)
    assert crng.tv_distance_check(dist, 10000, seed=15) <= 0.05


@pytest.mark.parametrize("other", [LinearMap(FieldSpec(3), ((1, 2, 0),)),
                                   LinearMap(F2, ((1, 0, 1, 1),))], ids=["field", "length"])
def test_constraint_maps_must_share_field_and_length(other):
    with pytest.raises(ValueError, match="share field"):
        crng.ConstraintSet(((A_PARITY, GfVector(F2, (0, 0))), (other, GfVector(other.field, (1,)))))
