import gc
import itertools
import math
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cosetlab import cli, gf_linalg
from cosetlab import ensembles as ens
from cosetlab.errors import CapExceededError, ExpurgationError
from cosetlab.gf_linalg import FieldSpec, LinearMap

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def brute_kernel(arr, q, n):
    """All kernel words of a matrix, by trying every vector."""
    out = []
    for x in itertools.product(range(q), repeat=n):
        if all(sum(row[i] * x[i] for i in range(n)) % q == 0 for row in arr):
            out.append(x)
    return out


def word_type(x, q):
    """Symbol-count tuple (c_0, ..., c_{q-1}) of a word."""
    counts = Counter(int(e) for e in x)
    return tuple(counts[a] for a in range(q))


def class_size(t):
    """Number of words of type t: the multinomial n! / prod c_a!."""
    size = math.factorial(sum(t))
    for c in t:
        size //= math.factorial(c)
    return size


def all_types(q, n):
    return sorted({word_type(x, q) for x in itertools.product(range(q), repeat=n)})


def test_sample_is_deterministic_per_seed():
    spec = ens.uniform_ensemble(F2, 2, 4)
    a = ens.sample_map(spec, 42)
    b = ens.sample_map(spec, 42)
    assert a == b
    assert a != ens.sample_map(spec, 43) or True  # different seeds may collide, no assertion


def test_sparse_sample_structure():
    spec = ens.sparse_ensemble(F2, 2, 4, 2)
    for seed in range(10):
        a = ens.sample_map(spec, seed).as_array()
        assert np.array_equal(a[:, :2], np.eye(2))
        assert (np.count_nonzero(a[:, 2:], axis=1) <= 2).all()


def test_sparse_samples_follow_the_enumerated_law():
    # sample_map and enumerate_ensemble build [I | block] by one rule: every
    # draw is a member, and 3,000 draws land within 0.05 total variation of
    # the enumerated law (9 distinct GF(3) matrices, from 16 pick sequences)
    spec = ens.sparse_ensemble(F3, 1, 3, 2)
    law = Counter()
    for arr, p in ens.members(spec):
        law[arr.entries] += p
    draws = Counter(ens.sample_map(spec, seed).entries for seed in range(3000))
    assert set(draws) <= set(law)
    assert sum(abs(draws[a] / 3000 - law[a]) for a in law) / 2 < 0.05


def test_expurgated_sample_kernel_weight():
    spec = ens.expurgate(ens.uniform_ensemble(F2, 1, 3), 0.5)
    for seed in range(10):
        a = ens.sample_map(spec, seed)
        kernel = brute_kernel(a.entries, 2, 3)
        weights = [sum(1 for e in x if e) for x in kernel if any(x)]
        assert all(w >= 2 for w in weights)  # weight > 0.5 * 3


def test_expurgation_infeasible_raises(monkeypatch):
    # kernel min weight > 2 is unreachable for a 1x3 binary map
    spec = ens.expurgate(ens.uniform_ensemble(F2, 1, 3), 2 / 3)
    monkeypatch.setattr(ens, "_MAX_REJECTIONS", 200)
    with pytest.raises(ExpurgationError, match="in 200 attempts"):
        ens.sample_map(spec, 0)


def test_enumeration_caps_raise_before_building(monkeypatch):
    # every cap is read from the spec's sizes: nothing is enumerated before a refusal
    def refuse(*args):
        raise AssertionError("a table was built before its cap was checked")

    for name in ("word_table", "image_codes", "_systematic"):
        monkeypatch.setattr(ens, name, refuse)
    # 2^21 uniform members are above the 2^20 member cap
    with pytest.raises(CapExceededError, match="uniform ensemble has 2097152 members"):
        ens.enumerate_ensemble(ens.uniform_ensemble(F2, 3, 7))
    with pytest.raises(CapExceededError, match=r"uniform ensemble has 2\^300 members"):
        ens.certified_collision_params(ens.uniform_ensemble(F2, 1, 300))
    # 21 sparse members fit, but 21 x 2^22 image codes are above the 2^24 table cap
    with pytest.raises(CapExceededError, match=r"image-code table of 21 members x 2\^22 codes"):
        ens.certified_collision_params(ens.sparse_ensemble(F2, 1, 22, 1))
    # 2^20 uniform members fit, but not with 2^10 codes each
    with pytest.raises(CapExceededError, match=r"of 1048576 members x 2\^10 codes"):
        ens.certified_collision_params(ens.uniform_ensemble(F2, 2, 10))
    # expurgation sizes its inner members' codes before it enumerates them
    with pytest.raises(CapExceededError, match=r"of 1048576 members x 2\^10 codes"):
        ens.enumerate_ensemble(ens.expurgate(ens.uniform_ensemble(F2, 2, 10), 0.25))
    # 299^2 and 999^2 sparse members fit, but not with 2^300 or 2^1000 codes each
    with pytest.raises(CapExceededError, match=r"of 89401 members x 2\^300 codes"):
        ens.certified_collision_params(ens.sparse_ensemble(F2, 1, 300, 2))
    with pytest.raises(CapExceededError, match=r"of 998001 members x 2\^1000 codes"):
        ens.compute_hash_params(ens.sparse_ensemble(F2, 1, 1000, 2), gamma=0.0)
    # the uniform closed form builds only the word table, which counts its own entries
    with pytest.raises(CapExceededError, match=r"word table of 2\^20 words x 20 entries"):
        ens.compute_hash_params(ens.uniform_ensemble(F2, 1, 20), gamma=0.0)
    with pytest.raises(CapExceededError, match=r"word table of 2\^25 words x 25 entries"):
        ens.type_spectrum(ens.uniform_ensemble(F2, 1, 25))
    # 2^20 uniform and 999^2 sparse members fit the member cap, but their
    # members x l x n arrays do not fit the 2^24 entry cap
    with pytest.raises(CapExceededError, match="member array of 1048576 members x 1 x 20 entries"):
        ens.enumerate_ensemble(ens.uniform_ensemble(F2, 1, 20))
    with pytest.raises(CapExceededError, match="member array of 998001 members x 1 x 1000 entries"):
        ens.enumerate_ensemble(ens.sparse_ensemble(F2, 1, 1000, 2))


def test_type_vector_basics():
    assert word_type((1, 0, 1, 1), 2) == (1, 3) and class_size((1, 3)) == 4
    # the spectrum has one count-tuple key per type, and the uniform closed form
    # puts |T| q^-l on each non-zero type
    for q, n, count in ((2, 4, 5), (3, 3, 10), (3, 4, 15)):
        spectrum = ens.type_spectrum(ens.uniform_ensemble(FieldSpec(q), 2, n))
        assert list(spectrum) == all_types(q, n) and len(spectrum) == count
        for t, s in spectrum.items():
            assert s == (1.0 if t[0] == n else class_size(t) * float(q) ** -2)


def test_uniform_spectrum_against_brute_enumeration():
    # oracle: enumerate every 1x2 binary matrix and count kernel words by type
    counts = {}
    for rows in itertools.product(range(2), repeat=2):
        for x in brute_kernel((rows,), 2, 2):
            t = word_type(x, 2)
            counts[t] = counts.get(t, 0) + 0.25
    spec = ens.type_spectrum(ens.uniform_ensemble(F2, 1, 2))
    for t, v in counts.items():
        assert spec[t] == pytest.approx(v, abs=1e-12)
    assert spec[(1, 1)] == pytest.approx(1.0, abs=1e-12)


def test_uniform_spectrum_weight_three():
    spec = ens.type_spectrum(ens.uniform_ensemble(F2, 2, 3))
    assert spec[(0, 3)] == pytest.approx(0.25, abs=1e-12)
    # oracle: all 64 matrices
    total = 0.0
    for flat in itertools.product(range(2), repeat=6):
        arr = (flat[:3], flat[3:])
        total += sum(1 for x in brute_kernel(arr, 2, 3) if sum(x) == 3) / 64.0
    assert total == pytest.approx(0.25, abs=1e-12)


def test_negative_gamma_is_rejected():
    # a negative threshold would count the zero word as a heavy type (alpha = q^l)
    with pytest.raises(ValueError, match="gamma"):
        ens.compute_hash_params(ens.uniform_ensemble(F2, 2, 4), gamma=-0.5)


def test_uniform_params_are_one_zero():
    hp = ens.compute_hash_params(ens.uniform_ensemble(F2, 2, 4), gamma=0.0)
    assert hp.alpha == pytest.approx(1.0) and hp.beta == 0.0


def test_uniform_beta_at_weight_threshold():
    hp = ens.compute_hash_params(ens.uniform_ensemble(F2, 1, 3), gamma=1 / 3)
    assert hp.alpha == pytest.approx(1.0)
    assert hp.beta == pytest.approx(1.5)  # three weight-1 words at probability 1/2


def test_expurgated_exact_params():
    spec = ens.expurgate(ens.uniform_ensemble(F2, 2, 4), 0.25)
    # oracle: brute-force the survivor set and its spectrum
    survivors = []
    for flat in itertools.product(range(2), repeat=8):
        arr = (flat[:4], flat[4:])
        kernel = brute_kernel(arr, 2, 4)
        if all(sum(x) > 1 for x in kernel if any(x)):
            survivors.append(arr)
    assert len(survivors) == 81
    s_w2 = sum(sum(1 for x in brute_kernel(a, 2, 4) if sum(x) == 2)
               for a in survivors) / len(survivors)
    ref_w2 = 6 / 4  # |C_t| q^-l
    hp = ens.compute_hash_params(spec)
    assert hp.beta == 0.0
    assert hp.alpha == pytest.approx(s_w2 / ref_w2, abs=1e-9)
    assert hp.alpha == pytest.approx(4 / 3, abs=1e-9)


def test_expurgated_bound_requires_beta_below_one():
    with pytest.raises(ExpurgationError):
        ens.expurgated_params_bound(ens.uniform_ensemble(F2, 2, 4), 0.25)


def test_expurgated_bound_dominates_exact_value():
    inner = ens.uniform_ensemble(F2, 3, 4)
    bound = ens.expurgated_params_bound(inner, 0.25)
    assert bound.alpha == pytest.approx(2.0)  # alpha=1, beta=0.5
    exact = ens.compute_hash_params(ens.expurgate(inner, 0.25))
    assert exact.alpha <= bound.alpha + 1e-12


def test_expurgated_ensemble_empty_raises():
    with pytest.raises(ExpurgationError):
        ens.enumerate_ensemble(ens.expurgate(ens.uniform_ensemble(F2, 1, 3), 2 / 3))


def test_image_size_is_full_range():
    # the certifier takes |Im| = q^l: the members' images of all words cover GF(q)^l
    for spec in (ens.uniform_ensemble(F2, 2, 4),
                 ens.expurgate(ens.uniform_ensemble(F2, 2, 4), 0.25),
                 ens.sparse_ensemble(F3, 2, 3, 1)):
        q = spec.field.q
        images = {tuple(int(v) % q for v in a.as_array() @ np.array(x))
                  for a, _ in ens.members(spec)
                  for x in itertools.product(range(q), repeat=spec.cols)}
        assert images == set(itertools.product(range(q), repeat=spec.rows))


def test_certify_uniform_tiny():
    spec = ens.uniform_ensemble(F2, 1, 2)
    hp = ens.compute_hash_params(spec, gamma=0.0)
    report = ens.certify_hash_property(spec, hp)
    # colliding pairs sit exactly at probability 1/2, never above it
    assert report.passed and report.collision_checked == 4


def test_partition_bound_frozen_value():
    # uniform 2x4, Q uniform on everything: the expected partition defect is
    # (210 * 0 + 45 * 1 + 1 * 1.5) / 256 over the rank strata of B
    spec = ens.uniform_ensemble(F2, 2, 4)
    hp = ens.compute_hash_params(spec, gamma=0.0)
    q_fn = np.full(16, 1 / 16)
    t_mask = np.ones(16, dtype=bool)
    report = ens.certify_hash_property(spec, hp, partition_pairs=[(q_fn, t_mask)])
    check = report.partition_checks[0]
    assert check.lhs == pytest.approx(46.5 / 256, abs=1e-12)
    assert check.rhs == pytest.approx(0.5, abs=1e-12)
    assert check.ok


def test_collision_set_bound_singleton():
    spec = ens.uniform_ensemble(F2, 1, 3)
    hp = ens.compute_hash_params(spec, gamma=0.0)
    g = np.zeros(8, dtype=bool)
    g[3] = True
    report = ens.certify_hash_property(spec, hp, collision_pairs=[(g, 3)])
    assert report.collision_set_checks[0].lhs == 0.0
    assert report.collision_set_checks[0].ok


def test_certify_random_pairs_small_grid():
    for l, n in ((1, 2), (1, 3), (2, 3), (2, 4)):
        spec = ens.uniform_ensemble(F2, l, n)
        hp = ens.compute_hash_params(spec, gamma=0.0)
        report = ens.certify_hash_property(
            spec, hp,
            partition_pairs=ens.random_partition_pairs(F2, n, 20, seed=l * 100 + n),
            collision_pairs=ens.random_collision_pairs(F2, n, 20, seed=l * 200 + n))
        assert report.passed, (l, n, report.collision_violations)


def test_expurgated_certification():
    spec = ens.expurgate(ens.uniform_ensemble(F2, 2, 4), 0.25)
    hp = ens.compute_hash_params(spec)
    report = ens.certify_hash_property(
        spec, hp,
        partition_pairs=ens.random_partition_pairs(F2, 4, 10, seed=1),
        collision_pairs=ens.random_collision_pairs(F2, 4, 10, seed=2))
    assert report.passed


# uniform GF(2) 2x4 with G = {3, 15}; a valid pair comes first, so the message
# must name the second one
_WORDS16 = np.arange(16)
_G = np.isin(_WORDS16, [3, 15])
_Q, _T = np.full(16, 1 / 16), np.ones(16, dtype=bool)
_BAD_PAIRS = {
    "q-short": ((_Q[:15], _T), None, "partition-1: Q"),
    "q-negative": ((np.where(_WORDS16 == 0, -0.1, _Q), _T), None, "partition-1: Q"),
    "q-nan": ((np.where(_WORDS16 == 0, np.nan, _Q), _T), None, "partition-1: Q"),
    "q-no-mass-on-t": ((np.where(_G, 0.0, _Q), _G), None, "partition-1: Q must put positive"),
    "t-not-boolean": ((_Q, _T.astype(np.int64)), None, "partition-1: T"),
    "t-short": ((_Q, _T[:15]), None, "partition-1: T"),
    "g-short": (None, (_G[:5], 3), "collision-set-1: G"),
    "g-not-boolean": (None, (_G.astype(np.int64), 3), "collision-set-1: G"),
    "u-negative": (None, (_G, -1), "collision-set-1: u"),
    "u-past-the-words": (None, (_G, 16), "collision-set-1: u"),
    "u-not-integer": (None, (_G, 3.0), "collision-set-1: u"),
}


@pytest.mark.parametrize("name", list(_BAD_PAIRS))
def test_certifier_refuses_a_bad_pair_by_name(name):
    # unchecked, each is read as another pair (u = -1 indexes word 15 while
    # excluding nothing from G, a false violation) or fails inside numpy
    partition, collision, message = _BAD_PAIRS[name]
    spec = ens.uniform_ensemble(F2, 2, 4)
    hp = ens.certified_collision_params(spec)
    partition_pairs = [(_Q, _T)] + ([partition] if partition else [])
    collision_pairs = [(_G, 3)] + ([collision] if collision else [])
    with pytest.raises(ValueError, match=message):
        ens.certify_hash_property(spec, hp, partition_pairs, collision_pairs)


def test_collision_set_lhs_at_the_last_word():
    # P(A 3 = A 15) = P(A 12 = 0) = 1/4, for a plain and a numpy index
    spec = ens.uniform_ensemble(F2, 2, 4)
    hp = ens.certified_collision_params(spec)
    report = ens.certify_hash_property(spec, hp, collision_pairs=[(_G, 15), (_G, np.int64(15))])
    assert [c.lhs for c in report.collision_set_checks] == [0.25, 0.25]


def test_sparse_needs_direct_certified_pair():
    spec = ens.sparse_ensemble(F2, 2, 4, 2)
    spectrum_pair = ens.compute_hash_params(spec, gamma=0.0)
    direct = ens.certified_collision_params(spec)
    # the identity block breaks type symmetry: the spectrum pair fails, the
    # direct pair certifies by construction
    assert not ens.certify_hash_property(spec, spectrum_pair).passed
    report = ens.certify_hash_property(
        spec, direct,
        partition_pairs=ens.random_partition_pairs(F2, 4, 10, seed=3),
        collision_pairs=ens.random_collision_pairs(F2, 4, 10, seed=4))
    assert report.passed


def test_direct_pair_matches_spectrum_pair_when_type_invariant():
    u = ens.uniform_ensemble(F2, 2, 4)
    assert ens.certified_collision_params(u).alpha == pytest.approx(
        ens.compute_hash_params(u, gamma=0.0).alpha, abs=1e-9)
    e = ens.expurgate(u, 0.25)
    assert ens.certified_collision_params(e).alpha == pytest.approx(
        ens.compute_hash_params(e).alpha, abs=1e-9)


def test_uniform_pairwise_collision_probability_closed_form():
    # collision probability of distinct words under uniform maps is exactly q^-l
    spec = ens.uniform_ensemble(F2, 2, 3)
    enumerated = ens.enumerate_ensemble(spec)
    x = (1, 0, 1)
    xp = (0, 1, 1)
    hits = sum(p for m, p in zip(enumerated.arrays, enumerated.probs)
               if tuple((m @ np.array(x)) % 2) == tuple((m @ np.array(xp)) % 2))
    assert hits == pytest.approx(0.25, abs=1e-12)


def test_member_probabilities_sum_to_one():
    specs = [ens.uniform_ensemble(F2, 2, 3),
             ens.sparse_ensemble(F2, 2, 4, 2),
             ens.expurgate(ens.uniform_ensemble(F2, 2, 4), 0.25)]
    for spec in specs:
        total = sum(p for _, p in ens.members(spec))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_spectrum_total_mass_identities():
    # summing S(p, t) over all types gives the expected kernel size
    u = ens.uniform_ensemble(F2, 2, 3)
    total = sum(ens.type_spectrum(u).values())
    assert total == pytest.approx(1 + (2 ** 3 - 1) * 2.0 ** -2, abs=1e-12)
    # systematic matrices always have full row rank l, so kernels have q^(n-l) words
    sp = ens.sparse_ensemble(F2, 2, 4, 2)
    assert sum(ens.type_spectrum(sp).values()) == pytest.approx(2 ** (4 - 2), abs=1e-12)


def test_expurgated_bound_dominates_on_grid():
    cases = [(2, 3, 0.3), (3, 4, 0.25), (2, 4, 0.2), (3, 5, 0.15)]
    for l, n, gamma in cases:
        inner = ens.uniform_ensemble(F2, l, n)
        try:
            bound = ens.expurgated_params_bound(inner, gamma)
        except ens.ExpurgationError:
            continue  # parent beta >= 1: no closed-form bound at this gamma
        exact = ens.compute_hash_params(ens.expurgate(inner, gamma))
        assert exact.alpha <= bound.alpha + 1e-9, (l, n, gamma)
        assert exact.beta == 0.0


def test_csv_row_shape():
    spec = ens.uniform_ensemble(F2, 1, 3)
    hp = ens.compute_hash_params(spec, gamma=0.0)
    row = ens.certify_hash_property(spec, hp, gamma=0.0).csv_row()
    assert list(row.keys()) == ["kind", "q", "l", "n", "gamma", "alpha", "beta",
                                "violations", "checked"]
    assert row["violations"] == 0 and row["gamma"] == 0.0


# ---------------------------------------------------------------------------
# loop references for the image-code table: one LinearMap and one kernel
# enumeration per member, one pass over the ensemble per word
# ---------------------------------------------------------------------------

EQUIVALENCE_SPECS = {
    "uniform-2x4": ens.uniform_ensemble(F2, 2, 4),
    "gf3-uniform-1x3": ens.uniform_ensemble(F3, 1, 3),
    "sparse-2x5-w1": ens.sparse_ensemble(F2, 2, 5, 1),
    "expurgated-2x4": ens.expurgate(ens.uniform_ensemble(F2, 2, 4), 0.25),
}


def ref_words(q, n):
    """Every word, in the library's order (position 0 is the least significant digit)."""
    return [tuple(reversed(w)) for w in itertools.product(range(q), repeat=n)]


def ref_images(spec):
    """(probabilities, images[b][i]) with the image of word i under member b as a tuple."""
    q = spec.field.q
    words = ref_words(q, spec.cols)
    probs, images = [], []
    for a, p in ens.members(spec):
        arr = a.as_array()
        probs.append(p)
        images.append([tuple(int(v) for v in (arr @ np.array(w)) % q) for w in words])
    return probs, images


def ref_spectrum(spec):
    q = spec.field.q
    out = {t: 0.0 for t in all_types(q, spec.cols)}
    for a, p in ens.members(spec):
        for x in brute_kernel(a.entries, q, spec.cols):
            out[word_type(x, q)] += p
    return out


def ref_spectrum_params(spec, gamma):
    q, l, n = spec.field.q, spec.rows, spec.cols
    spectrum = ref_spectrum(spec)
    heavy = [t for t in spectrum if n - t[0] > gamma * n]
    light = [t for t in spectrum if 0 < n - t[0] <= gamma * n]
    alpha = max(spectrum[t] / (class_size(t) * float(q) ** -l) for t in heavy)
    return ens.HashParams(alpha=alpha, beta=sum(spectrum[t] for t in light))


def ref_collision_params(spec):
    probs, images = ref_images(spec)
    size = len(images[0])
    worst = max(sum(p for p, img in zip(probs, images) if img[i] == img[j])
                for i in range(size) for j in range(size) if i != j)
    return ens.HashParams(alpha=spec.field.q ** spec.rows * worst, beta=0.0)


def ref_certify(spec, params, partition_pairs, collision_pairs):
    """(violations, checked, partition lhs, collision-set lhs) by the per-word loops."""
    slack = ens._REL_SLACK
    probs, images = ref_images(spec)
    size = len(images[0])
    im_size = spec.field.q ** spec.rows
    threshold = params.alpha / im_size
    image_set = {m for img in images for m in img}
    violations = 0
    for i in range(size):
        pc = [sum(p for p, img in zip(probs, images) if img[j] == img[i]) if j != i else 0.0
              for j in range(size)]
        mass = sum(v for v in pc if v > threshold * (1 + slack))
        violations += mass > params.beta * (1 + slack) + slack
    partition = []
    for q_fn, t_mask in partition_pairs:
        qt = np.asarray(q_fn) * t_mask
        q_total = qt.sum()
        lhs = 0.0
        for p, img in zip(probs, images):
            lhs += p * sum(abs(sum(qt[i] for i in range(size) if img[i] == m) / q_total
                               - 1 / im_size) for m in image_set)
        arg = params.alpha - 1 + (params.beta + 1) * im_size * qt[t_mask].max() / q_total
        partition.append(lhs)
        violations += not lhs <= max(arg, 0.0) ** 0.5 * (1 + slack) + slack
    collision = []
    for g_mask, u in collision_pairs:
        g = [i for i in range(size) if g_mask[i] and i != u]
        lhs = sum(p for p, img in zip(probs, images) if any(img[i] == img[u] for i in g))
        collision.append(lhs)
        rhs = int(np.sum(g_mask)) * params.alpha / im_size + params.beta
        violations += not lhs <= rhs * (1 + slack) + slack
    return violations, size + len(partition) + len(collision), partition, collision


@pytest.mark.parametrize("name", ["uniform-2x4", "gf3-uniform-1x3", "sparse-2x5-w1"])
def test_expurgation_keeps_the_kernel_weight_filter(name):
    inner = EQUIVALENCE_SPECS[name]
    spec = ens.expurgate(inner, 0.25)
    members = ens.enumerate_ensemble(inner)
    keep = [ens.kernel_min_weight(LinearMap.from_array(inner.field, arr)) > 0.25 * inner.cols
            for arr in members.arrays]
    expected = members.arrays[np.array(keep)]
    if len(expected) == 0:  # sparse rows of weight 1 always leave a weight-1 kernel word
        with pytest.raises(ExpurgationError):
            ens.enumerate_ensemble(spec)
    else:
        assert np.array_equal(ens.enumerate_ensemble(spec).arrays, expected)


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_SPECS))
def test_spectrum_and_collision_pair_match_loops(name):
    spec = EQUIVALENCE_SPECS[name]
    got, ref = ens.type_spectrum(spec), ref_spectrum(spec)
    assert got.keys() == ref.keys()
    for t in ref:
        assert got[t] == pytest.approx(ref[t], rel=1e-12, abs=1e-15)
    assert ens.certified_collision_params(spec).alpha == pytest.approx(
        ref_collision_params(spec).alpha, rel=1e-12)


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_SPECS))
def test_certification_matches_loops(name):
    spec = EQUIVALENCE_SPECS[name]
    n, seed = spec.cols, len(name)
    pp = ens.random_partition_pairs(spec.field, n, 8, seed=seed)
    cp = ens.random_collision_pairs(spec.field, n, 8, seed=seed + 1)
    gamma = spec.gamma if spec.kind == ens.EXPURGATED else 0.25
    spectrum_pair = (ens.compute_hash_params(spec) if spec.kind == ens.EXPURGATED
                     else ens.compute_hash_params(spec, gamma=gamma))
    for got_params, ref_params in ((spectrum_pair, ref_spectrum_params(spec, gamma)),
                                   (ens.certified_collision_params(spec),
                                    ref_collision_params(spec))):
        assert got_params.alpha == pytest.approx(ref_params.alpha, rel=1e-12)
        assert got_params.beta == pytest.approx(ref_params.beta, rel=1e-12, abs=1e-15)
        row = ens.certify_hash_property(spec, got_params, pp, cp, gamma=gamma)
        violations, checked, partition, collision = ref_certify(spec, ref_params, pp, cp)
        assert (row.csv_row()["violations"], row.csv_row()["checked"]) == (violations, checked)
        assert [c.lhs for c in row.partition_checks] == pytest.approx(partition, rel=1e-12)
        assert [c.lhs for c in row.collision_set_checks] == pytest.approx(collision, rel=1e-12)


@pytest.mark.parametrize("cfg", [
    {"ensemble": "systematic-sparse", "q": "2", "l": "2", "n": "5", "row_weight": "1",
     "params": "certified", "pairs": "3"},
    {"ensemble": "expurgated-uniform", "q": "2", "l": "2", "n": "4", "gamma": "0.25",
     "params": "certified", "pairs": "3"},
    {"ensemble": "expurgated-uniform", "q": "2", "l": "2", "n": "4", "gamma": "0.25",
     "pairs": "3"},
], ids=["sparse-certified", "expurgated-certified", "expurgated-spectrum"])
def test_hash_verify_builds_one_table_and_holds_none(tmp_path, monkeypatch, cfg):
    tables = _watch_tables(monkeypatch)
    cli.run("hash-verify", cfg, seed=3, out=str(tmp_path / "hv.csv"))
    assert len(tables) == 1
    gc.collect()
    assert tables[0]() is None


def _watch_tables(monkeypatch):
    """Weak references to the class codes that every exact table built holds."""
    tables = []
    kernel_classes = ens._kernel_classes

    def watching(codes):
        class_codes, sizes = kernel_classes(codes)
        tables.append(weakref.ref(class_codes))
        return class_codes, sizes

    monkeypatch.setattr(ens, "_kernel_classes", watching)
    return tables


def test_a_spec_builds_one_table_and_frees_it_with_itself(monkeypatch):
    tables = _watch_tables(monkeypatch)
    gc.disable()  # no cycle collector: only reference counts can free the table
    try:
        spec = ens.expurgate(ens.uniform_ensemble(F2, 2, 4), 0.25)
        params = ens.compute_hash_params(spec)
        ens.type_spectrum(spec)
        ens.certified_collision_params(spec)
        ens.certify_hash_property(spec, params, ens.random_partition_pairs(F2, 4, 2, 0),
                                  ens.random_collision_pairs(F2, 4, 2, 1))
        assert len(tables) == 1 and tables[0]() is not None
        assert not any(t.flags.writeable for t in spec._table[1:])
        # an equal spec is another object, with its own table
        ens.certified_collision_params(ens.expurgate(ens.uniform_ensemble(F2, 2, 4), 0.25))
        assert len(tables) == 2 and tables[1]() is None
        del spec
        assert tables[0]() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("pairs", [2, 3], ids=["buckets", "products"])
def test_partition_defects_match_a_per_member_loop(monkeypatch, pairs):
    rng = np.random.default_rng(5)
    members, n_words, im_size = 7, 8, 4
    # no member reaches image 2 of the four, member 0 reaches only image 1,
    # and two members fill a block
    codes = rng.choice(np.array([0, 1, 3], dtype=np.uint8), size=(members, n_words))
    codes[0] = 1
    monkeypatch.setattr(gf_linalg, "CHUNK_ENTRIES", 2 * pairs * n_words)
    assert len(list(gf_linalg.chunks(members, pairs * n_words))) == 4
    qt = rng.random((pairs, n_words)) * (rng.random((pairs, n_words)) < 0.6)
    qt[:, 0] += 0.1
    q_total = qt.sum(axis=1)
    # the members are equiprobable: the reference is the plain mean over them,
    # of a sum over every image, a missed one adding 1/|Im|
    ref = [sum(sum(abs(qt[k, row == m].sum() / q_total[k] - 1 / im_size) for m in range(im_size))
               for row in codes) / members
           for k in range(pairs)]
    # one member per row: each row is its own kernel class of multiplicity 1
    got = ens._partition_defects(codes, np.ones(members, dtype=np.int64), qt, q_total, im_size)
    assert got.tolist() == pytest.approx(ref, rel=1e-12)


# the three hash-verify ensembles of the exact-eval benchmark and their kernel classes
CLASS_SPECS = {
    "expurgated-3x4": (ens.expurgate(ens.uniform_ensemble(F2, 3, 4), 0.25), 2401, 25),
    "gf3-uniform-2x4": (ens.uniform_ensemble(F3, 2, 4), 6561, 171),
    "sparse-3x7-w2": (ens.sparse_ensemble(F2, 3, 7, 2), 4096, 343),
}


@pytest.mark.parametrize("name", list(CLASS_SPECS))
def test_kernel_classes_group_the_members_by_kernel(name):
    spec, members, classes = CLASS_SPECS[name]
    total, words, codes, sizes, kernel = spec._table
    assert (total, len(codes), int(sizes.sum())) == (members, classes, members)
    # reference: members keyed by their kernel indicator in a dict, in member order
    full = gf_linalg.image_codes(ens.enumerate_ensemble(spec).arrays, spec.field.q, words)
    ref = Counter((row == 0).tobytes() for row in full)
    assert sorted(ref.values()) == sorted(sizes.tolist())
    assert {(row == 0).tobytes(): int(n) for row, n in zip(codes, sizes)} == dict(ref)
    # each class row is the codes of the class's first member
    first = {}
    for b, row in enumerate(full):
        first.setdefault((row == 0).tobytes(), b)
    assert all(np.array_equal(row, full[first[(row == 0).tobytes()]]) for row in codes)
    assert np.array_equal(kernel, (full == 0).sum(axis=0))


def _product_codes(arrays, q, words):
    """Image codes by a plain int64 product per member: row r of A_b x weighs q^r."""
    digits = (arrays @ words.T) % q  # (members, l, words)
    return (digits * q ** np.arange(arrays.shape[1])[:, None]).sum(axis=1)


@pytest.mark.parametrize("name", list(CLASS_SPECS))
def test_bench_tables_equal_a_per_member_product(name):
    # the table and the expurgation's keep-mask, built by gathering each
    # distinct row's digits, are those of a plain product over every member
    spec = CLASS_SPECS[name][0]
    q, n = spec.field.q, spec.cols
    total, words, codes, sizes, kernel = spec._table
    arrays = ens.enumerate_ensemble(spec).arrays
    if spec.kind == ens.EXPURGATED:
        inner = ens.enumerate_ensemble(spec.inner).arrays
        weights = np.count_nonzero(words, axis=1)
        light = words[(weights > 0) & (weights <= spec.gamma * n)]
        keep = (_product_codes(inner, q, light) != 0).all(axis=1)
        assert np.array_equal(arrays, inner[keep])
    full = _product_codes(arrays, q, words)
    ref_codes, ref_sizes = ens._kernel_classes(full.astype(codes.dtype))
    assert total == len(full)
    assert codes.dtype == np.min_scalar_type(q ** spec.rows - 1)
    assert np.array_equal(codes, ref_codes) and np.array_equal(sizes, ref_sizes)
    assert np.array_equal(kernel, (full == 0).sum(axis=0))


@pytest.mark.parametrize("spec, pairs, products", [
    (ens.expurgate(ens.uniform_ensemble(F2, 3, 5), 0.2), 9, True),
    (ens.uniform_ensemble(F3, 2, 3), 9, True),
    (ens.sparse_ensemble(F2, 3, 6, 2), 5, False),
], ids=["products-expurgated", "products-gf3", "buckets-sparse"])
def test_grouped_defects_and_hits_equal_the_per_member_ones(monkeypatch, spec, pairs, products):
    q = spec.field.q
    total, words, codes, sizes, _ = spec._table
    full = gf_linalg.image_codes(ens.enumerate_ensemble(spec).arrays, q, words)
    assert len(codes) < len(full) == total
    im_size = q ** spec.rows
    # the product path runs with no more images than pairs, else the buckets
    assert (im_size <= pairs) == products
    pp = ens.random_partition_pairs(spec.field, spec.cols, pairs, 7)
    qt = np.array([q_fn * t_mask for q_fn, t_mask in pp])
    q_total = qt.sum(axis=1)
    # small blocks, so both tables run over several
    monkeypatch.setattr(gf_linalg, "CHUNK_ENTRIES", 3 * pairs * len(words))
    grouped = ens._partition_defects(codes, sizes, qt, q_total, im_size)
    per_member = ens._partition_defects(full, np.ones(total, dtype=np.int64), qt, q_total,
                                        im_size)
    assert grouped.tolist() == pytest.approx(per_member.tolist(), rel=1e-12)
    cp = ens.random_collision_pairs(spec.field, spec.cols, pairs, 8)
    hits = ens._collision_hits(codes, words, q, cp)
    assert np.array_equal(sizes @ hits, ens._collision_hits(full, words, q, cp).sum(axis=0))


def test_a_class_row_keeps_the_images_of_every_member():
    # [[1, 0], [0, 0]] and [[0, 0], [1, 0]] share the kernel {x : x_0 = 0} but
    # reach the images {0, 1} and {0, 2}: the defect, a sum over all of Im,
    # depends on a member only through its partition of the words
    words = gf_linalg.word_table(2, 2)
    full = gf_linalg.image_codes(np.array([[[1, 0], [0, 0]], [[0, 0], [1, 0]]]), 2, words)
    assert [sorted(set(row.tolist())) for row in full] == [[0, 1], [0, 2]]
    codes, sizes = ens._kernel_classes(full)
    assert codes.tolist() == [full[0].tolist()] and sizes.tolist() == [2]
    qt = np.array([[0.1, 0.2, 0.3, 0.4], [1.0, 0.0, 0.0, 0.5]])
    q_total = qt.sum(axis=1)
    grouped = ens._partition_defects(codes, sizes, qt, q_total, 4)
    per_member = ens._partition_defects(full, np.ones(2, dtype=np.int64), qt, q_total, 4)
    assert grouped.tolist() == pytest.approx(per_member.tolist(), rel=1e-12)


# every kind over GF(2), GF(3) and GF(5), and expurgations of a sparse and of an
# expurgated spec
IMAGE_SPECS = {
    **{name: spec for name, (spec, _, _) in CLASS_SPECS.items()},
    "gf3-uniform-2x3": ens.uniform_ensemble(F3, 2, 3),
    "gf5-uniform-1x3": ens.uniform_ensemble(F5, 1, 3),
    "gf3-expurgated-2x4": ens.expurgate(ens.uniform_ensemble(F3, 2, 4), 0.25),
    "gf5-expurgated-2x3": ens.expurgate(ens.uniform_ensemble(F5, 2, 3), 0.3),
    "expurgated-sparse-3x7": ens.expurgate(ens.sparse_ensemble(F2, 3, 7, 2), 0.15),
    "expurgated-twice-3x5": ens.expurgate(
        ens.expurgate(ens.uniform_ensemble(F2, 3, 5), 0.2), 0.4),
}


@pytest.mark.parametrize("name", list(IMAGE_SPECS))
def test_every_ensemble_has_a_full_rank_class_and_reaches_every_image(name):
    # the certifier sums each partition defect over all q^l images: a class row
    # with q^(n-l) zero codes has rank l, so its members reach every image
    spec = IMAGE_SPECS[name]
    q, l, n = spec.field.q, spec.rows, spec.cols
    _, words, codes, _, _ = spec._table
    assert (np.count_nonzero(codes == 0, axis=1) == q ** (n - l)).any()
    full = gf_linalg.image_codes(ens.enumerate_ensemble(spec).arrays, q, words)
    assert np.array_equal(np.unique(full), np.arange(q ** l))


@pytest.mark.parametrize("q, n", [(2, 4), (3, 3)])
def test_collision_hits_match_a_per_pair_gather(monkeypatch, q, n):
    rng = np.random.default_rng(q)
    words = gf_linalg.word_table(q, n)
    size = len(words)
    codes = gf_linalg.image_codes(rng.integers(0, q, (9, 2, n)), q, words)
    few = np.isin(np.arange(size), rng.choice(size, 3, replace=False))
    pairs = [(np.zeros(size, dtype=bool), 3),        # empty G
             (np.arange(size) == 5, 5),              # G = {u}
             (few & (np.arange(size) != 1), 1),      # u not in G
             (few, int(np.flatnonzero(few)[0])),     # u in G with two others
             (rng.random(size) < 0.5, 2)]
    monkeypatch.setattr(gf_linalg, "CHUNK_ENTRIES", 2 * size * len(pairs))
    assert len(list(gf_linalg.chunks(len(codes), size * len(pairs)))) == 5
    ref = []
    for g_mask, u in pairs:
        g_idx = np.flatnonzero(g_mask)
        ref.append((codes[:, g_idx[g_idx != u]] == codes[:, [u]]).any(axis=1))
    hits = ens._collision_hits(codes, words, q, pairs)
    assert hits.T.tolist() == np.array(ref).tolist()
    assert hits[:, 2:].any() and not hits[:, 2:].all()


# (spec, gamma) pairs over GF(2) and GF(3); each has light and heavy types
EXACT_SPECS = {
    "gf2-uniform-2x4": (ens.uniform_ensemble(F2, 2, 4), 0.3),
    "gf3-uniform-2x3": (ens.uniform_ensemble(F3, 2, 3), 0.4),
    "gf2-sparse-2x5-w2": (ens.sparse_ensemble(F2, 2, 5, 2), 0.3),
    "gf3-sparse-1x4-w2": (ens.sparse_ensemble(F3, 1, 4, 2), 0.3),
    "gf2-expurgated-2x5": (ens.expurgate(ens.uniform_ensemble(F2, 2, 5), 0.2), 0.2),
    "gf3-expurgated-2x4": (ens.expurgate(ens.uniform_ensemble(F3, 2, 4), 0.25), 0.25),
}


def ref_kernel_counts(spec):
    """(N, K) with K[i] the number of the N members whose kernel holds word i."""
    q = spec.field.q
    words = np.array(ref_words(q, spec.cols)).T
    arrays = ens.enumerate_ensemble(spec).arrays
    counts = [0] * words.shape[1]
    for arr in arrays:
        for i in np.flatnonzero(((arr @ words) % q == 0).all(axis=0)):
            counts[i] += 1
    return len(arrays), counts


@pytest.mark.parametrize("name", sorted(EXACT_SPECS))
def test_hash_parameters_are_the_correctly_rounded_rationals(name):
    spec, gamma = EXACT_SPECS[name]
    q, l, n = spec.field.q, spec.rows, spec.cols
    total, counts = ref_kernel_counts(spec)
    kernel, sizes = Counter(), Counter()
    for w, c in zip(ref_words(q, n), counts):
        kernel[word_type(w, q)] += c
        sizes[word_type(w, q)] += 1
    heavy = [t for t in kernel if n - t[0] > gamma * n]
    light = [t for t in kernel if 0 < n - t[0] <= gamma * n]
    assert heavy and light
    alpha = max(Fraction(kernel[t] * q ** l, sizes[t] * total) for t in heavy)
    beta = Fraction(sum(kernel[t] for t in light), total)
    assert ens.type_spectrum(spec) == {t: float(Fraction(c, total)) for t, c in kernel.items()}
    params = (ens.compute_hash_params(spec) if spec.kind == ens.EXPURGATED
              else ens.compute_hash_params(spec, gamma=gamma))
    assert (params.alpha, params.beta) == (float(alpha), float(beta))
    assert type(params.beta) is float
    assert ens.certified_collision_params(spec).alpha == float(
        Fraction(q ** l * max(counts[1:]), total))


def test_certified_alpha_is_exact_on_the_kernel_dependent_cases():
    # the two ratios whose float-weighted sums moved with the BLAS kernel's summation order
    expurgated = ens.expurgate(ens.uniform_ensemble(F2, 3, 6), 0.2)
    assert ens.certified_collision_params(expurgated).alpha == float(Fraction(8, 7))
    assert ens.compute_hash_params(expurgated).alpha == float(Fraction(8, 7))
    assert ens.certified_collision_params(ens.uniform_ensemble(F3, 2, 4)).alpha == 1.0
