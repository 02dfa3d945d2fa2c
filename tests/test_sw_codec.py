import dataclasses
import itertools
import math

import numpy as np
import pytest

from cosetlab import sources_channels as sc
from cosetlab import sw_codec as sw
from cosetlab.crng_sampler import EXACT, ConstrainedDistribution, ConstraintSet, draw
from cosetlab.errors import CapExceededError, DecodeFailure
from cosetlab.gf_linalg import FieldSpec, GfVector, LinearMap, coset_array, matvec
from cosetlab.rng import make_rng

F2 = FieldSpec(2)
F3 = FieldSpec(3)
A_PARITY = LinearMap(F2, ((1, 1, 0), (0, 1, 1)))


def test_rate_field():
    codec = sw.SwCodec(A_PARITY, sc.make_dsbs(0.1))
    assert codec.rate == pytest.approx(2 / 3, abs=1e-15)
    assert sw.SwCodec(LinearMap(F2, (), cols=4), sc.make_dsbs(0.1)).rate == 0.0


def test_encode_examples():
    codec = sw.SwCodec(A_PARITY, sc.make_dsbs(0.1))
    assert sw.encode(codec, GfVector(F2, (0, 0, 0))).entries == (0, 0)
    assert sw.encode(codec, GfVector(F2, (1, 1, 1))).entries == (0, 0)
    assert sw.encode(codec, GfVector(F2, (1, 0, 0))).entries == (1, 0)


def test_decode_map_dominant_likelihood():
    codec = sw.SwCodec(A_PARITY, sc.make_dsbs(0.1))
    c = GfVector(F2, (0, 0))
    assert sw.decode_map(codec, c, (0, 0, 0)).entries == (0, 0, 0)
    assert sw.decode_map(codec, c, (1, 1, 1)).entries == (1, 1, 1)


def test_decode_map_flat_likelihood_is_lexicographic():
    codec = sw.SwCodec(A_PARITY, sc.make_dsbs(0.5))
    for y in itertools.product(range(2), repeat=3):
        assert sw.decode_map(codec, GfVector(F2, (0, 0)), y).entries == (0, 0, 0)


def test_decode_failure_outside_image():
    a = LinearMap(F2, ((1, 1), (1, 1)))
    codec = sw.SwCodec(a, sc.make_dsbs(0.1))
    with pytest.raises(DecodeFailure):
        sw.decode_map(codec, GfVector(F2, (0, 1)), (0, 0))


def test_decoder_output_reencodes_to_syndrome():
    rng = np.random.default_rng(4)
    a = LinearMap.from_array(F2, rng.integers(0, 2, (2, 5)))
    codec = sw.SwCodec(a, sc.make_dsbs(0.2))
    for seed in range(10):
        r = np.random.default_rng(seed)
        x = GfVector.from_array(F2, r.integers(0, 2, 5))
        y = tuple(int(v) for v in r.integers(0, 2, 5))
        c = sw.encode(codec, x)
        decoded = sw.decode_map(codec, c, y)
        assert matvec(a, decoded) == c


def test_decode_stochastic_singleton_coset():
    codec = sw.SwCodec(LinearMap.identity(F2, 3), sc.make_dsbs(0.1), decoder=sw.STOCHASTIC)
    out = sw.decode_stochastic(codec, GfVector(F2, (1, 0, 1)), (0, 0, 0), seed=0)
    assert out.entries == (1, 0, 1)


def test_decode_stochastic_flat_posterior_is_uniform():
    codec = sw.SwCodec(A_PARITY, sc.make_dsbs(0.5), decoder=sw.STOCHASTIC)
    counts = {(0, 0, 0): 0, (1, 1, 1): 0}
    for seed in range(4000):
        counts[sw.decode_stochastic(codec, GfVector(F2, (0, 0)), (0, 1, 0), seed).entries] += 1
    assert abs(counts[(0, 0, 0)] / 4000 - 0.5) < 0.05


@pytest.mark.parametrize("q", [2, 5])
def test_decode_stochastic_equals_constrained_draw(q):
    # reference: the constrained generator on {x : A x = c} with the
    # per-letter posterior weights mu(. | y_k)
    field = FieldSpec(q)
    channel = sc.Channel(np.full((q, q), 0.2 / q) + 0.8 * np.eye(q))
    source = sc.joint_from_channel(np.full(q, 1.0 / q), channel)
    rng = np.random.default_rng(q)
    a = LinearMap.from_array(field, rng.integers(0, q, (3, 6)))
    codec = sw.SwCodec(a, source, decoder=sw.STOCHASTIC)
    for seed in range(12):
        c = matvec(a, GfVector.from_array(field, rng.integers(0, q, 6)))
        y = rng.integers(0, q, 6)
        dist = ConstrainedDistribution(source.cond_x_given_y[:, y].T,
                                       ConstraintSet(((a, c),)), mode=EXACT)
        assert sw.decode_stochastic(codec, c, y, seed) == draw(dist, seed)


def test_decode_stochastic_failures():
    codec = sw.SwCodec(LinearMap(F2, ((1, 1), (1, 1))), sc.make_dsbs(0.1),
                       decoder=sw.STOCHASTIC)
    with pytest.raises(DecodeFailure):
        sw.decode_stochastic(codec, GfVector(F2, (0, 1)), (0, 0), seed=0)
    # mu(x = 1 | y = 0) = 0, and every member of {x : x0 + x1 = 1} has a 1
    source = sc.JointSource(np.array([[0.5, 0.25], [0.0, 0.25]]))
    codec = sw.SwCodec(LinearMap(F2, ((1, 1),)), source, decoder=sw.STOCHASTIC)
    with pytest.raises(DecodeFailure):
        sw.decode_stochastic(codec, GfVector(F2, (1,)), (0, 0), seed=0)


def test_decode_map_fails_on_zero_posterior_coset():
    # the coset of test_decode_stochastic_failures: every member scores -inf,
    # so the MAP decoder has no member to return either
    source = sc.JointSource(np.array([[0.5, 0.25], [0.0, 0.25]]))
    codec = sw.SwCodec(LinearMap(F2, ((1, 1),)), source)
    with pytest.raises(DecodeFailure):
        sw.decode_map(codec, GfVector(F2, (1,)), (0, 0))


@pytest.mark.parametrize("decoder", [sw.MAP_EXACT, sw.STOCHASTIC])
def test_decide_batch_equals_row_by_row(decoder):
    # mu(x = 1 | y = 0) = 0 and mu(. | y = 1) is flat: every y with y0 = y1 = 0
    # kills the coset {x : x0 + x1 = 1, x2 + x3 = 0}, and y = 1111 ties all four
    cond = sc.JointSource(np.array([[0.5, 0.25], [0.0, 0.25]])).cond_x_given_y
    a = LinearMap(F2, ((1, 1, 0, 0), (0, 0, 1, 1)))
    members = coset_array(a.solver().solve(GfVector(F2, (1, 0))))
    y = np.array(list(itertools.product(range(2), repeat=4)))
    u = np.random.default_rng(5).random(len(y))
    picks, live = sw._decide(decoder, cond, members, y, u)
    assert not live[0] and live[-1] and not live.all()
    for i in range(len(y)):
        row = sw._decide(decoder, cond, members, y[i:i + 1], u[i:i + 1])
        assert (row[0][0], row[1][0]) == (picks[i], live[i])


def test_decode_map_coset_above_the_cap():
    # a 1 x 18 map leaves a 2^17-member coset, above the default cap of 2^16
    codec = sw.SwCodec(LinearMap(F2, ((1,) * 18,)), sc.make_dsbs(0.1))
    with pytest.raises(CapExceededError):
        sw.decode_map(codec, GfVector(F2, (0,)), (0,) * 18)


def test_a_codec_source_cannot_change_after_the_build():
    # a new joint would reach the exact sums, which read the joint, but not the
    # Monte Carlo, which reads the conditional derived from the old one
    source = sc.make_dsbs(0.11)
    a = LinearMap.from_array(F2, np.random.default_rng(3).integers(0, 2, (3, 6)))
    codec = sw.SwCodec(a, source)
    joint, cond = source.joint, source.cond_x_given_y
    with pytest.raises(dataclasses.FrozenInstanceError):
        source.joint = np.array([[0.5, 0.0], [0.3, 0.2]])
    assert codec.source.joint is joint and codec.source.cond_x_given_y is cond


def test_exact_error_cap_is_checked_before_enumeration(monkeypatch):
    # 2^13 source blocks x 2^13 side-information blocks = 2^26 > 2^24
    codec = sw.SwCodec(LinearMap(F2, ((1,) * 13,)), sc.make_dsbs(0.1))

    def enumerate_nothing(*args):
        raise AssertionError("enumerated before the cap check")

    monkeypatch.setattr(sw, "word_table", enumerate_nothing)
    with pytest.raises(CapExceededError):
        sw.error_probability(codec, "exact")


def test_error_zero_for_noiseless_correlation():
    codec = sw.SwCodec(A_PARITY, sc.make_dsbs(0.0))
    assert sw.error_probability(codec, "exact").value == 0.0


def test_error_zero_for_full_rank_map():
    codec = sw.SwCodec(LinearMap.identity(F2, 3), sc.make_dsbs(0.3))
    assert sw.error_probability(codec, "exact").value == 0.0


def test_exact_error_matches_brute_force():
    # oracle: raw sum over all (x, y) pairs with a loop-based MAP decoder
    src = sc.make_dsbs(0.1)
    codec = sw.SwCodec(A_PARITY, src)
    coset_of = {}
    for x in itertools.product(range(2), repeat=3):
        c = tuple(int(v) for v in (A_PARITY.as_array() @ np.array(x)) % 2)
        coset_of.setdefault(c, []).append(x)
    err = 0.0
    for x in itertools.product(range(2), repeat=3):
        c = tuple(int(v) for v in (A_PARITY.as_array() @ np.array(x)) % 2)
        for y in itertools.product(range(2), repeat=3):
            best = max(coset_of[c], key=lambda cand: (
                np.prod([src.cond_x_given_y[cand[i], y[i]] for i in range(3)]),
                tuple(-v for v in cand)))
            if best != x:
                err += np.prod([src.joint[x[i], y[i]] for i in range(3)])
    got = sw.error_probability(codec, "exact").value
    assert got == pytest.approx(err, abs=1e-12)


DECODERS = [sw.MAP_EXACT, sw.STOCHASTIC]


def additive_joint(pz):
    """mu(x, y) = P_Z((y - x) mod q) / q, the same float on every cell of a diagonal."""
    x = np.arange(len(pz))
    return sc.JointSource(np.asarray(pz)[(x[None, :] - x[:, None]) % len(pz)] / len(pz))


def spy(monkeypatch, module, name):
    """Record the arguments of every call of module.name, then run it."""
    calls, real = [], getattr(module, name)

    def watching(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, watching)
    return calls


@pytest.mark.parametrize("decoder", DECODERS)
@pytest.mark.parametrize("field, source, n", [
    (F2, sc.make_dsbs(0.1), 6),
    (F2, sc.make_dsbs(0.35), 5),
    (F3, additive_joint([0.7, 0.2, 0.1]), 4),
    (F3, additive_joint([0.6, 0.0, 0.4]), 4),
], ids=["gf2-p0.1", "gf2-p0.35", "gf3", "gf3-zero-letter"])
def test_noise_path_equals_the_joint_sum(monkeypatch, field, source, n, decoder):
    rng = np.random.default_rng(n)
    joint_calls = spy(monkeypatch, sw, "_joint_error")
    for l in range(n + 1):
        a = (LinearMap.from_array(field, rng.integers(0, field.q, (l, n))) if l
             else LinearMap(field, (), cols=n))
        codec = sw.SwCodec(a, source, decoder=decoder)
        noise = sw._exact_error(codec)
        assert joint_calls == []
        assert noise == pytest.approx(sw._joint_error(codec), abs=1e-15)
        joint_calls.clear()


@pytest.mark.parametrize("decoder", DECODERS)
@pytest.mark.parametrize("a, source", [
    (LinearMap.identity(F2, 2), sc.make_dsbs(0.3)),
    (A_PARITY, sc.make_dsbs(0.0)),
    (LinearMap.identity(F3, 3), additive_joint([0.45, 0.35, 0.2])),
    (LinearMap(F3, ((1, 2, 0),)), additive_joint([1.0, 0.0, 0.0])),
], ids=["gf2-full-rank", "gf2-noiseless", "gf3-full-rank", "gf3-noiseless"])
def test_exact_error_is_exactly_zero_when_nothing_is_lost(a, source, decoder):
    # every coset holds all its mass on one word, so both decoders lose exactly 0;
    # on both full-rank codes a stochastic loss taken as p - p^2 / p would leave
    # a positive rounding residue (about 1e-17)
    assert sw.error_probability(sw.SwCodec(a, source, decoder=decoder), "exact").value == 0.0


def _nudged_dsbs():
    joint = sc.make_dsbs(0.1).joint.copy()
    joint[1, 1] = np.nextafter(joint[1, 1], 1.0)  # one ulp: no longer exactly additive
    return sc.JointSource(joint)


@pytest.mark.parametrize("source, q, n", [
    (sc.joint_from_channel(np.array([0.5, 0.5]), sc.make_zchannel(0.2)), 2, 4),
    (sc.joint_from_channel(np.array([0.3, 0.7]), sc.make_bsc(0.1)), 2, 4),
    (sc.joint_from_channel(np.full(5, 0.2), sc.make_quantized_awgn(8.0, 5)), 5, 3),
    (_nudged_dsbs(), 2, 4),
], ids=["z-channel", "bsc-non-uniform-input", "quantized-awgn-gf5", "dsbs-one-ulp-off"])
def test_a_non_additive_joint_takes_the_joint_sum(monkeypatch, source, q, n):
    assert sw._noise_law(source.joint) is None
    calls = spy(monkeypatch, sw, "_joint_error")
    rng = np.random.default_rng(q)
    a = LinearMap.from_array(FieldSpec(q), rng.integers(0, q, (2, n)))
    for decoder in DECODERS:
        codec = sw.SwCodec(a, source, decoder=decoder)
        value = sw.error_probability(codec, "exact").value
        assert len(calls) == 1 and calls.pop() == (codec,)
        assert value == sw._joint_error(codec)
        calls.clear()


@pytest.mark.parametrize("decoder", DECODERS)
def test_noise_path_enumerates_only_the_noise_words(monkeypatch, decoder):
    # DSBS at n = 12 fills the cap with 2^24 joint outcomes; the noise path
    # builds the 2^12 words once and no side-information block
    calls = spy(monkeypatch, sw, "word_table")
    a = LinearMap.from_array(F2, np.random.default_rng(12).integers(0, 2, (6, 12)))
    sw.error_probability(sw.SwCodec(a, sc.make_dsbs(0.11), decoder=decoder), "exact")
    assert calls == [(2, 12)]


def test_exact_vs_monte_carlo_agreement():
    codec = sw.SwCodec(A_PARITY, sc.make_dsbs(0.1))
    exact = sw.error_probability(codec, "exact")
    mc = sw.error_probability(codec, "mc", trials=10000, seed=5)
    assert abs(exact.value - mc.value) <= 3 * mc.std_err
    assert exact.std_err is None and mc.trials == 10000


def test_stochastic_between_map_and_twice_map():
    rng = np.random.default_rng(6)
    for n, l, p in ((3, 2, 0.1), (4, 2, 0.2), (5, 3, 0.15)):
        a = LinearMap.from_array(F2, rng.integers(0, 2, (l, n)))
        src = sc.make_dsbs(p)
        e_map = sw.error_probability(sw.SwCodec(a, src), "exact").value
        e_st = sw.error_probability(sw.SwCodec(a, src, decoder=sw.STOCHASTIC), "exact").value
        assert e_map <= e_st + 1e-12
        assert e_st <= 2 * e_map + 1e-12


def test_error_invariant_under_row_permutation():
    a1 = LinearMap(F2, ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)))
    a2 = LinearMap(F2, ((0, 0, 1, 1), (1, 1, 0, 0), (0, 1, 1, 0)))
    src = sc.make_dsbs(0.12)
    e1 = sw.error_probability(sw.SwCodec(a1, src), "exact").value
    e2 = sw.error_probability(sw.SwCodec(a2, src), "exact").value
    assert e1 == pytest.approx(e2, abs=1e-15)


def test_stochastic_exact_vs_monte_carlo():
    a = LinearMap(F2, ((1, 0, 1, 1), (0, 1, 1, 0)))
    codec = sw.SwCodec(a, sc.make_dsbs(0.1), decoder=sw.STOCHASTIC)
    exact = sw.error_probability(codec, "exact")
    mc = sw.error_probability(codec, "mc", trials=10000, seed=9)
    assert abs(exact.value - mc.value) <= 3 * mc.std_err


def test_wilson_std_err_positive_at_extremes():
    assert sw.wilson_std_err(0, 1000) > 0.0
    assert sw.wilson_std_err(1000, 1000) > 0.0
    mid = sw.wilson_std_err(500, 1000)
    assert mid == pytest.approx(math.sqrt(0.25 / 1001), rel=1e-3)


def test_rows_for_rate_floor_semantics():
    assert sw.rows_for_rate(16, 0.7, 2) == 11
    assert sw.rows_for_rate(16, 0.25, 2) == 4
    assert sw.rows_for_rate(8, 0.3, 2) == 2
    assert sw.rows_for_rate(8, 1.0, 2) == 8
    assert sw.rows_for_rate(8, 0.0, 2) == 0
    # rates are in bits, so each q=3 row is worth log2(3) of them
    assert sw.rows_for_rate(9, math.log2(3) / 3, 3) == 3


def test_rate_sweep_rows():
    rows = sw.rate_sweep(sc.make_dsbs(0.11), rates=[1.0], ns=[4, 6], trials=200, seed=3)
    assert len(rows) == 2
    for row in rows:
        assert set(row) == {"source", "p", "n", "l", "rate", "decoder", "mode",
                            "error", "std_err", "trials", "seed"}
        assert row["l"] == row["n"]
        # the rate column reports the realized (rank-based) rate; a sampled
        # square matrix decodes exactly whenever it actually has full rank
        if row["rate"] == 1.0:
            assert row["error"] == 0.0


def test_rate_sweep_is_deterministic():
    src = sc.make_dsbs(0.11)
    a = sw.rate_sweep(src, rates=[0.7], ns=[6], trials=300, seed=12)
    b = sw.rate_sweep(src, rates=[0.7], ns=[6], trials=300, seed=12)
    assert a == b


def ternary_source(flip=0.1):
    # X uniform on GF(3), Y = X with probability 1-flip, else one of the others
    joint = np.full((3, 3), flip / 6)
    np.fill_diagonal(joint, (1 - flip) / 3)
    return sc.JointSource(joint, kind="ternary", param=flip)


def test_ternary_codec_end_to_end():
    f3 = FieldSpec(3)
    rng = np.random.default_rng(2)
    a = LinearMap.from_array(f3, rng.integers(0, 3, (2, 4)))
    src = ternary_source()
    codec = sw.SwCodec(a, src)
    assert codec.rate == pytest.approx(a.rank / 4 * math.log2(3))
    exact = sw.error_probability(codec, "exact")
    mc = sw.error_probability(codec, "mc", trials=4000, seed=3)
    assert abs(exact.value - mc.value) <= 3 * mc.std_err
    stoch = sw.error_probability(sw.SwCodec(a, src, decoder=sw.STOCHASTIC), "exact")
    assert exact.value <= stoch.value + 1e-12 <= 2 * exact.value + 2e-12


@pytest.mark.parametrize("n, l", [(12, 6), (16, 8)])
def test_decode_map_returns_smallest_of_tied_maximizers(n, l):
    # DSBS posteriors depend only on the Hamming distance to y, so the exact
    # tie set is the set of coset members nearest to y; rounding in the
    # summed log-scores must not split it
    rng = np.random.default_rng(n)
    a = LinearMap.from_array(F2, rng.integers(0, 2, (l, n)))
    codec = sw.SwCodec(a, sc.make_dsbs(0.11))
    words = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    syndromes = (words @ a.as_array().T) % 2
    for _ in range(150):
        x, y = rng.integers(0, 2, n), rng.integers(0, 2, n)
        c = (a.as_array() @ x) % 2
        coset = words[(syndromes == c).all(axis=1)]
        dist = np.count_nonzero(coset != y, axis=1)
        expected = min(tuple(int(v) for v in row) for row in coset[dist == dist.min()])
        assert sw.decode_map(codec, GfVector.from_array(F2, c), y).entries == expected


@pytest.mark.parametrize("q, l, n", [(2, 4, 8), (3, 2, 5)])
def test_mc_error_draws_the_documented_stream(q, l, n):
    # the documented stream: one generator, one choice over the flattened
    # joint of shape (trials, n), then one uniform per trial (stochastic only)
    a = LinearMap.from_array(FieldSpec(q), np.random.default_rng(q).integers(0, q, (l, n)))
    source = sc.make_dsbs(0.15) if q == 2 else ternary_source(0.2)
    trials, seed = 300, 41
    for decoder in (sw.MAP_EXACT, sw.STOCHASTIC):
        codec = sw.SwCodec(a, source, decoder=decoder)
        rng = make_rng(seed)
        flat = rng.choice(source.joint.size, size=(trials, codec.n), p=source.joint.ravel())
        xs, ys = np.divmod(flat, source.y_size)
        failures = 0
        if decoder == sw.MAP_EXACT:
            for x, y in zip(xs, ys):
                c = sw.encode(codec, GfVector.from_array(codec.field, x))
                failures += sw.decode_map(codec, c, y).entries != tuple(x)
        else:
            u = rng.random(trials)
            for t, (x, y) in enumerate(zip(xs, ys)):
                members = (x + codec.solver.kernel) % q
                (pick,), _ = sw._decide(sw.STOCHASTIC, source.cond_x_given_y, members,
                                        y[None], u[t:t + 1])
                failures += not np.array_equal(members[pick], x)
        est = sw.error_probability(codec, "mc", trials=trials, seed=seed)
        assert 0 < failures < trials
        assert est.value == failures / trials


def test_the_lexicographic_tie_rank_is_one_function():
    # every MAP tie is broken by sw_codec._lex_rank, whether a channel code holds
    # the rank of its fixed coset or _map_pick ranks the tied members of a fresh one
    import ast
    import pathlib
    src = pathlib.Path(sw.__file__).resolve().parent
    assert [(p.name, fn.name) for p in sorted(src.glob("*_codec.py"))
            for fn in ast.walk(ast.parse(p.read_text())) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and node.attr in ("lexsort", "argsort")] == [
        ("sw_codec.py", "_lex_rank")]
    assert sum(p.read_text().count("sort(") for p in src.glob("*_codec.py")) == 1
