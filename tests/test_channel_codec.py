import itertools

import numpy as np
import pytest

from cosetlab import channel_codec as cc
from cosetlab import crng_sampler as crng
from cosetlab import ensembles as ens
from cosetlab import gf_linalg
from cosetlab import sources_channels as sc
from cosetlab import sw_codec as sw
from cosetlab.crng_sampler import EXACT, MCMC, ConstrainedDistribution, ConstraintSet, draw
from cosetlab.errors import CapExceededError, DecodeFailure, EmptyCosetError
from cosetlab.gf_linalg import FieldSpec, GfVector, LinearMap, coset_array, matvec
from cosetlab.rng import derived_seed, inverse_cdf

F2 = FieldSpec(2)
F3 = FieldSpec(3)


def make_setup(seed=17, n=4, l_a=2, l_b=2, p=0.1):
    channel = sc.make_bsc(p)
    source = sc.joint_from_channel(np.full(2, 0.5), channel)
    rng = np.random.default_rng(seed)
    a = LinearMap.from_array(F2, rng.integers(0, 2, (l_a, n)))
    b = LinearMap.from_array(F2, rng.integers(0, 2, (l_b, n)))
    swc = sw.SwCodec(a, source)
    return channel, source, swc, b


def brute_force_error(codec, stochastic=False):
    """Loop-only evaluation of the two-term error expression."""
    q, n = 2, codec.n
    a = codec.sw.matrix.as_array()
    b = codec.b_map.as_array()
    c = tuple(codec.syndrome.entries)
    trans = codec.channel.transition
    px = codec.sw.source.x_marginal
    cond = codec.sw.source.cond_x_given_y
    all_x = list(itertools.product(range(q), repeat=n))
    all_y = list(itertools.product(range(codec.channel.output_size), repeat=n))
    apply_map = lambda mat, x: tuple(int(v) for v in (mat @ np.array(x)) % q)
    msgs = sorted(set(apply_map(b, x) for x in all_x))
    coset_c = [x for x in all_x if apply_map(a, x) == c]

    def posterior(x, y):
        return float(np.prod([cond[x[i], y[i]] for i in range(n)]))

    def p_decode(y, m):
        if stochastic:
            liks = [posterior(x, y) for x in coset_c]
            total = sum(liks)
            if total == 0.0:
                return 0.0
            return sum(l for x, l in zip(coset_c, liks) if apply_map(b, x) == m) / total
        best, best_x = None, None
        for x in coset_c:
            lik = posterior(x, y)
            if best is None or lik > best or (lik == best and x < best_x):
                best, best_x = lik, x
        return 1.0 if apply_map(b, best_x) == m else 0.0

    count = len(msgs)
    err = 0.0
    for m in msgs:
        coset = [x for x in coset_c if apply_map(b, x) == m]
        mass = sum(float(np.prod([px[xi] for xi in x])) for x in coset)
        if mass == 0.0:
            err += 1.0 / count
            continue
        for x in coset:
            mu_x = float(np.prod([px[xi] for xi in x]))
            for y in all_y:
                w_y = float(np.prod([trans[x[i], y[i]] for i in range(n)]))
                err += w_y * mu_x * (1.0 - p_decode(y, m)) / (count * mass)
    return err


def test_build_is_deterministic():
    channel, _, swc, b = make_setup()
    c1 = cc.build(swc, b, channel, seed=3).syndrome
    c2 = cc.build(swc, b, channel, seed=3).syndrome
    assert c1 == c2


def test_build_with_no_syndrome_rows():
    channel, source, _, b = make_setup()
    swc = sw.SwCodec(LinearMap(F2, (), cols=4), source)
    codec = cc.build(swc, b, channel, seed=0)
    assert codec.syndrome.entries == ()
    assert codec.sw.solver.solve(codec.syndrome).size == 16


def test_full_rank_syndrome_gives_singleton_cosets():
    channel, source, _, b = make_setup()
    swc = sw.SwCodec(LinearMap.identity(F2, 4), source)
    codec = cc.build(swc, b, channel, seed=1)
    solver = codec.stacked.solver()
    for m_row in codec.messages():
        rhs = GfVector(F2, codec.syndrome.entries + tuple(int(v) for v in m_row))
        sol = solver.solve(rhs)
        assert sol.size in (0, 1)


def test_rate_fields():
    channel, _, swc, b = make_setup(l_a=2, l_b=2)
    codec = cc.build(swc, b, channel, seed=3)
    assert codec.r == swc.rate
    assert codec.R == pytest.approx(b.rank / 4)
    assert codec.message_count == 2 ** b.rank


def test_encode_satisfies_both_constraints():
    channel, _, swc, b = make_setup()
    codec = cc.build(swc, b, channel, seed=3)
    for seed in range(12):
        m = codec.random_message(np.random.default_rng(seed))
        x = cc.encode(codec, m, seed=seed)
        if x is None:
            continue
        assert matvec(codec.sw.matrix, x) == codec.syndrome
        assert matvec(codec.b_map, x) == m


def test_encoder_error_marker_for_inconsistent_message():
    channel, _, swc, _ = make_setup()
    codec = cc.build(swc, swc.matrix, channel, seed=3)  # B == A
    for m_row in codec.messages():
        m = GfVector.from_array(F2, m_row)
        if m != codec.syndrome:
            for mode in (EXACT, MCMC):
                assert cc.encode(codec, m, seed=0, mode=mode) is None
            break
    else:
        pytest.fail("expected an inconsistent message")
    # a consistent message whose coset carries no input mass: symbol 2 has none
    channel = sc.Channel(np.full((3, 3), 0.1) + 0.7 * np.eye(3))
    source = sc.joint_from_channel(np.array([0.5, 0.5, 0.0]), channel)
    rng = np.random.default_rng(4)
    a = LinearMap.from_array(F3, rng.integers(0, 3, (2, 4)))
    b = LinearMap.from_array(F3, rng.integers(0, 3, (1, 4)))
    codec = cc.build(sw.SwCodec(a, source), b, channel, seed=3)
    m = GfVector(F3, (0,))
    assert codec.encoder_distribution(m).constraints.is_consistent
    for mode in (EXACT, MCMC):
        assert cc.encode(codec, m, seed=0, mode=mode) is None


@pytest.mark.parametrize("mode", [EXACT, MCMC])
def test_encode_equals_two_pair_draw(mode):
    # encode solves one stacked (A; B) pair; it must draw what the pair set
    # {(A, c), (B, m)} draws at the same seed
    channel = sc.make_bsc(0.1)
    source = sc.joint_from_channel(np.array([0.7, 0.3]), channel)
    rng = np.random.default_rng(20)
    a = LinearMap.from_array(F2, rng.integers(0, 2, (2, 6)))
    b = LinearMap.from_array(F2, rng.integers(0, 2, (2, 6)))
    codec = cc.build(sw.SwCodec(a, source), b, channel, seed=3)
    for seed in range(12):
        m = codec.random_message(np.random.default_rng(seed))
        pairs = ConstraintSet(((a, codec.syndrome), (b, m)))
        try:
            ref = draw(ConstrainedDistribution(source.x_marginal, pairs, mode=mode), seed)
        except EmptyCosetError:
            ref = None
        assert cc.encode(codec, m, seed=seed, mode=mode) == ref


def test_encoder_conditional_is_uniform_on_coset():
    # independent rows: the conditional law on the 2-member coset is uniform
    channel = sc.make_bsc(0.1)
    source = sc.joint_from_channel(np.full(2, 0.5), channel)
    a = LinearMap(F2, ((1, 1, 0),))
    b = LinearMap(F2, ((0, 1, 1),))
    swc = sw.SwCodec(a, source)
    codec = cc.ChannelCodec(swc, b, GfVector(F2, (1,)), channel)
    m = GfVector(F2, (1,))
    dist = codec.encoder_distribution(m)
    from cosetlab.crng_sampler import exact_distribution, tv_distance_check
    members, probs = exact_distribution(dist)
    assert len(probs) == 2 and probs == pytest.approx([0.5, 0.5])
    assert tv_distance_check(dist, 100000, seed=4) <= 0.02


def test_decode_output_in_message_space():
    channel, _, swc, b = make_setup()
    codec = cc.build(swc, b, channel, seed=5)
    msg_set = {tuple(int(v) for v in row) for row in codec.messages()}
    for seed in range(8):
        y = tuple(np.random.default_rng(seed).integers(0, 2, 4))
        assert tuple(cc.decode(codec, y).entries) in msg_set


def test_noiseless_roundtrip():
    noiseless = sc.Channel(np.eye(2), kind="noiseless")
    source = sc.joint_from_channel(np.full(2, 0.5), noiseless)
    swc = sw.SwCodec(LinearMap(F2, (), cols=4), source)
    codec = cc.build(swc, LinearMap.identity(F2, 4), noiseless, seed=0)
    assert cc.error_probability(codec, "exact").value == 0.0
    for seed in range(6):
        m = codec.random_message(np.random.default_rng(seed))
        x = cc.encode(codec, m, seed=seed)
        y = tuple(int(v) for v in x.entries)
        assert cc.decode(codec, y) == m


def test_exact_error_matches_brute_force_map():
    channel, _, swc, b = make_setup(seed=17)
    codec = cc.build(swc, b, channel, seed=3)
    assert cc.error_probability(codec, "exact").value == pytest.approx(
        brute_force_error(codec), abs=1e-12)


def test_exact_error_matches_brute_force_stochastic():
    channel, source, _, b = make_setup(seed=17)
    a = LinearMap.from_array(F2, np.random.default_rng(17).integers(0, 2, (2, 4)))
    swc = sw.SwCodec(a, source, decoder=sw.STOCHASTIC)
    codec = cc.build(swc, b, channel, seed=3)
    assert cc.error_probability(codec, "exact").value == pytest.approx(
        brute_force_error(codec, stochastic=True), abs=1e-12)


@pytest.mark.parametrize("decoder", [sw.MAP_EXACT, sw.STOCHASTIC])
@pytest.mark.parametrize("case", ["random-b", "b-equals-a", "zero-input-mass"])
def test_exact_error_matches_monte_carlo(case, decoder):
    if case == "zero-input-mass":
        # symbol 2 carries no input mass, so some message cosets carry none
        channel = sc.Channel(np.full((3, 3), 0.1) + 0.7 * np.eye(3))
        source = sc.joint_from_channel(np.array([0.5, 0.5, 0.0]), channel)
        rng = np.random.default_rng(4)
        a = LinearMap.from_array(F3, rng.integers(0, 3, (2, 4)))
        b = LinearMap.from_array(F3, rng.integers(0, 3, (1, 4)))
    else:
        channel, source, swc, b = make_setup()
        a = swc.matrix
        if case == "b-equals-a":
            b = a  # every message but c has an inconsistent coset
    codec = cc.build(sw.SwCodec(a, source, decoder=decoder), b, channel, seed=3)
    if case != "random-b":
        assert any(cc.encode(codec, GfVector.from_array(codec.field, m), seed=0) is None
                   for m in codec.messages())
    exact = cc.error_probability(codec, "exact")
    mc = cc.error_probability(codec, "mc", trials=20000, seed=8)
    assert abs(exact.value - mc.value) <= 3 * mc.std_err


@pytest.mark.parametrize("decoder", [sw.MAP_EXACT, sw.STOCHASTIC])
def test_monte_carlo_does_not_depend_on_chunking(decoder, monkeypatch):
    channel, source, swc, b = make_setup(seed=20, n=8, l_a=3, l_b=2)
    codec = cc.build(sw.SwCodec(swc.matrix, source, decoder=decoder), b, channel, seed=3)
    whole = cc.error_probability(codec, "mc", trials=3000, seed=5)
    # one trial per decode chunk and a few dozen per encoder chunk
    monkeypatch.setattr(gf_linalg, "CHUNK_ENTRIES", 300)
    assert cc.error_probability(codec, "mc", trials=3000, seed=5) == whole


def test_inverse_cdf_lands_on_positive_weight():
    # a subnormal total and trailing zero weights: the draw must still stop
    # on the last positive weight
    weights = np.array([[0.0, 5e-324, 0.0, 0.0], [0.25, 0.0, 0.75, 0.0]])
    assert inverse_cdf(weights, np.array([0.9, 0.5])).tolist() == [1, 2]


def test_codec_reduces_message_map_once(monkeypatch):
    channel, _, swc, b = make_setup(seed=4, n=6, l_a=2, l_b=3)
    b = LinearMap.from_array(F2, b.as_array())  # fresh map: nothing cached
    reduced = []
    real = gf_linalg._row_reduce

    def counting(arr, field):
        reduced.append(np.array(arr))
        return real(arr, field)

    monkeypatch.setattr(gf_linalg, "_row_reduce", counting)
    monkeypatch.setattr(cc, "_row_reduce", counting)
    codec = cc.build(swc, b, channel, seed=1)
    assert codec.message_count == len(codec.messages())
    assert codec.R == pytest.approx(np.log2(codec.message_count) / codec.n)
    for_b = [arr for arr in reduced
             if np.array_equal(arr, b.as_array()) or np.array_equal(arr, b.as_array().T)]
    assert len(for_b) == 1


def test_message_cap_bounds_only_the_message_list(monkeypatch):
    channel, _, swc, b = make_setup(seed=4, n=6, l_a=2, l_b=3)
    codec = cc.build(swc, b, channel, seed=1)
    count = codec.message_count
    exact = cc.error_probability(codec, "exact")
    mc = cc.error_probability(codec, "mc", trials=50, seed=2)
    monkeypatch.setattr(cc, "MESSAGE_ENUMERATION_CAP", count - 1)
    with pytest.raises(CapExceededError, match=f"message space of size {count} exceeds"):
        codec.messages()
    # neither the message count, nor a message draw, nor either evaluator lists Im B
    assert codec.message_count == count
    assert not codec.b_map.solver().solve(codec.random_message(np.random.default_rng(0))).is_empty
    assert cc.error_probability(codec, "exact") == exact
    assert cc.error_probability(codec, "mc", trials=50, seed=2) == mc


def test_exact_error_cap_is_checked_before_enumeration(monkeypatch):
    # 4 messages x 2^9-member cosets x 2^14 outputs = 2^25 terms > 2^24
    channel, _, swc, b = make_setup(seed=3, n=14, l_a=3, l_b=2)
    codec = cc.build(swc, b, channel, seed=1)
    assert codec.message_count * 2 ** (14 - codec.stacked.rank) * 2 ** 14 > sw.EXACT_ERROR_CAP

    def enumerate_nothing(*args):
        raise AssertionError("enumerated before the cap check")

    monkeypatch.setattr(cc, "_message_segments", enumerate_nothing)
    monkeypatch.setattr(cc, "product_blocks", enumerate_nothing)
    with pytest.raises(CapExceededError):
        cc.error_probability(codec, "exact")


def test_error_with_zero_message_map():
    channel, _, swc, _ = make_setup()
    codec = cc.build(swc, LinearMap.zeros(F2, 2, 4), channel, seed=1)
    assert codec.message_count == 1
    assert cc.error_probability(codec, "exact").value == 0.0


def test_all_inconsistent_messages_dominate_error():
    channel, _, swc, _ = make_setup()
    codec = cc.build(swc, swc.matrix, channel, seed=3)  # B == A
    count = codec.message_count
    est = cc.error_probability(codec, "exact")
    assert est.value >= (count - 1) / count - 1e-12


def test_error_at_least_empty_coset_term():
    channel, _, swc, b = make_setup(seed=20, l_a=3, l_b=2)
    codec = cc.build(swc, b, channel, seed=9)
    msgs = codec.messages()
    solver = codec.stacked.solver()
    empty_term = 0.0
    for m_row in msgs:
        rhs = GfVector(F2, codec.syndrome.entries + tuple(int(v) for v in m_row))
        if solver.solve(rhs).is_empty:
            empty_term += 1.0 / len(msgs)
    assert cc.error_probability(codec, "exact").value >= empty_term - 1e-12


def test_search_single_candidate_reduces_to_one_build():
    channel, _, swc, _ = make_setup()
    spec_b = ens.uniform_ensemble(F2, 2, 4)
    result = cc.search_code(swc, spec_b, channel, candidates=1, trials=500, seed=21)
    b = ens.sample_map(spec_b, np.random.default_rng(derived_seed(21, 1, 0)))
    codec = cc.build(swc, b, channel, np.random.default_rng(derived_seed(21, 2, 0)))
    direct = cc.error_probability(codec, "mc", trials=500, seed=derived_seed(21, 3, 0))
    assert result.best_error.value == direct.value
    assert result.best_codec.syndrome == codec.syndrome


def test_search_best_is_minimum():
    channel, _, swc, _ = make_setup()
    result = cc.search_code(swc, ens.uniform_ensemble(F2, 2, 4), channel,
                            candidates=6, trials=400, seed=2)
    values = [e.value for e in result.candidate_errors]
    assert result.best_error.value == min(values)
    assert len(result.rows()) == 6
    assert result.rows()[0]["delta_hat"] == pytest.approx(result.delta_hat)


def test_search_candidate_depends_only_on_seed_and_index():
    channel, _, swc, _ = make_setup()
    two = cc.search_code(swc, ens.uniform_ensemble(F2, 2, 4), channel,
                         candidates=2, trials=300, seed=5)
    four = cc.search_code(swc, ens.uniform_ensemble(F2, 2, 4), channel,
                          candidates=4, trials=300, seed=5)
    assert [e.value for e in two.candidate_errors] == \
        [e.value for e in four.candidate_errors[:2]]
    assert two.candidate_seeds == four.candidate_seeds[:2]


def test_noiseless_search_delta_is_non_positive():
    noiseless = sc.Channel(np.eye(2), kind="noiseless")
    source = sc.joint_from_channel(np.full(2, 0.5), noiseless)
    # r = 0 leaves the whole rate budget to messages; the noiseless
    # posterior is a point mass, so the baseline error is 0
    swc = sw.SwCodec(LinearMap(F2, (), cols=4), source)
    result = cc.search_code(swc, ens.uniform_ensemble(F2, 2, 4), noiseless,
                            candidates=4, trials=400, seed=3)
    assert result.baseline_error.value == 0.0
    assert result.delta_hat <= 0.05


def decode_loop_error(codec):
    """Exact MAP error from one channel ``decode`` per output; DecodeFailure is an error."""
    outputs = np.array(list(itertools.product(range(codec.channel.output_size),
                                              repeat=codec.n)))
    decoded = []
    for y in outputs:
        try:
            decoded.append(cc.decode(codec, y).entries)
        except DecodeFailure:
            decoded.append((-1,) * codec.b_map.rows)
    decoded = np.array(decoded)
    msgs = codec.messages()
    solver = codec.stacked.solver()
    px = codec.sw.source.x_marginal
    err = 0.0
    for m_row in msgs:
        rhs = codec.syndrome.entries + tuple(int(v) for v in m_row)
        members = coset_array(solver.solve(GfVector(codec.field, rhs)))
        weights = px[members].prod(axis=1)
        if not len(members) or weights.sum() <= 0.0:
            err += 1.0 / len(msgs)
            continue
        wrong = (decoded != m_row).any(axis=1)
        for x, w in zip(members, weights):
            w_y = codec.channel.transition[x[None, :], outputs].prod(axis=1)
            err += w / (len(msgs) * weights.sum()) * float(w_y @ wrong)
    return err


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exact_map_error_equals_decode_map_loop(seed):
    # the exact evaluator decodes every output in one batch; it must agree
    # with decoding each output through decode_map, ties included
    n, l_a, l_b = 12, 8, 3
    channel = sc.make_bsc(0.11)
    source = sc.joint_from_channel(np.full(2, 0.5), channel)
    rng = np.random.default_rng(seed)
    a = LinearMap.from_array(F2, rng.integers(0, 2, (l_a, n)))
    b = LinearMap.from_array(F2, rng.integers(0, 2, (l_b, n)))
    codec = cc.build(sw.SwCodec(a, source), b, channel, seed=seed)
    assert cc.error_probability(codec, "exact").value == pytest.approx(
        decode_loop_error(codec), abs=1e-12)


def test_map_errors_count_outputs_without_posterior_mass():
    # mismatched decoding: the decoder's Z-channel source gives some outputs
    # of the BSC link zero posterior on the whole coset, where decode fails
    source = sc.joint_from_channel(np.full(2, 0.5), sc.Channel(np.array([[0.9, 0.1],
                                                                          [0.0, 1.0]])))
    assert source.cond_x_given_y[1, 0] == 0.0
    a = LinearMap(F2, ((1, 1, 0, 0), (0, 0, 1, 1)))
    b = LinearMap(F2, ((1, 0, 1, 0),))
    codec = cc.ChannelCodec(sw.SwCodec(a, source), b, GfVector(F2, (1, 1)), sc.make_bsc(0.1))
    failures = 0
    for y in itertools.product(range(2), repeat=4):
        try:
            cc.decode(codec, y)
        except DecodeFailure:
            failures += 1
    assert failures == 7
    exact = cc.error_probability(codec, "exact")
    assert exact.value == pytest.approx(decode_loop_error(codec), abs=1e-12)
    mc = cc.error_probability(codec, "mc", trials=20000, seed=8)
    assert abs(exact.value - mc.value) <= 3 * mc.std_err


@pytest.mark.parametrize("outputs", [1, 3])
def test_channel_outputs_must_match_the_side_information(outputs):
    # the decoder reads the channel output as DSBS side information, a bit
    swc = sw.SwCodec(LinearMap(F2, ((1, 1, 0), (0, 1, 1))), sc.make_dsbs(0.1))
    channel = sc.Channel(np.full((2, outputs), 1.0 / outputs))
    with pytest.raises(ValueError, match="output alphabet"):
        cc.build(swc, LinearMap(F2, ((1, 0, 0),)), channel, seed=0)


def test_one_syndrome_solve_serves_every_decode_and_evaluation(monkeypatch):
    # the code solves A x = c once, when it is built; decode and both
    # evaluators read the coset it keeps
    solved = []
    real = gf_linalg.AffineSolver.solve

    def counting(solver, c):
        solved.append(solver)
        return real(solver, c)

    monkeypatch.setattr(gf_linalg.AffineSolver, "solve", counting)
    channel, _, swc, b = make_setup()
    codec = cc.build(swc, b, channel, seed=1)
    rng = np.random.default_rng(0)
    for _ in range(10):
        cc.decode(codec, rng.integers(0, 2, codec.n))
    cc.error_probability(codec, "exact")
    cc.error_probability(codec, "mc", trials=200, seed=3)
    assert solved == [swc.solver]


@pytest.mark.parametrize("b_map, syndrome, match", [
    pytest.param(LinearMap(F3, ((1, 0, 2, 1),)), None, "share field", id="B-field"),
    pytest.param(LinearMap(F2, ((1, 0, 1),)), None, "share field", id="B-length"),
    pytest.param(None, GfVector(F2, (1,)), "right-hand side", id="c-length"),
    pytest.param(None, GfVector(F3, (1, 0)), "right-hand side", id="c-field"),
])
def test_message_map_and_syndrome_must_match_the_code(b_map, syndrome, match):
    channel, _, swc, b = make_setup()
    c = matvec(swc.matrix, GfVector(F2, (1, 0, 1, 1)))
    with pytest.raises(ValueError, match=match):
        cc.ChannelCodec(swc, b if b_map is None else b_map, c if syndrome is None else syndrome,
                        channel)


def test_decoder_coset_above_the_cap_fails_at_construction(monkeypatch):
    channel, _, swc, b = make_setup()  # decoder cosets of at least 4 members
    monkeypatch.setattr(gf_linalg, "COSET_ENUMERATION_CAP", 2)
    with pytest.raises(CapExceededError, match="coset of size"):
        cc.build(swc, b, channel, seed=1)


@pytest.mark.parametrize("m, match", [
    pytest.param(GfVector(F3, (1, 0)), "another field", id="field"),
    pytest.param(GfVector(F2, (1, 0, 1)), "right-hand side", id="length"),
])
def test_encode_refuses_a_message_that_does_not_match_the_code(m, match):
    # (1, 0) is also a GF(2) word, so only the field check refuses it
    channel, _, swc, b = make_setup()
    codec = cc.build(swc, b, channel, seed=3)
    with pytest.raises(ValueError, match=match):
        cc.encode(codec, m, seed=0)


def test_encode_refuses_an_unknown_mode_for_every_message():
    channel, _, swc, _ = make_setup()
    codec = cc.build(swc, swc.matrix, channel, seed=3)  # B == A: only c is consistent
    other = next(GfVector.from_array(F2, row) for row in codec.messages()
                 if tuple(row) != codec.syndrome.entries)
    for m in (codec.syndrome, other):
        with pytest.raises(ValueError, match="gibbs"):
            cc.encode(codec, m, seed=0, mode="gibbs")


def counting(calls, real):
    def wrapper(*args):
        calls.append(args)
        return real(*args)
    return wrapper


def test_encode_builds_its_generator_once(monkeypatch):
    # the law, the encoder table and the stacked solver belong to the code: an
    # exact encode reads the table and solves nothing, an MCMC encode solves
    # (A; B) x = (c; m) once and walks, and neither builds a sampler object
    channel = sc.Channel(np.full((3, 3), 0.1) + 0.7 * np.eye(3))
    source = sc.joint_from_channel(np.array([0.5, 0.5, 0.0]), channel)
    rng = np.random.default_rng(4)
    a = LinearMap.from_array(F3, rng.integers(0, 3, (2, 4)))
    b = LinearMap.from_array(F3, rng.integers(0, 3, (2, 4)))
    codec = cc.build(sw.SwCodec(a, source), b, channel, seed=3)
    built, checked, solved = [], [], []
    for cls in (ConstraintSet, ConstrainedDistribution):
        monkeypatch.setattr(cls, "__post_init__", counting(built, cls.__post_init__))
    monkeypatch.setattr(crng, "_normalize_weights", counting(checked, crng._normalize_weights))
    monkeypatch.setattr(gf_linalg.AffineSolver, "solve",
                        counting(solved, gf_linalg.AffineSolver.solve))
    messages = [GfVector.from_array(F3, row) for row in codec.messages()]
    drawn = [cc.encode(codec, m, seed=k, mode=mode)
             for mode in (EXACT, MCMC) for k, m in enumerate(messages)]
    assert None in drawn and any(x is not None for x in drawn)  # encoder errors included
    assert built == [] and checked == []
    assert [s for s, _ in solved] == [codec.stacked.solver()] * len(messages)  # MCMC only


def pair_draw_codec(q, n, l_a, l_b, law, same_cols=()):
    """A random code whose B gets one more row, a multiple of A's first: a rank-deficient
    (A; B), so some messages of Im B have no coset; columns ``same_cols`` copy column 0
    in A and B, so they are free columns of (A; B) after its first pivot."""
    field = FieldSpec(q)
    eye = np.eye(q) * 0.6
    channel = sc.Channel(eye + (1.0 - eye.sum(axis=1, keepdims=True)) / q)
    rng = np.random.default_rng(q)
    a = rng.integers(0, q, (l_a, n))
    b = np.vstack((rng.integers(0, q, (l_b, n)), (q - 1) * a[:1] % q))
    for col in same_cols:
        a[:, col], b[:, col] = a[:, 0], b[:, 0]
    a, b = LinearMap.from_array(field, a), LinearMap.from_array(field, b)
    source = sc.joint_from_channel(np.array(law), channel)
    return cc.build(sw.SwCodec(a, source), b, channel, seed=q), source


@pytest.mark.parametrize("q, n, l_a, l_b, law, same_cols", [
    pytest.param(2, 8, 3, 2, (0.7, 0.3), (2, 5), id="GF2"),
    pytest.param(3, 6, 2, 1, (0.5, 0.5, 0.0), (), id="GF3-zero-letter"),
    pytest.param(5, 5, 1, 1, (0.1, 0.3, 0.2, 0.25, 0.15), (3,), id="GF5"),
])
def test_exact_encode_is_the_pair_draw_for_every_message(q, n, l_a, l_b, law, same_cols):
    # the encoder table lays each segment out as coset_array lays out the pair
    # set's solution, so every message draws what draw does at every seed
    codec, source = pair_draw_codec(q, n, l_a, l_b, law, same_cols)
    a, b, c = codec.sw.matrix, codec.b_map, codec.syndrome
    assert codec.stacked.rank < a.rows + b.rows
    outcomes = set()
    for row in codec.messages():
        m = GfVector.from_array(codec.field, row)
        pairs = ConstraintSet(((a, c), (b, m)))
        for seed in range(12):
            try:
                ref = draw(ConstrainedDistribution(source.x_marginal, pairs), seed)
            except EmptyCosetError:
                ref = None
            assert cc.encode(codec, m, seed=seed) == ref
        outcomes.add("drawn" if ref is not None else
                     "no mass" if pairs.is_consistent else "inconsistent")
    assert outcomes == ({"drawn", "no mass", "inconsistent"} if 0.0 in law
                        else {"drawn", "inconsistent"})


def test_the_stacked_map_is_built_on_first_use(monkeypatch):
    # build, the code search, exact encodes and exact evaluation stack nothing;
    # the first MCMC encode or encoder_distribution stacks (A; B) once
    stacked = []
    monkeypatch.setattr(cc, "stack_maps", counting(stacked, cc.stack_maps))
    channel, _, swc, b = make_setup(seed=6, n=6, l_a=2, l_b=2)
    cc.search_code(swc, ens.uniform_ensemble(F2, 2, 6), channel, candidates=4, trials=50,
                   seed=2)
    codec = cc.build(swc, b, channel, seed=1)
    messages = [GfVector.from_array(F2, row) for row in codec.messages()]
    for m in messages:
        cc.encode(codec, m, seed=0)
    for decoder in (sw.MAP_EXACT, sw.STOCHASTIC):
        cc.error_probability(cc.build(sw.SwCodec(swc.matrix, swc.source, decoder=decoder), b,
                                      channel, seed=1), "exact")
    assert stacked == []
    uses = [lambda codec: [cc.encode(codec, m, seed=0, mode=MCMC) for m in messages],
            lambda codec: [codec.encoder_distribution(m) for m in messages]]
    for use in uses:
        codec = cc.build(swc, b, channel, seed=1)
        use(codec)
        use(codec)
        assert len(stacked) == 1
        stacked.clear()


ZERO_ENTRIES = np.array([[0.7, 0.3, 0.0], [0.0, 0.6, 0.4], [0.2, 0.0, 0.8]])
# name: (channel, non-uniform input law, n, rows of A, rows of B)
TABLE_CASES = {
    "bsc": (lambda: sc.make_bsc(0.11), (0.6, 0.4), 8, 3, 2),
    "zchannel": (lambda: sc.make_zchannel(0.3), (0.6, 0.4), 8, 3, 2),
    "awgn3": (lambda: sc.make_quantized_awgn(4.0, 3), (0.5, 0.3, 0.2), 6, 2, 1),
    "awgn5": (lambda: sc.make_quantized_awgn(8.0, 5), (0.1, 0.3, 0.2, 0.25, 0.15), 5, 2, 1),
    "zero-entries": (lambda: sc.Channel(ZERO_ENTRIES), (0.5, 0.3, 0.2), 6, 2, 1),
}


def table_codec(name, decoder, seed, uniform=True):
    make_channel, px, n, l_a, l_b = TABLE_CASES[name]
    channel = make_channel()
    q = channel.input_size
    rng = np.random.default_rng(seed)
    a = LinearMap.from_array(FieldSpec(q), rng.integers(0, q, (l_a, n)))
    b = LinearMap.from_array(FieldSpec(q), rng.integers(0, q, (l_b, n)))
    law = np.full(q, 1.0 / q) if uniform else np.array(px)
    source = sc.joint_from_channel(law, channel)
    return cc.build(sw.SwCodec(a, source, decoder), b, channel, seed=seed + 1)


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "non-uniform"])
@pytest.mark.parametrize("name", list(TABLE_CASES))
def test_map_table_decides_as_the_fold(name, uniform):
    # the held table's one product per batch picks the member, and finds the
    # rows live, that the per-position fold does, ties and dead rows included
    tied_rows = dead_rows = 0
    for seed in range(4):
        codec = table_codec(name, sw.MAP_EXACT, seed, uniform)
        members, cond = codec.segments[0], codec.sw.source.cond_x_given_y
        y = np.random.default_rng(seed + 10).integers(0, codec.channel.output_size,
                                                      (300, codec.n))
        picks, live = sw._decide(sw.MAP_EXACT, cond, members, y, table=codec.table)
        fold_picks, fold_live = sw._decide(sw.MAP_EXACT, cond, members, y)
        assert np.array_equal(live, fold_live)
        assert np.array_equal(picks, fold_picks)
        with np.errstate(divide="ignore"):
            scores = np.log2(cond.T[y])[:, np.arange(codec.n), members].sum(axis=-1)
        best = scores.max(axis=1, keepdims=True)
        tied_rows += np.count_nonzero(live & ((scores >= best + sw._TIE_LOG2).sum(axis=1) > 1))
        dead_rows += np.count_nonzero(~live)
    assert tied_rows > 0
    assert (dead_rows > 0) == (name in ("zchannel", "zero-entries"))


@pytest.mark.parametrize("name", list(TABLE_CASES))
def test_decode_is_decode_map_then_the_message_map(name):
    for seed in range(2):
        codec = table_codec(name, sw.MAP_EXACT, seed, uniform=False)
        rng = np.random.default_rng(seed + 20)
        for y in rng.integers(0, codec.channel.output_size, (60, codec.n)):
            try:
                want = matvec(codec.b_map, sw.decode_map(codec.sw, codec.syndrome, y))
            except DecodeFailure:
                with pytest.raises(DecodeFailure):
                    cc.decode(codec, y)
                continue
            assert cc.decode(codec, y) == want


# failures in 400 Monte Carlo trials at seed s + 7 of table_codec(name, decoder, s),
# as counted before the MAP decision read the table; the Z-channel and the
# channel with zero entries take their non-uniform input laws
PINNED_FAILURES = {
    ("bsc", sw.MAP_EXACT): (133, 104), ("bsc", sw.STOCHASTIC): (158, 124),
    ("zchannel", sw.MAP_EXACT): (103, 106), ("zchannel", sw.STOCHASTIC): (140, 120),
    ("awgn3", sw.MAP_EXACT): (103, 105), ("awgn3", sw.STOCHASTIC): (126, 119),
    ("awgn5", sw.MAP_EXACT): (138, 72), ("awgn5", sw.STOCHASTIC): (178, 110),
    ("zero-entries", sw.MAP_EXACT): (166, 159), ("zero-entries", sw.STOCHASTIC): (184, 192),
}


@pytest.mark.parametrize("name, decoder", list(PINNED_FAILURES))
def test_monte_carlo_values_are_pinned(name, decoder):
    uniform = name not in ("zchannel", "zero-entries")
    for seed, failures in enumerate(PINNED_FAILURES[name, decoder]):
        est = cc.error_probability(table_codec(name, decoder, seed, uniform), "mc",
                                   trials=400, seed=seed + 7)
        assert est.value == failures / 400


def test_map_table_above_the_cap_is_refused_before_the_coset_is_built(monkeypatch):
    channel, _, swc, b = make_setup()
    entries = swc.solver.kernel_size * swc.n * 2

    def build_nothing(*args):
        raise AssertionError("built before the cap check")

    monkeypatch.setattr(cc, "IMAGE_TABLE_CAP", entries - 1)
    with monkeypatch.context() as patched:
        patched.setattr(cc, "coset_array", build_nothing)
        patched.setattr(cc, "map_table", build_nothing)
        with pytest.raises(CapExceededError, match=f"table of {entries} entries"):
            cc.build(swc, b, channel, seed=1)
    # a stochastic code holds no table, and a table at the cap is built
    stochastic = sw.SwCodec(swc.matrix, swc.source, sw.STOCHASTIC)
    assert cc.build(stochastic, b, channel, seed=1).table is None
    monkeypatch.setattr(cc, "IMAGE_TABLE_CAP", entries)
    assert cc.build(swc, b, channel, seed=1).table.onehot.size == entries


def test_a_code_groups_and_ranks_its_coset_once(monkeypatch):
    # decode and both evaluators read the segments and the tie rank the code
    # computed when it was built
    channel, _, swc, b = make_setup(seed=5, n=10, l_a=4, l_b=2)
    grouped, ranked = [], []
    monkeypatch.setattr(cc, "_message_segments", counting(grouped, cc._message_segments))
    monkeypatch.setattr(sw, "_lex_rank", counting(ranked, sw._lex_rank))
    codec = cc.build(swc, b, channel, seed=1)
    assert (len(grouped), len(ranked)) == (1, 1)
    for y in np.random.default_rng(0).integers(0, 2, (20, codec.n)):
        cc.decode(codec, y)
    cc.error_probability(codec, "exact")
    cc.error_probability(codec, "mc", trials=300, seed=3)
    assert (len(grouped), len(ranked)) == (1, 1)
