"""The exhaustive error sums, built on rng.product_blocks, against per-position gathers.

Each reference below is the evaluator as it stood with every word weight
taken from ``rng.product_law`` gathers over a listed word table.  The table
form must give the same floats, so every comparison is exact.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from cosetlab import channel_codec as cc
from cosetlab import gf_linalg
from cosetlab import sources_channels as sc
from cosetlab import sw_codec as sw
from cosetlab.gf_linalg import FieldSpec, LinearMap, chunks, segments, word_table
from cosetlab.rng import product_law

DECODERS = [sw.MAP_EXACT, sw.STOCHASTIC]


def _ref_channel_error(codec):
    """channel_codec._exact_error with each block's weights gathered per position."""
    n, ys, m_count = codec.n, codec.channel.output_size, codec.message_count
    members, member_msg, starts, px, mass = cc._message_segments(codec)
    good = mass > 0.0
    encoder_weight = np.divide(px, m_count * mass[member_msg], out=np.zeros_like(px),
                               where=good[member_msg])
    err = (m_count - np.count_nonzero(good)) / m_count
    cond = codec.sw.source.cond_x_given_y
    for s in chunks(ys ** n, len(members) * n):
        y = word_table(ys, n, s.start, s.stop)
        if codec.sw.decoder == sw.MAP_EXACT:
            picks, live = sw._decide(sw.MAP_EXACT, cond, members, y)
            decoded = np.where(live, member_msg[picks], -1)
            miss = decoded[:, None] != member_msg[None, :]
        else:
            hits = np.add.reduceat(product_law(cond.T[y], members), starts, axis=1)
            total = hits.sum(axis=1, keepdims=True)
            p_hit = np.divide(hits, total, out=np.zeros_like(hits), where=total > 0.0)
            miss = 1.0 - p_hit[:, member_msg]
        w_y = product_law(codec.channel.transition.T[y], members)
        err += float((w_y * miss).sum(axis=0) @ encoder_weight)
    return err


def _ref_lost_mass(decoder, letters, words, starts):
    p = product_law(letters, words)
    total = np.add.reduceat(p, starts, axis=1)
    if decoder == sw.MAP_EXACT:
        lost = total - np.maximum.reduceat(p, starts, axis=1)
    else:
        lost = np.divide(total * total - np.add.reduceat(p * p, starts, axis=1), total,
                         out=np.zeros_like(total), where=total > 0.0)
    return float(lost.sum())


def _ref_sw_error(codec, joint_path):
    """sw_codec's noise sum, or with ``joint_path`` its joint sum, over listed words."""
    q, n, ys = codec.field.q, codec.n, codec.source.y_size
    words = word_table(q, n)
    order, _, starts = segments(words, codec.matrix)
    words = words[order]
    if not joint_path:
        pz = sw._noise_law(codec.source.joint)
        return _ref_lost_mass(codec.decoder, np.broadcast_to(pz, (1, n, q)), words, starts)
    return sum(_ref_lost_mass(codec.decoder,
                              codec.source.joint.T[word_table(ys, n, s.start, s.stop)],
                              words, starts)
               for s in chunks(ys ** n, len(words)))


def _erasure():
    return sc.Channel(np.array([[0.8, 0.15, 0.05], [0.05, 0.15, 0.8]]), kind="erasure")


def _ternary_with_zeros():
    return sc.Channel(np.array([[0.8, 0.2, 0.0], [0.0, 0.8, 0.2], [0.2, 0.0, 0.8]]))


CHANNELS = {
    "gf2-bsc": (2, sc.make_bsc(0.1)),
    "gf2-z": (2, sc.make_zchannel(0.2)),
    "gf2-awgn": (2, sc.make_quantized_awgn(2.0, 2)),
    "gf2-erasure": (2, _erasure()),
    "gf3-awgn": (3, sc.make_quantized_awgn(3.0, 3)),
    "gf3-zero-letters": (3, _ternary_with_zeros()),
}
# (n, rows of A, rows of B); the (6, 1, 1) codes hold segments of 16 members
CODES = {2: [(4, 1, 1), (5, 2, 2), (6, 1, 1), (6, 3, 1), (7, 4, 2), (8, 5, 1)],
         3: [(3, 1, 1), (3, 2, 1), (4, 1, 1), (4, 2, 1), (4, 1, 2), (5, 3, 1)]}


def _input_law(q, uniform):
    w = np.ones(q) if uniform else np.arange(1.0, q + 1.0)
    return w / w.sum()


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "non-uniform"])
@pytest.mark.parametrize("name", list(CHANNELS))
def test_channel_exact_error_equals_the_gather_sum(monkeypatch, name, uniform):
    q, channel = CHANNELS[name]
    field = FieldSpec(q)
    source = sc.joint_from_channel(_input_law(q, uniform), channel)
    rng = np.random.default_rng(q)
    codecs = []
    for k, (n, l_a, l_b) in enumerate(CODES[q]):
        a = LinearMap.from_array(field, rng.integers(0, q, (l_a, n)))
        b = LinearMap.from_array(field, rng.integers(0, q, (l_b, n)))
        codecs += [cc.build(sw.SwCodec(a, source, decoder=decoder), b, channel, seed=k)
                   for decoder in DECODERS]
    for codec in codecs:
        assert cc._exact_error(codec) == _ref_channel_error(codec)
    # blocks of a few outputs that cut across runs of a few words
    monkeypatch.setattr(gf_linalg, "CHUNK_ENTRIES", 150)
    for codec in codecs[2:4]:
        assert cc._exact_error(codec) == _ref_channel_error(codec)


def _sw_cases():
    f2, f3 = FieldSpec(2), FieldSpec(3)
    additive3 = np.array([0.6, 0.0, 0.4])[(np.arange(3)[None, :] - np.arange(3)[:, None]) % 3] / 3
    return {
        "dsbs": (f2, sc.make_dsbs(0.11), True),
        "gf3-additive-zero-letter": (f3, sc.JointSource(additive3), True),
        "z-channel": (f2, sc.joint_from_channel(np.full(2, 0.5), sc.make_zchannel(0.2)), False),
        "erasure": (f2, sc.joint_from_channel(np.array([0.3, 0.7]), _erasure()), False),
        "gf3-awgn": (f3, sc.joint_from_channel(np.full(3, 1 / 3),
                                               sc.make_quantized_awgn(3.0, 3)), False),
    }


SW_CASES = _sw_cases()


@pytest.mark.parametrize("name", list(SW_CASES))
def test_sw_exact_error_equals_the_gather_sum(monkeypatch, name):
    field, source, additive = SW_CASES[name]
    assert (sw._noise_law(source.joint) is not None) == additive
    rng = np.random.default_rng(field.q + 10)
    ns = (4, 6) if field.q == 2 else (3, 4)
    for n, l, decoder in itertools.product(ns, (1, 2), DECODERS):
        a = LinearMap.from_array(field, rng.integers(0, field.q, (l, n)))
        codec = sw.SwCodec(a, source, decoder=decoder)
        assert sw._exact_error(codec) == _ref_sw_error(codec, joint_path=not additive)
        assert sw._joint_error(codec) == _ref_sw_error(codec, joint_path=True)
    # side-information blocks of a few rows each
    monkeypatch.setattr(gf_linalg, "CHUNK_ENTRIES", 3 * field.q ** n)
    assert sw._joint_error(codec) == _ref_sw_error(codec, joint_path=True)


def test_channel_exact_error_never_builds_the_whole_table():
    # 64 members x 2^16 outputs = 2^22 weights, 32 MB in float64 for each table
    field = FieldSpec(2)
    rng = np.random.default_rng(16)
    channel = sc.make_bsc(0.1)
    source = sc.joint_from_channel(np.full(2, 0.5), channel)
    a = LinearMap.from_array(field, rng.integers(0, 2, (10, 16)))
    b = LinearMap.from_array(field, rng.integers(0, 2, (2, 16)))
    codec = cc.build(sw.SwCodec(a, source, decoder=sw.STOCHASTIC), b, channel, seed=1)
    assert a.rank == 10 and len(codec.coset) * 2 ** 16 == 2 ** 22
    tracemalloc.start()
    try:
        cc._exact_error(codec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # each of the two tables holds its low positions' table and one run, at
    # most one chunk each, and a block of outputs, about a chunk over n
    assert peak < 8 * gf_linalg.CHUNK_ENTRIES * 8
