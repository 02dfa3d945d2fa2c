import math

import numpy as np
import pytest

from cosetlab import sources_channels as sc
from cosetlab.gf_linalg import FieldSpec


def h2(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def test_sample_outputs_any_shape():
    # a block of inputs draws what its raveled row draws at the same seed
    rng = np.random.default_rng(0)
    trans = rng.random((3, 4))
    ch = sc.Channel(trans / trans.sum(axis=1, keepdims=True))
    x = rng.integers(0, 3, (7, 9))
    block = ch.sample_outputs(x, np.random.default_rng(3))
    row = ch.sample_outputs(x.ravel(), np.random.default_rng(3))
    assert block.shape == x.shape
    assert np.array_equal(block.ravel(), row)


def test_bsc_identity_at_zero():
    ch = sc.make_bsc(0.0)
    assert np.array_equal(ch.transition, np.eye(2))


def test_zchannel_rows():
    ch = sc.make_zchannel(0.5)
    assert ch.transition.tolist() == [[1.0, 0.0], [0.5, 0.5]]


def test_dsbs_half_is_independent():
    m = sc.info_measures(sc.make_dsbs(0.5))
    assert m.h_x_given_y == pytest.approx(1.0, abs=1e-12)
    assert m.mutual_information == pytest.approx(0.0, abs=1e-12)


def test_dsbs_conditional_entropy_matches_binary_entropy():
    m = sc.info_measures(sc.make_dsbs(0.11))
    assert m.h_x_given_y == pytest.approx(h2(0.11), abs=1e-12)
    assert round(m.h_x_given_y, 4) == 0.4999


def test_identical_pair_has_zero_conditional_entropy():
    src = sc.JointSource(np.diag([0.5, 0.5]))
    assert sc.info_measures(src).h_x_given_y == pytest.approx(0.0, abs=1e-12)


def test_bayes_identity_every_cell():
    rng = np.random.default_rng(2)
    for _ in range(20):
        j = rng.random((3, 4))
        j /= j.sum()
        src = sc.JointSource(j)
        recon = src.cond_x_given_y * src.y_marginal[None, :]
        assert np.abs(recon - src.joint).max() < 1e-12


def test_info_measure_invariants():
    rng = np.random.default_rng(9)
    for _ in range(30):
        j = rng.random((2, 3))
        j /= j.sum()
        m = sc.info_measures(sc.JointSource(j))
        assert -1e-12 <= m.h_x_given_y <= m.h_x + 1e-12 <= 1.0 + 1e-12
        assert m.mutual_information >= -1e-12


def test_invalid_tables_rejected():
    with pytest.raises(ValueError):
        sc.Channel(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        sc.JointSource(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        sc.make_bsc(1.5)


def test_quantized_awgn_is_stochastic():
    ch = sc.make_quantized_awgn(4.0, 8)
    assert ch.input_size == 8 and ch.output_size == 8
    assert np.abs(ch.transition.sum(axis=1) - 1.0).max() < 1e-12
    # higher snr concentrates mass on the diagonal
    sharp = sc.make_quantized_awgn(100.0, 8)
    assert np.diag(sharp.transition).min() > np.diag(ch.transition).min()
    with pytest.raises(ValueError):
        sc.make_quantized_awgn(4.0, 1)


def test_joint_from_channel():
    src = sc.joint_from_channel(np.array([0.5, 0.5]), sc.make_bsc(0.11))
    dsbs = sc.make_dsbs(0.11)
    assert np.abs(src.joint - dsbs.joint).max() < 1e-15


def test_sample_pair_deterministic_and_typed():
    src = sc.make_dsbs(0.2)
    x1, y1 = sc.sample_pair(src, 50, seed=5)
    x2, y2 = sc.sample_pair(src, 50, seed=5)
    assert x1 == x2 and y1 == y2
    assert x1.field == FieldSpec(2) and len(y1) == 50


def test_typical_membership_uniform_binary():
    src = sc.make_dsbs(0.3)  # X marginal uniform
    spec = sc.TypicalSetSpec(epsilon=0.1, n=4, kind=sc.INF_ENTROPY)
    # every word has spectrum value exactly 1 = H(X), inside the set
    assert sc.typical_membership(spec, src, (0, 1, 1, 0))


def test_typical_membership_point_mass():
    src = sc.JointSource(np.array([[1.0], [0.0]]))
    spec = sc.TypicalSetSpec(epsilon=0.5, n=3, kind=sc.INF_ENTROPY)
    # the atom has spectrum value 0 >= 0 - eps, evaluated literally
    assert sc.typical_membership(spec, src, (0, 0, 0))
    # zero-probability words have infinite spectrum value, also members
    assert sc.typical_membership(spec, src, (1, 0, 0))


def test_typical_membership_conditional():
    src = sc.make_dsbs(0.11)
    spec = sc.TypicalSetSpec(epsilon=0.05, n=6, kind=sc.COND_SUP_ENTROPY)
    assert sc.typical_membership(spec, src, (0,) * 6, y=(0,) * 6)
    # all-flips block is far above H(X|Y) + eps
    assert not sc.typical_membership(spec, src, (1,) * 6, y=(0,) * 6)
    with pytest.raises(ValueError):
        sc.typical_membership(spec, src, (0,) * 6)


def test_spectrum_histogram_concentrates():
    src = sc.make_dsbs(0.11)
    hist = sc.spectrum_histogram(src, n=1000, trials=300, seed=4, kind=sc.COND_SUP_ENTROPY)
    assert abs(hist.mean() - h2(0.11)) <= 0.02
    assert abs(hist.mean() - h2(0.11)) <= 3 * max(hist.std_err(), 1e-4)
    uncond = sc.spectrum_histogram(src, n=500, trials=200, seed=5)
    assert abs(uncond.mean() - 1.0) <= 1e-9  # uniform marginal: exactly 1 per block


def test_atypical_mass_non_increasing_in_n():
    src = sc.make_dsbs(0.11)
    eps = 0.08
    h = sc.info_measures(src).h_x_given_y
    fractions = []
    for n in (50, 100, 200, 400):
        hist = sc.spectrum_histogram(src, n=n, trials=3000, seed=31 + n,
                                     kind=sc.COND_SUP_ENTROPY)
        outside = float((hist.values > h + eps).mean())
        se = math.sqrt(max(outside * (1 - outside), 1e-6) / hist.trials)
        fractions.append((outside, se))
    for (p_small, se_small), (p_big, se_big) in zip(fractions, fractions[1:]):
        assert p_big <= p_small + 3 * math.hypot(se_small, se_big)


def test_histogram_csv_export(tmp_path):
    src = sc.make_dsbs(0.2)
    hist = sc.spectrum_histogram(src, n=100, trials=50, seed=1)
    out = tmp_path / "hist.csv"
    sc.write_histogram_csv(hist, out, bins=10)
    lines = out.read_text().splitlines()
    assert lines[1] == "bin_left,bin_right,count"
    assert len(lines) == 12


def test_channel_and_source_text_round_trip():
    ch = sc.make_bsc(0.11)
    back = sc.parse_channel(sc.format_channel(ch))
    assert np.array_equal(back.transition, ch.transition)
    src = sc.make_dsbs(0.11)
    back_src = sc.parse_source(sc.format_source(src))
    assert np.array_equal(back_src.joint, src.joint)


def test_channel_view_requires_full_support():
    src = sc.make_dsbs(0.11)
    view = src.channel_view()
    assert np.abs(view.transition - sc.make_bsc(0.11).transition).max() < 1e-12
    degenerate = sc.JointSource(np.array([[1.0], [0.0]]))
    with pytest.raises(ValueError):
        degenerate.channel_view()
