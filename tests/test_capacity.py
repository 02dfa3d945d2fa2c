import functools
import itertools
import math

import numpy as np
import pytest

from cosetlab import capacity as cap
from cosetlab import sources_channels as sc
from cosetlab.errors import CapExceededError


def h2(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def z_capacity(p):
    # closed form for the asymmetric binary channel with a clean zero input
    return math.log2(1.0 + (1.0 - p) * p ** (p / (1.0 - p)))


@pytest.mark.parametrize("p", [0.05, 0.11, 0.2])
def test_bsc_capacity_closed_form(p):
    res = cap.blahut_arimoto(sc.make_bsc(p), tol=1e-10)
    assert abs(res.capacity - (1.0 - h2(p))) <= 1e-6
    assert res.residual <= 1e-10


def test_bsc_noiseless():
    res = cap.blahut_arimoto(sc.make_bsc(0.0))
    assert res.capacity == pytest.approx(1.0, abs=1e-9)
    assert res.input_dist == pytest.approx([0.5, 0.5], abs=1e-6)


@pytest.mark.parametrize("p", [0.5, 0.3])
def test_zchannel_capacity_closed_form(p):
    res = cap.blahut_arimoto(sc.make_zchannel(p), tol=1e-10)
    assert abs(res.capacity - z_capacity(p)) <= 1e-6


def test_zchannel_optimal_input_closed_form():
    # optimal mass on the noisy input: 1 / ((1-p) (1 + 2^(h(p)/(1-p))))
    p = 0.5
    res = cap.blahut_arimoto(sc.make_zchannel(p), tol=1e-12)
    expected = 1.0 / ((1.0 - p) * (1.0 + 2.0 ** (h2(p) / (1.0 - p))))
    assert res.input_dist[1] == pytest.approx(expected, abs=1e-5)


def test_bracket_is_monotone_and_valid():
    res = cap.blahut_arimoto(sc.make_zchannel(0.3), tol=1e-9)
    trace = res.bracket_trace
    for (lo1, hi1), (lo2, hi2) in zip(trace, trace[1:]):
        assert lo2 >= lo1 and hi2 <= hi1
    truth = z_capacity(0.3)
    for lo, hi in trace:
        assert lo <= truth + 1e-9 and hi >= truth - 1e-9


def test_support_restriction_pins_inputs():
    ch = sc.make_quantized_awgn(4.0, 8)
    res = cap.blahut_arimoto(ch, support=(0, 7), tol=1e-9)
    assert res.input_dist[1:7] == pytest.approx(np.zeros(6), abs=0)
    assert res.capacity > 0.5


def test_single_input_support_conveys_nothing():
    res = cap.blahut_arimoto(sc.make_bsc(0.11), support=(0,))
    assert res.capacity == 0.0


def direct_mutual_information(w, px):
    # sum over x, y of p(x) W(y|x) log2(W(y|x) / p(y)), over cells with mass
    p_y = px @ w
    return sum(px[x] * w[x, y] * math.log2(w[x, y] / p_y[y])
               for x in range(w.shape[0]) for y in range(w.shape[1])
               if px[x] > 0.0 and w[x, y] > 0.0)


def entropy_difference(w, px):
    measures = sc.info_measures(sc.joint_from_channel(px, sc.Channel(w)))
    return measures.h_x - measures.h_x_given_y


def test_entropy_difference_identity_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(100):
        nx, ny = rng.integers(2, 5, 2)
        w = rng.random((nx, ny))
        w /= w.sum(axis=1, keepdims=True)
        px = rng.random(nx)
        px /= px.sum()
        assert abs(direct_mutual_information(w, px) - entropy_difference(w, px)) <= 1e-12


def test_entropy_difference_deterministic_channel():
    w = np.eye(3)
    px = np.array([0.2, 0.5, 0.3])
    h_x = -sum(p * math.log2(p) for p in px)
    assert direct_mutual_information(w, px) == pytest.approx(h_x, abs=1e-12)
    assert entropy_difference(w, px) == pytest.approx(h_x, abs=1e-12)


def test_signaling_sweep_monotone():
    ch = sc.make_quantized_awgn(4.0, 8)
    caps = [r.capacity for r in cap.signaling_sweep(ch, [2, 4, 8])]
    assert caps[0] <= caps[1] <= caps[2]


def test_signaling_sweep_full_alphabet_matches_direct_solve():
    ch = sc.make_bsc(0.11)
    swept = cap.signaling_sweep(ch, [2])[0]
    direct = cap.blahut_arimoto(ch)
    assert swept.capacity == pytest.approx(direct.capacity, abs=2e-9)


def test_signaling_sweep_single_support():
    caps = [r.capacity for r in cap.signaling_sweep(sc.make_bsc(0.11), [1])]
    assert caps == [0.0]


def test_sweep_too_large_without_sampling():
    big = sc.Channel(np.full((20, 20), 0.05))
    with pytest.raises(CapExceededError, match="too large for exhaustive support search"):
        cap.signaling_sweep(big, [2])


def test_invalid_arguments():
    with pytest.raises(ValueError):
        cap.blahut_arimoto(sc.make_bsc(0.1), tol=0.0)
    with pytest.raises(ValueError):
        cap.blahut_arimoto(sc.make_bsc(0.1), support=())
    with pytest.raises(ValueError):
        cap.signaling_sweep(sc.make_bsc(0.1), [3])
    with pytest.raises(ValueError, match="tolerance"):
        cap.signaling_sweep(sc.make_bsc(0.1), [2], tol=0.0)


def _all_supports(nx, max_size=None):
    return [s for k in range(1, (max_size or nx) + 1)
            for s in itertools.combinations(range(nx), k)]


def _random_channel_with_zeros():
    rng = np.random.default_rng(3)
    w = rng.random((5, 4)) * (rng.random((5, 4)) > 0.4)
    w[:, 0] += 0.01  # every row keeps some mass
    return sc.Channel(w / w.sum(axis=1, keepdims=True))


def _channel_with_dead_output():
    # output 2 is unreachable, so p_y vanishes there for every input law
    w = np.array([[0.7, 0.3, 0.0], [0.2, 0.8, 0.0], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
    return sc.Channel(w)


def _channel_with_twin_inputs():
    # inputs 0 and 1 are identical rows, so supports (0, k) and (1, k) tie bit for bit
    w = np.array([[0.6, 0.3, 0.1], [0.6, 0.3, 0.1], [0.1, 0.2, 0.7], [0.3, 0.4, 0.3]])
    return sc.Channel(w)


KERNEL_CHANNELS = [lambda: sc.make_quantized_awgn(4.0, 8), _random_channel_with_zeros,
                   _channel_with_dead_output, _channel_with_twin_inputs]


@functools.lru_cache(maxsize=None)
def _single_solves(which):
    ch = KERNEL_CHANNELS[which]()
    return ch, [cap.blahut_arimoto(ch, support=s) for s in _all_supports(ch.input_size)]


@pytest.mark.parametrize("which", range(len(KERNEL_CHANNELS)))
def test_batched_rows_equal_single_solves(which):
    ch, singles = _single_solves(which)
    batched = cap._solve(ch, _all_supports(ch.input_size), 1e-9)
    assert len(batched) == len(singles)
    for res, single in zip(batched, singles):
        assert res.support == single.support
        assert res.capacity == single.capacity
        assert res.iterations == single.iterations
        assert res.residual == single.residual
        assert np.array_equal(res.input_dist, single.input_dist)


@pytest.mark.parametrize("which", range(len(KERNEL_CHANNELS)))
def test_sweep_winners_equal_single_solves(which):
    ch, singles = _single_solves(which)
    q_values = list(range(1, ch.input_size + 1))
    swept = cap.signaling_sweep(ch, q_values)
    assert len(swept) == len(q_values)
    for qv, res in zip(q_values, swept):
        # scan in (size, lexicographic) order; a strict '>' keeps the first maximum
        best = None
        for single in singles:
            if len(single.support) <= qv and (best is None or single.capacity > best.capacity):
                best = single
        assert res.support == best.support
        assert res.capacity == best.capacity
        assert res.iterations == best.iterations
        assert np.array_equal(res.input_dist, best.input_dist)


def test_sweep_never_iterates_dominated_supports(monkeypatch):
    # the dominated supports need 1,834 iterations; the competing ones converge well before 600
    ch = sc.make_quantized_awgn(4.0, 8)
    full = cap.signaling_sweep(ch, [2, 4, 8])
    monkeypatch.setattr(cap, "_MAX_ITER", 600)
    pruned = cap.signaling_sweep(ch, [2, 4, 8])
    for a, b in zip(full, pruned):
        assert (a.support, a.capacity, a.iterations) == (b.support, b.capacity, b.iterations)
        assert np.array_equal(a.input_dist, b.input_dist)


def test_sweep_solves_once(monkeypatch):
    # the winners are rows of the one batched solve, never re-solved alone
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    solve = cap._solve
    monkeypatch.setattr(cap, "_solve", counted)
    swept = cap.signaling_sweep(sc.make_quantized_awgn(4.0, 8), [2, 4, 8])
    assert len(calls) == 1
    assert all(res.bracket_trace == () for res in swept)


def test_batch_without_convergence_raises(monkeypatch):
    ch = sc.make_quantized_awgn(4.0, 8)
    monkeypatch.setattr(cap, "_MAX_ITER", 5)
    with pytest.raises(RuntimeError, match="no convergence"):
        cap._solve(ch, _all_supports(8, 3), 1e-9)
    with pytest.raises(RuntimeError, match="no convergence"):
        cap.blahut_arimoto(ch, tol=1e-9)
