import ast
import dataclasses
import math
import pathlib

import numpy as np
import pytest

from cosetlab import capacity as cap
from cosetlab import decision_theory as dt
from cosetlab import sources_channels as sc


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


def _inline_sample_outputs(channel, x_indices, rng):
    """The former inline rule: gather the channel's CDF rows, count the entries <= u."""
    w = channel.transition
    cdf = np.cumsum(w / w.sum(axis=1, keepdims=True), axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random(np.shape(x_indices))
    return np.count_nonzero(cdf[x_indices] <= u[..., None], axis=-1)


@pytest.mark.parametrize("channel", [sc.make_bsc(0.11), sc.make_zchannel(0.3),
                                     sc.make_quantized_awgn(4.0, 5),
                                     sc.make_quantized_awgn(2.0, 8)],
                         ids=["bsc", "zchannel", "awgn5", "awgn8"])
@pytest.mark.parametrize("shape", [(16,), (1,), (250, 16), (1, 10), (125, 10), (3, 4, 5)])
def test_sample_outputs_draws_the_inline_rule(channel, shape):
    # the draw rule on the gathered rows draws what the gathered CDF rows drew, bit for bit
    for seed in range(5):
        x = np.random.default_rng(seed).integers(0, channel.input_size, shape)
        got = channel.sample_outputs(x, np.random.default_rng(seed + 100))
        assert got.shape == shape
        assert np.array_equal(got, _inline_sample_outputs(channel, x,
                                                           np.random.default_rng(seed + 100)))


class FixedUniform:
    """Stub generator whose every uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        return np.full(shape, self.u)


def test_sample_outputs_top_uniform_reaches_the_last_output():
    # the rounded row sum of ten 0.1s ends below the largest uniform
    ch = sc.Channel(np.full((1, 10), 0.1))
    u = np.nextafter(1.0, 0.0)
    assert ch.sample_outputs(np.zeros(3, dtype=np.int64), FixedUniform(u)).tolist() == [9] * 3


def test_sample_outputs_never_draws_a_zero_probability_output():
    # the row sums to 1 - 1e-13, within the row tolerance
    ch = sc.Channel(np.array([[0.0, 0.3, 0.7 - 1e-13]]))
    x = np.zeros(2, dtype=np.int64)
    for u in (0.0, 0.3, 1.0 - 5e-14, np.nextafter(1.0, 0.0)):
        assert 0 not in ch.sample_outputs(x, FixedUniform(u)).tolist()


@pytest.mark.parametrize("x", [np.array([0, 2]), np.array([-1, 0]), np.array([0.5, 1.0])],
                         ids=["high", "negative", "fraction"])
def test_sample_outputs_refuses_inputs_outside_the_alphabet(x):
    # each input letter draws from its own row, so every input must be a letter
    with pytest.raises(ValueError, match="symbols in"):
        sc.make_bsc(0.1).sample_outputs(x, np.random.default_rng(0))


def test_sample_outputs_reads_the_held_cdf_rows(monkeypatch):
    # a channel computes its CDF rows once, when it is built; a draw only searches them
    ch = sc.make_quantized_awgn(4.0, 5)
    x = np.random.default_rng(0).integers(0, 5, (30, 10))
    expected = ch.sample_outputs(x, np.random.default_rng(1))

    def recompute(*args):
        raise AssertionError("CDF rows recomputed")

    monkeypatch.setattr(sc, "cdf_rows", recompute)
    assert np.array_equal(ch.sample_outputs(x, np.random.default_rng(1)), expected)


def test_every_checked_dataclass_is_frozen():
    # a dataclass that checks or derives in __post_init__ must be frozen, so no
    # field can be reassigned past its check or leave derived state stale
    src = pathlib.Path(sc.__file__).resolve().parent
    loose = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef) or not any(
                    isinstance(f, ast.FunctionDef) and f.name == "__post_init__"
                    for f in node.body):
                continue
            frozen = [kw for d in node.decorator_list if isinstance(d, ast.Call)
                      and getattr(d.func, "id", None) == "dataclass" for kw in d.keywords
                      if kw.arg == "frozen" and getattr(kw.value, "value", None) is True]
            if not frozen:
                loose.append(f"{path.name}:{node.name}")
    assert loose == []


@pytest.mark.parametrize("make, name, value", [
    pytest.param(lambda: sc.make_bsc(0.1), "transition", [[0.5, 0.5], [0.5, 0.5]],
                 id="Channel"),
    pytest.param(lambda: sc.make_dsbs(0.11), "joint", [[0.5, 0.0], [0.3, 0.2]],
                 id="JointSource"),
    pytest.param(lambda: dt.DecisionProblem(np.full((2, 2), 0.25)), "joint",
                 [[0.5, 0.0], [0.0, 0.5]], id="DecisionProblem"),
    pytest.param(lambda: dt.DecisionRule(np.eye(2)), "table", [[2.0, -1.0], [2.0, -1.0]],
                 id="DecisionRule"),
    pytest.param(lambda: cap.blahut_arimoto(sc.make_bsc(0.1)), "capacity", -1.0,
                 id="CapacityResult"),
])
def test_checked_values_cannot_be_reassigned(make, name, value):
    obj = make()
    before = getattr(obj, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, name, value)
    assert getattr(obj, name) is before


@pytest.mark.parametrize("make, name", [
    pytest.param(lambda: sc.make_dsbs(0.11), name, id=f"JointSource.{name}")
    for name in ("x_marginal", "y_marginal", "cond_x_given_y")] + [
    pytest.param(lambda: dt.DecisionProblem(np.full((2, 2), 0.25)), name,
                 id=f"DecisionProblem.{name}") for name in ("p_v", "posterior")] + [
    pytest.param(lambda: cap.blahut_arimoto(sc.make_bsc(0.1)), "input_dist",
                 id="CapacityResult.input_dist"),
    pytest.param(lambda: sc.make_bsc(0.1), "_cdf", id="Channel._cdf"),
])
def test_derived_arrays_are_read_only(make, name):
    # a derived array is written once, from the checked table, and never again
    arr = getattr(make(), name)
    before = arr.copy()
    with pytest.raises(ValueError, match="read-only"):
        arr[(0,) * arr.ndim] = 1.0
    assert np.array_equal(arr, before)


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
    assert (src.kind, src.param) == ("induced", 0.11)
