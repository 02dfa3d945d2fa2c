"""Finite-alphabet memoryless sources and channels.

Single-letter objects with i.i.d. product extension and Shannon
quantities in bits.  Outputs of continuous channels enter only through
explicit quantization to a declared number of levels, so every sum here
is a finite sum.

For memoryless sources the spectral entropy rates coincide with the
single-letter entropies; those single-letter values are what this module
exposes (general sources are an extension point, not implemented).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .rng import cdf_rows, checked_law, search_cdf


@dataclass(frozen=True, eq=False)
class Channel:
    """Discrete memoryless channel: transition[x, y] = W(y|x).

    Frozen: the checked table and the CDF rows of its draws, computed once
    from it, are read-only arrays and cannot go stale.
    """

    transition: np.ndarray
    kind: str = "custom"
    param: Optional[float] = None

    def __post_init__(self):
        law = checked_law(self.transition, "channel transition matrix", rows=True)
        for name, value in (("transition", law), ("_cdf", cdf_rows(law))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def input_size(self) -> int:
        return self.transition.shape[0]

    @property
    def output_size(self) -> int:
        return self.transition.shape[1]

    def sample_outputs(self, x_indices: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One i.i.d. output per input symbol, in the inputs' shape, by ``rng.inverse_cdf``.

        The uniforms are drawn in the inputs' shape; the outputs of each
        input letter are then searched together in that letter's held CDF row.
        """
        x = np.asarray(x_indices)
        u = rng.random(x.shape)
        out = np.empty(x.shape, dtype=np.int64)
        drawn = 0
        for a in range(self.input_size):
            at = x == a
            out[at] = search_cdf(self._cdf[a:a + 1], u[at])
            drawn += np.count_nonzero(at)
        if drawn != x.size:
            raise ValueError(f"channel inputs must be symbols in [0, {self.input_size})")
        return out


@dataclass(frozen=True, eq=False)
class JointSource:
    """Correlated pair (X, Y) given by the single-letter joint mu_XY.

    Frozen: the marginals and the conditional are derived once from the
    checked joint as read-only arrays, so a codec's exact and Monte Carlo
    paths read one law.
    """

    joint: np.ndarray
    kind: str = "custom"
    param: Optional[float] = None

    def __post_init__(self):
        mat = checked_law(self.joint, "joint table")
        y_marginal = mat.sum(axis=0)
        # Conditional with 0/0 -> 0; Bayes identity then holds on every cell.
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(y_marginal[None, :] > 0.0, mat / y_marginal[None, :], 0.0)
        for name, value in (("joint", mat), ("x_marginal", mat.sum(axis=1)),
                            ("y_marginal", y_marginal), ("cond_x_given_y", cond)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def x_size(self) -> int:
        return self.joint.shape[0]

    @property
    def y_size(self) -> int:
        return self.joint.shape[1]


@dataclass(frozen=True)
class InfoMeasures:
    h_x: float
    h_x_given_y: float
    h_y: float
    mutual_information: float

    def converse_warnings(self, r: float) -> List[str]:
        """The advisory warning for a syndrome rate r <= H(X|Y), if any.

        Below H(X|Y) the decoding error is not expected to decay in n; such
        converse-regime runs are legitimate, so this is a warning only.
        """
        if r > self.h_x_given_y:
            return []
        return [f"r = {r:.4f} <= H(X|Y) = {self.h_x_given_y:.4f}: "
                "converse regime, decay not expected"]

    def rate_sum_warnings(self, r: float, big_r: float) -> List[str]:
        """The advisory warning for a rate sum r + R >= H(X), if any."""
        if r + big_r < self.h_x:
            return []
        return [f"r + R = {r + big_r:.4f} >= H(X) = {self.h_x:.4f}: "
                "rate condition violated"]


def entropy_bits(p: np.ndarray) -> float:
    """Shannon entropy in bits; 0 log 0 taken as 0."""
    p = np.asarray(p, dtype=np.float64).ravel()
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def make_bsc(p: float) -> Channel:
    if not 0.0 <= p <= 1.0:
        raise ValueError("crossover probability must lie in [0, 1]")
    return Channel(np.array([[1.0 - p, p], [p, 1.0 - p]]), kind="bsc", param=p)


def make_zchannel(p: float) -> Channel:
    """Z-channel: 0 passes clean, 1 flips to 0 with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("crossover probability must lie in [0, 1]")
    return Channel(np.array([[1.0, 0.0], [p, 1.0 - p]]), kind="zchannel", param=p)


def make_dsbs(p: float) -> JointSource:
    """Doubly symmetric binary source: X uniform, Y = X xor Bernoulli(p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("flip probability must lie in [0, 1]")
    j = np.array([[0.5 * (1.0 - p), 0.5 * p], [0.5 * p, 0.5 * (1.0 - p)]])
    return JointSource(j, kind="dsbs", param=p)


def make_quantized_awgn(snr: float, levels: int) -> Channel:
    """Uniform amplitude grid on [-1, 1] with nearest-level output quantization.

    ``snr`` is the linear ratio of mean input power (under a uniform
    input) to noise power; the Gaussian output is quantized to the
    nearest of the same ``levels`` amplitudes, so Y is finite by
    construction.
    """
    if levels < 2:
        raise ValueError("need at least 2 amplitude levels")
    if not 0 < snr < math.inf:  # NaN too
        raise ValueError("snr must be positive and finite")
    amps = np.linspace(-1.0, 1.0, levels)
    sigma = math.sqrt(float(np.mean(amps ** 2)) / snr)
    bounds = (amps[:-1] + amps[1:]) / 2.0
    rows = np.zeros((levels, levels))
    for i, a in enumerate(amps):
        cdf = np.array([0.5 * (1.0 + math.erf((b - a) / (sigma * math.sqrt(2.0)))) for b in bounds])
        rows[i] = np.diff(np.concatenate(([0.0], cdf, [1.0])))
    return Channel(rows, kind="quantized-awgn", param=snr)


def joint_from_channel(input_dist: np.ndarray, channel: Channel) -> JointSource:
    """Joint mu_XY(x, y) = W(y|x) mu_X(x) induced by an input distribution."""
    px = checked_law(input_dist, "input distribution", ndim=1)
    if px.shape[0] != channel.input_size:
        raise ValueError("input distribution does not match the channel input alphabet")
    return JointSource(px[:, None] * channel.transition, kind="induced", param=channel.param)


def info_measures(src: JointSource) -> InfoMeasures:
    """Single-letter entropies in bits (H(X), H(X|Y), H(Y), I(X;Y))."""
    h_x = entropy_bits(src.x_marginal)
    h_y = entropy_bits(src.y_marginal)
    h_xy = entropy_bits(src.joint)
    h_x_given_y = h_xy - h_y
    return InfoMeasures(h_x=h_x, h_x_given_y=h_x_given_y, h_y=h_y,
                        mutual_information=h_x - h_x_given_y)
