"""Finite-alphabet memoryless sources and channels.

Single-letter objects with i.i.d. product extension, Shannon quantities
in bits, and the typical-set diagnostics used to sanity-check the coding
experiments.  Outputs of continuous channels enter only through explicit
quantization to a declared number of levels, so every sum here is a
finite sum.

For memoryless sources the spectral entropy rates coincide with the
single-letter entropies; those single-letter values are what this module
exposes (general sources are an extension point, not implemented).

Text format for both channels and joint sources: a first line with the
two alphabet sizes, then the row-major probability table.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .gf_linalg import FieldSpec, GfVector
from .rng import make_rng

_MASS_TOL = 1e-12

INF_ENTROPY = "inf-entropy"          # membership set for (1/n) log 1/mu(x)
COND_SUP_ENTROPY = "cond-sup-entropy"  # membership set for (1/n) log 1/mu(x|y)


def _check_rows_stochastic(mat: np.ndarray, what: str) -> None:
    if np.any(mat < -_MASS_TOL):
        raise ValueError(f"{what} has negative entries")
    rows = mat.sum(axis=1)
    if np.any(np.abs(rows - 1.0) > _MASS_TOL):
        raise ValueError(f"{what} rows must sum to 1 within {_MASS_TOL}")


@dataclass(eq=False)
class Channel:
    """Discrete memoryless channel: transition[x, y] = W(y|x)."""

    transition: np.ndarray
    kind: str = "custom"
    param: Optional[float] = None

    def __post_init__(self):
        mat = np.asarray(self.transition, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
            raise ValueError("transition matrix must be 2-d and non-empty")
        _check_rows_stochastic(mat, "channel transition matrix")
        mat = mat.copy()
        mat.flags.writeable = False
        self.transition = mat

    @property
    def input_size(self) -> int:
        return self.transition.shape[0]

    @property
    def output_size(self) -> int:
        return self.transition.shape[1]

    def sample_outputs(self, x_indices: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One output per input symbol, i.i.d. across positions, in the inputs' shape."""
        cum = np.cumsum(self.transition, axis=1)
        u = rng.random(np.shape(x_indices))
        return (u[..., None] < cum[x_indices]).argmax(axis=-1)


@dataclass(eq=False)
class JointSource:
    """Correlated pair (X, Y) given by the single-letter joint mu_XY."""

    joint: np.ndarray
    kind: str = "custom"
    param: Optional[float] = None

    def __post_init__(self):
        mat = np.asarray(self.joint, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
            raise ValueError("joint table must be 2-d and non-empty")
        if np.any(mat < -_MASS_TOL):
            raise ValueError("joint probabilities must be non-negative")
        if abs(mat.sum() - 1.0) > _MASS_TOL:
            raise ValueError(f"joint mass must be 1 within {_MASS_TOL}")
        mat = mat.copy()
        mat.flags.writeable = False
        self.joint = mat
        self.x_marginal = mat.sum(axis=1)
        self.y_marginal = mat.sum(axis=0)
        # Conditionals with 0/0 -> 0; Bayes identity then holds on every cell.
        with np.errstate(divide="ignore", invalid="ignore"):
            cxy = np.where(self.y_marginal[None, :] > 0.0, mat / self.y_marginal[None, :], 0.0)
            cyx = np.where(self.x_marginal[:, None] > 0.0, mat / self.x_marginal[:, None], 0.0)
        self.cond_x_given_y = cxy
        self.cond_y_given_x = cyx

    @property
    def x_size(self) -> int:
        return self.joint.shape[0]

    @property
    def y_size(self) -> int:
        return self.joint.shape[1]

    def channel_view(self) -> Channel:
        """The conditional Y|X as a channel (requires full-support X)."""
        if np.any(self.x_marginal <= 0.0):
            raise ValueError("X marginal must have full support")
        return Channel(self.cond_y_given_x, kind=self.kind, param=self.param)


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


@dataclass(frozen=True)
class TypicalSetSpec:
    """Membership test parameters for the entropy-spectrum sets."""

    epsilon: float
    n: int
    kind: str = INF_ENTROPY

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.kind not in (INF_ENTROPY, COND_SUP_ENTROPY):
            raise ValueError(f"unknown typical-set kind {self.kind!r}")


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
    if snr <= 0:
        raise ValueError("snr must be positive")
    amps = np.linspace(-1.0, 1.0, levels)
    sigma = math.sqrt(float(np.mean(amps ** 2)) / snr)
    bounds = (amps[:-1] + amps[1:]) / 2.0
    rows = np.zeros((levels, levels))
    for i, a in enumerate(amps):
        cdf = np.array([0.5 * (1.0 + math.erf((b - a) / (sigma * math.sqrt(2.0)))) for b in bounds])
        rows[i] = np.diff(np.concatenate(([0.0], cdf, [1.0])))
    return Channel(rows, kind="quantized-awgn", param=snr)


def joint_from_channel(input_dist: np.ndarray, channel: Channel,
                       kind: str = "induced", param: Optional[float] = None) -> JointSource:
    """Joint mu_XY(x, y) = W(y|x) mu_X(x) induced by an input distribution."""
    px = np.asarray(input_dist, dtype=np.float64)
    if px.ndim != 1 or px.shape[0] != channel.input_size:
        raise ValueError("input distribution does not match the channel input alphabet")
    if np.any(px < -_MASS_TOL) or abs(px.sum() - 1.0) > _MASS_TOL:
        raise ValueError("input distribution must be a probability vector")
    return JointSource(px[:, None] * channel.transition,
                       kind=kind, param=param if param is not None else channel.param)


def info_measures(src: JointSource) -> InfoMeasures:
    """Single-letter entropies in bits (H(X), H(X|Y), H(Y), I(X;Y))."""
    h_x = entropy_bits(src.x_marginal)
    h_y = entropy_bits(src.y_marginal)
    h_xy = entropy_bits(src.joint)
    h_x_given_y = h_xy - h_y
    return InfoMeasures(h_x=h_x, h_x_given_y=h_x_given_y, h_y=h_y,
                        mutual_information=h_x - h_x_given_y)


def sample_pair(src: JointSource, n: int, seed, field: Optional[FieldSpec] = None):
    """n i.i.d. letters from the joint; X is returned as a GfVector.

    The X alphabet is identified with GF(|X|) residues, so |X| must be
    prime unless a compatible ``field`` is supplied.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = make_rng(seed)
    if field is None:
        field = FieldSpec(src.x_size)
    elif field.q != src.x_size:
        raise ValueError("field size does not match the X alphabet")
    flat = rng.choice(src.joint.size, size=n, p=src.joint.ravel())
    xi, yi = np.divmod(flat, src.y_size)
    return GfVector.from_array(field, xi), tuple(int(v) for v in yi)


def _neglog_rate(probs: np.ndarray) -> float:
    """(1/n) sum log2(1/p_i); infinite when any letter has probability 0."""
    if np.any(probs <= 0.0):
        return math.inf
    return float(-np.log2(probs).mean())


def typical_membership(spec: TypicalSetSpec, src: JointSource, x, y=None) -> bool:
    """Evaluate the defining spectrum inequality for x (and y, if conditional)."""
    xi = np.asarray(x.entries if isinstance(x, GfVector) else x, dtype=np.int64)
    if len(xi) != spec.n:
        raise ValueError("x length does not match the typical-set block length")
    measures = info_measures(src)
    if spec.kind == INF_ENTROPY:
        rate = _neglog_rate(src.x_marginal[xi])
        return rate >= measures.h_x - spec.epsilon
    if y is None:
        raise ValueError("conditional membership needs the side-information vector")
    yi = np.asarray(y, dtype=np.int64)
    if len(yi) != spec.n:
        raise ValueError("y length does not match the typical-set block length")
    rate = _neglog_rate(src.cond_x_given_y[xi, yi])
    return rate <= measures.h_x_given_y + spec.epsilon


@dataclass(eq=False)
class SpectrumSamples:
    """Per-block empirical entropy-spectrum values from Monte Carlo sampling."""

    values: np.ndarray
    kind: str
    n: int
    trials: int
    source_kind: str
    source_param: Optional[float]
    seed: int

    def mean(self) -> float:
        return float(self.values.mean())

    def std(self) -> float:
        return float(self.values.std(ddof=1)) if len(self.values) > 1 else 0.0

    def std_err(self) -> float:
        return self.std() / math.sqrt(len(self.values))

    def histogram(self, bins: int = 20):
        return np.histogram(self.values, bins=bins)


def spectrum_histogram(src: JointSource, n: int, trials: int, seed,
                       kind: str = INF_ENTROPY) -> SpectrumSamples:
    """Sample (1/n) log2 1/mu(x) or (1/n) log2 1/mu(x|y) over i.i.d. blocks."""
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be at least 1")
    if kind not in (INF_ENTROPY, COND_SUP_ENTROPY):
        raise ValueError(f"unknown spectrum kind {kind!r}")
    rng = make_rng(seed)
    flat = rng.choice(src.joint.size, size=(trials, n), p=src.joint.ravel())
    xi, yi = np.divmod(flat, src.y_size)
    if kind == INF_ENTROPY:
        probs = src.x_marginal[xi]
    else:
        probs = src.cond_x_given_y[xi, yi]
    with np.errstate(divide="ignore"):
        vals = -np.log2(probs).mean(axis=1)
    return SpectrumSamples(values=vals, kind=kind, n=n, trials=trials,
                           source_kind=src.kind, source_param=src.param,
                           seed=seed if isinstance(seed, int) else -1)


def write_histogram_csv(samples: SpectrumSamples, path, bins: int = 20) -> None:
    counts, edges = samples.histogram(bins=bins)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["# kind", samples.kind, "n", samples.n, "trials", samples.trials,
                         "source", samples.source_kind, "param", samples.source_param,
                         "seed", samples.seed])
        writer.writerow(["bin_left", "bin_right", "count"])
        for i, c in enumerate(counts):
            writer.writerow([repr(float(edges[i])), repr(float(edges[i + 1])), int(c)])


def format_channel(ch: Channel) -> str:
    lines = [f"{ch.input_size} {ch.output_size}"]
    lines += [" ".join(repr(float(v)) for v in row) for row in ch.transition]
    return "\n".join(lines) + "\n"


def parse_channel(text: str) -> Channel:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    nx, ny = (int(t) for t in lines[0].split())
    rows = [[float(t) for t in ln.split()] for ln in lines[1:]]
    mat = np.array(rows)
    if mat.shape != (nx, ny):
        raise ValueError("probability table does not match the declared sizes")
    return Channel(mat)


def format_source(src: JointSource) -> str:
    lines = [f"{src.x_size} {src.y_size}"]
    lines += [" ".join(repr(float(v)) for v in row) for row in src.joint]
    return "\n".join(lines) + "\n"


def parse_source(text: str) -> JointSource:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    nx, ny = (int(t) for t in lines[0].split())
    rows = [[float(t) for t in ln.split()] for ln in lines[1:]]
    mat = np.array(rows)
    if mat.shape != (nx, ny):
        raise ValueError("probability table does not match the declared sizes")
    return JointSource(mat)
