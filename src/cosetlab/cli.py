"""Reproducible experiment driver.

Configs are flat ``key = value`` text files ('#' starts a comment); the
keys each experiment takes are listed in the README, and a key that is
unknown to the experiment or set twice is a validation error.  Identical
config and seed produce byte-identical CSV result rows; the only
non-deterministic output line is the timestamp comment at the top of the
file.  Every row carries the seed and parameters needed to reproduce it
in isolation.

Exit status: 0 on success, 1 on a validation error (the offending field
is named), 2 when a runtime enumeration cap is exceeded.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import math
import sys
from typing import FrozenSet, List, Optional

import numpy as np

from . import capacity as cap_mod
from . import channel_codec, crng_sampler, decision_theory, ensembles, sw_codec
from .errors import CapExceededError, ConfigError
from .gf_linalg import FieldSpec, GfVector, matvec
from .rng import derived_seed, make_rng
from .sources_channels import (Channel, JointSource, info_measures, joint_from_channel,
                               make_bsc, make_dsbs, make_quantized_awgn, make_zchannel)

DECODERS = (sw_codec.MAP_EXACT, sw_codec.STOCHASTIC)


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def parse_config(path: str) -> dict:
    cfg = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in cfg:
                raise ConfigError(key, f"set a second time on line {lineno}, to {value!r}")
            cfg[key] = value
    return cfg


_REQUIRED = object()


def _get(cfg: dict, key: str, conv, default=_REQUIRED):
    """``conv(cfg[key])``, or ``default`` when the key is absent.

    Without a default the key is required.  A ValueError from ``conv`` is
    reported as a bad value of ``key``, with the raw text.
    """
    if key not in cfg:
        if default is _REQUIRED:
            raise ConfigError(key, "required key is missing")
        return default
    raw = cfg[key]
    try:
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(key, f"bad value {raw!r}: {exc}") from exc


def _checked(conv, ok, rule: str):
    """``conv``, then a ValueError stating ``rule`` unless ``ok(value)``."""
    def check(raw: str):
        value = conv(raw)
        if not ok(value):
            raise ValueError(rule)
        return value
    return check


def _list_of(conv):
    """A comma-separated list of at least one ``conv`` entry."""
    def parse(raw: str) -> list:
        values = [conv(tok.strip()) for tok in raw.split(",") if tok.strip()]
        if not values:
            raise ValueError("lists no values")
        return values
    return parse


def _one_of(*choices: str):
    return _checked(str, lambda raw: raw in choices, f"must be one of {sorted(choices)}")


_finite = _checked(float, math.isfinite, "must be a finite number")
_count = _checked(int, lambda v: v >= 1, "must be at least 1")
_rates = _list_of(_checked(_finite, lambda r: r >= 0, "entries must be non-negative"))


def _named(key: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a ValueError from it reported as a bad ``key`` value."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from exc


# the keys that only some channels or ensemble kinds read, by variant
_CHANNELS = {"bsc": ("p",), "zchannel": ("p",), "quantized-awgn": ("snr", "levels")}
_ENSEMBLES = {"uniform-linear": (), "systematic-sparse": ("row_weight",),
              "expurgated-uniform": ()}


def _refuse_unread(cfg: dict, selector: str, kind: str, variants: dict) -> None:
    """A ConfigError naming a key that only variants other than ``kind`` read."""
    for key in sorted(set().union(*variants.values()) - set(variants[kind])):
        if key in cfg:
            raise ConfigError(key, f"not read when {selector} = {kind}")


def _make_channel(cfg: dict) -> Channel:
    kind = _get(cfg, "channel", _one_of(*_CHANNELS))
    _refuse_unread(cfg, "channel", kind, _CHANNELS)
    if kind != "quantized-awgn":
        build = make_bsc if kind == "bsc" else make_zchannel
        return _named("p", build, _get(cfg, "p", _finite))
    snr, levels = _get(cfg, "snr", _finite), _get(cfg, "levels", int)
    # make_quantized_awgn checks the level count before the snr
    return _named("levels" if levels < 2 else "snr", make_quantized_awgn, snr, levels)


def _make_source(cfg: dict) -> JointSource:
    _get(cfg, "source", _one_of("dsbs"), "dsbs")  # the one joint source a config can name
    return _named("p", make_dsbs, _get(cfg, "p", _finite))


def _make_ensemble(cfg: dict, field: FieldSpec, l: int, n: int) -> ensembles.EnsembleSpec:
    kind = _get(cfg, "ensemble", _one_of(*_ENSEMBLES), "uniform-linear")
    _refuse_unread(cfg, "ensemble", kind, _ENSEMBLES)
    if kind == "systematic-sparse":
        row_weight = _get(cfg, "row_weight", int)
        # the spec checks its shape before its row weight
        return _named("l" if not 1 <= l < n else "row_weight",
                      ensembles.sparse_ensemble, field, l, n, row_weight)
    uniform = _named("l", ensembles.uniform_ensemble, field, l, n)
    if kind == "uniform-linear":
        return uniform
    return _named("gamma", ensembles.expurgate, uniform, _get(cfg, "gamma", _finite))


# ---------------------------------------------------------------------------
# advisory validation (warnings only; hard errors raise ConfigError)
# ---------------------------------------------------------------------------

def _realized_rate(n: int, rate: float, q: int) -> float:
    """l/n log2 q for the l = rows_for_rate(n, rate, q) syndrome rows a run builds."""
    return sw_codec.rows_for_rate(n, rate, q) / n * math.log2(q)


def validate(experiment: str, cfg: dict) -> List[str]:
    """Rate-condition warnings at the realized rates of the maps the run
    builds, one per distinct message in order; the run is still permitted
    (converse regimes are legitimate experiments)."""
    warnings: List[str] = []
    if experiment == "sw":
        source = _make_source(cfg)
        measures = info_measures(source)
        ns = _get(cfg, "ns", _list_of(_count))
        for r in _get(cfg, "rates", _rates):
            for n in ns:
                warnings += measures.converse_warnings(_realized_rate(n, r, source.x_size))
    elif experiment == "channel":
        channel = _make_channel(cfg)
        q, n = channel.input_size, _get(cfg, "n", _count)
        measures = info_measures(joint_from_channel(np.full(q, 1.0 / q), channel))
        r = _realized_rate(n, _get(cfg, "r", _finite), q)
        warnings += measures.converse_warnings(r)
        warnings += measures.rate_sum_warnings(r, _realized_rate(n, _get(cfg, "R", _finite), q))
    return list(dict.fromkeys(warnings))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _run_capacity(cfg: dict, seed: int) -> List[dict]:
    channel = _make_channel(cfg)
    tol = _get(cfg, "tol", _checked(_finite, lambda t: t > 0, "must be positive"), 1e-9)
    if "q_values" in cfg:
        bound = channel.input_size
        q_values = _get(cfg, "q_values", _list_of(_checked(
            int, lambda qv: 1 <= qv <= bound, f"bounds must lie in [1, {bound}]")))
        sweep = cap_mod.signaling_sweep(channel, q_values, tol=tol)
        labelled = [(f"|S|<={qv}:", res) for qv, res in zip(q_values, sweep)]
    else:
        labelled = [("", cap_mod.blahut_arimoto(channel, tol=tol))]
    return [{"channel": channel.kind, "params": repr(channel.param),
             "support": label + "+".join(map(str, res.support)),
             "capacity": res.capacity, "iterations": res.iterations, "tol": tol}
            for label, res in labelled]


def _run_hash_verify(cfg: dict, seed: int) -> List[dict]:
    field = _named("q", FieldSpec, _get(cfg, "q", int, 2))
    l, n = _get(cfg, "l", int), _get(cfg, "n", _count)
    # every params path checks gamma; 'certified' only labels its row with it
    gamma = _get(cfg, "gamma", _checked(_finite, lambda g: 0.0 <= g < 1.0, "must lie in [0, 1)"),
                 0.0)
    pairs = _get(cfg, "pairs", _count, 20)
    spec = _make_ensemble(cfg, field, l, n)
    # the type-spectrum pair assumes type-invariant collision probabilities;
    # 'certified' computes the direct pairwise-collision pair instead, which
    # is the valid choice for the systematic-sparse kind
    source = _get(cfg, "params", _one_of("spectrum", "certified"), "spectrum")
    # the certifier's table is built first, so its caps refuse before the params
    # step and the pair draws; the params step and the certifier share it
    spec._table
    # an expurgated spec's gamma is the config's, which compute_hash_params accepts
    if source == "certified":
        params = ensembles.certified_collision_params(spec)
    else:
        params = _named("gamma", ensembles.compute_hash_params, spec, gamma=gamma)
    report = ensembles.certify_hash_property(
        spec, params,
        partition_pairs=ensembles.random_partition_pairs(field, n, pairs, seed),
        collision_pairs=ensembles.random_collision_pairs(field, n, pairs, seed + 1),
        gamma=gamma)
    return [report.csv_row()]


def _run_sw(cfg: dict, seed: int) -> List[dict]:
    return sw_codec.rate_sweep(
        _make_source(cfg),
        rates=_get(cfg, "rates", _rates),
        ns=_get(cfg, "ns", _list_of(_count)),
        trials=_get(cfg, "trials", _count, 10000),
        seed=seed,
        decoder=_get(cfg, "decoder", _one_of(*DECODERS), sw_codec.MAP_EXACT),
        matrices_per_point=_get(cfg, "matrices", _count, 1))


def _run_channel(cfg: dict, seed: int) -> List[dict]:
    channel = _make_channel(cfg)
    n = _get(cfg, "n", _count)
    field = _named("levels", FieldSpec, channel.input_size)
    l_a = sw_codec.rows_for_rate(n, _get(cfg, "r", _finite), field.q)
    l_b = sw_codec.rows_for_rate(n, _get(cfg, "R", _finite), field.q)
    if l_a == 0 or l_b == 0:
        raise ConfigError("r" if l_a == 0 else "R", "target rate rounds to an empty map")
    px = np.full(field.q, 1.0 / field.q)
    source = joint_from_channel(px, channel)
    a = ensembles.sample_map(ensembles.uniform_ensemble(field, l_a, n), derived_seed(seed, 99))
    decoder = _get(cfg, "decoder", _one_of(*DECODERS), sw_codec.MAP_EXACT)
    sw = sw_codec.SwCodec(a, source, decoder=decoder)
    result = channel_codec.search_code(
        sw, ensembles.uniform_ensemble(field, l_b, n), channel,
        candidates=_get(cfg, "candidates", _count, 8),
        trials=_get(cfg, "trials", _count, 2000),
        seed=seed)
    return result.rows()


def _run_decision(cfg: dict, seed: int) -> List[dict]:
    count = _get(cfg, "problems", _count, 1000)
    max_u = _get(cfg, "max_u", _count, 4)
    max_v = _get(cfg, "max_v", _count, 4)
    rows = []
    for prob in decision_theory.random_problems(count, seed, max_u, max_v):
        rep = decision_theory.verify_factor2(prob)
        rows.append({"seed": seed, "|U|": prob.u_size, "|V|": prob.v_size,
                     "err_map": rep.err_map, "err_posterior": rep.err_posterior,
                     "ratio": rep.ratio})
    return rows


def _run_crng_test(cfg: dict, seed: int) -> List[dict]:
    binary = _checked(int, lambda q: q == 2, "bernoulli weights are binary only")
    field = FieldSpec(_get(cfg, "q", binary, 2))
    n, l = _get(cfg, "n", _count), _get(cfg, "l", int)
    # a degenerate law can leave the coset of a uniform x massless
    p1 = _get(cfg, "bernoulli", _checked(_finite, lambda p: 0.0 < p < 1.0, "must lie in (0, 1)"),
              0.5)
    weights = np.array([1.0 - p1, p1])
    a = ensembles.sample_map(_named("l", ensembles.uniform_ensemble, field, l, n),
                             derived_seed(seed, 7))
    rng = make_rng(derived_seed(seed, 8))
    x = GfVector.from_array(field, rng.integers(0, field.q, size=n))
    c = matvec(a, x)
    constraints = crng_sampler.ConstraintSet(((a, c),))
    rows = []
    for mode, draws, path in ((crng_sampler.EXACT, _get(cfg, "draws", _count, 100000), 9),
                              (crng_sampler.MCMC, _get(cfg, "mcmc_draws", _count, 10000), 10)):
        dist = crng_sampler.ConstrainedDistribution(weights, constraints, mode=mode)
        rows.append({"mode": mode, "q": field.q, "n": n, "l": l,
                     "coset_size": constraints.coset_size, "draws": draws,
                     "tv": crng_sampler.tv_distance_check(dist, draws, derived_seed(seed, path)),
                     "seed": seed})
    return rows


def _keys(*keys: str) -> FrozenSet[str]:
    return frozenset(keys + ("seed",))


_CHANNEL_KEYS = ("channel", "p", "snr", "levels")

# each experiment's runner and every config key that it or validate reads
TABLE = {
    "capacity": (_run_capacity, _keys(*_CHANNEL_KEYS, "tol", "q_values")),
    "hash-verify": (_run_hash_verify, _keys("ensemble", "q", "l", "n", "gamma", "row_weight",
                                            "params", "pairs")),
    "sw": (_run_sw, _keys("source", "p", "rates", "ns", "trials", "decoder", "matrices")),
    "channel": (_run_channel, _keys(*_CHANNEL_KEYS, "n", "r", "R", "candidates", "trials",
                                    "decoder")),
    "decision": (_run_decision, _keys("problems", "max_u", "max_v")),
    "crng-test": (_run_crng_test, _keys("q", "n", "l", "bernoulli", "draws", "mcmc_draws")),
}
EXPERIMENTS = tuple(TABLE)


def run(experiment: str, cfg: dict, seed: Optional[int] = None,
        out: Optional[str] = None) -> str:
    """Execute one experiment and write its CSV; returns the output path."""
    if experiment not in TABLE:
        raise ConfigError("experiment", f"unknown experiment {experiment!r}")
    runner, keys = TABLE[experiment]
    for key in cfg:
        if key not in keys:
            raise ConfigError(key, f"not a {experiment} key; it takes {sorted(keys)}")
    master = seed if seed is not None else _get(cfg, "seed", int, 0)
    if master < 0:
        raise ConfigError("seed", f"must be non-negative, got {master}")
    for warning in validate(experiment, cfg):
        print(f"warning: {warning}", file=sys.stderr)
    rows = runner(cfg, master)
    path = out or f"{experiment}.csv"
    # every runner checks its counts, so there is a first row, and its keys
    # are the header
    write_csv(path, list(rows[0]), rows)
    return path


def write_csv(path: str, header: List[str], rows: List[dict]) -> None:
    with open(path, "w", newline="") as fh:
        # timestamp lives in a comment row, outside the determinism contract
        fh.write(f"# generated {datetime.datetime.now().isoformat()}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(row.get(col, "")) for col in header])


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # np.float64 is a float whose repr names its type
    return str(value)


def result_rows(path: str) -> List[str]:
    """Non-comment lines of a result file (the deterministic part)."""
    with open(path) as fh:
        return [ln for ln in fh.read().splitlines() if not ln.startswith("#")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cosetlab",
        description="coset-code laboratory experiment driver")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="flat key = value config file")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides the config's seed key)")
        p.add_argument("--out", default=None, help="output CSV path")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        path = run(args.experiment, cfg, seed=args.seed, out=args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
