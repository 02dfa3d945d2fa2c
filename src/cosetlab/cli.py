"""Reproducible experiment driver.

Configs are flat ``key = value`` text files ('#' starts a comment); the
documented keys per experiment are listed in the README.  Identical
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
from typing import List, Optional

import numpy as np

from . import capacity as cap_mod
from . import channel_codec, crng_sampler, decision_theory, ensembles, sw_codec
from .errors import CapExceededError, ConfigError
from .gf_linalg import FieldSpec, GfVector, matvec
from .rng import derived_seed, make_rng
from .sources_channels import (Channel, JointSource, info_measures, joint_from_channel,
                               make_bsc, make_dsbs, make_quantized_awgn, make_zchannel)

EXPERIMENTS = ("capacity", "hash-verify", "sw", "channel", "decision", "crng-test")
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
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


def _req(cfg: dict, key: str) -> str:
    if key not in cfg:
        raise ConfigError(key, "required key is missing")
    return cfg[key]


def _get_int(cfg: dict, key: str, default: Optional[int] = None) -> int:
    raw = cfg.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(key, "required key is missing")
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(key, f"not an integer: {raw!r}") from exc


def _get_count(cfg: dict, key: str, default: Optional[int] = None) -> int:
    """A positive integer; below 1, what it feeds raises an unnamed ValueError or runs nothing."""
    value = _get_int(cfg, key, default)
    if value < 1:
        raise ConfigError(key, f"must be at least 1, got {value}")
    return value


def _get_float(cfg: dict, key: str, default: Optional[float] = None) -> float:
    raw = cfg.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(key, "required key is missing")
        return default
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(key, f"not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(key, f"must be a finite number, got {raw!r}")
    return value


def _get_list(cfg: dict, key: str, conv=float) -> list:
    raw = _req(cfg, key)
    try:
        values = [conv(tok.strip()) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(key, f"not a comma-separated list: {raw!r}") from exc
    if not values:
        raise ConfigError(key, f"lists no values: {raw!r}")
    if conv is float and not all(map(math.isfinite, values)):
        raise ConfigError(key, f"entries must be finite numbers, got {raw!r}")
    return values


def _get_rates(cfg: dict) -> List[float]:
    rates = _get_list(cfg, "rates")
    if not all(r >= 0 for r in rates):
        raise ConfigError("rates", f"entries must be non-negative, got {rates}")
    return rates


def _get_ns(cfg: dict) -> List[int]:
    ns = _get_list(cfg, "ns", conv=int)
    if not all(n >= 1 for n in ns):
        raise ConfigError("ns", f"block lengths must be at least 1, got {ns}")
    return ns


def _get_choice(cfg: dict, key: str, choices, default: Optional[str] = None) -> str:
    raw = cfg.get(key, default)
    if raw is None:
        raise ConfigError(key, "required key is missing")
    if raw not in choices:
        raise ConfigError(key, f"must be one of {sorted(choices)}, got {raw!r}")
    return raw


def _named(key: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a ValueError from it reported as a bad ``key`` value."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from exc


def _make_channel(cfg: dict) -> Channel:
    kind = _get_choice(cfg, "channel", {"bsc", "zchannel", "quantized-awgn"})
    if kind == "bsc":
        return _named("p", make_bsc, _get_float(cfg, "p"))
    if kind == "zchannel":
        return _named("p", make_zchannel, _get_float(cfg, "p"))
    snr, levels = _get_float(cfg, "snr"), _get_int(cfg, "levels")
    # make_quantized_awgn checks the level count before the snr
    return _named("levels" if levels < 2 else "snr", make_quantized_awgn, snr, levels)


def _make_source(cfg: dict) -> JointSource:
    return _named("p", make_dsbs, _get_float(cfg, "p"))


def _make_ensemble(cfg: dict, field: FieldSpec, l: int, n: int) -> ensembles.EnsembleSpec:
    kind = _get_choice(cfg, "ensemble",
                       {"uniform-linear", "systematic-sparse", "expurgated-uniform"},
                       default="uniform-linear")
    if kind == "systematic-sparse":
        row_weight = _get_int(cfg, "row_weight")
        # the spec checks its shape before its row weight
        return _named("l" if not 1 <= l < n else "row_weight",
                      ensembles.sparse_ensemble, field, l, n, row_weight)
    uniform = _named("l", ensembles.uniform_ensemble, field, l, n)
    if kind == "uniform-linear":
        return uniform
    return _named("gamma", ensembles.expurgate, uniform, _get_float(cfg, "gamma"))


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
        ns = _get_ns(cfg)
        for r in _get_rates(cfg):
            for n in ns:
                warnings += measures.converse_warnings(_realized_rate(n, r, source.x_size))
    elif experiment == "channel":
        channel = _make_channel(cfg)
        q, n = channel.input_size, _get_count(cfg, "n")
        measures = info_measures(joint_from_channel(np.full(q, 1.0 / q), channel))
        r = _realized_rate(n, _get_float(cfg, "r"), q)
        warnings += measures.converse_warnings(r)
        warnings += measures.rate_sum_warnings(r, _realized_rate(n, _get_float(cfg, "R"), q))
    return list(dict.fromkeys(warnings))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _run_capacity(cfg: dict, seed: int) -> List[dict]:
    channel = _make_channel(cfg)
    tol = _get_float(cfg, "tol", 1e-9)
    if not tol > 0:
        raise ConfigError("tol", f"must be positive, got {tol!r}")
    if "q_values" in cfg:
        q_values = _get_list(cfg, "q_values", conv=int)
        if not all(1 <= qv <= channel.input_size for qv in q_values):
            raise ConfigError("q_values", f"bounds must lie in [1, {channel.input_size}]")
        sweep = cap_mod.signaling_sweep(channel, q_values, tol=tol)
        labelled = [(f"|S|<={qv}:", res) for qv, res in zip(q_values, sweep)]
    else:
        labelled = [("", cap_mod.blahut_arimoto(channel, tol=tol))]
    return [{"channel": channel.kind, "params": repr(channel.param),
             "support": label + "+".join(map(str, res.support)),
             "capacity": res.capacity, "iterations": res.iterations, "tol": tol}
            for label, res in labelled]


def _run_hash_verify(cfg: dict, seed: int) -> List[dict]:
    field = _named("q", FieldSpec, _get_int(cfg, "q", 2))
    l, n = _get_int(cfg, "l"), _get_count(cfg, "n")
    gamma = _get_float(cfg, "gamma", 0.0)
    if not 0.0 <= gamma < 1.0:  # every params path; 'certified' only labels its row with it
        raise ConfigError("gamma", f"must lie in [0, 1), got {gamma}")
    pairs = _get_count(cfg, "pairs", 20)
    spec = _make_ensemble(cfg, field, l, n)
    # the type-spectrum pair assumes type-invariant collision probabilities;
    # 'certified' computes the direct pairwise-collision pair instead, which
    # is the valid choice for the systematic-sparse kind
    source = _get_choice(cfg, "params", {"spectrum", "certified"}, default="spectrum")
    if source == "certified":
        params = ensembles.certified_collision_params(spec)
    elif spec.kind == ensembles.EXPURGATED:
        params = ensembles.compute_hash_params(spec)
    else:
        params = _named("gamma", ensembles.compute_hash_params, spec, gamma=gamma)
    report = ensembles.certify_hash_property(
        spec, params,
        partition_pairs=ensembles.random_partition_pairs(field, n, pairs, seed),
        collision_pairs=ensembles.random_collision_pairs(field, n, pairs, seed + 1),
        gamma=spec.gamma if spec.kind == ensembles.EXPURGATED else gamma)
    return [report.csv_row()]


def _run_sw(cfg: dict, seed: int) -> List[dict]:
    return sw_codec.rate_sweep(
        _make_source(cfg),
        rates=_get_rates(cfg),
        ns=_get_ns(cfg),
        trials=_get_count(cfg, "trials", 10000),
        seed=seed,
        decoder=_get_choice(cfg, "decoder", DECODERS, default=sw_codec.MAP_EXACT),
        matrices_per_point=_get_count(cfg, "matrices", 1))


def _run_channel(cfg: dict, seed: int) -> List[dict]:
    channel = _make_channel(cfg)
    n = _get_count(cfg, "n")
    field = _named("levels", FieldSpec, channel.input_size)
    l_a = sw_codec.rows_for_rate(n, _get_float(cfg, "r"), field.q)
    l_b = sw_codec.rows_for_rate(n, _get_float(cfg, "R"), field.q)
    if l_a == 0 or l_b == 0:
        raise ConfigError("r" if l_a == 0 else "R", "target rate rounds to an empty map")
    px = np.full(field.q, 1.0 / field.q)
    source = joint_from_channel(px, channel)
    a = ensembles.sample_map(ensembles.uniform_ensemble(field, l_a, n), derived_seed(seed, 99))
    decoder = _get_choice(cfg, "decoder", DECODERS, default=sw_codec.MAP_EXACT)
    sw = sw_codec.SwCodec(a, source, decoder=decoder)
    result = channel_codec.search_code(
        sw, ensembles.uniform_ensemble(field, l_b, n), channel,
        candidates=_get_count(cfg, "candidates", 8),
        trials=_get_count(cfg, "trials", 2000),
        seed=seed)
    return result.rows()


def _run_decision(cfg: dict, seed: int) -> List[dict]:
    count = _get_count(cfg, "problems", 1000)
    max_u = _get_count(cfg, "max_u", 4)
    max_v = _get_count(cfg, "max_v", 4)
    rows = []
    for prob in decision_theory.random_problems(count, seed, max_u, max_v):
        rep = decision_theory.verify_factor2(prob)
        rows.append({"seed": seed, "|U|": prob.u_size, "|V|": prob.v_size,
                     "err_map": rep.err_map, "err_posterior": rep.err_posterior,
                     "ratio": rep.ratio})
    return rows


def _run_crng_test(cfg: dict, seed: int) -> List[dict]:
    field = _named("q", FieldSpec, _get_int(cfg, "q", 2))
    n, l = _get_count(cfg, "n"), _get_int(cfg, "l")
    p1 = _get_float(cfg, "bernoulli", 0.5)
    if field.q != 2:
        raise ConfigError("q", f"bernoulli weights are binary only, got q = {field.q}")
    if not 0.0 < p1 < 1.0:  # a degenerate law can leave the coset of a uniform x massless
        raise ConfigError("bernoulli", f"must lie in (0, 1), got {p1}")
    weights = np.array([1.0 - p1, p1])
    a = ensembles.sample_map(_named("l", ensembles.uniform_ensemble, field, l, n),
                             derived_seed(seed, 7))
    rng = make_rng(derived_seed(seed, 8))
    x = GfVector.from_array(field, rng.integers(0, field.q, size=n))
    c = matvec(a, x)
    constraints = crng_sampler.ConstraintSet(((a, c),))
    rows = []
    for mode, draws, path in ((crng_sampler.EXACT, _get_count(cfg, "draws", 100000), 9),
                              (crng_sampler.MCMC, _get_count(cfg, "mcmc_draws", 10000), 10)):
        dist = crng_sampler.ConstrainedDistribution(weights, constraints, mode=mode)
        rows.append({"mode": mode, "q": field.q, "n": n, "l": l,
                     "coset_size": constraints.coset_size, "draws": draws,
                     "tv": crng_sampler.tv_distance_check(dist, draws, derived_seed(seed, path)),
                     "seed": seed})
    return rows


_RUNNERS = {
    "capacity": _run_capacity,
    "hash-verify": _run_hash_verify,
    "sw": _run_sw,
    "channel": _run_channel,
    "decision": _run_decision,
    "crng-test": _run_crng_test,
}


def run(experiment: str, cfg: dict, seed: Optional[int] = None,
        out: Optional[str] = None) -> str:
    """Execute one experiment and write its CSV; returns the output path."""
    if experiment not in _RUNNERS:
        raise ConfigError("experiment", f"unknown experiment {experiment!r}")
    master = seed if seed is not None else _get_int(cfg, "seed", 0)
    if master < 0:
        raise ConfigError("seed", f"must be non-negative, got {master}")
    for warning in validate(experiment, cfg):
        print(f"warning: {warning}", file=sys.stderr)
    rows = _RUNNERS[experiment](cfg, master)
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
