"""The benchmark's three workloads: generated inputs, operations, checks.

Every workload is a fixed list of operations run one after another by a
single client (a closed loop).  An operation either goes through the
public ``cli.run(experiment, cfg, seed=..., out=...)`` exactly as a user
runs an experiment, or calls a layer's public functions directly where
the CLI has no experiment for it (exact error evaluation, channel round
trips).  Each operation also has a replay that makes the same calls into
the layers' public functions, with the same inputs and seeds, inside
tracer spans; the replay must produce the same result rows.

Inputs are generated from the workload seed only.  Derived seeds are
reproduced here with ``SeedSequence([master, *path])`` rather than with
the package's helpers, so the package may move or rename them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from cosetlab import (capacity, channel_codec, cli, crng_sampler, decision_theory,
                      ensembles, gf_linalg, sw_codec)
from cosetlab.gf_linalg import FieldSpec, GfVector, LinearMap
from cosetlab.sources_channels import (joint_from_channel, make_bsc, make_dsbs,
                                       make_quantized_awgn)

MASTER_SEED = 20260810
WORKLOADS = ("sw-sweep", "exact-eval", "channel-code")
SIZES = ("full", "tiny")

F2 = FieldSpec(2)
MAP, STOCH = "map-exact", "stochastic"
DECODERS = ((MAP, "map"), (STOCH, "stoch"))
SIGMAS = 4.0          # statistical checks allow this many standard errors
EXACT_SLACK = 1e-12   # slack on exact (enumerated) inequalities

# sw-sweep: the syndrome-code grid of the paper's source-coding experiment
DSBS_P = 0.11
SW_RATES = (0.7, 0.3)
SW_NS = (8, 12, 16)
SW_HEADER = ["source", "p", "n", "l", "rate", "decoder", "mode",
             "error", "std_err", "trials", "seed"]
DECISION_HEADER = ["seed", "|U|", "|V|", "err_map", "err_posterior", "ratio"]
CAPACITY_HEADER = ["channel", "params", "support", "capacity", "iterations", "tol"]
CHANNEL_HEADER = ["channel", "p", "n", "lA", "lB", "r", "R", "candidate",
                  "error", "std_err", "baseline_error", "delta_hat", "seed"]
CRNG_HEADER = ["mode", "q", "n", "l", "coset_size", "draws", "tv", "seed"]

PARAMS = {
    "sw-sweep": {
        "full": dict(trials=300, matrices=2, problems=1000),
        "tiny": dict(trials=20, matrices=1, problems=50),
    },
    "exact-eval": {
        # hash-verify ensembles as (l, n) or (l, n, row weight); sw as (n, l);
        # ch as (n, lA, lB)
        "full": dict(expurgated=(3, 4), gf3=(2, 4), sparse=(3, 7, 2),
                     sw=(10, 5), ch=(12, 8, 3), check_trials=2000),
        "tiny": dict(expurgated=(2, 4), gf3=(1, 3), sparse=(2, 5, 1),
                     sw=(6, 3), ch=(8, 5, 2), check_trials=300),
    },
    "channel-code": {
        "full": dict(q_values="2,4,8", bsc=(32, 250), gf5=(16, 125), trips=200,
                     check_trials=2000),
        "tiny": dict(q_values="1,2", bsc=(2, 50), gf5=(2, 30), trips=20,
                     check_trials=300),
    },
}

GAMMA = 0.25
PAIRS = 20
AWGN_SNR, AWGN_LEVELS, CAP_TOL = 4.0, 8, 1e-9
BSC_P, BSC_N, BSC_R, BSC_RR = 0.11, 16, 0.7, 0.25
# 5-level quantized AWGN over GF(5) at SNR 8: H(X|Y) = 0.997 < r and r + R < H(X) = 2.32
GF5_SNR, GF5_LEVELS, GF5_N, GF5_R, GF5_RR = 8.0, 5, 10, 1.4, 0.5
CRNG = dict(q=2, n=6, l=2, bernoulli=0.3, draws=100000, mcmc_draws=10000)
TV_EXACT_MAX, TV_MCMC_MAX = 0.02, 0.05


def derive(master: int, *path: int) -> int:
    """One integer seed for the unit of work at ``path`` under ``master``."""
    seq = np.random.SeedSequence([int(master), *[int(p) for p in path]])
    return int(seq.generate_state(1)[0])


def _rng(master: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(derive(master, *path))


def _cfg(**kw) -> dict:
    """A config dict as ``cli.parse_config`` would return it."""
    return {k: str(v) for k, v in kw.items()}


class NullTracer:
    """Stands in for the tracer in untraced runs."""

    def span(self, name, **attrs):
        return contextlib.nullcontext({"attrs": attrs})


NULL = NullTracer()


# ---------------------------------------------------------------------------
# result rows
# ---------------------------------------------------------------------------

_NP_FLOAT = re.compile(r"^np\.float64\((.*)\)$")


def parse_cell(text: str):
    """A CSV cell as a number where it is one.

    numpy 2 writes some floats as ``np.float64(x)``; the number inside is
    what counts.
    """
    m = _NP_FLOAT.match(text)
    if m:
        return float(m.group(1))
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            pass
    return text


def parse_csv(path: str) -> List[dict]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return [{k: parse_cell(v) for k, v in zip(header, row)} for row in reader]


def rows_of(result) -> List[dict]:
    """Rows of an operation's result: a CSV path or a list of row dicts."""
    return parse_csv(result) if isinstance(result, str) else result


# ---------------------------------------------------------------------------
# workload structure
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One call a user makes; ``run`` is untraced, ``replay`` traced."""

    name: str
    run: Callable[[], object]
    replay: Callable[[object, dict], object]
    trials: int = 0   # Monte Carlo trials the call completes
    terms: int = 0    # terms of the exact sums it evaluates (computed from sizes)
    warnings: List[str] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    seed: int
    size: str
    ops: List[Op]
    check: Callable[[Dict[str, List[dict]]], list]
    probe: Callable[[object, dict], None]
    layer_metrics: Callable[[object], dict]
    headroom: dict
    work_name: str   # the name work_per_s has on this workload: what it counts


def _cli_op(name, experiment, cfg, seed, outdir, body, **work) -> Op:
    """An experiment run through ``cli.run``; its replay calls the layers."""
    op = Op(name, None, None, **work)

    def run():
        path = os.path.join(outdir, name + ".csv")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):  # the CLI prints rate warnings here
            cli.run(experiment, cfg, seed=seed, out=path)
        op.warnings = err.getvalue().splitlines()
        return path

    def replay(tr, ctx):
        path = os.path.join(outdir, name + ".traced.csv")
        with tr.span("cli.validate"):
            cli.validate(experiment, cfg)
        header, rows = body(tr, ctx)
        with tr.span("cli.write_csv"):
            cli.write_csv(path, header, rows)
        return path

    op.run, op.replay = run, replay
    return op


def _direct_op(name, body, **work) -> Op:
    """A call into a layer's public functions; run and replay share the body."""
    return Op(name, lambda: body(NULL, {}), body, **work)


def build(name: str, seed: int, outdir: str, size: str = "full") -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    os.makedirs(outdir, exist_ok=True)
    return _WORKLOAD_FACTORIES[name](seed, outdir, PARAMS[name][size], size)


def _check(label: str, ok) -> tuple:
    return (label, bool(ok))


# ---------------------------------------------------------------------------
# sw-sweep
# ---------------------------------------------------------------------------

def _sw_sweep(seed, outdir, prm, size) -> Workload:
    trials, matrices, problems = prm["trials"], prm["matrices"], prm["problems"]
    sw_seed, dec_seed = derive(seed, 1), derive(seed, 2)
    points = len(SW_RATES) * len(SW_NS) * matrices

    def sw_body(decoder, tag, tr, ctx):
        with tr.span("sources_channels.make_dsbs"):
            source = make_dsbs(DSBS_P)
        rows = []
        for ri, rate in enumerate(SW_RATES):
            for ni, n in enumerate(SW_NS):
                l = sw_codec.rows_for_rate(n, rate, 2)
                for mi in range(matrices):
                    point_seed = derive(sw_seed, ri, ni, mi)
                    with tr.span("ensembles.sample_map"):
                        a = ensembles.sample_map(ensembles.uniform_ensemble(F2, l, n),
                                                 np.random.default_rng(point_seed))
                    with tr.span("sw_codec.SwCodec"):
                        codec = sw_codec.SwCodec(a, source, decoder=decoder)
                    with tr.span("sw_codec.error_probability.mc", point=f"{tag}.n{n}.r{rate}",
                                 trials=trials, scored=trials * 2 ** (n - a.rank)):
                        est = sw_codec.error_probability(codec, mode="mc", trials=trials,
                                                         seed=point_seed)
                    rows.append({"source": source.kind, "p": source.param, "n": n, "l": l,
                                 "rate": codec.rate, "decoder": decoder, "mode": est.mode,
                                 "error": est.value, "std_err": est.std_err,
                                 "trials": est.trials, "seed": point_seed})
        return SW_HEADER, rows

    def decision_body(tr, ctx):
        rng = np.random.default_rng(dec_seed)
        rows = []
        for _ in range(problems):
            with tr.span("decision_theory.random_problem"):
                prob = decision_theory.random_problem(rng, max_u=4, max_v=4)
            with tr.span("decision_theory.verify_factor2"):
                rep = decision_theory.verify_factor2(prob)
            rows.append({"seed": dec_seed, "|U|": prob.u_size, "|V|": prob.v_size,
                         "err_map": rep.err_map, "err_posterior": rep.err_posterior,
                         "ratio": rep.ratio})
        return DECISION_HEADER, rows

    ops = []
    for decoder, tag in DECODERS:
        # both decoders share the seed, so they decode the same sampled codes
        cfg = _cfg(source="dsbs", p=DSBS_P, rates=", ".join(map(str, SW_RATES)),
                   ns=", ".join(map(str, SW_NS)), trials=trials, decoder=decoder,
                   matrices=matrices)
        ops.append(_cli_op(f"sw.{tag}", "sw", cfg, sw_seed, outdir,
                           lambda tr, ctx, d=decoder, t=tag: sw_body(d, t, tr, ctx),
                           trials=points * trials))
    ops.append(_cli_op("decision", "decision", _cfg(problems=problems, max_u=4, max_v=4),
                       dec_seed, outdir, decision_body))

    def check(rows):
        out = []
        mp, st = rows["sw.map"], rows["sw.stoch"]
        out.append(_check("sw rows complete", len(mp) == points and len(st) == points))
        source = make_dsbs(DSBS_P)
        for a, b in zip(mp, st):
            where = f"n={a['n']} l={a['l']} seed={a['seed']}"
            same = (a["n"], a["l"], a["seed"]) == (b["n"], b["l"], b["seed"])
            e_map, e_st = a["error"], b["error"]
            out.append(_check(f"map <= stochastic + 4 se at {where}", same and e_map
                              <= e_st + SIGMAS * math.hypot(a["std_err"], b["std_err"])))
            out.append(_check(f"stochastic <= 2 map + 4 se at {where}", same and e_st
                              <= 2 * e_map + SIGMAS * math.hypot(b["std_err"], 2 * a["std_err"])))
            if a["n"] > 10:
                continue
            mat = ensembles.sample_map(ensembles.uniform_ensemble(F2, a["l"], a["n"]),
                                       np.random.default_rng(a["seed"]))
            for row in (a, b):
                exact = sw_codec.error_probability(
                    sw_codec.SwCodec(mat, source, decoder=row["decoder"]), mode="exact").value
                out.append(_check(f"{row['decoder']} mc within 4 se of exact at {where}",
                                  abs(row["error"] - exact) <= SIGMAS * row["std_err"]))
        dec = rows["decision"]
        out.append(_check("decision rows complete", len(dec) == problems))
        for i, r in enumerate(dec):
            out.append(_check(f"decision problem {i}: map <= posterior <= 2 map",
                              r["err_map"] <= r["err_posterior"] + EXACT_SLACK
                              and r["ratio"] <= 2.0 + 1e-9))
        return out

    def layer_metrics(v):
        out = {"sw_codec.codec_build_us": v.median_us("sw_codec.SwCodec")}
        for _, tag in DECODERS:
            for n in SW_NS:
                for rate in SW_RATES:
                    point = f"{tag}.n{n}.r{rate}"
                    out[f"sw_codec.mc_trial_us.{point}"] = v.per_unit_us(
                        "sw_codec.error_probability.mc", "trials", point=point)
        out["sw_codec.members_scored"] = v.attr_sum("sw_codec.error_probability.mc", "scored")
        out["ensembles.sample_map_us"] = v.median_us("ensembles.sample_map")
        out["decision_theory.verify_us"] = v.median_us("decision_theory.verify_factor2")
        out["decision_theory.problems"] = v.count("decision_theory.verify_factor2")
        return out

    n_max = max(SW_NS)
    l_min = sw_codec.rows_for_rate(n_max, min(SW_RATES), 2)
    headroom = {"coset": _share(2 ** (n_max - l_min), gf_linalg.COSET_ENUMERATION_CAP)}
    return Workload("sw-sweep", seed, size, ops, check, lambda tr, ctx: None,
                    layer_metrics, headroom, "trials_per_s")


def _share(value: int, cap: int) -> dict:
    return {"value": value, "cap": cap, "share": value / cap}


# ---------------------------------------------------------------------------
# exact-eval
# ---------------------------------------------------------------------------

def _hv_spec(kind, shape):
    if kind == "expurgated":
        l, n = shape
        return ensembles.expurgate(ensembles.uniform_ensemble(F2, l, n), GAMMA)
    if kind == "gf3":
        l, n = shape
        return ensembles.uniform_ensemble(FieldSpec(3), l, n)
    l, n, w = shape
    return ensembles.sparse_ensemble(F2, l, n, w)


def _members(spec) -> int:
    """Ensemble members enumerated before any expurgation (from sizes)."""
    q, l, n = spec.field.q, spec.rows, spec.cols
    if spec.kind == ensembles.SYSTEMATIC_SPARSE:
        return ((n - l) * (q - 1)) ** (spec.row_weight * l)
    return q ** (l * n)


def _light_words(q: int, n: int, gamma: float) -> int:
    """Non-zero words of weight at most gamma * n."""
    return sum(math.comb(n, w) * (q - 1) ** w for w in range(1, int(gamma * n + 1e-9) + 1))


def _exact_eval(seed, outdir, prm, size) -> Workload:
    specs = {kind: _hv_spec(kind, prm[kind]) for kind in ("expurgated", "gf3", "sparse")}
    cfgs = {
        "expurgated": dict(ensemble="expurgated-uniform"),
        "gf3": dict(ensemble="uniform-linear"),
        "sparse": dict(ensemble="systematic-sparse", row_weight=prm["sparse"][2],
                       params="certified"),
    }

    def hv_body(kind, hv_seed, tr, ctx):
        spec = specs[kind]
        with tr.span("ensembles.hash_params"):
            if kind == "sparse":
                params = ensembles.certified_collision_params(spec)
            elif kind == "expurgated":
                params = ensembles.compute_hash_params(spec)
            else:
                params = ensembles.compute_hash_params(spec, gamma=GAMMA)
        with tr.span("ensembles.random_pairs"):
            pp = ensembles.random_partition_pairs(spec.field, spec.cols, PAIRS, hv_seed)
            cp = ensembles.random_collision_pairs(spec.field, spec.cols, PAIRS, hv_seed + 1)
        with tr.span("ensembles.certify_hash_property") as rec:
            report = ensembles.certify_hash_property(spec, params, partition_pairs=pp,
                                                     collision_pairs=cp, gamma=GAMMA)
            row = report.csv_row()
            rec["attrs"]["checked"] = row["checked"]
        return list(row.keys()), [row]

    ops = []
    for k, kind in enumerate(specs):
        spec, hv_seed = specs[kind], derive(seed, 10 + k)
        cfg = _cfg(q=spec.field.q, l=spec.rows, n=spec.cols, gamma=GAMMA, pairs=PAIRS,
                   **cfgs[kind])
        ops.append(_cli_op(f"hv.{kind}", "hash-verify", cfg, hv_seed, outdir,
                           lambda tr, ctx, kd=kind, s=hv_seed: hv_body(kd, s, tr, ctx),
                           terms=_members(spec) * spec.field.q ** spec.cols))

    # syndrome code and channel code small enough to evaluate exactly
    dsbs = make_dsbs(DSBS_P)
    sw_n, sw_l = prm["sw"]
    sw_map = ensembles.sample_map(ensembles.uniform_ensemble(F2, sw_l, sw_n), _rng(seed, 20))
    bsc = make_bsc(BSC_P)
    bsc_joint = joint_from_channel(np.full(2, 0.5), bsc)
    ch_n, ch_la, ch_lb = prm["ch"]
    ch_a = ensembles.sample_map(ensembles.uniform_ensemble(F2, ch_la, ch_n), _rng(seed, 21))
    ch_b = ensembles.sample_map(ensembles.uniform_ensemble(F2, ch_lb, ch_n), _rng(seed, 22))
    ch_build_seed = derive(seed, 23)
    stacked_rank = gf_linalg.stack_maps([ch_a, ch_b]).rank
    ch_terms = 2 ** ch_b.rank * 2 ** (ch_n - stacked_rank) * 2 ** ch_n

    def sw_codec_for(decoder, tr):
        with tr.span("sw_codec.SwCodec"):
            return sw_codec.SwCodec(sw_map, dsbs, decoder=decoder)

    def ch_codec_for(decoder, tr):
        with tr.span("sw_codec.SwCodec"):
            sw = sw_codec.SwCodec(ch_a, bsc_joint, decoder=decoder)
        with tr.span("channel_codec.build"):
            return channel_codec.build(sw, ch_b, bsc, np.random.default_rng(ch_build_seed))

    def sw_exact_body(decoder, tag, tr, ctx):
        codec = sw_codec_for(decoder, tr)
        with tr.span("sw_codec.error_probability.exact", decoder=tag, terms=4 ** sw_n):
            est = sw_codec.error_probability(codec, mode="exact")
        return [{"error": float(est.value)}]

    def ch_exact_body(decoder, tag, tr, ctx):
        codec = ch_codec_for(decoder, tr)
        with tr.span("channel_codec.error_probability.exact", decoder=tag, terms=ch_terms):
            est = channel_codec.error_probability(codec, mode="exact")
        return [{"error": float(est.value)}]

    for decoder, tag in DECODERS:
        ops.append(_direct_op(f"sw.exact.{tag}",
                              lambda tr, ctx, d=decoder, t=tag: sw_exact_body(d, t, tr, ctx),
                              terms=4 ** sw_n))
    for decoder, tag in DECODERS:
        ops.append(_direct_op(f"ch.exact.{tag}",
                              lambda tr, ctx, d=decoder, t=tag: ch_exact_body(d, t, tr, ctx),
                              terms=ch_terms))

    def check(rows):
        out = []
        for kind, spec in specs.items():
            (row,) = rows[f"hv.{kind}"]
            out.append(_check(f"hv.{kind}: no certification violations",
                              row["violations"] == 0 and row["checked"] > 0))
            if kind == "gf3":
                # uniform ensemble: alpha = 1 and beta = light words / q^l in closed form
                q, l, n = spec.field.q, spec.rows, spec.cols
                beta = _light_words(q, n, GAMMA) / q ** l
                out.append(_check("hv.gf3: (alpha, beta) equal the closed form",
                                  abs(row["alpha"] - 1.0) <= 1e-9
                                  and abs(row["beta"] - beta) <= 1e-9))
            else:
                out.append(_check(f"hv.{kind}: beta is exactly 0",
                                  row["beta"] == 0.0 and row["alpha"] > 0.0))
        e_map, e_st = rows["sw.exact.map"][0]["error"], rows["sw.exact.stoch"][0]["error"]
        out.append(_check("sw exact: map <= stochastic <= 2 map",
                          e_map <= e_st + EXACT_SLACK and e_st <= 2 * e_map + EXACT_SLACK))
        for d, (decoder, tag) in enumerate(DECODERS):
            mc = sw_codec.error_probability(sw_codec_for(decoder, NULL), mode="mc",
                                            trials=prm["check_trials"], seed=derive(seed, 50, d))
            exact = rows[f"sw.exact.{tag}"][0]["error"]
            out.append(_check(f"sw exact {tag}: mc within 4 se",
                              abs(mc.value - exact) <= SIGMAS * mc.std_err))
            mc = channel_codec.error_probability(ch_codec_for(decoder, NULL), mode="mc",
                                                 trials=prm["check_trials"],
                                                 seed=derive(seed, 51, d))
            exact = rows[f"ch.exact.{tag}"][0]["error"]
            out.append(_check(f"channel exact {tag}: mc within 4 se",
                              abs(mc.value - exact) <= SIGMAS * mc.std_err))
        return out

    def probe(tr, ctx):
        # enumeration happens inside compute_hash_params and certify_hash_property;
        # it is timed here on the same input as a separately labelled probe
        for spec in specs.values():
            with tr.span("ensembles.enumerate_ensemble", probe=True) as rec:
                kept = ensembles.enumerate_ensemble(spec).count
            rec["attrs"].update(members=_members(spec), kept=kept)

    def layer_metrics(v):
        members = v.attr_sum("ensembles.enumerate_ensemble", "members")
        kept = v.attr_sum("ensembles.enumerate_ensemble", "kept")
        out = {
            "ensembles.enumerate_s": v.total_s("ensembles.enumerate_ensemble"),
            "ensembles.members": members,
            "ensembles.kept": kept,
            "ensembles.keep_ratio": kept / members,
            "ensembles.hash_params_s": v.total_s("ensembles.hash_params"),
            "ensembles.certify_s": v.total_s("ensembles.certify_hash_property"),
            "ensembles.checks": v.attr_sum("ensembles.certify_hash_property", "checked"),
            "sw_codec.exact_terms": v.attr_sum("sw_codec.error_probability.exact", "terms"),
        }
        for _, tag in DECODERS:
            out[f"sw_codec.exact_s.{tag}"] = v.total_s("sw_codec.error_probability.exact",
                                                      decoder=tag)
            out[f"channel_codec.exact_s.{tag}"] = v.total_s(
                "channel_codec.error_probability.exact", decoder=tag)
        return out

    headroom = {
        "ensemble": _share(max(_members(s) for s in specs.values()),
                           ensembles.ENSEMBLE_ENUMERATION_CAP),
        "exact_state": _share(max(4 ** sw_n, ch_terms), sw_codec.EXACT_ERROR_CAP),
        "coset": _share(2 ** (ch_n - ch_la), gf_linalg.COSET_ENUMERATION_CAP),
    }
    return Workload("exact-eval", seed, size, ops, check, probe, layer_metrics, headroom,
                    "exact_terms_per_s")


# ---------------------------------------------------------------------------
# channel-code
# ---------------------------------------------------------------------------

def _channel_code(seed, outdir, prm, size) -> Workload:
    cap_seed, bsc_seed, gf5_seed, crng_seed, rt_seed = (derive(seed, 30 + i) for i in range(5))
    trips = prm["trips"]

    def capacity_body(tr, ctx):
        with tr.span("sources_channels.make_quantized_awgn"):
            channel = make_quantized_awgn(AWGN_SNR, AWGN_LEVELS)
        by_size, rows = {}, []
        for qv in (int(v) for v in prm["q_values"].split(",")):
            for k in range(1, qv + 1):
                if k in by_size:
                    continue
                best = None
                for support in itertools.combinations(range(channel.input_size), k):
                    with tr.span("capacity.blahut_arimoto") as rec:
                        res = capacity.blahut_arimoto(channel, support=support, tol=CAP_TOL)
                    rec["attrs"]["iterations"] = res.iterations
                    if best is None or res.capacity > best.capacity:
                        best = res
                by_size[k] = best
            res = max((by_size[k] for k in range(1, qv + 1)), key=lambda r: r.capacity)
            rows.append({"channel": channel.kind, "params": repr(channel.param),
                         "support": f"|S|<={qv}:" + "+".join(map(str, res.support)),
                         "capacity": res.capacity, "iterations": res.iterations,
                         "tol": CAP_TOL})
        return CAPACITY_HEADER, rows

    def search_body(tag, make_channel, n, r, big_r, candidates, trials, s, tr, ctx):
        with tr.span("sources_channels.make_channel"):
            channel = make_channel()
        fld = FieldSpec(channel.input_size)
        l_a = sw_codec.rows_for_rate(n, r, fld.q)
        l_b = sw_codec.rows_for_rate(n, big_r, fld.q)
        with tr.span("sources_channels.joint_from_channel"):
            source = joint_from_channel(np.full(fld.q, 1.0 / fld.q), channel)
        with tr.span("ensembles.sample_map"):
            a = ensembles.sample_map(ensembles.uniform_ensemble(fld, l_a, n), _rng(s, 99))
        with tr.span("sw_codec.SwCodec"):
            sw = sw_codec.SwCodec(a, source, decoder=MAP)
        ens_b = ensembles.uniform_ensemble(fld, l_b, n)
        codecs, ests, seeds = [], [], []
        with tr.span("channel_codec.search", channel=tag):
            with tr.span("channel_codec.baseline", channel=tag):
                baseline = sw_codec.error_probability(sw, mode="mc", trials=trials,
                                                      seed=derive(s, 0))
            for k in range(candidates):
                with tr.span("ensembles.sample_map"):
                    b = ensembles.sample_map(ens_b, _rng(s, 1, k))
                with tr.span("channel_codec.build"):
                    codec = channel_codec.build(sw, b, channel, _rng(s, 2, k))
                eval_seed = derive(s, 3, k)
                with tr.span("channel_codec.error_probability.mc", channel=tag, trials=trials):
                    est = channel_codec.error_probability(codec, mode="mc", trials=trials,
                                                          seed=eval_seed)
                codecs.append(codec)
                ests.append(est)
                seeds.append(eval_seed)
        ctx.setdefault("codecs", []).extend(codecs)
        best_k = int(np.argmin([e.value for e in ests]))
        best = codecs[best_k]
        delta_hat = ests[best_k].value - baseline.value
        rows = [{"channel": best.channel.kind, "p": best.channel.param, "n": best.n,
                 "lA": best.sw.matrix.rows, "lB": best.b_map.rows, "r": best.r, "R": best.R,
                 "candidate": k, "error": est.value, "std_err": est.std_err,
                 "baseline_error": baseline.value, "delta_hat": delta_hat,
                 "seed": seeds[k]} for k, est in enumerate(ests)]
        return CHANNEL_HEADER, rows

    def crng_body(tr, ctx):
        n, l, p1 = CRNG["n"], CRNG["l"], CRNG["bernoulli"]
        weights = np.array([1.0 - p1, p1])
        with tr.span("ensembles.sample_map"):
            a = ensembles.sample_map(ensembles.uniform_ensemble(F2, l, n), _rng(crng_seed, 7))
        rng = _rng(crng_seed, 8)
        c = gf_linalg.matvec(a, GfVector.from_array(F2, rng.integers(0, 2, size=n)))
        with tr.span("crng_sampler.ConstraintSet"):
            constraints = crng_sampler.ConstraintSet(((a, c),))
        rows = []
        for mode, draws, path in ((crng_sampler.EXACT, CRNG["draws"], 9),
                                  (crng_sampler.MCMC, CRNG["mcmc_draws"], 10)):
            dist = crng_sampler.ConstrainedDistribution(weights, constraints, mode=mode)
            proposals = 0 if mode == crng_sampler.EXACT else \
                (dist.burn_in + draws) * (n - a.rank)
            with tr.span("crng_sampler.tv_distance_check", mode=mode, proposals=proposals):
                tv = crng_sampler.tv_distance_check(dist, draws, derive(crng_seed, path))
            rows.append({"mode": mode, "q": 2, "n": n, "l": l,
                         "coset_size": constraints.coset_size, "draws": draws, "tv": tv,
                         "seed": crng_seed})
        return CRNG_HEADER, rows

    bsc = make_bsc(BSC_P)
    bsc_joint = joint_from_channel(np.full(2, 0.5), bsc)
    l_a = sw_codec.rows_for_rate(BSC_N, BSC_R, 2)
    l_b = sw_codec.rows_for_rate(BSC_N, BSC_RR, 2)
    rt_a = ensembles.sample_map(ensembles.uniform_ensemble(F2, l_a, BSC_N), _rng(rt_seed, 1))
    rt_b = ensembles.sample_map(ensembles.uniform_ensemble(F2, l_b, BSC_N), _rng(rt_seed, 2))

    def rt_codec(tr):
        with tr.span("sw_codec.SwCodec"):
            sw = sw_codec.SwCodec(rt_a, bsc_joint, decoder=MAP)
        with tr.span("channel_codec.build"):
            return channel_codec.build(sw, rt_b, bsc, _rng(rt_seed, 3))

    def roundtrip_body(tr, ctx):
        # messages whose constraint coset is empty are encoder errors; the loop
        # runs until ``trips`` messages went through the channel and decoder
        codec = rt_codec(tr)
        rng = _rng(rt_seed, 4)
        attempts = enc_err = dec_err = 0
        sent = []
        while len(sent) < trips:
            m = codec.random_message(rng)
            attempts += 1
            with tr.span("channel_codec.encode") as rec:
                x = channel_codec.encode(codec, m, rng)
            rec["attrs"]["failed"] = x is None
            if x is None:
                enc_err += 1
                continue
            with tr.span("sources_channels.sample_outputs"):
                y = codec.channel.sample_outputs(x.as_array(), rng)
            with tr.span("channel_codec.decode"):
                m_hat = channel_codec.decode(codec, y)
            dec_err += m_hat != m
            sent.append((m, y))
        ctx["roundtrip"] = (codec, sent)
        return [{"attempts": attempts, "encoder_errors": enc_err, "decode_errors": dec_err}]

    bsc_c, bsc_t = prm["bsc"]
    gf5_c, gf5_t = prm["gf5"]
    ops = [
        _cli_op("capacity", "capacity",
                _cfg(channel="quantized-awgn", snr=AWGN_SNR, levels=AWGN_LEVELS,
                     q_values=prm["q_values"], tol=CAP_TOL), cap_seed, outdir, capacity_body),
        _cli_op("channel.bsc", "channel",
                _cfg(channel="bsc", p=BSC_P, n=BSC_N, r=BSC_R, R=BSC_RR, candidates=bsc_c,
                     trials=bsc_t, decoder=MAP), bsc_seed, outdir,
                lambda tr, ctx: search_body("bsc", lambda: make_bsc(BSC_P), BSC_N, BSC_R,
                                            BSC_RR, bsc_c, bsc_t, bsc_seed, tr, ctx),
                trials=(bsc_c + 1) * bsc_t),
        _cli_op("channel.gf5", "channel",
                _cfg(channel="quantized-awgn", snr=GF5_SNR, levels=GF5_LEVELS, n=GF5_N,
                     r=GF5_R, R=GF5_RR, candidates=gf5_c, trials=gf5_t, decoder=MAP),
                gf5_seed, outdir,
                lambda tr, ctx: search_body(
                    "gf5", lambda: make_quantized_awgn(GF5_SNR, GF5_LEVELS), GF5_N, GF5_R,
                    GF5_RR, gf5_c, gf5_t, gf5_seed, tr, ctx),
                trials=(gf5_c + 1) * gf5_t),
        _cli_op("crng", "crng-test", _cfg(**CRNG), crng_seed, outdir, crng_body),
        _direct_op("roundtrip", roundtrip_body),
    ]

    def check(rows):
        out = []
        cap_rows = rows["capacity"]
        awgn = make_quantized_awgn(AWGN_SNR, AWGN_LEVELS)
        caps = [r["capacity"] for r in cap_rows]
        out.append(_check("capacity sweep does not decrease in |S|",
                          len(caps) == len(prm["q_values"].split(","))
                          and all(x <= y for x, y in zip(caps, caps[1:]))))
        for r in cap_rows:
            support = tuple(int(s) for s in r["support"].split(":")[1].split("+"))
            res = capacity.blahut_arimoto(awgn, support=support, tol=r["tol"])
            out.append(_check(f"capacity {r['support']}: bracket <= tol, value recomputed",
                              res.residual <= r["tol"] and res.capacity == r["capacity"]
                              and res.iterations == r["iterations"]))
        for tag, cands in (("bsc", bsc_c), ("gf5", gf5_c)):
            rs = rows[f"channel.{tag}"]
            errors = [r["error"] for r in rs]
            out.append(_check(f"channel.{tag}: one row per candidate", len(rs) == cands))
            for r in rs:
                out.append(_check(
                    f"channel.{tag} candidate {r['candidate']}: consistent row",
                    0.0 <= r["error"] <= 1.0 and r["std_err"] > 0.0
                    and abs(r["delta_hat"] - (min(errors) - r["baseline_error"])) <= 1e-12))
        crng_rows = {r["mode"]: r for r in rows["crng"]}
        for mode, limit in ((crng_sampler.EXACT, TV_EXACT_MAX), (crng_sampler.MCMC, TV_MCMC_MAX)):
            out.append(_check(f"crng {mode}: tv <= {limit}", crng_rows[mode]["tv"] <= limit))
        (rt,) = rows["roundtrip"]
        fails, attempts = rt["encoder_errors"] + rt["decode_errors"], rt["attempts"]
        mc = channel_codec.error_probability(rt_codec(NULL), mode="mc",
                                             trials=prm["check_trials"], seed=derive(rt_seed, 5))
        se = math.hypot(sw_codec.wilson_std_err(fails, attempts), mc.std_err)
        out.append(_check("round-trip error rate within 4 se of the codec's mc error",
                          attempts == trips + rt["encoder_errors"]
                          and abs(fails / attempts - mc.value) <= SIGMAS * se))
        return out

    def probe(tr, ctx):
        # the stacked solve and coset enumeration run inside error_probability per
        # message and candidate; they are timed here on the same codecs
        for codec in ctx["codecs"]:
            for m in (codec.sw.matrix, codec.b_map):
                with tr.span("gf_linalg.LinearMap"):
                    LinearMap.from_array(m.field, m.as_array())
            with tr.span("gf_linalg.stack_maps"):
                stacked = gf_linalg.stack_maps([codec.sw.matrix, codec.b_map])
            with tr.span("gf_linalg.solver"):
                solver = stacked.solver()
            for m_row in codec.messages():
                rhs = GfVector(codec.field, codec.syndrome.entries + tuple(int(v) for v in m_row))
                with tr.span("gf_linalg.solve"):
                    sol = solver.solve(rhs)
                with tr.span("gf_linalg.coset_array") as rec:
                    rec["attrs"]["rows"] = len(gf_linalg.coset_array(sol))
        codec, sent = ctx["roundtrip"]
        rng = _rng(rt_seed, 6)
        for m, y in sent:
            with tr.span("sw_codec.decode_map"):
                sw_codec.decode_map(codec.sw, codec.syndrome, y)
            with tr.span("crng_sampler.ConstraintSet"):
                crng_sampler.ConstraintSet(((codec.sw.matrix, codec.syndrome), (codec.b_map, m)))
            dist = codec.encoder_distribution(m)
            with tr.span("crng_sampler.draw"):
                crng_sampler.draw(dist, rng)

    def layer_metrics(v):
        iterations = v.attr_sum("capacity.blahut_arimoto", "iterations")
        sweep_s = v.total_s("capacity.blahut_arimoto")
        return {
            "gf_linalg.maps_built": (v.count("gf_linalg.LinearMap")
                                     + v.count("gf_linalg.stack_maps")),
            "gf_linalg.map_build_us": v.median_us("gf_linalg.LinearMap"),
            "gf_linalg.solver_us": v.median_us("gf_linalg.solver"),
            "gf_linalg.solve_us": v.median_us("gf_linalg.solve"),
            "gf_linalg.coset_array_us": v.median_us("gf_linalg.coset_array"),
            "gf_linalg.coset_rows": v.attr_sum("gf_linalg.coset_array", "rows"),
            "gf_linalg.self_s": v.layer_self_s("gf_linalg"),
            "sources_channels.self_s": v.layer_self_s("sources_channels"),
            "sources_channels.sample_outputs_us": v.median_us("sources_channels.sample_outputs"),
            "crng_sampler.constraint_set_us": v.median_us("crng_sampler.ConstraintSet"),
            "crng_sampler.draw_us": v.median_us("crng_sampler.draw"),
            "crng_sampler.tv_exact_s": v.total_s("crng_sampler.tv_distance_check",
                                                 mode=crng_sampler.EXACT),
            "crng_sampler.tv_mcmc_s": v.total_s("crng_sampler.tv_distance_check",
                                                mode=crng_sampler.MCMC),
            "crng_sampler.mcmc_proposals": v.attr_sum("crng_sampler.tv_distance_check",
                                                      "proposals"),
            "sw_codec.decode_map_us": v.median_us("sw_codec.decode_map"),
            "channel_codec.search_s": v.total_s("channel_codec.search"),
            "channel_codec.baseline_s": v.total_s("channel_codec.baseline"),
            "channel_codec.mc_trial_us.bsc": v.per_unit_us(
                "channel_codec.error_probability.mc", "trials", channel="bsc"),
            "channel_codec.mc_trial_us.gf5": v.per_unit_us(
                "channel_codec.error_probability.mc", "trials", channel="gf5"),
            "channel_codec.build_us": v.median_us("channel_codec.build"),
            "channel_codec.encode_us": v.median_us("channel_codec.encode"),
            "channel_codec.decode_us": v.median_us("channel_codec.decode"),
            "channel_codec.encoder_error_ratio":
                v.count("channel_codec.encode", failed=True) / v.count("channel_codec.encode"),
            "capacity.sweep_s": sweep_s,
            "capacity.ba_solves": v.count("capacity.blahut_arimoto"),
            "capacity.ba_iterations": iterations,
            "capacity.iter_us": 1e6 * sweep_s / iterations,
        }

    gf5_la = sw_codec.rows_for_rate(GF5_N, GF5_R, GF5_LEVELS)
    headroom = {"coset": _share(GF5_LEVELS ** (GF5_N - gf5_la), gf_linalg.COSET_ENUMERATION_CAP)}
    return Workload("channel-code", seed, size, ops, check, probe, layer_metrics, headroom,
                    "trials_per_s")


_WORKLOAD_FACTORIES = {"sw-sweep": _sw_sweep, "exact-eval": _exact_eval,
                       "channel-code": _channel_code}
