"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; nothing is deferred to later calibration.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import statistics
import time

import numpy as np
import pytest

from cosetlab import capacity as cap
from cosetlab import channel_codec as cc
from cosetlab import cli
from cosetlab import crng_sampler as crng
from cosetlab import decision_theory as dt
from cosetlab import ensembles as ens
from cosetlab import sources_channels as sc
from cosetlab import sw_codec as sw
from cosetlab.gf_linalg import FieldSpec, GfVector, LinearMap
from cosetlab.rng import derived_seed

F2 = FieldSpec(2)
MASTER_SEED = 20260810


def report(name, ok, detail, t0, budget_s):
    elapsed = time.time() - t0
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail} [{elapsed:.1f}s / budget {budget_s}s]"
    print(line)
    assert ok, line
    assert elapsed < budget_s, f"{name} exceeded its runtime budget: {elapsed:.1f}s"


def h2(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def test_criterion_1_partition_bound_exact():
    """Exact partition (balanced-coloring style) bound on full tiny ensembles."""
    t0 = time.time()
    checked = 0
    for l, n in ((1, 3), (1, 4), (2, 4)):
        spec = ens.uniform_ensemble(F2, l, n)
        params = ens.compute_hash_params(spec, gamma=0.0)
        rep = ens.certify_hash_property(
            spec, params,
            partition_pairs=ens.random_partition_pairs(F2, n, 20, seed=MASTER_SEED + l * 31 + n))
        assert all(c.ok for c in rep.partition_checks), (l, n)
        assert rep.passed
        checked += len(rep.partition_checks)
    report("criterion 1 (partition bound)", checked == 60,
           f"LHS <= RHS on {checked}/60 seeded (Q,T) pairs over full ensembles", t0, 60)


def test_criterion_2_collision_bound_exact():
    """Exact collision-set bound |G| alpha / |Im| + beta on the same ensembles."""
    t0 = time.time()
    checked = 0
    for l, n in ((1, 3), (1, 4), (2, 4)):
        spec = ens.uniform_ensemble(F2, l, n)
        params = ens.compute_hash_params(spec, gamma=0.0)
        rep = ens.certify_hash_property(
            spec, params,
            collision_pairs=ens.random_collision_pairs(F2, n, 20, seed=MASTER_SEED + l * 57 + n))
        assert all(c.ok for c in rep.collision_set_checks), (l, n)
        assert rep.passed
        checked += len(rep.collision_set_checks)
    report("criterion 2 (collision bound)", checked == 60,
           f"bound held on {checked}/60 seeded (G,u) pairs over full ensembles", t0, 60)


def test_criterion_3_expurgated_ensemble():
    """Expurgated 2x4 binary ensemble at gamma=0.25: exact pair certifies."""
    t0 = time.time()
    spec = ens.expurgate(ens.uniform_ensemble(F2, 2, 4), 0.25)
    params = ens.compute_hash_params(spec)
    assert params.beta == 0.0
    assert params.alpha == pytest.approx(4 / 3, abs=1e-9)
    rep = ens.certify_hash_property(
        spec, params,
        partition_pairs=ens.random_partition_pairs(F2, 4, 20, seed=MASTER_SEED + 3),
        collision_pairs=ens.random_collision_pairs(F2, 4, 20, seed=MASTER_SEED + 4))
    assert rep.passed
    min_weights = []
    for s in range(20):
        a = ens.sample_map(spec, MASTER_SEED + s)
        min_weights.append(ens.kernel_min_weight(a))
    ok = all(w > 0.25 * 4 for w in min_weights)
    report("criterion 3 (expurgation)", ok and rep.passed,
           f"alpha={params.alpha:.6f}, beta=0 certified; 20 samples with kernel "
           f"min weight > 1", t0, 60)


def test_criterion_4_posterior_sampling_factor_two():
    """Posterior sampling errs at most twice the exact-maximization error."""
    t0 = time.time()
    worked = dt.DecisionProblem(np.array([[0.45, 0.45], [0.05, 0.05]]))
    rep = dt.verify_factor2(worked)
    assert rep.err_posterior == pytest.approx(0.18, abs=1e-12)
    assert rep.err_map == pytest.approx(0.1, abs=1e-12)
    problems = dt.random_problems(1000, seed=MASTER_SEED, max_u=4, max_v=4)
    results = [dt.verify_factor2(p) for p in problems]
    ok = all(r.passed for r in results)
    worst = max(r.ratio for r in results if math.isfinite(r.ratio))
    report("criterion 4 (factor two)", ok,
           f"1000/1000 problems passed exactly; worked example 0.18 vs 0.1; "
           f"worst ratio {worst:.4f}", t0, 10)


def test_criterion_5_capacity_solver():
    """Capacity against closed forms, plus signaling sweep monotonicity."""
    t0 = time.time()
    gaps = []
    for p in (0.05, 0.11, 0.2):
        res = cap.blahut_arimoto(sc.make_bsc(p), tol=1e-9)
        gaps.append(abs(res.capacity - (1.0 - h2(p))))
    z = cap.blahut_arimoto(sc.make_zchannel(0.5), tol=1e-9)
    gaps.append(abs(z.capacity - math.log2(1.25)))
    sweep = [r.capacity for r in cap.signaling_sweep(sc.make_quantized_awgn(4.0, 8), [2, 4, 8])]
    monotone = sweep[0] <= sweep[1] <= sweep[2]
    ok = max(gaps) <= 1e-6 and monotone
    report("criterion 5 (capacity solver)", ok,
           f"max closed-form gap {max(gaps):.2e} <= 1e-6; sweep "
           f"{[round(c, 4) for c in sweep]} monotone", t0, 10)


def test_criterion_6_sw_error_trend():
    """Syndrome-code error decays in n above the conditional entropy.

    The guarantee is an ensemble statement, so each grid point samples
    five matrices and the medians are compared (single draws fluctuate
    with the luck of the matrix).
    """
    t0 = time.time()
    source = sc.make_dsbs(0.11)
    rows = sw.rate_sweep(source, rates=[0.7], ns=[8, 12, 16], trials=10000,
                         seed=MASTER_SEED, matrices_per_point=5)
    med = {}
    for n in (8, 12, 16):
        errs = sorted(r["error"] for r in rows if r["n"] == n)
        ses = [r["std_err"] for r in rows if r["n"] == n]
        med[n] = (statistics.median(errs), max(ses))
    non_increasing = all(
        med[b][0] <= med[a][0] + 3 * math.hypot(med[a][1], med[b][1])
        for a, b in ((8, 12), (12, 16)))
    converse_rows = sw.rate_sweep(source, rates=[0.3], ns=[16], trials=10000,
                                  seed=MASTER_SEED, matrices_per_point=5)
    conv = statistics.median(r["error"] for r in converse_rows)
    conv_se = max(r["std_err"] for r in converse_rows)
    separation = conv - med[16][0]
    seps = separation >= 5 * math.hypot(conv_se, med[16][1])
    ok = non_increasing and seps
    report("criterion 6 (sw error trend)", ok,
           f"median errors n=8,12,16: {med[8][0]:.4f}, {med[12][0]:.4f}, {med[16][0]:.4f} "
           f"non-increasing within 3se; converse err {conv:.4f} exceeds by "
           f"{separation / math.hypot(conv_se, med[16][1]):.1f}se (>=5 needed)", t0, 300)


def test_criterion_7_stochastic_decoder():
    """Exact stochastic error within twice the exact-maximization error."""
    t0 = time.time()
    instances = 0
    for n in (3, 4, 5, 6):
        for l in sorted({1, n // 2, n - 1}):
            rng = np.random.default_rng(MASTER_SEED + 100 * n + l)
            a = LinearMap.from_array(F2, rng.integers(0, 2, (l, n)))
            for p in (0.1, 0.25):
                src = sc.make_dsbs(p)
                e_map = sw.error_probability(sw.SwCodec(a, src), "exact").value
                e_st = sw.error_probability(
                    sw.SwCodec(a, src, decoder=sw.STOCHASTIC), "exact").value
                assert e_map <= e_st + 1e-12, (n, l, p)
                assert e_st <= 2 * e_map + 1e-12, (n, l, p)
                instances += 1
    # Monte Carlo consistency on one instance per decoder kind
    a = LinearMap.from_array(F2, np.random.default_rng(MASTER_SEED).integers(0, 2, (3, 5)))
    src = sc.make_dsbs(0.12)
    agreements = []
    for decoder in (sw.MAP_EXACT, sw.STOCHASTIC):
        codec = sw.SwCodec(a, src, decoder=decoder)
        exact = sw.error_probability(codec, "exact")
        mc = sw.error_probability(codec, "mc", trials=10000, seed=MASTER_SEED + 1)
        agreements.append(abs(exact.value - mc.value) <= 3 * mc.std_err)
    ok = all(agreements)
    report("criterion 7 (stochastic decoder)", ok,
           f"{instances} exhaustive instances with map <= stochastic <= 2*map exactly; "
           f"exact/MC agreement within 3se for both decoders", t0, 120)


def test_criterion_8_crng_total_variation():
    """Exact and MCMC constrained samplers track the enumerated law."""
    t0 = time.time()
    cosets = []
    # kernel coset of size 2 (skewed weights) and two size-16 cosets
    cosets.append((LinearMap(F2, ((1, 1, 0), (0, 1, 1))), (0, 0), np.array([0.9, 0.1])))
    cosets.append((LinearMap(F2, ((1, 0, 1, 0), (0, 1, 0, 1))), (1, 0), np.array([0.5, 0.5])))
    rng = np.random.default_rng(MASTER_SEED)
    while True:
        a = LinearMap.from_array(F2, rng.integers(0, 2, (2, 6)))
        if a.rank == 2:
            cosets.append((a, (1, 1), np.array([0.7, 0.3])))
            break
    tv_exact, tv_mcmc = [], []
    for i, (a, c, weights) in enumerate(cosets):
        constraints = crng.ConstraintSet(((a, GfVector(F2, c)),))
        assert constraints.coset_size <= 16
        dist = crng.ConstrainedDistribution(weights, constraints)
        tv_exact.append(crng.tv_distance_check(dist, 100000, seed=MASTER_SEED + i))
        mdist = crng.ConstrainedDistribution(weights, constraints, mode=crng.MCMC)
        tv_mcmc.append(crng.tv_distance_check(mdist, 10000, seed=MASTER_SEED + 50 + i))
    ok = max(tv_exact) <= 0.02 and max(tv_mcmc) <= 0.05
    report("criterion 8 (crng correctness)", ok,
           f"exact TV max {max(tv_exact):.4f} <= 0.02 at 1e5 draws; "
           f"mcmc TV max {max(tv_mcmc):.4f} <= 0.05 on default schedule", t0, 60)


def test_criterion_9_channel_code_search():
    """Random (B, c) search lands within 0.05 of the syndrome-decoder baseline."""
    t0 = time.time()
    channel = sc.make_bsc(0.11)
    source = sc.joint_from_channel(np.full(2, 0.5), channel)
    n = 16
    l_a = sw.rows_for_rate(n, 0.7, 2)
    l_b = sw.rows_for_rate(n, 0.25, 2)
    a = ens.sample_map(ens.uniform_ensemble(F2, l_a, n),
                       np.random.default_rng(derived_seed(MASTER_SEED, 99)))
    swc = sw.SwCodec(a, source)
    assert swc.rate + l_b / n < 1.0  # realized r + R below the input entropy
    result = cc.search_code(swc, ens.uniform_ensemble(F2, l_b, n), channel,
                            candidates=32, trials=2000, seed=MASTER_SEED)
    delta_ok = result.delta_hat <= 0.05

    # tiny-instance exactness against a raw evaluation of the error expression
    from test_channel_codec import brute_force_error, make_setup

    channel4, _, swc4, b4 = make_setup(seed=17)
    codec4 = cc.build(swc4, b4, channel4, seed=3)
    exact4 = cc.error_probability(codec4, "exact").value
    brute4 = brute_force_error(codec4)
    exact_ok = abs(exact4 - brute4) <= 1e-12
    ok = delta_ok and exact_ok
    report("criterion 9 (channel construction)", ok,
           f"delta_hat = {result.delta_hat:+.4f} <= 0.05 (baseline "
           f"{result.baseline_error.value:.4f}, best {result.best_error.value:.4f} "
           f"of 32 candidates); n=4 exact vs brute force gap {abs(exact4 - brute4):.1e}",
           t0, 600)


def test_criterion_10_determinism(tmp_path):
    """Re-running any experiment with the same config reproduces every row."""
    t0 = time.time()
    configs = {
        "capacity": "channel = bsc\np = 0.11\nseed = 1\n",
        "decision": "problems = 100\nseed = 5\n",
        "sw": "source = dsbs\np = 0.11\nrates = 0.7\nns = 8\ntrials = 1000\nseed = 3\n",
        "channel": ("channel = bsc\np = 0.11\nn = 8\nr = 0.7\nR = 0.25\n"
                    "candidates = 3\ntrials = 300\nseed = 13\n"),
        "crng-test": ("q = 2\nn = 6\nl = 2\nbernoulli = 0.3\ndraws = 20000\n"
                      "mcmc_draws = 2000\nseed = 5\n"),
        "hash-verify": ("ensemble = uniform-linear\nq = 2\nl = 2\nn = 4\n"
                        "gamma = 0.0\npairs = 10\nseed = 11\n"),
    }
    all_ok = True
    for experiment, text in configs.items():
        cfg_path = tmp_path / f"{experiment}.cfg"
        cfg_path.write_text(text)
        cfg = cli.parse_config(str(cfg_path))
        out1 = tmp_path / f"{experiment}-1.csv"
        out2 = tmp_path / f"{experiment}-2.csv"
        cli.run(experiment, cfg, out=str(out1))
        cli.run(experiment, cfg, out=str(out2))
        same = cli.result_rows(str(out1)) == cli.result_rows(str(out2))
        all_ok = all_ok and same
        assert same, f"{experiment} rows differ between identical runs"
    report("criterion 10 (determinism)", all_ok,
           f"{len(configs)} experiments re-run with identical result rows", t0, 300)
