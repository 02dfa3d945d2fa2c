import ast
import functools
import pathlib
import re

import numpy as np
import pytest

from cosetlab import cli, ensembles, gf_linalg
from cosetlab.gf_linalg import FieldSpec


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_config(tmp_path):
    path = write_cfg(tmp_path, "a.cfg", "# comment\nq = 2\nrates = 0.7, 0.3  # inline\n")
    cfg = cli.parse_config(path)
    assert cfg == {"q": "2", "rates": "0.7, 0.3"}


def test_parse_config_rejects_garbage(tmp_path):
    path = write_cfg(tmp_path, "bad.cfg", "just words\n")
    with pytest.raises(cli.ConfigError):
        cli.parse_config(path)


def test_capacity_run(tmp_path):
    cfg = write_cfg(tmp_path, "cap.cfg", "channel = bsc\np = 0.11\nseed = 1\n")
    out = tmp_path / "cap.csv"
    cli.run("capacity", cli.parse_config(cfg), out=str(out))
    rows = cli.result_rows(str(out))
    assert rows[0] == "channel,params,support,capacity,iterations,tol"
    assert abs(float(rows[1].split(",")[3]) - 0.5000840418) < 1e-6


def test_capacity_sweep_run(tmp_path):
    cfg = write_cfg(tmp_path, "cap.cfg",
                    "channel = quantized-awgn\nsnr = 4.0\nlevels = 8\nq_values = 2,4,8\n")
    out = tmp_path / "cap.csv"
    cli.run("capacity", cli.parse_config(cfg), out=str(out))
    rows = cli.result_rows(str(out))
    caps = [float(r.split(",")[3]) for r in rows[1:]]
    assert caps[0] <= caps[1] <= caps[2]


def test_decision_run(tmp_path):
    cfg = write_cfg(tmp_path, "dec.cfg", "problems = 40\nseed = 7\n")
    out = tmp_path / "dec.csv"
    cli.run("decision", cli.parse_config(cfg), out=str(out))
    rows = cli.result_rows(str(out))
    assert rows[0] == "seed,|U|,|V|,err_map,err_posterior,ratio"
    assert len(rows) == 41
    ratios = [float(r.split(",")[5]) for r in rows[1:]]
    assert all(x <= 2.0 + 1e-9 for x in ratios)


def test_sw_run_and_warning(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "sw.cfg",
                    "source = dsbs\np = 0.11\nrates = 0.3\nns = 6\ntrials = 200\nseed = 3\n")
    out = tmp_path / "sw.csv"
    cli.run("sw", cli.parse_config(cfg), out=str(out))
    captured = capsys.readouterr()
    assert "H(X|Y)" in captured.err  # converse-regime warning
    rows = cli.result_rows(str(out))
    assert rows[0].startswith("source,p,n,l,rate,decoder,mode,error")


def test_hash_verify_run(tmp_path):
    cfg = write_cfg(tmp_path, "h.cfg",
                    "ensemble = uniform-linear\nq = 2\nl = 2\nn = 4\ngamma = 0.0\n"
                    "pairs = 5\nseed = 11\n")
    out = tmp_path / "h.csv"
    cli.run("hash-verify", cli.parse_config(cfg), out=str(out))
    rows = cli.result_rows(str(out))
    assert rows[0] == "kind,q,l,n,gamma,alpha,beta,violations,checked"
    assert rows[1].split(",")[7] == "0"  # no violations


def test_hash_verify_writes_a_float_beta_when_no_type_is_light(tmp_path):
    # the default gamma = 0.0 leaves no light type, so beta is an empty sum
    cfg = write_cfg(tmp_path, "h.cfg",
                    "ensemble = uniform-linear\nq = 2\nl = 2\nn = 4\npairs = 3\n")
    out = tmp_path / "h.csv"
    cli.run("hash-verify", cli.parse_config(cfg), out=str(out))
    assert cli.result_rows(str(out))[1] == "uniform-linear,2,2,4,0.0,1.0,0.0,0,22"


def test_hash_verify_sparse_with_certified_params(tmp_path):
    cfg = write_cfg(tmp_path, "h.cfg",
                    "ensemble = systematic-sparse\nq = 2\nl = 2\nn = 4\nrow_weight = 2\n"
                    "gamma = 0.0\nparams = certified\npairs = 5\nseed = 11\n")
    out = tmp_path / "h.csv"
    cli.run("hash-verify", cli.parse_config(cfg), out=str(out))
    parts = cli.result_rows(str(out))[1].split(",")
    assert parts[0] == "systematic-sparse" and parts[7] == "0"


def test_hash_verify_expurgated(tmp_path):
    cfg = write_cfg(tmp_path, "h.cfg",
                    "ensemble = expurgated-uniform\nq = 2\nl = 2\nn = 4\ngamma = 0.25\n"
                    "pairs = 5\nseed = 11\n")
    out = tmp_path / "h.csv"
    cli.run("hash-verify", cli.parse_config(cfg), out=str(out))
    parts = cli.result_rows(str(out))[1].split(",")
    assert parts[0] == "expurgated" and parts[7] == "0"


def test_channel_run(tmp_path):
    cfg = write_cfg(tmp_path, "ch.cfg",
                    "channel = bsc\np = 0.11\nn = 8\nr = 0.7\nR = 0.25\n"
                    "candidates = 3\ntrials = 200\nseed = 13\n")
    out = tmp_path / "ch.csv"
    cli.run("channel", cli.parse_config(cfg), out=str(out))
    rows = cli.result_rows(str(out))
    assert rows[0].startswith("channel,p,n,lA,lB,r,R,candidate")
    assert len(rows) == 4


def test_crng_run(tmp_path):
    cfg = write_cfg(tmp_path, "c.cfg",
                    "q = 2\nn = 6\nl = 2\nbernoulli = 0.3\ndraws = 20000\n"
                    "mcmc_draws = 4000\nseed = 5\n")
    out = tmp_path / "c.csv"
    cli.run("crng-test", cli.parse_config(cfg), out=str(out))
    rows = cli.result_rows(str(out))
    assert [r.split(",")[0] for r in rows] == ["mode", "exact", "mcmc"]
    assert float(rows[1].split(",")[6]) <= 0.02
    assert float(rows[2].split(",")[6]) <= 0.05


def test_identical_runs_are_byte_identical(tmp_path):
    cfg = cli.parse_config(write_cfg(
        tmp_path, "sw.cfg",
        "source = dsbs\np = 0.11\nrates = 0.7\nns = 6\ntrials = 300\nseed = 3\n"))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.run("sw", cfg, out=str(out1))
    cli.run("sw", cfg, out=str(out2))
    assert cli.result_rows(str(out1)) == cli.result_rows(str(out2))


def test_seed_flag_overrides_config(tmp_path):
    cfg = cli.parse_config(write_cfg(
        tmp_path, "sw.cfg",
        "source = dsbs\np = 0.11\nrates = 0.7\nns = 6\ntrials = 300\nseed = 3\n"))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.run("sw", cfg, seed=3, out=str(out1))
    cli.run("sw", cfg, seed=4, out=str(out2))
    assert cli.result_rows(str(out1)) != cli.result_rows(str(out2))


def test_main_exit_codes(tmp_path):
    missing = write_cfg(tmp_path, "m.cfg", "channel = bsc\n")
    assert cli.main(["capacity", "--config", missing]) == 1
    toobig = write_cfg(tmp_path, "big.cfg",
                       "ensemble = uniform-linear\nq = 2\nl = 6\nn = 6\ngamma = 0.0\n"
                       "pairs = 1\nseed = 1\n")
    assert cli.main(["hash-verify", "--config", toobig]) == 2
    ok = write_cfg(tmp_path, "ok.cfg", "problems = 5\nseed = 2\n")
    assert cli.main(["decision", "--config", ok, "--out", str(tmp_path / "d.csv")]) == 0


def test_unknown_choice_is_named(tmp_path):
    cfg = write_cfg(tmp_path, "c.cfg", "channel = pigeon\np = 0.1\n")
    assert cli.main(["capacity", "--config", cfg]) == 1


def test_shipped_configs_parse_and_validate():
    import pathlib

    config_dir = pathlib.Path(__file__).resolve().parent.parent / "configs"
    experiment_of = {
        "capacity-bsc.cfg": "capacity",
        "capacity-awgn-sweep.cfg": "capacity",
        "hash-verify-expurgated.cfg": "hash-verify",
        "sw-trend.cfg": "sw",
        "channel-search.cfg": "channel",
        "decision-factor2.cfg": "decision",
        "crng-tv.cfg": "crng-test",
    }
    found = sorted(p.name for p in config_dir.glob("*.cfg"))
    assert found == sorted(experiment_of)
    for name, experiment in experiment_of.items():
        cfg = cli.parse_config(str(config_dir / name))
        warnings = cli.validate(experiment, cfg)
        if name == "sw-trend.cfg":
            # the converse-regime rate is intentional: 0.3 builds a realized
            # rate of 0.25 at every n, which warns once
            assert len(warnings) == 1 and warnings[0].startswith("r = 0.2500 <= H(X|Y)")
        else:
            assert warnings == []


def test_validate_rate_conditions():
    ok = {"channel": "bsc", "p": "0.11", "n": "16", "r": "0.7", "R": "0.25"}
    assert cli.validate("channel", ok) == []
    tight = {"channel": "bsc", "p": "0.11", "n": "16", "r": "0.7", "R": "0.35"}
    assert any("H(X)" in w for w in cli.validate("channel", tight))
    low = {"channel": "bsc", "p": "0.11", "n": "16", "r": "0.3", "R": "0.25"}
    assert any("H(X|Y)" in w for w in cli.validate("channel", low))
    # realized r + R = 0.5 + 0.5 reaches H(X) = 1; at n = 8, 0.5 + 0.25 does not
    full = {"channel": "bsc", "p": "0.1", "n": "4", "r": "0.5", "R": "0.5"}
    assert any("rate condition" in w for w in cli.validate("channel", full))
    assert cli.validate("channel", dict(full, n="8", R="0.25")) == []
    converse = {"p": "0.11", "rates": "0.3", "ns": "6"}
    assert any("decay not expected" in w for w in cli.validate("sw", converse))
    fine = {"p": "0.11", "rates": "0.7", "ns": "6"}
    assert cli.validate("sw", fine) == []
    # the realized rates decide: rate 0.55 at n = 9 builds l = 4, a realized
    # 0.4444 <= H(X|Y) = 0.4999
    sw_cfg = {"p": "0.11", "rates": "0.55", "ns": "9"}
    assert cli.validate("sw", sw_cfg) == [
        "r = 0.4444 <= H(X|Y) = 0.4999: converse regime, decay not expected"]
    # nominal r + R = 1.01, but n = 16 builds 0.6875 + 0.25 < H(X) = 1
    ch_cfg = {"channel": "bsc", "p": "0.11", "n": "16", "r": "0.74", "R": "0.27"}
    assert cli.validate("channel", ch_cfg) == []


def test_run_prints_each_distinct_warning_once(tmp_path, capsys):
    # rate 0.3 builds a realized 0.25 at n = 8 and n = 12 (one message) and
    # 0.2222 at n = 9; rate 0.55 builds 0.5 at n = 8 and 12 and 0.4444 at n = 9
    cfg = write_cfg(tmp_path, "sw.cfg",
                    "p = 0.11\nrates = 0.3, 0.55\nns = 8, 12, 9\ntrials = 20\n")
    assert cli.main(["sw", "--config", cfg, "--out", str(tmp_path / "sw.csv")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: r = {r} <= H(X|Y) = 0.4999: converse regime, decay not expected"
        for r in ("0.2500", "0.2222", "0.4444")]


TINY_CONFIGS = {
    "capacity": "channel = bsc\np = 0.11\n",
    "hash-verify": "ensemble = expurgated-uniform\nq = 2\nl = 2\nn = 4\ngamma = 0.25\npairs = 5\n",
    "sw": "p = 0.11\nrates = 0.7\nns = 6\ntrials = 50\n",
    "channel": "channel = bsc\np = 0.11\nn = 8\nr = 0.7\nR = 0.25\ncandidates = 2\ntrials = 50\n",
    "decision": "problems = 20\n",
    "crng-test": "q = 2\nn = 6\nl = 2\ndraws = 2000\nmcmc_draws = 500\n",
}


@pytest.mark.parametrize("experiment, body, field", [
    ("capacity", "channel = bsc\np = 0.11\nq_values = 3\n", "q_values"),
    ("capacity", "channel = bsc\np = 0.11\nq_values = 0\n", "q_values"),
    ("capacity", "channel = bsc\np = 0.11\ntol = 0\n", "tol"),
    ("capacity", "channel = quantized-awgn\nsnr = 4.0\nlevels = 8\nq_values = 2\ntol = 0\n",
     "tol"),
    ("capacity", "channel = bsc\np = 1.5\n", "p"),
    ("capacity", "channel = quantized-awgn\nsnr = -1\nlevels = 8\n", "snr"),
    ("capacity", "channel = quantized-awgn\nsnr = 4.0\nlevels = 1\n", "levels"),
    ("channel", TINY_CONFIGS["channel"].replace("p = 0.11", "p = 1.5"), "p"),
    ("channel", "channel = quantized-awgn\nsnr = -1\nlevels = 5\nn = 4\nr = 0.5\nR = 0.5\n",
     "snr"),
    ("channel", "channel = quantized-awgn\nsnr = 4.0\nlevels = 1\nn = 4\nr = 0.5\nR = 0.5\n",
     "levels"),
    ("sw", TINY_CONFIGS["sw"].replace("p = 0.11", "p = 2"), "p"),
    ("sw", TINY_CONFIGS["sw"].replace("ns = 6", "ns = 0"), "ns"),
    ("crng-test", TINY_CONFIGS["crng-test"] + "bernoulli = 1.5\n", "bernoulli"),
    ("crng-test", TINY_CONFIGS["crng-test"] + "bernoulli = 0.0\nseed = 5\n", "bernoulli"),
    ("crng-test", TINY_CONFIGS["crng-test"] + "bernoulli = 1.0\nseed = 5\n", "bernoulli"),
    ("hash-verify", TINY_CONFIGS["hash-verify"].replace("q = 2", "q = 4"), "q"),
    ("sw", TINY_CONFIGS["sw"].replace("trials = 50", "trials = 0"), "trials"),
    ("channel", TINY_CONFIGS["channel"].replace("trials = 50", "trials = 0"), "trials"),
    ("channel", TINY_CONFIGS["channel"].replace("candidates = 2", "candidates = 0"),
     "candidates"),
    ("decision", TINY_CONFIGS["decision"] + "max_u = 0\n", "max_u"),
    ("decision", TINY_CONFIGS["decision"] + "max_v = 0\n", "max_v"),
    ("crng-test", TINY_CONFIGS["crng-test"].replace("\ndraws = 2000", "\ndraws = 0"), "draws"),
    ("crng-test", TINY_CONFIGS["crng-test"].replace("mcmc_draws = 500", "mcmc_draws = 0"),
     "mcmc_draws"),
    ("hash-verify", TINY_CONFIGS["hash-verify"].replace("l = 2", "l = 5"), "l"),
    ("hash-verify", TINY_CONFIGS["hash-verify"].replace("l = 2", "l = 0"), "l"),
    ("hash-verify", TINY_CONFIGS["hash-verify"].replace("gamma = 0.25", "gamma = 1.5"), "gamma"),
    ("hash-verify", "q = 2\nl = 2\nn = 4\ngamma = 1.0\n", "gamma"),
    ("hash-verify", "q = 2\nl = 2\nn = 4\ngamma = -0.5\n", "gamma"),
    ("hash-verify", "ensemble = systematic-sparse\nq = 2\nl = 2\nn = 4\nrow_weight = 0\n",
     "row_weight"),
    ("hash-verify", TINY_CONFIGS["hash-verify"].replace("pairs = 5", "pairs = -3"), "pairs"),
    ("crng-test", TINY_CONFIGS["crng-test"].replace("l = 2", "l = 7"), "l"),
    ("crng-test", TINY_CONFIGS["crng-test"].replace("l = 2", "l = 0"), "l"),
    ("sw", TINY_CONFIGS["sw"] + "matrices = 0\n", "matrices"),
    ("decision", "problems = 0\n", "problems"),
    ("decision", "problems = -2\n", "problems"),
    ("sw", TINY_CONFIGS["sw"].replace("rates = 0.7", "rates = ,"), "rates"),
    ("sw", TINY_CONFIGS["sw"].replace("ns = 6", "ns = ,"), "ns"),
    ("capacity", "channel = quantized-awgn\nsnr = 4.0\nlevels = 8\nq_values = ,\n",
     "q_values"),
    ("channel", "channel = quantized-awgn\nsnr = 4.0\nlevels = 4\nn = 4\nr = 0.5\nR = 0.5\n",
     "levels"),
    ("channel", TINY_CONFIGS["channel"].replace("n = 8", "n = -3"), "n"),
    ("channel", TINY_CONFIGS["channel"].replace("n = 8", "n = 0"), "n"),
    ("hash-verify", TINY_CONFIGS["hash-verify"].replace("n = 4", "n = 0"), "n"),
    ("hash-verify", TINY_CONFIGS["hash-verify"].replace("n = 4", "n = -3"), "n"),
    ("crng-test", TINY_CONFIGS["crng-test"].replace("n = 6", "n = 0"), "n"),
    ("crng-test", TINY_CONFIGS["crng-test"].replace("n = 6", "n = -3"), "n"),
    ("sw", TINY_CONFIGS["sw"] + "seed = -1\n", "seed"),
    ("hash-verify", "q = 2\nl = 2\nn = 4\nparams = certified\ngamma = -0.5\n", "gamma"),
    ("hash-verify", "q = 2\nl = 2\nn = 4\nparams = certified\ngamma = 7\n", "gamma"),
    ("sw", TINY_CONFIGS["sw"].replace("rates = 0.7", "rates = nan"), "rates"),
    ("sw", TINY_CONFIGS["sw"].replace("rates = 0.7", "rates = 0.7, -0.3"), "rates"),
    ("channel", TINY_CONFIGS["channel"].replace("r = 0.7", "r = nan"), "r"),
    ("channel", "channel = quantized-awgn\nsnr = nan\nlevels = 5\nn = 4\nr = 0.5\nR = 0.5\n",
     "snr"),
    ("capacity", "channel = quantized-awgn\nsnr = nan\nlevels = 8\n", "snr"),
    ("capacity", "channel = quantized-awgn\nsnr = inf\nlevels = 8\n", "snr"),
    ("crng-test", TINY_CONFIGS["crng-test"].replace("q = 2", "q = 3"), "q"),
    ("sw", TINY_CONFIGS["sw"].replace("trials = 50", "trails = 50"), "trails"),
    ("sw", TINY_CONFIGS["sw"] + "source = zchannel\n", "source"),
    ("channel", TINY_CONFIGS["channel"] + "decodr = stochastic\n", "decodr"),
    ("decision", TINY_CONFIGS["decision"] + "snr = 4\n", "snr"),
    ("capacity", TINY_CONFIGS["capacity"] + "p = 0.2\n", "p"),
    ("hash-verify", "ensemble = uniform-linear\nq = 2\nl = 2\nn = 4\nrow_weight = 7\n",
     "row_weight"),
    ("hash-verify", TINY_CONFIGS["hash-verify"] + "row_weight = 1\n", "row_weight"),
    ("capacity", "channel = quantized-awgn\nsnr = 4.0\nlevels = 8\np = 0.9\n", "p"),
    ("channel", TINY_CONFIGS["channel"] + "levels = 5\n", "levels"),
], ids=["q-above-alphabet", "q-zero", "tol-zero", "tol-zero-sweep", "p-above-one",
        "snr-negative", "one-level", "channel-p-above-one", "channel-snr-negative",
        "channel-one-level", "dsbs-p-above-one", "ns-zero", "bernoulli-above-one",
        "bernoulli-zero", "bernoulli-one",
        "q-composite", "sw-trials-zero", "channel-trials-zero", "candidates-zero",
        "max-u-zero", "max-v-zero", "draws-zero", "mcmc-draws-zero", "hash-l-above-n",
        "hash-l-zero", "expurgated-gamma-above-one", "spectrum-gamma-one",
        "spectrum-gamma-negative", "row-weight-zero",
        "pairs-negative", "crng-l-above-n", "crng-l-zero", "matrices-zero", "problems-zero",
        "problems-negative", "rates-empty", "ns-empty", "q-values-empty",
        "channel-levels-composite", "channel-n-negative", "channel-n-zero", "hash-n-zero",
        "hash-n-negative", "crng-n-zero", "crng-n-negative", "seed-negative",
        "certified-gamma-negative", "certified-gamma-seven", "rates-nan", "rates-negative",
        "channel-r-nan", "channel-snr-nan", "snr-nan", "snr-inf", "crng-q-three",
        "sw-unknown-trails", "sw-source-zchannel", "channel-unknown-decodr",
        "decision-unknown-snr", "repeated-p", "uniform-row-weight",
        "expurgated-row-weight", "awgn-p", "channel-bsc-levels"])
def test_bad_capacity_values_are_named(tmp_path, capsys, experiment, body, field):
    cfg = write_cfg(tmp_path, "c.cfg", body)
    assert cli.main([experiment, "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 1
    assert f"config field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_negative_seed_flag_is_named(tmp_path, capsys, experiment):
    cfg = write_cfg(tmp_path, "c.cfg", TINY_CONFIGS[experiment])
    args = [experiment, "--config", cfg, "--seed", "-5", "--out", str(tmp_path / "c.csv")]
    assert cli.main(args) == 1
    assert "config field 'seed': must be non-negative, got -5" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_sw_coset_above_the_cap_exits_2(tmp_path, capsys):
    # n = 24 at rate 0.3 keeps 7 syndrome rows: a 2^17-member coset
    cfg = write_cfg(tmp_path, "c.cfg", "p = 0.11\nrates = 0.3\nns = 24\ntrials = 5\n")
    assert cli.main(["sw", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 2
    assert "cap exceeded: coset of size 131072" in capsys.readouterr().err


def test_channel_coset_above_the_cap_exits_2(tmp_path, capsys, monkeypatch):
    # 5 syndrome rows at n = 8 leave cosets of at least 8 members; the baseline's
    # syndrome-decoder trials and each code's construction meet the cap alike
    monkeypatch.setattr(gf_linalg, "COSET_ENUMERATION_CAP", 4)
    cfg = write_cfg(tmp_path, "c.cfg", TINY_CONFIGS["channel"])
    assert cli.main(["channel", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 2
    assert "cap exceeded: coset of size" in capsys.readouterr().err


def test_hash_verify_ensemble_above_the_cap_exits_2(tmp_path, capsys):
    # a uniform 3 x 8 binary ensemble has 2^24 members, above the 2^20 cap
    cfg = write_cfg(tmp_path, "c.cfg", "q = 2\nl = 3\nn = 8\npairs = 1\n")
    assert cli.main(["hash-verify", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 2
    assert "cap exceeded: uniform ensemble has 16777216 members" in capsys.readouterr().err


@pytest.mark.parametrize("cfg, message", [
    ("l = 2\nn = 10\n", "image-code table of 1048576 members x 2^10 codes"),
    ("l = 1\nn = 20\n", "image-code table of 1048576 members x 2^20 codes"),
    ("ensemble = systematic-sparse\nl = 1\nn = 300\nrow_weight = 2\n",
     "image-code table of 89401 members x 2^300 codes"),
    ("ensemble = systematic-sparse\nl = 1\nn = 1000\nrow_weight = 2\n",
     "image-code table of 998001 members x 2^1000 codes"),
], ids=["uniform-2x10", "uniform-1x20", "sparse-1x300", "sparse-1x1000"])
def test_hash_verify_table_above_the_cap_exits_2(tmp_path, capsys, monkeypatch, cfg, message):
    # the caps are read from the spec's sizes: no member and no image code is built first
    def refuse(*args):
        raise AssertionError("a table was built before its cap was checked")

    monkeypatch.setattr(ensembles, "enumerate_ensemble", refuse)
    monkeypatch.setattr(ensembles, "image_codes", refuse)
    path = write_cfg(tmp_path, "c.cfg", cfg + "pairs = 2\n")
    assert cli.main(["hash-verify", "--config", path, "--out", str(tmp_path / "c.csv")]) == 2
    assert f"cap exceeded: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("n", [18, 19])
def test_hash_verify_reads_the_table_caps_before_any_work(tmp_path, capsys, monkeypatch, n):
    # the uniform closed-form spectrum fits, but the certifier's table does not:
    # the run is refused before its params step and its pair draws
    def refuse(*args, **kwargs):
        raise AssertionError("work was done before the certifier's caps were read")

    for name in ("compute_hash_params", "random_partition_pairs", "random_collision_pairs"):
        monkeypatch.setattr(ensembles, name, refuse)
    path = write_cfg(tmp_path, "c.cfg", f"q = 2\nl = 1\nn = {n}\npairs = 20\n")
    assert cli.main(["hash-verify", "--config", path, "--out", str(tmp_path / "c.csv")]) == 2
    assert (f"cap exceeded: image-code table of {2 ** n} members x 2^{n} codes"
            in capsys.readouterr().err)


def test_numpy_floats_are_written_as_numbers():
    # numpy 2 reprs its scalars as np.float64(...); cells hold the number only
    assert cli._format_cell(np.float64(1.1428571428571417)) == "1.1428571428571417"


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_cells_are_plain_numbers(tmp_path, experiment):
    cfg = cli.parse_config(write_cfg(tmp_path, "c.cfg", TINY_CONFIGS[experiment] + "seed = 3\n"))
    out = tmp_path / "c.csv"
    cli.run(experiment, cfg, out=str(out))
    cells = [cell for row in cli.result_rows(str(out)) for cell in row.split(",")]
    assert not [cell for cell in cells if cell.startswith("np.")]


def test_only_get_reads_a_config_value():
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    reads = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef) or func.name == "_get":
            continue
        for node in ast.walk(func):
            subscript = (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                         and isinstance(node.value, ast.Name) and node.value.id == "cfg")
            get_call = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "get" and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "cfg")
            if subscript or get_call:
                reads.append(f"{func.name}:{node.lineno}")
    assert reads == []
    assert cli.EXPERIMENTS == tuple(cli.TABLE)
    # every key that _get reads belongs to some experiment, and every listed
    # key is read somewhere (seed by run)
    read = {node.args[1].value for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "_get"}
    assert read == set().union(*(keys for _, keys in cli.TABLE.values()))



@pytest.mark.parametrize("selector, variants, make", [
    ("channel", cli._CHANNELS, cli._make_channel),
    ("ensemble", cli._ENSEMBLES, functools.partial(cli._make_ensemble, field=FieldSpec(2),
                                                   l=2, n=4)),
], ids=["channel", "ensemble"])
def test_each_variant_reads_the_keys_its_table_lists(monkeypatch, selector, variants, make):
    asked = []
    get = cli._get

    def recording(cfg, key, *rest):
        asked.append(key)
        return get(cfg, key, *rest)

    monkeypatch.setattr(cli, "_get", recording)
    values = {"p": "0.1", "snr": "4.0", "levels": "4", "row_weight": "2"}
    for kind, keys in variants.items():
        asked.clear()
        # gamma is a hash-verify key, which the expurgated kind also reads
        make({selector: kind, "gamma": "0.25", **{key: values[key] for key in keys}})
        assert set(asked) - {selector, "gamma"} == set(keys), kind

def test_readme_lists_each_experiments_keys():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^`([a-z-]+)` —.*?```ini\n(.*?)```", readme, re.S | re.M)
    assert [name for name, _ in blocks] == list(cli.EXPERIMENTS)
    for name, body in blocks:
        keys = set(re.findall(r"^#?\s*(\w+)\s*=", body, re.M))
        assert keys == cli.TABLE[name][1], name
