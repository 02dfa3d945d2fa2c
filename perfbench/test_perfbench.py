"""Tests of the benchmark itself, on the tiny size of each workload.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from cosetlab import crng_sampler, decision_theory, sw_codec  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((run.ROOT / "perfbench" / "design.json").read_text())


def bench(capsys, workload, trace, seed=None):
    argv = ["--workload", workload, "--seconds", "0", "--size", "tiny", "--trace", str(trace)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(capsys, workload):
    lines, result = bench(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    for m in BENCH["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
        assert any(ln.startswith(f"{m['name']} = ") and ln.endswith(" " + m["unit"])
                   for ln in lines)
    assert any(ln.startswith("failed_frac = 0 ") for ln in lines)
    record = json.loads(next(ln for ln in lines if ln.startswith("record "))[len("record "):])
    for key in ("cores", "python", "numpy", "blas_threads", "git_sha", "src_lines", "seed",
                "cap_headroom"):
        assert key in record
    assert all(0 < cap["share"] <= 1 for cap in record["cap_headroom"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric(capsys, workload):
    _, result = bench(capsys, workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    for m in BENCH["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_replay_rows_equal_untraced_rows(tmp_path, workload):
    wl = workloads.build(workload, 7, str(tmp_path), "tiny")
    plain = run.run_pass(wl)
    traced = run.run_pass(wl, tracing.Tracer())
    assert not plain.errors and not traced.errors
    assert traced.rows == plain.rows
    assert all(plain.rows[op.name] for op in wl.ops)


def _shift_exact(f):
    def wrong(codec, mode="exact", **kw):
        est = f(codec, mode=mode, **kw)
        if est.mode != "exact":
            return est
        return sw_codec.ErrorEstimate(value=min(1.0, est.value + 0.2), mode="exact")
    return wrong


# one injected wrong result per workload, each caught by a different check
WRONG = {
    "sw-sweep": (decision_theory, "verify_factor2",
                 lambda f: lambda prob: dataclasses.replace(f(prob), ratio=2.5)),
    "exact-eval": (sw_codec, "error_probability", _shift_exact),
    "channel-code": (crng_sampler, "tv_distance_check",
                     lambda f: lambda *a, **kw: f(*a, **kw) + 0.1),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_catch_a_wrong_result(capsys, monkeypatch, workload):
    module, name, wrap = WRONG[workload]
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    lines, result = bench(capsys, workload, 0)
    assert not result["correct"] and result["failed"] > 0
    frac = next(ln for ln in lines if ln.startswith("failed_frac = "))
    assert float(frac.split()[2]) > 0


def test_other_seed_passes(capsys):
    _, result = bench(capsys, "exact-eval", 0, seed=12345)
    assert result["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sw-sweep",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert res.returncode != 0
    assert res.stdout.strip() == ""


def test_design_covers_every_declared_metric():
    assert [m["name"] for m in BENCH["per_layer"]] == list(DESIGN["per_layer"])
    assert [m["name"] for m in BENCH["end_to_end"]] == list(DESIGN["end_to_end"])
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS) \
        == list(DESIGN["workloads"])
    for m in BENCH["per_layer"]:
        design = DESIGN["per_layer"][m["name"]]
        assert design["measured_on"] in workloads.WORKLOADS + ("each",)
        assert design["should_move"]
