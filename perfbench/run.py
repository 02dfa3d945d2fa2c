#!/usr/bin/env python3
"""Benchmark for cosetlab: one workload, one closed-loop client.

    python3 perfbench/run.py --workload sw-sweep --seed 20260810 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing is installed.  The run repeats the
workload's list of operations (a pass), each call waiting for the last,
until the next pass would end after ``--seconds``, then checks the
outputs of the passes.  It prints each metric with its unit, one
``record`` line (machine, code and cap headroom), and as its last line
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics, measured untraced.  Pass
time is divided by a fixed reference loop timed next to every operation
(``wall_ref``), because the speed of a shared machine drifts more than
the bounds allow; the raw ``wall_s`` and the per-second throughput are
printed and recorded too.
``--trace 1`` alternates an untraced pass with a traced replay of the
same calls, checks that both give the same rows, and reports the
per-layer metrics from the replay's spans.  A per-layer metric whose
layer this workload does not exercise is taken from a traced replay of
its own workload at the tiny size.  Spans are written to
``.perfbench_out/`` at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SPAWNS = 7   # fresh interpreters timed per run for setup_s


def import_program() -> None:
    """Make ``src/cosetlab`` of this checkout importable, or fail."""
    if not (SRC / "cosetlab" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'cosetlab'} not found; run from a cosetlab checkout")
    sys.path.insert(0, str(SRC))
    import cosetlab
    if Path(cosetlab.__file__).resolve().parent != SRC / "cosetlab":
        raise SystemExit(f"error: imported cosetlab from {cosetlab.__file__}, not from {SRC}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the acceptance MASTER_SEED 20260810)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every operation, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="import the package and generate inputs, then exit (times setup_s)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

# A fixed loop of interpreter and small-array numpy work, shaped like one
# decode trial.  Timed next to every operation, it measures how fast this
# shared machine is running at that moment; the machine's speed drifts by
# up to a quarter over minutes, far more than the bounds allow.
_REF_ROWS = np.random.default_rng(0).integers(0, 2, size=(256, 16))
_REF_LOGW = np.log2(np.random.default_rng(1).random((16, 2)))
_REF_POS = np.arange(16)


def reference_s() -> float:
    t0 = time.perf_counter()
    counts = {}
    for i in range(200):
        scores = _REF_LOGW[_REF_POS[None, :], (_REF_ROWS + i) % 2].sum(axis=1)
        k = int(scores.argmax())
        counts[k % 31] = counts.get(k % 31, 0) + float(scores[k])
    return time.perf_counter() - t0


class Pass:
    """One run through the workload's operations."""

    def __init__(self):
        self.wall = 0.0
        self.times = {}    # op name -> seconds
        self.ref = {}      # op name -> reference-loop time around it
        self.rows = {}     # op name -> parsed result rows
        self.errors = {}   # op name -> repr of the exception it raised


def run_pass(wl, tracer=None) -> Pass:
    """Untraced when ``tracer`` is None, else the traced replay."""
    from workloads import rows_of

    ps, results, ctx = Pass(), {}, {}
    ref = reference_s()
    for op in wl.ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                results[op.name] = op.run()
            else:
                tracer.run_id = f"{wl.name}/{wl.seed}/{op.name}"
                with tracer.span(f"op.{op.name}"):
                    results[op.name] = op.replay(tracer, ctx)
        except Exception as exc:  # a failed operation is counted, not fatal
            ps.errors[op.name] = repr(exc)
        ps.times[op.name] = time.perf_counter() - t0
        after = reference_s()
        ps.ref[op.name], ref = (ref + after) / 2, after
    ps.wall = sum(ps.times.values())
    if tracer is not None and not ps.errors:
        tracer.run_id = f"{wl.name}/{wl.seed}/probe"
        with tracer.span("op.probe"):
            wl.probe(tracer, ctx)
    ps.rows = {name: rows_of(res) for name, res in results.items()}
    return ps


def wall_ref(ps: Pass) -> float:
    """Pass time in reference-loop times, each operation against its own."""
    return sum(ps.times[name] / ps.ref[name] for name in ps.times)


def work_per_s(wl, ps: Pass) -> float:
    """Trials (or exact terms) per second of the operations that do them."""
    work = {op.name: op.trials + op.terms for op in wl.ops if op.trials + op.terms}
    return sum(work.values()) / sum(ps.times[name] for name in work)


def output_checks(wl, ps: Pass) -> list:
    """(label, ok) for each output check on one pass's rows."""
    try:
        return wl.check(ps.rows)
    except Exception as exc:  # missing or malformed rows fail the run
        return [(f"output checks raised {exc!r}", False)]


def same_rows(label: str, pairs) -> list:
    """One check per operation and pair of passes: the result rows are equal."""
    return [(f"{name}: {label}", rows == b.rows.get(name))
            for a, b in pairs for name, rows in a.rows.items()]


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def timing(samples) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    out = {"median": statistics.median(ordered), "n": len(ordered)}
    if len(ordered) > 10:
        out[f"p{100 * (len(ordered) - 10) // len(ordered)}"] = ordered[len(ordered) - 11]
    return out


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                         text=True, timeout=30)
    return res.stdout.strip() or "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def blas_threads() -> str:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return f"{os.environ[var]} ({var})"
    return f"{os.cpu_count()} (BLAS default: one per core)"


def run_record(wl, args, passes) -> dict:
    return {
        "workload": wl.name, "seed": wl.seed, "size": wl.size, "seconds": args.seconds,
        "trace": args.trace, "cores": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas_threads": blas_threads(), "git_sha": git_sha(),
        "src_lines": src_lines(), "cap_headroom": wl.headroom, "passes": len(passes),
        "pass_wall_s": timing([ps.wall for ps in passes]),
        "op_s": {op.name: timing([ps.times[op.name] for ps in passes]) for op in wl.ops},
        "warnings": sorted({w for op in wl.ops for w in op.warnings}),
    }


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def setup_sample(args) -> float:
    """Fresh interpreter to ready: import cosetlab and generate the inputs.

    The child prints its ``perf_counter`` when ready; on Linux that clock is
    CLOCK_MONOTONIC, shared by all processes, so interpreter exit and the
    parent's wait are not counted.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, check=True, timeout=120, cwd=ROOT, capture_output=True, text=True)
    return float(res.stdout.split()[-1]) - t0


def measure(wl, seconds: float, between):
    """Untraced passes until the next one would end after ``seconds``;
    ``between`` runs after each pass."""
    passes, start = [], time.perf_counter()
    while True:
        passes.append(run_pass(wl))
        between()
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(ps.wall for ps in passes) > seconds:
            return passes


def end_to_end(args, wl):
    setup = []

    def sample_setup():
        # spread across the run, so a short change in machine speed moves few samples
        if len(setup) < SETUP_SPAWNS:
            setup.append(setup_sample(args))

    passes = measure(wl, args.seconds, sample_setup)
    while len(setup) < SETUP_SPAWNS:
        sample_setup()
    checks = output_checks(wl, passes[-1]) + same_rows(
        "rows equal the first pass's", [(ps, passes[0]) for ps in passes[1:]])
    ok_passes = [ps for ps in passes if not ps.errors]
    values = {
        "wall_ref": statistics.median(wall_ref(ps) for ps in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # printed and recorded, not bounded: see perfbench/design.json
        "wall_s": statistics.median(ps.wall for ps in passes),
        wl.work_name: (statistics.median(work_per_s(wl, ps) for ps in ok_passes)
                       if ok_passes else float("nan")),
    }
    record = run_record(wl, args, passes)
    record["setup_s"] = timing(setup)
    record["reference_s"] = timing([r for ps in passes for r in ps.ref.values()])
    return passes, checks, values, record


def per_layer(args, wl):
    import workloads
    from tracing import SpanView, Tracer

    refs, traced, tracers, start = [], [], [], time.perf_counter()
    while True:
        refs.append(run_pass(wl))
        tracers.append(Tracer())
        traced.append(run_pass(wl, tracers[-1]))
        pair = statistics.median(a.wall + b.wall for a, b in zip(refs, traced))
        if time.perf_counter() - start + pair > args.seconds:
            break
    checks = (output_checks(wl, refs[-1])
              + same_rows("rows equal the first pass's", [(ps, refs[0]) for ps in refs[1:]])
              + same_rows("traced rows equal untraced rows", zip(traced, refs)))
    per_pass = []
    for tr, ref, ps in zip(tracers, refs, traced):
        view = SpanView(tr.spans)
        values = wl.layer_metrics(view)
        values["cli.self_s"] = view.layer_self_s("cli")
        values["cli.write_csv_us"] = view.median_us("cli.write_csv")
        # in reference-loop units, as seconds at the pair's median reference time
        ref_s = statistics.median([*ps.ref.values(), *ref.ref.values()])
        values["bench.trace_overhead_s"] = (wall_ref(ps) - wall_ref(ref)) * ref_s
        per_pass.append(values)
    values = {}
    for k in per_pass[0]:
        samples = [p[k] for p in per_pass]
        counted = all(isinstance(v, int) for v in samples)
        values[k] = (statistics.median_low if counted else statistics.median)(samples)
    spans = [s for tr in tracers for s in tr.spans]
    for other in workloads.WORKLOADS:
        if other == wl.name:
            continue
        owl = workloads.build(other, wl.seed, str(OUT), "tiny")
        tr = Tracer()
        ps = run_pass(owl, tr)
        checks.extend((f"{other} (tiny): {name} raised {err}", False)
                      for name, err in ps.errors.items())
        values.update(owl.layer_metrics(SpanView(tr.spans)))
        spans.extend(tr.spans)
    with open(OUT / f"spans-{wl.name}-{wl.seed}.json", "w") as fh:
        json.dump(spans, fh)
    record = run_record(wl, args, refs)
    record["traced_pass_wall_s"] = timing([ps.wall for ps in traced])
    return refs + traced, checks, values, record


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads
    from workloads import MASTER_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    if args.seed is None:
        args.seed = MASTER_SEED
    wl = workloads.build(args.workload, args.seed, str(OUT), args.size)
    if args.setup_only:
        print(time.perf_counter())
        return 0

    passes, checks, values, record = (per_layer if args.trace else end_to_end)(args, wl)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (values[m["name"]], m["unit"])
               for m in declared["per_layer" if args.trace else "end_to_end"]}

    raised = [(f"{name} raised {err}", False) for ps in passes for name, err in ps.errors.items()]
    outcomes = checks + raised
    failed = [label for label, ok in outcomes if not ok]
    record["failed_frac"] = len(failed) / len(outcomes)
    record["failed_checks"] = failed[:20]
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"wall_s = {values['wall_s']:.6g} s (unbounded)")
        print(f"{wl.work_name} = {values[wl.work_name]:.6g} 1/s (unbounded)")
        record.update(wall_s=values["wall_s"], **{wl.work_name: values[wl.work_name]})
    print(f"failed_frac = {record['failed_frac']:.6g} share of operations "
          f"({len(failed)} of {len(outcomes)})")
    print("record " + json.dumps(record))
    print(json.dumps({"correct": not failed, "attempted": len(outcomes), "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
