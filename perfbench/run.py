"""Run one benchmark workload against the library in ``src/`` of this checkout.

    python3 perfbench/run.py --workload separate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs each op of a fixed number of rounds (about a third of the
time at the seed commit) untraced and then again with span tracing installed,
and reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report and a JSON line of run metadata.  The exit code is 0
only when every output check passed, 1 when one failed and 2 when the
library cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
MIN_OPS = 20  # the median needs ten samples beyond it
TRACE_SHARE = 1 / 3
PERCENTILES = (50, 90, 99)
# The end-to-end metrics of BENCHMARK.json, reported on every workload.  The
# latency percentiles and fail_frac are printed but not declared there: p90
# and p99 need more ops than some workloads run; on closure and families the
# median is an order statistic at the edge of a cluster of size cells, so it
# jumps between cells from seed to seed; fail_frac is 0 when correct (the
# result carries it as "attempted" and "failed").
DECLARED = ("ops_per_s", "setup_s", "peak_rss_mb")
HEADROOM = 3  # rounds generated per round the seed commit runs in the time
SMOKE_OPS = 2


class OpFailed:
    """An exception raised by an op, kept as its output."""

    def __init__(self) -> None:
        self.text = traceback.format_exc()


def percentile(samples: list[float], p: float) -> float | None:
    """Nearest-rank p-th percentile, or None when fewer than ten samples lie
    beyond it, which is too few to estimate it."""
    rank = math.ceil(p / 100 * len(samples))
    if rank < 1 or len(samples) - rank < 10:
        return None
    return sorted(samples)[rank - 1]


def fresh_import():
    """Import the library from scratch (what a user's process pays)."""
    for name in [m for m in sys.modules if m == "mixcuts" or m.startswith("mixcuts.")]:
        del sys.modules[name]
    lib = importlib.import_module("mixcuts")
    importlib.import_module("mixcuts.cli")
    return lib


def setup(workload, items):
    """Import and build every instance SETUP_REPEATS times; returns the ops
    of the last build and the median set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = perf_counter()
        lib = fresh_import()
        ops = workload.build(lib, items)
        times.append(perf_counter() - start)
    if not Path(lib.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported mixcuts from {lib.__file__}, not from {SRC}")
    return ops, statistics.median(times)


def call(fn):
    try:
        return fn()
    except Exception:  # an op that raises is a failed op, the run goes on
        return OpFailed()


def run_untraced(ops, seconds: float, min_ops: int, max_ops: int | None = None):
    """Run whole rounds until ``seconds`` have passed and at least ``min_ops``
    ops ran (or exactly ``max_ops`` ops).  Returns outputs, per-op latencies,
    per-round op rates and the wall time."""
    outputs, latencies, rates = [], [], []
    start = round_start = perf_counter()
    deadline = start + seconds
    in_round = 0
    for idx, (rnd, _, fn, _) in enumerate(ops):
        t0 = perf_counter()
        outputs.append(call(fn))
        t1 = perf_counter()
        latencies.append(t1 - t0)
        in_round += 1
        if len(outputs) == max_ops:
            break
        if idx + 1 == len(ops) or ops[idx + 1][0] != rnd:
            rates.append(in_round / (t1 - round_start))
            if t1 >= deadline and len(outputs) >= min_ops:
                break
            gc.freeze()  # the outputs kept for checking are the benchmark's, not the library's
            round_start, in_round = perf_counter(), 0
    return outputs, latencies, rates, perf_counter() - start


def run_paired(tracer, ops, count: int):
    """Run each of the first ``count`` ops untraced, then traced, so that
    warm-up and drift in machine speed fall on both sides of the overhead
    ratio.  Returns both outputs and both summed wall times."""
    plain, traced = [], []
    plain_wall = traced_wall = 0.0
    for op_id, (rnd, tag, fn, _) in enumerate(ops[:count]):
        t0 = perf_counter()
        plain.append(call(fn))
        t1 = perf_counter()
        tracer.install()
        tracer.tag = tag
        t2 = perf_counter()
        traced.append(tracer.run_op(op_id, call, fn))
        t3 = perf_counter()
        tracer.uninstall()
        plain_wall += t1 - t0
        traced_wall += t3 - t2
        if op_id + 1 < count and ops[op_id + 1][0] != rnd:
            gc.freeze()  # as in run_untraced
    return plain, traced, plain_wall, traced_wall


def check_all(workload, ops, outputs) -> dict[int, str]:
    """Problems found in the outputs, by op index."""
    errors = {}
    for idx, ((_, _, _, expect), out) in enumerate(zip(ops, outputs)):
        if isinstance(out, OpFailed):
            errors[idx] = f"raised:\n{out.text}"
            continue
        try:
            problem = workload.check(expect, out)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            errors[idx] = problem
    return errors


def digest(workload, outputs) -> str:
    h = hashlib.sha256()
    for out in outputs:
        text = out.text if isinstance(out, OpFailed) else workload.render(out)
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_repeat(workload, seed: int, counts: dict) -> list[str]:
    """Merge exact work counts into this code's record for (workload, seed);
    a count that differs from an earlier run of the same code and seed is an
    error, because the library promises deterministic output."""
    path = WORK / f"record-{workload.name}-seed{seed}-ops{counts['ops']}-{code_hash()}.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    errors = [
        f"{key} = {value!r} differs from an earlier run's {record[key]!r}"
        for key, value in counts.items()
        if key in record and record[key] != value
    ]
    record.update(counts)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return errors


def metadata(workload, args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def run(workload, seed: int, seconds: float, trace: bool, rounds: int, max_ops, report):
    """One run in a scratch directory for generated files; returns (result
    object, exact counts, exit code)."""
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(workload, seed, seconds, trace, rounds, max_ops, report, workdir)
    finally:
        gc.unfreeze()
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()


def measure(workload, seed, seconds, trace, rounds, max_ops, report, workdir):
    start = perf_counter()
    items = workload.generate(seed, rounds, workdir)
    report(f"{workload.name}: generated {rounds} rounds of inputs in {perf_counter() - start:.3f} s")
    # Keep the generated inputs out of the collector's scans: they are the
    # benchmark's data, and scanning them would add noise to every timing.
    gc.collect()
    gc.freeze()
    ops, setup_s = setup(workload, items)
    if trace:  # a fixed amount of work, so per-layer totals compare across commits
        traced_rounds = max(1, round(seconds * TRACE_SHARE / workload.round_seconds))
        n = min(max_ops or len(ops), sum(1 for op in ops if op[0] < traced_rounds))
        tracer = tracing.Tracer()
        outputs, traced, wall, traced_wall = run_paired(tracer, ops, n)
    else:
        outputs, latencies, rates, wall = run_untraced(ops, seconds, MIN_OPS, max_ops)
        n = len(outputs)
    # Work counts that must repeat exactly: those of the first round.
    count_ops = min(n, sum(1 for op in ops if op[0] == 0))
    if not trace and n == len(ops) and wall < seconds:
        report(f"{workload.name}: all {n} generated ops ran before the time was up")
    errors = check_all(workload, ops, outputs)
    failed = len(errors)
    counts = {"ops": count_ops, "digest": digest(workload, outputs[:count_ops])}
    if hasattr(workload, "cuts_returned"):
        counts["violated_cuts"] = sum(workload.cuts_returned(o) for o in outputs[:count_ops] if not isinstance(o, OpFailed))

    if not trace:
        report(f"{workload.name}: {n} ops in {len(rates)} rounds, {wall:.3f} s, seed {seed}, closed loop, 1 client")
        report(f"  round rates (ops/s): {', '.join(f'{r:.4g}' for r in rates)}")
        every = {
            "ops_per_s": (statistics.median(rates) if rates else n / wall, "1/s", f"median of {len(rates)} round rates, overall {n / wall!r}"),
            **{
                f"latency_p{p}_ms": (None if v is None else v * 1000, "ms", f"of {n} samples")
                for p, v in ((p, percentile(latencies, p)) for p in PERCENTILES)
            },
            "fail_frac": (failed / n, "ratio", f"{failed} of {n} ops failed a check"),
            "setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} set-ups"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "peak resident set"),
        }
        for key, (value, unit, note) in every.items():
            shown = "not reported: fewer than 10 samples beyond it" if value is None else f"{value!r} {unit}"
            report(f"  {key:15s} {shown}  ({note})")
        metrics = {k: every[k][:2] for k in DECLARED if every[k][0] is not None}
        run_errors = []
    else:
        errors.update(check_all(workload, ops, traced))
        failed = len(errors)
        own = tracer.self_times()
        bench_s, run_errors = tracing.accounting(tracer, own, traced_wall)
        if digest(workload, traced) != digest(workload, outputs):
            run_errors.append("traced outputs differ from untraced outputs of the same ops")
        prefix = tracing.layer_totals(tracer, own, range(count_ops))
        counts.update(
            {
                "aggregated_cut_calls": prefix["calls"].get("aggregated.aggregated_cut", 0),
                "oracle_evals": prefix["evals"],
                "membership_calls": prefix["calls"].get("hull.membership", 0),
                "lp_cells": prefix["val"].get("exactlp.solve_feasibility", 0),
            }
        )
        layer = tracing.per_layer(tracing.layer_totals(tracer, own))
        layer.update(
            {
                "trace.ops": n,
                "trace.overhead_ratio": traced_wall / wall,
                "trace.wall_s": traced_wall,
                "bench.self_s": bench_s,
            }
        )
        metrics = {k: (v, tracing.unit(k)) for k, v in layer.items()}
        spans = WORK / f"spans-{workload.name}-seed{seed}.tsv"
        tracer.write(spans)
        report(f"{workload.name}: {n} ops, each run untraced then traced: {wall:.3f} s untraced, {traced_wall:.3f} s traced; spans in {spans}")
        shares = sorted(
            ((v / traced_wall, k[: -len(".self_s")]) for k, v in layer.items() if k.endswith("self_s")),
            reverse=True,
        )
        for share, name in shares:
            if share >= 0.005:
                report(f"  {name:45s} {share:7.1%} of traced wall time")
        for key, (value, unit) in metrics.items():
            report(f"  {key:45s} {value!r} {unit}")

    run_errors += check_repeat(workload, seed, counts)
    for idx, err in sorted(errors.items())[:20]:
        report(f"  FAILED op {idx}: {err}")
    for err in run_errors:
        report(f"  FAILED {err}")
    result = {
        "correct": not errors and not run_errors,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, counts, 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload, both modes, a few ops each")
    args = parser.parse_args(argv)
    if not (SRC / "mixcuts" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'mixcuts'}; run from a checkout", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    def report(line: str) -> None:
        print(line, flush=True)

    if args.smoke:
        code = 0
        for workload in WORKLOADS.values():
            for trace in (False, True):
                _, _, rc = run(workload, args.seed, 0.0, trace, 1, SMOKE_OPS, report)
                code = max(code, rc)
        return code

    workload = WORKLOADS[args.workload]
    rounds = math.ceil(args.seconds / workload.round_seconds * HEADROOM) + 1
    result, counts, code = run(workload, args.seed, args.seconds, bool(args.trace), rounds, None, report)
    print(json.dumps({"meta": metadata(workload, args), "exact": counts}))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
