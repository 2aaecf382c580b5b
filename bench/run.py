"""splicegenus benchmark: CLI commands on seeded inputs, answers checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of the workload runs in a
fresh worker process (bench/worker.py), because genus._h1_memo is global
to a process and keyed by graph fingerprint: a second in-process pass would
find most of the work already done.  Passes repeat until about S seconds
have gone, at least MIN_PASSES of them, and each end-to-end metric is the
median over passes (per-op latencies are pooled over passes).  With
--trace 1 untraced and traced passes alternate; the traced ones give the
per-layer metrics, and the difference between the two is the tracing
overhead.  The last line of stdout is one JSON object with the result.

An operation fails on an exception (MemoryError and RecursionError
included), a non-zero exit code, a wrong answer, or overrunning its time
budget or the worker's memory cap; a failed operation is scored at its
time budget in every time metric.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_PASSES = 2
HARD_LIMIT_S = 150      # a run must end well within 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_p90_s": "s",
              "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {"_s": "s", "_ratio": "ratio", "_frac": "ratio", "max_degree": "degree",
                   "h_order_max": "order"}


def per_layer_unit(name):
    return next((u for suffix, u in PER_LAYER_UNITS.items() if name.endswith(suffix)),
                "count")


class SetupError(Exception):
    """A worker could not get as far as its first operation."""


@dataclass
class Pass:
    traced: bool
    setup_s: float
    budget_s: float
    ops: list              # (scaled seconds, failure reason or None, wrong)
    raw_wall_s: float      # unscaled, for the record
    maxrss_kb: int | None = None
    layers: dict = field(default_factory=dict)

    def scores(self):
        return [score(s, failed, self.budget_s) for s, failed, _ in self.ops]

    def wall_s(self):
        return sum(self.scores())


def score(seconds, failed, budget_s):
    """A failed operation counts as taking its whole budget, so that fixing a
    failure can never read as a slowdown."""
    return budget_s if failed else seconds


def tail_percentile(values, q=0.9, beyond=10):
    """(value, percentile, samples above it) at the q-th percentile, or at the
    highest percentile with at least ``beyond`` samples above it, never below
    the median.  Linear interpolation between the sorted values, so that a
    small shift of one operation's time moves the value a little, not from
    one operation to the next."""
    xs = sorted(values)
    n = len(xs)
    q = max(0.5, min(q, (n - beyond) / n))
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    value = xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return value, q, sum(x > value for x in xs)


def speed_factors(cals, inside):
    """For each operation, REFERENCE_S over the mean time of the calibration
    chunks just before it, inside it and just after it.  ``cals`` holds
    (index of the last operation before the chunk, or -1; chunk seconds) for
    the chunks between operations, ``inside`` the chunk times per operation."""
    out = []
    for i, chunks in enumerate(inside):
        around = ([c for j, c in cals if j < i][-1:] + chunks
                  + [c for j, c in cals if j >= i][:1])
        out.append(calibrate.REFERENCE_S / statistics.fmean(around))
    return out


def run_pass(workload, seed, traced, workdir, timeout_s):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           "1" if traced else "0", str(workdir)]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    cals = [(r["cal"], r["s"]) for r in lines if "cal" in r]
    if not lines or "ready" not in lines[0] or not cals:
        raise SetupError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    head, rest = lines[0], lines[1:]
    done = [r for r in rest if "op" in r]
    ops = [(r["s"] * f, r["failed"], r["wrong"])
           for r, f in zip(done, speed_factors(cals, [r["inside"] for r in done]))]
    died = f"worker ended early (exit {proc.returncode})"
    ops += [(head["budget_s"], died, False)] * (head["ops"] - len(ops))
    tail = rest[-1] if rest and "maxrss_kb" in rest[-1] else {}
    return Pass(traced=traced,
                setup_s=(head["ready"] - spawned) * calibrate.REFERENCE_S / cals[0][1],
                budget_s=head["budget_s"], ops=ops,
                raw_wall_s=sum(score(r["s"], r["failed"], head["budget_s"]) for r in done),
                maxrss_kb=tail.get("maxrss_kb"), layers=tail.get("layers", {}))


def run_passes(workload, seed, seconds, trace):
    """Passes until ``seconds`` are used (estimated from the slowest pass so
    far), at least MIN_PASSES; with trace, untraced and traced alternate."""
    base = WORK / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(base, ignore_errors=True)
    start = time.monotonic()
    passes, longest = [], 0.0
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        t0 = time.monotonic()
        timeout = HARD_LIMIT_S - (t0 - start)
        passes.append(run_pass(workload, seed, traced, base / f"pass{len(passes)}", timeout))
        longest = max(longest, time.monotonic() - t0)
        used = time.monotonic() - start
        if used + longest > HARD_LIMIT_S:
            break
        if len(passes) >= MIN_PASSES and used + longest > seconds:
            break
    return passes


def end_to_end(passes):
    scores = [x for p in passes for x in p.scores()]
    p90, q, beyond = tail_percentile(scores)
    rss = [p.maxrss_kb / 1024 for p in passes if p.maxrss_kb]
    if not rss:   # no worker lived to report; take the largest child's
        rss = [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024]
    metrics = {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "wall_s": statistics.median(p.wall_s() for p in passes),
        "op_p50_s": statistics.median(scores),
        "op_p90_s": p90,
        "peak_rss_mb": statistics.median(rss),
    }
    notes = [f"op_p90_s is the p{100 * q:.1f} of {len(scores)} op scores "
             f"({beyond} above it)"]
    return metrics, notes


def per_layer(passes):
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    # layer times are scaled like the operations: by the pass's mean factor
    scale = [p.wall_s() / p.raw_wall_s for p in traced]
    metrics = {name: statistics.median(p.layers[name] * (f if name.endswith("_s") else 1)
                                       for p, f in zip(traced, scale))
               for name in traced[0].layers}
    attempted = sum(len(p.ops) for p in passes)
    metrics["fail_frac"] = sum(bool(f) for p in passes for _, f, _ in p.ops) / attempted
    untraced_wall = statistics.median(p.wall_s() for p in plain)
    traced_wall = statistics.median(p.wall_s() for p in traced)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    notes = [f"wall_s untraced {untraced_wall:.4f} s over {len(plain)} passes, "
             f"traced {traced_wall:.4f} s over {len(traced)} passes"]
    return metrics, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "splicegenus" / "cli.py").is_file():
        print(f"error: no splicegenus sources under {SRC}; run from the root "
              "of a splicegenus checkout", file=sys.stderr)
        return 2
    # the build: byte-compile once, so no pass pays for it in its set-up
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("error: splicegenus sources do not compile", file=sys.stderr)
        return 2
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace and not any(p.traced for p in passes):
        print("error: no traced pass fitted in the time limit", file=sys.stderr)
        return 2
    if args.trace:
        metrics, notes = per_layer(passes)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics, notes = end_to_end(passes)
        units = END_TO_END
    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if op[1]]
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{len(ops)} ops, {len(failed)} failed")
    for reason in sorted({str(f) for _, f, _ in failed})[:10]:
        print(f"  failure: {reason}")
    print("  pass wall_s: " + " ".join(f"{p.wall_s():.4f}" for p in passes)
          + "; unscaled: " + " ".join(f"{p.raw_wall_s:.4f}" for p in passes))
    for note in notes:
        print(f"  {note}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not any(wrong for _, _, wrong in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
