"""One pass of a workload, in a fresh process.

    python3 worker.py WORKLOAD SEED TRACE WORKDIR

Run by run.py with ``src`` on PYTHONPATH.  The worker imports splicegenus,
writes the seeded inputs, caps its own address space, then runs every
operation through ``splicegenus.cli.run`` with stdout captured and a time
budget, and checks each answer outside the timed region.  It prints one
JSON line when it is ready, one per operation, one per calibration chunk
(calibrate.py, run between operations at least every CAL_EVERY_S of
operation time and after the last) and one at the end, so the parent knows
how far a worker that died got.  A chunk also runs inside an operation
every SAMPLE_EVERY_S of CPU time (SIGPROF), so that a long operation is
scaled by the speed during it; its time is taken out of the operation's
and out of every span.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import calibrate

CAL_EVERY_S = 0.25
SAMPLE_EVERY_S = 0.25


class OpTimeout(BaseException):
    """Raised by SIGALRM when an operation overruns its budget.

    A BaseException, so that no ``except Exception`` in the program under
    test can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def emit(obj):
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


class Sampler:
    """Calibration chunks run by SIGPROF while an operation is running."""

    def __init__(self, tracer=None):
        self.chunks = []
        self.tracer = tracer
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame):
        seconds = calibrate.chunk()
        self.chunks.append(seconds)
        if self.tracer is not None:
            self.tracer.paused += seconds

    def start(self):
        self.chunks = []
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        return self.chunks


def run_op(cli, op, budget_s, sampler):
    """(seconds, failure reason or None, wrong answer?, chunks run inside)
    for one operation."""
    out, err = io.StringIO(), io.StringIO()
    reason = None
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    sampler.start()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(op.argv + ["--format", "json"])
    except OpTimeout:
        reason = f"over the {budget_s} s budget"
    except (MemoryError, RecursionError) as exc:
        reason = type(exc).__name__
    except Exception as exc:   # any other escape from the CLI is a failure
        reason = "".join(traceback.format_exception_only(exc)).strip()
    finally:
        chunks = sampler.stop()
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0 - sum(chunks)
    if reason is None and rc != 0:
        reason = f"exit {rc}: {err.getvalue().strip()[-300:]}"
    if reason is None and elapsed > budget_s:
        reason = f"over the {budget_s} s budget"
    if reason is not None:
        return elapsed, reason, False, chunks
    try:
        wrong = op.check(json.loads(out.getvalue()))
    except (ValueError, KeyError, TypeError) as exc:
        wrong = f"unreadable output: {exc!r}"
    return elapsed, wrong, wrong is not None, chunks


def main(argv):
    workload_name, seed, trace, workdir = argv[0], int(argv[1]), argv[2] == "1", Path(argv[3])
    import splicegenus.cli as cli
    import workloads

    workload = workloads.WORKLOADS[workload_name]
    workdir.mkdir(parents=True, exist_ok=True)
    ops = workload.build(seed, workdir)
    cap = workload.mem_mb << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    signal.signal(signal.SIGALRM, _alarm)
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    sampler = Sampler(tracer)
    emit({"ready": time.clock_gettime(time.CLOCK_MONOTONIC), "ops": len(ops),
          "budget_s": workload.budget_s})
    emit({"cal": -1, "s": calibrate.chunk()})
    since_cal = 0.0
    for i, op in enumerate(ops):
        seconds, reason, wrong, chunks = run_op(cli, op, workload.budget_s, sampler)
        emit({"op": op.label, "s": seconds, "failed": reason, "wrong": wrong,
              "inside": chunks})
        since_cal += seconds
        if since_cal >= CAL_EVERY_S or i == len(ops) - 1:
            emit({"cal": i, "s": calibrate.chunk()})
            since_cal = 0.0
    result = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans(), tracer.counters)
        tracer.write(workdir / "spans.tsv")
    emit(result)


if __name__ == "__main__":
    main(sys.argv[1:])
