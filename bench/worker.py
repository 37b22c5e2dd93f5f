"""One round of one workload in a fresh interpreter.

Usage: worker.py WORKLOAD SEED MODE, where MODE is ``setup`` (stop after
set-up), ``plain`` (an untimed-tracing round), ``traced`` (a round with the
tracer installed) or ``chain_w2`` (the depth-5 chain oracle with two worker
processes).

The worker imports tentlab from the checkout's ``src/``, builds the seeded
inputs and prints ``ready``; the parent times that as set-up.  It then waits
for ``go`` on stdin, runs the round, checks every output against the
references, and prints one JSON line with the timings and the failures.
"""

from __future__ import annotations

import bisect
import json
import os
import resource
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
MAX_REPORTED_FAILURES = 5
CALIBRATE_EVERY_S = 0.25


def _run_ops(ops, period: float):
    """Make every call in order while ``speed.Sampler`` calibrates the CPU
    every ``period`` seconds (0: only before and after).

    Returns the (args, output) pairs, the raw latencies (sampler time taken
    out), the latencies at reference speed, the summed elapsed time of the
    calls, the errors raised, and the kernel times.  A call is scaled by the
    samples taken during it and the one on either side of it.
    """
    clock = time.perf_counter
    results = [None] * len(ops)
    raw = [0.0] * len(ops)
    spans = [(0.0, 0.0)] * len(ops)
    errors = {}
    prev = None
    with speed.Sampler(period) as sampler:
        for i, op in enumerate(ops):
            fn = getattr(op.module, op.name)
            args = (prev, *op.args) if op.chained else op.args
            t0 = clock()
            stolen = sampler.stolen
            try:
                out = fn(*args, **op.kwargs)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = None
                errors[i] = f"{type(exc).__name__}: {exc}"
            t1 = clock()
            raw[i] = t1 - t0 - (sampler.stolen - stolen)
            spans[i] = (t0, t1)
            results[i] = (args, out)
            prev = out
    times = [t for t, _ in sampler.marks]
    scaled = [0.0] * len(ops)
    for i, (t0, t1) in enumerate(spans):
        lo = bisect.bisect_left(times, t0) - 1
        hi = bisect.bisect_right(times, t1) + 1
        scaled[i] = raw[i] * speed.scale([k for _, k in sampler.marks[lo:hi]], ops[i].kernel)
    elapsed = sum(t1 - t0 for t0, t1 in spans)
    return results, raw, scaled, elapsed, errors, [k for _, k in sampler.marks]


def _requests(ops, latencies) -> list[float]:
    """Latency of each client request: a call plus the calls that follow it."""
    out: list[float] = []
    for op, latency in zip(ops, latencies):
        if op.follows and out:
            out[-1] += latency
        else:
            out.append(latency)
    return out


def _check(ops, results, errors) -> list[str]:
    failures = []
    for i, (op, (args, out)) in enumerate(zip(ops, results)):
        problem = errors.get(i)
        if problem is None and op.check is not None:
            try:
                problem = op.check(args, out)
            except Exception as exc:  # a malformed output fails its check
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failures.append(f"{op.label} #{i}: {problem}")
    return failures


def main() -> int:
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tentlab

    if not Path(tentlab.__file__).resolve().is_relative_to(src):
        print(f"tentlab imported from {tentlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.build(workload, seed, ROOT)
    ops = [workloads.chain_w2_op()] if mode == "chain_w2" else wl.ops
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    if mode == "chain_w2":
        os.sched_setaffinity(0, [int(c) for c in sys.argv[4].split(",")])
    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer(tentlab)
        tracer.install()
        tracer.begin()
    # The two-process pool shares the CPUs a calibration would run on, so
    # its run is not sampled and is reported in raw seconds.
    period = 0 if mode == "chain_w2" else CALIBRATE_EVERY_S
    results, raw, scaled, elapsed, errors, kernels = _run_ops(ops, period)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall, raw_wall = sum(scaled), sum(raw)
    latencies = _requests(ops, scaled)
    report = {
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "ops": len(latencies),
        "rss_mb": rss_mb,
        "kernels": kernels,
    }
    if mode == "plain":
        report["latencies"] = latencies
    if tracer is not None:
        # Read the trace before the checks, whose CLI runs would add spans.
        tracer.end()
        # Spans include the sampler's time; scale them by the calls' elapsed time.
        factor = wall / elapsed
        report["layers"] = {
            name: value * factor if tracing.UNITS[name] == "s" else value
            for name, value in tracer.metrics().items()
        }
        report["functions"] = tracer.self_times()
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = [dict(zip(("name", "layer", "start", "end", "parent"), s)) for s in tracer.spans]
        (out_dir / f"spans-{workload}-{seed}.json").write_text(json.dumps(spans))

    failures = _check(ops, results, errors)
    attempted = len(ops)
    if mode != "chain_w2":
        for name, run in wl.cli_checks.items():
            attempted += 1
            try:
                problem = run()
            except Exception as exc:
                problem = f"raised {type(exc).__name__}: {exc}"
            if problem is not None:
                failures.append(f"{name}: {problem}")
    if wl.cleanup is not None:
        wl.cleanup()

    report["attempted"] = attempted
    report["failed"] = len(failures)
    report["failures"] = failures[:MAX_REPORTED_FAILURES]
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
