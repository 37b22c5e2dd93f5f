"""tentlab benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every round of the workload runs in a fresh
interpreter (``bench/worker.py``) that imports tentlab from ``src/``, so lru
caches and heap growth never carry over from one round or workload to the
next, and the rounds repeat until about ``--seconds`` of rounds are measured.
A worker's set-up (interpreter start, ``import tentlab``, building the seeded
inputs) is timed on its own, as ``setup_s``.

``--trace 0`` reports the end-to-end metrics: median round time, operations
per second, per-operation latency percentiles, peak RSS and set-up time.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of ``bench/tracing.py``, the tracing overhead and, on
``enumerate``, the chain oracle with two worker processes.

The output is a table of every metric with its unit and sample count, one
``# env`` line, and, last, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("audit", "enumerate", "conjugacy", "queries")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
MIN_ROUNDS = 3  # a median needs three rounds
MIN_TRACED = 2
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
RUN_BUDGET_S = 150  # no round starts that would end later than this into the run


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Round:
    """What one worker reported, plus its set-up time (at reference speed and
    raw) and its whole lifetime."""

    def __init__(self, setup_s: float, raw_setup_s: float, life_s: float, report: dict | None):
        self.setup_s = setup_s
        self.raw_setup_s = raw_setup_s
        self.life_s = life_s
        self.report = report or {}

    def __getitem__(self, key):
        return self.report[key]


def _worker(workload: str, seed: int, mode: str, cpus=()) -> Round:
    env = dict(os.environ, PYTHONHASHSEED="0")
    cpu_list = ",".join(map(str, cpus))
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, cpu_list]
    before = speed.calibrate()
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        after = speed.calibrate()  # the worker waits for "go" meanwhile
        out, _ = proc.communicate("go\n" if mode != "setup" else "stop\n")
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    life_s = time.perf_counter() - start
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited with code {proc.returncode}")
    scaled = setup_s * speed.scale((before, after), "alloc")
    if mode == "setup":
        return Round(scaled, setup_s, life_s, None)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker for {workload} printed no report")
    return Round(scaled, setup_s, life_s, json.loads(lines[-1]))


def percentile(values, q: float) -> float:
    """Linear interpolation between the closest ranks (q in [0, 1])."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _rounds(workload: str, seed: int, seconds: float, modes, minimum: int, started: float):
    """Repeat the modes in turn until ``seconds`` of rounds are measured."""
    _worker(workload, seed, "setup")  # byte-compiles the sources; not counted
    runs = {mode: [] for mode in modes}
    spent = 0.0
    while True:
        life = 0.0
        for mode in modes:
            r = _worker(workload, seed, mode)
            runs[mode].append(r)
            spent += r["wall_s"]
            life += r.life_s
        last = sum(runs[mode][-1]["wall_s"] for mode in modes)
        done = len(runs[modes[0]]) >= minimum and spent + last > seconds
        if done or time.monotonic() - started + life > RUN_BUDGET_S:
            return runs


def _failures(rounds) -> tuple[int, int, list[str]]:
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    messages = [m for r in rounds for m in r["failures"]]
    return attempted, failed, messages


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run one benchmark; return (result, sample counts, extra lines to print).

    The runner and its workers share one CPU, so a calibration always sees
    the CPU that the timed code ran on; the two-process chain oracle gets
    all of them back.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:1])
    try:
        return _measure(workload, seed, seconds, trace, cpus)
    finally:
        os.sched_setaffinity(0, cpus)


def _measure(workload: str, seed: int, seconds: float, trace: bool, cpus):
    started = time.monotonic()
    lines: list[str] = []
    if not trace:
        runs = _rounds(workload, seed, seconds, ("plain",), MIN_ROUNDS, started)["plain"]
        setups = [r.setup_s for r in runs]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_worker(workload, seed, "setup").setup_s)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "ops_per_s": statistics.median(r["ops"] / r["wall_s"] for r in runs),
            # A round's latency percentiles, median over rounds: one slow
            # round cannot become the p99 of a workload with few requests.
            "op_p50_ms": statistics.median(percentile(r["latencies"], 0.50) for r in runs) * 1e3,
            "op_p99_ms": statistics.median(percentile(r["latencies"], 0.99) for r in runs) * 1e3,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
        }
        units = END_TO_END
        samples = dict.fromkeys(units, len(runs))
        samples["setup_s"] = len(setups)
        samples["op_p50_ms"] = samples["op_p99_ms"] = sum(len(r["latencies"]) for r in runs)
        checked = runs
        kernels = [k for r in runs for k in r["kernels"]]
        kernel_medians = {k: statistics.median(t[k] for t in kernels) for k in sorted(kernels[0])}
        lines.append(
            f"# raw seconds: wall_s {statistics.median(r['raw_wall_s'] for r in runs):.6g}, "
            f"setup_s {statistics.median(r.raw_setup_s for r in runs):.6g}; kernel medians "
            + ", ".join(f"{k} {t:.6g}" for k, t in kernel_medians.items())
        )
    else:
        from tracing import UNITS

        both = _rounds(workload, seed, seconds, ("plain", "traced"), MIN_TRACED, started)
        plain, traced = both["plain"], both["traced"]
        metrics = {name: statistics.median(r["layers"][name] for r in traced) for name in UNITS}
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.overhead_s"] = traced_wall - statistics.median(r["wall_s"] for r in plain)
        checked = plain + traced
        # Zero where the workload never runs the chain oracle.
        metrics["commutants.chain_w2_s"] = 0.0
        if workload == "enumerate":
            pool = _worker(workload, seed, "chain_w2", cpus)
            metrics["commutants.chain_w2_s"] = pool["raw_wall_s"]
            checked.append(pool)
        units = dict(UNITS, **{"trace.overhead_s": "s", "commutants.chain_w2_s": "s"})
        samples = dict.fromkeys(units, len(traced))
        samples["trace.overhead_s"] = len(traced) + len(plain)
        samples["commutants.chain_w2_s"] = 1 if workload == "enumerate" else 0
        lines.append(
            f"# {'function':<40} {'calls':>7} {'total_s':>12} {'self_s':>12}  (last traced round, raw s)"
        )
        for name, (_layer, calls, total, own) in sorted(traced[-1]["functions"].items()):
            lines.append(f"# {name:<40} {calls:>7} {total:>12.6f} {own:>12.6f}")
    attempted, failed, messages = _failures(checked)
    lines += [f"# failed: {m}" for m in messages]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, samples, lines


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
    }


def _commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tentlab" / "__init__.py").is_file():
        sources = ROOT / "src"
        print(f"error: no tentlab sources under {sources}; run from a checkout", file=sys.stderr)
        return 2
    try:
        result, samples, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, metric in result["metrics"].items():
        print(f"# {name:<42} {metric['value']:>14.6g} {metric['unit']:<6} samples={samples[name]}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"# failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    for line in lines:
        print(line)
    print("# env " + json.dumps(environment()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
