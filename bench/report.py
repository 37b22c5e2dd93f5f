"""Run the benchmark over workloads and seeds and summarise every metric.

    python3 bench/report.py                          # all workloads, seed 1
    python3 bench/report.py --seeds 1-10 --seconds 15 --json out.json
    python3 bench/report.py --workloads enumerate --trace

Each (workload, seed) pair is one run of ``bench/run.py``'s measurement.  For
every metric the summary gives its unit, the median over the runs, the first
and third quartiles (``statistics.quantiles(values, n=4)``), the spread
(quartile distance over the median) and the sample count inside one run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json", help="also write the summary here")
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)
    summary = {
        "environment": run.environment(),
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        samples: dict[str, int] = {}
        attempted = failed = 0
        for seed in seeds:
            try:
                result, counts, _ = run.measure(workload, seed, args.seconds, args.trace)
            except run.BenchError as exc:
                print(f"error: {workload} seed {seed}: {exc}", file=sys.stderr)
                return 1
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
                samples[name] = counts[name]
            print(f"# {workload} seed {seed} done", file=sys.stderr, flush=True)
        rows = {
            name: dict(summarise(v), unit=units[name], samples=samples[name])
            for name, v in values.items()
        }
        summary["workloads"][workload] = {"attempted": attempted, "failed": failed, "metrics": rows}
        print(f"\n{workload}: {len(seeds)} run(s), failed_frac {failed / attempted:.3g}", end="")
        print(f" ({failed} of {attempted})")
        header = f"{'metric':<42} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}"
        print(f"  {header} samples/run")
        for name, row in rows.items():
            print(
                f"  {name:<42} {row['unit']:<6} {row['median']:>12.6g} {row['q1']:>12.6g} "
                f"{row['q3']:>12.6g} {row['spread']:>8.4f} {row['samples']}"
            )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
