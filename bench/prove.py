"""Repeat benchmark runs over seeds and check that the figures are steady.

Usage:
    python3 bench/prove.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                           [--out results.json] [--compare earlier.json]

Runs ``bench/run.py`` once per seed and workload, one run at a time, cycling
through the workloads for each seed.  For every end-to-end metric it prints
the median and the spread, which is the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound from ``BENCHMARK.json``.  ``--out`` saves every
run's metrics and report digests; ``--compare`` checks a new set against a
saved one: no median worse by more than its bound, and identical report
digests for every seed the two sets share.  Exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(config: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*config["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_work" / f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    return {"workload": workload, "seed": seed, "result": result,
            "digests": record["digests"], "failures": record["failures"],
            "machine": record["machine"]}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        rows = [r for r in runs if r["workload"] == workload]
        for m in metrics:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in rows]
            med = statistics.median(values)
            spread = None
            if len(values) >= 2 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(med)
            summary[f"{workload}/{m['name']}"] = {"median": med, "spread": spread,
                                                  "n": len(values)}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in config["workloads"]])
    metrics = config["per_layer" if args.trace else "end_to_end"]
    runs = []
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            run = run_once(config, workload, seed, args.trace)
            runs.append(run)
            print(f"{workload} seed {seed}: correct={run['result']['correct']} "
                  f"failed={run['result']['failed']}/{run['result']['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in run["result"]["metrics"].items()), flush=True)

    ok = all(r["result"]["correct"] for r in runs)
    summary = summarize(runs, metrics)
    bounds = {m["name"]: m.get("bound") for m in metrics}
    lower_is_better = {m["name"]: m["better"] == "lower" for m in metrics}
    print("\nmetric                                median      spread  bound")
    for key, s in summary.items():
        bound = bounds[key.split("/", 1)[1]]
        flag = ""
        if bound is not None and s["spread"] is not None:
            if s["spread"] > bound:
                flag, ok = "  OVER BOUND", False
            elif s["spread"] > bound / 3:
                flag = "  over a third of the bound"
        spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{key:36s} {s['median']:10.6g} {spread:>9s}  {bound}{flag}")

    if args.compare:
        earlier = json.loads(args.compare.read_text())
        print(f"\ncompared with {args.compare}:")
        for key, s in summary.items():
            bound, old = bounds[key.split("/", 1)[1]], earlier["summary"].get(key)
            if bound is None or old is None:
                continue
            change = (s["median"] - old["median"]) / abs(old["median"])
            worse = (change if lower_is_better[key.split("/", 1)[1]] else -change) > bound
            ok = ok and not worse
            print(f"{key:36s} {old['median']:10.6g} -> {s['median']:10.6g} "
                  f"({change:+.2%}){'  WORSE THAN BOUND' if worse else ''}")
        old_digests = {(r["workload"], r["seed"]): r["digests"] for r in earlier["runs"]}
        shared = [r for r in runs if (r["workload"], r["seed"]) in old_digests]
        same = [r for r in shared if r["digests"] == old_digests[(r["workload"], r["seed"])]]
        ok = ok and len(same) == len(shared)
        print(f"report digests identical for {len(same)} of {len(shared)} shared runs")

    if args.out:
        args.out.write_text(json.dumps({"runs": runs, "summary": summary,
                                        "machine": runs[0]["machine"]}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
