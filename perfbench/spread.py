#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload boost_search --seeds 1 2 3 4 5

Run from the repository root. Uses the command and run length in
BENCHMARK.json, then prints, per metric, the median over the runs and the
distance between the first and third quartile as a share of that median
(statistics.quantiles(values, n=4)), next to the metric's bound: a spread
under a third of the bound reads "ok". The last line is a JSON object of
the medians, for comparing two sets of runs taken at different times.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    values = {}
    for seed in args.seeds:
        command = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", args.trace,
        ]
        out = subprocess.run(command, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: outputs failed their checks: {result}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {shown}", flush=True)

    medians = {}
    for name, vs in values.items():
        median = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        if bound is None:
            verdict = ""
        elif spread < bound / 3:
            verdict = "ok"
        elif spread < bound:
            verdict = "within bound, above a third of it"
        else:
            verdict = "OVER BOUND"
        medians[name] = median
        print(f"{name:28s} median {median:<12.6g} spread {spread:.4f}  bound {bound}  {verdict}")
    print(json.dumps({"workload": args.workload, "medians": medians}))


if __name__ == "__main__":
    main()
