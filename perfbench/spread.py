#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads stream-mix,wide-lattice --seeds 1-10

For every workload and end-to-end metric it prints the median over the
runs and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound from BENCHMARK.json. Run it from the checkout root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="stream-mix,wide-lattice")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default=None)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or str(spec["run_seconds"])
    kind = "end_to_end" if args.trace == "0" else "per_layer"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}
    for w in args.workloads.split(","):
        values = {}
        for s in seeds(args.seeds):
            out = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", w, "--seed", str(s),
                 "--seconds", seconds, "--trace", args.trace],
                stdout=subprocess.PIPE, text=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            print(json.dumps({"workload": w, "seed": s, "attempted": res["attempted"], "failed": res["failed"],
                              "metrics": {k: m["value"] for k, m in res["metrics"].items()}}), file=sys.stderr)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            spread = (q[2] - q[0]) / med if med else float("nan")
            print(f"{w:13s} {name:34s} median={med:14.4f} spread={spread:7.4f} bound={bounds.get(name)}")
            sys.stdout.flush()


if __name__ == "__main__":
    main()
