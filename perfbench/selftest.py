#!/usr/bin/env python3
"""Self-test of the benchmark: run every workload at tiny size.

    python3 perfbench/selftest.py

Runs each workload of BENCHMARK.json, and deep-fanin, untraced and
traced on the default seed and the held-out seed. Each run must print every metric BENCHMARK.json names for
its mode, with the right unit, and nothing else. It must also print the
provenance line, and no session may fail. Run it from the checkout root.
Exits 1 on the first mismatch.
"""

import json
import subprocess
import sys

SEEDS = (1, 9001)  # default and held-out
# Runnable by name but left out of BENCHMARK.json (see README.md).
UNLISTED = ["deep-fanin"]
PROVENANCE_KEYS = {"commit", "cpu", "nproc", "gomaxprocs", "go", "seed", "workload",
                   "sessions_timed", "session_ms_p50", "failed_frac", "host_slowdown"}


def check(workload, seed, trace, expected):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
    where = f"{workload} seed {seed} trace {trace}"
    if out.returncode != 0:
        return f"{where}: exit code {out.returncode}"
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return f"{where}: result keys {sorted(res)}"
    if res["failed"] != 0 or not res["correct"] or res["attempted"] < 1:
        return f"{where}: attempted={res['attempted']} failed={res['failed']} correct={res['correct']}"
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        return f"{where}: missing {missing}, unexpected {extra}, wrong units {units}"
    prov = [l for l in lines if l.startswith("provenance ")]
    if not prov or not PROVENANCE_KEYS <= set(json.loads(prov[-1][len("provenance "):])):
        return f"{where}: provenance line missing or incomplete"
    return None


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in [w["name"] for w in spec["workloads"]] + UNLISTED:
        for seed in SEEDS:
            for trace, expected in modes.items():
                err = check(w, seed, trace, expected)
                if err:
                    print("FAIL", err)
                    return 1
                print("ok  ", w, "seed", seed, "trace", trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
