#!/usr/bin/env python3
"""Measure this commit with the benchmark and write perfbench/RESULTS.json.

    python3 perfbench/record.py

Run it from the root of a checkout.  Every workload of BENCHMARK.json
runs RUNS times untraced (seeds 1..RUNS) and TRACED_RUNS times traced,
through run.py with BENCHMARK.json's run_seconds, and the file is
written afresh from these runs alone.  For every metric the file
records its unit, direction and bound, the median, quartiles, spread
(interquartile range over the median) and repeat count; for every
workload why it was chosen, its seeds and input sizes; and the host's
core count.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import time

INPUTS = re.compile(r"^inputs: (\d+), source bytes: (\d+)$")
REPORTED = re.compile(r"^reported: (.*)$")
RUNS = 10
TRACED_RUNS = 3


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    elapsed = time.monotonic() - t0
    if done.returncode != 0:
        sys.exit("%s seed %d failed:\n%s" % (workload, seed, done.stderr))
    lines = done.stdout.splitlines()
    sizes = [m.groups() for m in map(INPUTS.match, lines) if m]
    # the summary's "reported: name value ..." line: numbers printed but
    # not gated
    reported = {}
    for m in filter(None, map(REPORTED.match, lines)):
        words = m.group(1).split()
        reported = {k: float(v) for k, v in zip(words[::2], words[1::2])}
    return (json.loads(lines[-1]), tuple(int(x) for x in sizes[0]), reported,
            elapsed)


def summarize(declared, values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    entry = dict(declared)
    entry.update(median=median, q1=q1, q3=q3, repeats=len(values),
                 spread=(q3 - q1) / median if median else None)
    return entry


def main():
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    out = {"host": {"cores": os.cpu_count()}, "run_seconds": seconds,
           "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        record = {"why": w["why"], "seeds": list(range(1, RUNS + 1)),
                  "traced_seeds": list(range(1, TRACED_RUNS + 1))}
        for trace, key, seeds in ((0, "end_to_end", record["seeds"]),
                                  (1, "per_layer", record["traced_seeds"])):
            values, extra, failed, attempted = {}, {}, 0, 0
            for seed in seeds:
                result, (inputs, size), reported, elapsed = run(
                    name, seed, seconds, trace)
                for m, v in reported.items():
                    extra.setdefault(m, []).append(v)
                if trace == 0:
                    record.setdefault("input_sizes", []).append(
                        {"seed": seed, "inputs": inputs, "source_bytes": size})
                failed += result["failed"]
                attempted += result["attempted"]
                for m, v in result["metrics"].items():
                    values.setdefault(m, []).append(v["value"])
                print("%s seed %d trace %d: %d ops, %d failed, %.1f s" % (
                    name, seed, trace, result["attempted"], result["failed"],
                    elapsed), flush=True)
            record[key] = {m["name"]: summarize(m, values[m["name"]])
                           for m in bench[key]}
            record[key + "_failed_ratio"] = failed / attempted
            if extra:
                record["reported_not_gated"] = {
                    m: summarize({"name": m}, xs) for m, xs in extra.items()}
        out["workloads"][name] = record
        for m, e in record["end_to_end"].items():
            flag = "" if e["spread"] < e["bound"] / 3 else "  (spread >= bound/3)"
            print("  %-18s median %12.4f spread %.4f bound %.2f%s" % (
                m, e["median"], e["spread"], e["bound"], flag))
    with open("perfbench/RESULTS.json", "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
