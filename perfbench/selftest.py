#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, in order:
  * the C++ helpers (`perfbench --self-test`): the tail-percentile rule
    (exactly ten samples beyond, the reported percentile and sample count)
    and the seeded input generators;
  * BENCHMARK.json names exactly the metrics and units the program reports;
  * inputs come only from the seed: separate processes given one seed build
    identical inputs, and another seed builds other inputs;
  * a second seed passes every correctness check on every workload, untraced
    and traced, and each run reports exactly its mode's metrics.
Exits 0 when everything passes.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py: the build step)

WORKLOADS = ["fleet_steady", "fleet_durable", "paper_batch"]
failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def main():
    binary = run.build()
    expect(subprocess.run([binary, "--self-test"]).returncode == 0,
           "helper self-tests")

    listed = subprocess.run([binary, "--list-metrics"], capture_output=True,
                            text=True, check=True).stdout.split("\n")
    reported = {"end_to_end": [], "per_layer": []}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        reported[kind].append((name, unit))
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for kind in reported:
        expect([(m["name"], m["unit"]) for m in spec[kind]] == reported[kind],
               f"BENCHMARK.json {kind} metrics match the program's")

    for workload in WORKLOADS:
        def digest(seed):
            return subprocess.run(
                [binary, "--input-digest", workload, "--seed", str(seed)],
                capture_output=True, text=True, check=True).stdout.strip()
        expect(digest(3) == digest(3) and digest(3) != digest(4),
               f"{workload}: inputs are a function of the seed alone")

    state = os.path.join(run.build_dir(), "perfbench-state")
    os.makedirs(state, exist_ok=True)
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            seconds = "1" if trace == "0" else "3"
            out = subprocess.run(
                [binary, "--workload", workload, "--seed", "424242",
                 "--seconds", seconds, "--trace", trace, "--state-dir", state],
                capture_output=True, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            names = spec["end_to_end" if trace == "0" else "per_layer"]
            expect(out.returncode == 0 and result["correct"]
                   and result["attempted"] >= 1
                   and sorted(result["metrics"]) == sorted(m["name"] for m in names),
                   f"{workload} --trace {trace}: a second seed passes every check")
            if out.returncode != 0:
                print(out.stdout[-3000:])

    print("selftest: " + ("passed" if not failures else f"{len(failures)} failed"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
