#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Run from the repository root; takes about a minute. Checks that:
  * every workload, at reduced size, passes its correctness gate with and
    without tracing;
  * two runs of the same reduced workload give identical simulated metrics;
  * every metric the command prints is declared in BENCHMARK.json with the
    same unit, and every declared metric is printed;
  * the command fails, printing no result, when the simulator sources are
    missing.
Exits non-zero on the first failure.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# Metrics measured on the host clock or the process; everything else is a
# simulated result or a counter, and must repeat exactly.
HOST_METRICS = {"host_s", "attempts_per_host_s", "setup_s", "peak_rss_mb",
                "sim.ns_per_event", "trace.overhead_frac", "trace.gap_frac",
                "host.wall_s", "host.probe_s"}


def is_host(name, unit):
    return name in HOST_METRICS or unit == "s" and not name.startswith("sim")


def run(workload, trace, cwd=ROOT, runner=RUN):
    proc = subprocess.run(
        [sys.executable, runner, "--workload", workload, "--reduced",
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def result(proc, what):
    if proc.returncode != 0:
        sys.exit("FAIL %s: exit %d\n%s" % (what, proc.returncode,
                                           proc.stderr[-2000:]))
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(out) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("FAIL %s: result keys %s" % (what, sorted(out)))
    if out["correct"] is not True or out["failed"] != 0 or \
            out["attempted"] < 1:
        sys.exit("FAIL %s: %s" % (what, {k: out[k] for k in
                                         ("correct", "attempted", "failed")}))
    return out["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}

    for w in bench["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            what = "%s --trace %d" % (name, trace)
            first = result(run(name, trace), what)
            second = result(run(name, trace), what + " (second run)")
            printed = {k: v["unit"] for k, v in first.items()}
            if printed != declared[trace]:
                sys.exit("FAIL %s: printed metrics differ from BENCHMARK.json:"
                         " extra %s, missing %s, units %s" % (
                             what, sorted(set(printed) - set(declared[trace])),
                             sorted(set(declared[trace]) - set(printed)),
                             sorted(k for k in printed
                                    if k in declared[trace] and
                                    printed[k] != declared[trace][k])))
            for metric, unit in printed.items():
                if is_host(metric, unit):
                    continue
                a, b = first[metric]["value"], second[metric]["value"]
                if a != b:
                    sys.exit("FAIL %s: %s differs between runs: %r vs %r" % (
                        what, metric, a, b))
            print("ok   %s: %d metrics, simulated ones identical across runs"
                  % (what, len(printed)))

    # Without the simulator sources next to it the command must fail.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1-stacks",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        sys.exit("FAIL bare checkout: exit %d, stdout %r" % (
            proc.returncode, proc.stdout[-200:]))
    print("ok   bare checkout fails without a result")
    print("all self-tests passed")


if __name__ == "__main__":
    main()
