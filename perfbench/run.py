#!/usr/bin/env python3
"""Layer-accounted end-to-end benchmark of the depprof profiler.

Builds the benchmark program (perfbench/e2e_bench.cpp, linked against the profiler
sources in src/) into .bench_build/ and runs one workload:

    python3 perfbench/run.py --workload seq-serial --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --self-check

runs every workload at scale 1 twice, with different program orders, and
checks that the access counts, the verdicts, the confirmed races and the
exact maps (cg excepted) repeat exactly.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "e2e_bench")
WORKLOADS = ("seq-serial", "seq-pipeline", "seq-exact", "mt-races")
RUN_TIMEOUT_S = 170
# Programs whose exact map depends on the heap layout (see KnownFailure in
# e2e_bench.cpp): their digest is not expected to repeat.
DIGEST_EXEMPT = {"cg"}


def build():
    """Configures once and builds e2e_bench; returns False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "e2e_bench"])
    # The compiler's temporary files stay inside the build tree.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the result only.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            print(f"run.py: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def drive(args):
    """Runs e2e_bench; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: e2e_bench timed out", file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def valid_result(line):
    try:
        res = json.loads(line)
    except ValueError:
        return None
    if not isinstance(res, dict) or set(res) != {"correct", "attempted",
                                                 "failed", "metrics"}:
        return None
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return None
    for metric in res["metrics"].values():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return None
    return res


def print_predictions(workload):
    """Names, for a traced run, what each layer metric should move here."""
    with open(os.path.join(HERE, "predictions.json")) as f:
        layers = json.load(f)["per_layer"]
    for name, p in layers.items():
        if workload in p["on"]:
            print(f"# predict {name} moves {', '.join(p['moves'])}")


def bench(opts):
    code, lines = drive(["--workload", opts.workload, "--seed", str(opts.seed),
                         "--seconds", str(opts.seconds),
                         "--trace", str(opts.trace)])
    if code != 0 or not lines:
        print(f"run.py: e2e_bench exited with {code}", file=sys.stderr)
        return 1
    result = valid_result(lines[-1])
    if result is None:
        print("run.py: e2e_bench printed no valid result", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    if opts.trace:
        print_predictions(opts.workload)
    print(json.dumps(result))
    return 0


def counts(workload, seed):
    code, lines = drive(["--workload", workload, "--seed", str(seed),
                         "--counts", "--scale", "1"])
    if code != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def self_check():
    ok = True
    for workload in WORKLOADS:
        first, second = counts(workload, 1), counts(workload, 2)
        problems = []
        if first is None or second is None:
            problems.append("e2e_bench failed")
        else:
            for run in (first, second):
                if run["failed"]:
                    problems.append(f"{run['failed']} failed runs")
            for name, a in first["programs"].items():
                b = second["programs"].get(name)
                for key in sorted(a):
                    if key == "digest" and name in DIGEST_EXEMPT:
                        continue
                    if b is None or a[key] != b.get(key):
                        problems.append(f"{name}.{key}")
        status = "ok" if not problems else "FAIL " + " ".join(problems)
        print(f"self-check {workload}: {status}")
        ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    opts = parser.parse_args()
    if not opts.self_check and opts.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    return self_check() if opts.self_check else bench(opts)


if __name__ == "__main__":
    sys.exit(main())
