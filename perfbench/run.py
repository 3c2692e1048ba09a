#!/usr/bin/env python3
"""Run one workload of the two-clock benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark program (perfbench/main.exe) with dune from the checkout this
file sits in, runs it, checks that the metrics it printed are exactly
the ones BENCHMARK.json declares for the mode (end_to_end untraced,
per_layer traced) with the declared units, and relays its output.  The
last line of standard output is the result object.  Exits non-zero,
without a result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    # Keep every build byproduct inside the checkout: no shared dune cache,
    # and the compiler's temporary files under _build.
    tmp = os.path.join(ROOT, "_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, XDG_CACHE_HOME=tmp)
    cmd = ["dune", "build", "--root", ROOT, "--cache=disabled", "-j", "2", "./perfbench/main.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0:
        fail("build failed (exit %d)" % proc.returncode)


def declared(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def check(result, trace):
    if set(result) != RESULT_KEYS:
        fail("result keys %s" % sorted(result))
    want = declared(trace)
    if want is None:
        return
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, unit %s" % (missing, extra, units))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=170)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run failed: %s" % e)
    if proc.returncode != 0:
        fail("run failed (exit %d)" % proc.returncode)
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line")
    check(result, args.trace == 1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
