#!/usr/bin/env python3
"""Build and run the closed-loop pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve-sweep --seed 1 --seconds 20 --trace 0

The script builds perfbench/perfbench.exe with dune (inside the checkout,
with dune's shared cache off) and runs it with the same arguments. A traced
run (--trace 1) also writes its spans as Chrome JSON under perfbench/out/.
The last line of output is the JSON result. README.md documents the
workloads and metrics.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
# A run's time limit: a fixed allowance for set-up (three times, twice more
# in a traced run) and the rounds that always run, plus three times the
# timed phase's budget, which a traced run spends twice.
RUN_ALLOWANCE_S = 90
RUN_SECONDS_FACTOR = 3
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def arg_value(args, flag, default):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def main():
    args = sys.argv[1:]
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            sys.stderr.write(f"perfbench: {needed} not found; run from the repository root\n")
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            stdout=sys.stderr,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"perfbench: build failed: {e}\n")
        return 2
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    if arg_value(args, "--trace", "0") == "1" and "--chrome" not in args:
        out = os.path.join("perfbench", "out")
        os.makedirs(out, exist_ok=True)
        name = "%s-seed%s.chrome.json" % (
            arg_value(args, "--workload", "unknown"),
            arg_value(args, "--seed", "1"),
        )
        args += ["--chrome", os.path.join(out, name)]
    try:
        seconds = float(arg_value(args, "--seconds", "10"))
    except ValueError:
        seconds = 10.0
    timeout = RUN_ALLOWANCE_S + RUN_SECONDS_FACTOR * max(seconds, 0.0)
    try:
        run = subprocess.run([EXE] + args, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"perfbench: run failed: {e}\n")
        return 2
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
