#!/usr/bin/env python3
"""Build mjoin and the mjbench harness from source, then run one workload.

    python3 mjbench/run.py --workload cold-large|serve-hot|serve-churn \
        --seed N --seconds S --trace 0|1
    python3 mjbench/run.py --self-test [--seed N]

Run from the repository root.  Every MJ_* variable is cleared before the
build and the run, so no engine setting leaks in from the caller.  The
last line of stdout is the JSON result of mjbench; the exit code is
mjbench's (0 only when every answer certified).  --self-test runs
serve-hot against a daemon with the frame.lossy_join failpoint armed and
succeeds only if the gate fails that run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join("_build", "default", "mjbench", "mjbench.exe")
MJOIN = os.path.join("_build", "default", "bin", "main.exe")


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("MJ_")}
    # Keep every build product inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    return env


def build(env):
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/main.exe", "./mjbench/mjbench.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit("run.py: build failed")


def commit(env):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def bench(args, env, capture=False):
    cmd = [os.path.join(".", BENCH)] + args + [
        "--mjoin", MJOIN, "--commit", commit(env)]
    return subprocess.run(cmd, env=env, text=True,
                          stdout=subprocess.PIPE if capture else None)


def self_test(args, env):
    seed = "1"
    if "--seed" in args:
        seed = args[args.index("--seed") + 1]
    proc = bench(["--workload", "serve-hot", "--seed", seed, "--seconds", "2",
                  "--trace", "0", "--failpoint", "frame.lossy_join"],
                 env, capture=True)
    sys.stderr.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    failed = result.get("failed", 0)
    if proc.returncode != 0 and failed > 0 and result.get("correct") is False:
        print(f"self-test ok: planted frame.lossy_join failed {failed} of "
              f"{result['attempted']} answers, exit {proc.returncode}")
        return 0
    print(f"self-test FAILED: exit {proc.returncode}, failed={failed}")
    return 1


def main():
    os.chdir(ROOT)
    env = clean_env()
    os.environ.clear()
    os.environ.update(env)
    build(env)
    args = sys.argv[1:]
    if "--self-test" in args:
        args.remove("--self-test")
        return self_test(args, env)
    return bench(args, env).returncode


if __name__ == "__main__":
    sys.exit(main())
