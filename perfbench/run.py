#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload kv-twitter --seed 1 --seconds 10 --trace 0

Builds perfbench/main.exe with dune from the sources in the current
directory, runs it once for the named workload and relays its output. The
last line printed is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. The traced run also writes a Chrome trace and a
per-layer table under perfbench/out/. Exits non-zero if the sources are
missing, the build fails, or the run fails its output checks.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, env=None, capture=False):
    """Run cmd in its own process group; on timeout kill the whole group and
    wait for it, so no process outlives the benchmark."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        env=env,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout), 4)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for path in ("dune-project", "lib", os.path.join("perfbench", "main.ml")):
        if not os.path.exists(path):
            fail("no %s here: run from the root of a repository checkout" % path, 2)

    # The dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        BUILD_TIMEOUT_S,
        env=env,
    )
    if code != 0:
        fail("build failed", 3)

    code, out = run(
        [
            EXE,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        RUN_TIMEOUT_S,
        capture=True,
    )
    lines = out.rstrip("\n").split("\n") if out else []
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("run failed (exit %d) without a result line" % code, 1)
    print(json.dumps(result))
    if code != 0 or not result["correct"]:
        fail("output checks failed (exit %d)" % code, 1)
    sys.exit(0)


if __name__ == "__main__":
    main()
