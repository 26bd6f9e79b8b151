#!/usr/bin/env python3
"""Run one workload of the ggcg benchmark and print its result.

    python3 perfbench/run.py --workload corpus|deep|cli|serve \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds perfbench/main.exe,
bin/ggcc.exe and bin/ggccd.exe from source with dune, gives the run a
private scratch directory under .perfbench_tmp/ (table caches, sockets,
generated sources), and at exit removes that directory and stops any
process the run left behind, on failure too.  Traced runs write their
spans to .perfbench_out/.  The last line printed is the result object;
when the run fails nothing is printed on standard output and the exit
code is not 0.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("corpus", "deep", "cli", "serve")
TARGETS = ("perfbench/main.exe", "bin/ggcc.exe", "bin/ggccd.exe")
BUILD_DIR = os.path.join("_build", "default")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("dune-project", "lib", "bin", "examples/c"):
        if not os.path.exists(needed):
            fail("%s is missing: run from the root of a full checkout" % needed)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet", *TARGETS]
    try:
        done = subprocess.run(cmd, env=env, timeout=BUILD_TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace"))
        fail("build failed")


def stop_group(proc):
    """Kill whatever is left of the run's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run(args):
    os.makedirs(".perfbench_tmp", exist_ok=True)
    os.makedirs(".perfbench_out", exist_ok=True)
    scratch = os.path.join(".perfbench_tmp", "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [os.path.join(BUILD_DIR, "perfbench", "main.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", scratch, "--bin", os.path.join(BUILD_DIR, "bin"),
           "--examples", os.path.join("examples", "c"),
           "--out", ".perfbench_out"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        stop_group(proc)
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(".perfbench_tmp")
        except OSError:
            pass  # another run is using it
    lines = out.decode(errors="replace").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("\n".join(lines) + "\n")
        fail("run failed with exit code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write("\n".join(lines) + "\n")
        fail("run printed no result object")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    # a stop request from outside still runs the clean-up above
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    build()
    run(args)


if __name__ == "__main__":
    main()
