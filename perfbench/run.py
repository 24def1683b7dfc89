#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

Usage, from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test    # the benchmark's own unit tests

The first call builds perfbench/ (and the libraries it links) with CMake
into $CARGO_TARGET_DIR, or .bench_build/ when that is unset; later calls
only rebuild what changed. Each run gets its own scratch directory,
.bench_scratch/<pid>/, removed on exit, so concurrent runs never share
machine directories or sockets. The last line of stdout is the result:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every output check passed. See
perfbench/README.md for the workloads and the metric catalog.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec(root):
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def cached_source_dir(build_dir):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(root):
    """Configures and builds the benchmark; returns the build directory."""
    if not os.path.isfile(os.path.join(root, "src", "core", "system.h")):
        fail(f"no TurboGraph++ sources under {root}")
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    # One build at a time per build directory; later runs find it done.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(build_dir, "cmake")
        if cached_source_dir(cache) not in (None, BENCH_DIR):
            shutil.rmtree(cache)  # configured for another checkout
        steps = []
        if cached_source_dir(cache) is None:
            steps.append(["cmake", "-S", BENCH_DIR, "-B", cache,
                          "-DCMAKE_BUILD_TYPE=Release",
                          "-DCMAKE_CXX_FLAGS_RELEASE=-O2 -DNDEBUG"])
        steps.append(["cmake", "--build", cache, "--target", "perfbench",
                      "perfbench_test", "-j", str(os.cpu_count() or 1)])
        with open(log_path, "w") as log:
            for step in steps:
                try:
                    code = subprocess.run(step, stdout=log, stderr=log, env=env,
                                          timeout=BUILD_TIMEOUT_S).returncode
                except (OSError, subprocess.TimeoutExpired) as e:
                    code = f"{e}"
                if code != 0:
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    fail(f"build failed ({code}); log: {log_path}")
    return cache


def run_child(argv, scratch):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    env = dict(os.environ, TMPDIR=scratch)
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        child.kill()
        child.wait()
        raise
    return child.returncode, out.splitlines()


def check_result(line, spec, trace):
    """Returns an error message, or None when `line` meets the contract."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected keys {sorted(result)}"
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return f"metrics differ from BENCHMARK.json: missing {missing}, " \
               f"extra {extra}, unit mismatch {units}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    spec = load_spec(root)
    workloads = [w["name"] for w in spec["workloads"]]
    if not args.self_test and args.workload not in workloads:
        fail(f"--workload must be one of {workloads}")
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    # A terminating signal still runs the cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build_dir = build(root)
    if args.self_test:
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_test")])
                 .returncode)

    scratch = os.path.join(root, ".bench_scratch", str(os.getpid()))
    os.makedirs(scratch)
    try:
        code, lines = run_child(
            [os.path.join(build_dir, "perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--scratch", scratch], scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass  # another run still owns a scratch directory there
    if not lines:
        fail(f"no result (exit code {code})", code or 1)
    error = check_result(lines[-1], spec, args.trace == 1)
    if error:
        fail(error, 1)
    print("\n".join(lines))
    sys.exit(code)


if __name__ == "__main__":
    main()
