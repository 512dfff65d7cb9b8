#!/usr/bin/env python3
"""Builds and runs the jslice benchmark for one workload.

Run from the root of a jslice checkout:

    python3 perfbench/run.py --workload hot-zipf --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the library sources,
jslice_serve and the jslice_perf runner) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only bring the build up to
date. The last line of stdout is the run's JSON summary (README.md).
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("cold-unique", "hot-zipf", "journaled-zipf", "batch-all")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("error: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        try:
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return -1


def build(root, build_dir, targets):
    """Configures (once) and builds \\p targets; exits on failure."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(root, "tools", "jslice_serve.cpp")):
        fail("run from the root of a jslice checkout (src/ and tools/ "
             "not found)")
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc = run_logged(["cmake", "-S", os.path.join(root, "perfbench"),
                         "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log, 300)
        if rc != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed (see the build log)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = run_logged(["cmake", "--build", build_dir, "-j", jobs, "--target"]
                    + targets, log, 840)
    if rc != 0:
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()

    root = os.getcwd()
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(out, "perfbench")

    if args.self_test:
        build(root, build_dir, ["perfbench_test"])
        sys.exit(subprocess.run(["ctest", "--test-dir", build_dir,
                                 "--output-on-failure"]).returncode)
    if not args.workload:
        fail("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build(root, build_dir, ["jslice_perf", "jslice_serve"])

    work = os.path.join(out, "runs", "%s-%d-%d" % (args.workload, args.seed,
                                                   os.getpid()))
    traces = os.path.join(out, "traces")
    os.makedirs(work)
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(build_dir, "jslice_perf"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(build_dir, "jslice_serve"),
           "--work-dir", work,
           "--trace-out", os.path.join(traces, "%s-%d.jsonl" %
                                       (args.workload, args.seed))]
    # A process group of its own, so a run that overstays can be stopped
    # together with the jslice_serve or engine process it started.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        for _ in range(1000):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        rc = 1
    shutil.rmtree(work, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
