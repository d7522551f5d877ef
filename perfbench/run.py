#!/usr/bin/env python3
"""Builds and runs the DBSynth++ benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--save results.jsonl]

Run from the root of a source checkout. The first run configures and
builds the libraries, the dbsynthpp CLI and the benchmark binaries into
$CARGO_TARGET_DIR (default .bench_build) with CMake; later runs only
re-check the build. The C++ runner (perfbench_run) prints one report line
with the host block, the correctness ledger and every metric it measured;
this script prints that line, then the result line: the metrics that
BENCHMARK.json lists for the mode (end_to_end for --trace 0, per_layer for
--trace 1). The exit code is 0 only when every check passed and every
listed metric was measured with its listed unit.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; stdout stays clean."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   check=True, timeout=timeout)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_logged(configure, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", build_dir, "-j", jobs, "--target",
                "perfbench_run", "dbsynthpp"], BUILD_TIMEOUT_S)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_runner(cmd):
    """Runs perfbench_run in its own process group so that a timeout also
    stops the serve daemon it spawned; returns (exit code, stdout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.communicate()
        print("perfbench: run exceeded %d s; stopped" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1, ""
    # A runner that died early may leave its daemon behind.
    kill_group(proc.pid)
    return proc.returncode, out


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--save", help="append the full report line here")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("no BENCHMARK.json at " + ROOT)
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no repository sources (%s missing); run from a full "
                 "checkout" % needed)
    with open(spec_path) as f:
        spec = json.load(f)
    # perfbench_run rejects names it does not know; it also runs
    # load_query_paged, which BENCHMARK.json does not list (README.md).
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.SubprocessError) as error:
        fail("build failed: %s" % error)

    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    work_dir = os.path.join(ROOT, ".bench_work", tag)
    cmd = [os.path.join(build_dir, "perfbench_run"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--dbsynthpp", os.path.join(build_dir, "repo_tools", "dbsynthpp"),
           "--work-dir", work_dir,
           "--expected-dir", os.path.join(HERE, "expected"),
           "--git-sha", git_sha()]
    if args.trace:
        results = os.path.join(ROOT, ".bench_results")
        os.makedirs(results, exist_ok=True)
        cmd += ["--trace-out", os.path.join(results, "trace-%s.json" % tag)]
    code, out = run_runner(cmd)
    shutil.rmtree(work_dir, ignore_errors=True)

    lines = [line for line in out.splitlines() if line.strip()]
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: no report from perfbench_run (exit %d)" % code,
              file=sys.stderr)
        sys.exit(1)
    print(lines[-1])
    if args.save:
        with open(args.save, "a") as f:
            f.write(lines[-1] + "\n")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    measured = report.get("metrics", {})
    metrics = {}
    complete = True
    for metric in wanted:
        got = measured.get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            print("perfbench: metric %s missing or not in %s" %
                  (metric["name"], metric["unit"]), file=sys.stderr)
            complete = False
            continue
        metrics[metric["name"]] = {"value": got["value"],
                                   "unit": metric["unit"]}
    attempted = int(report.get("attempted", 0))
    failed = int(report.get("failed", 0))
    correct = code == 0 and complete and failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
