#!/usr/bin/env python3
"""Build and run the hiermeans serving benchmark (see README.md).

    python3 perfbench/run.py --workload hit_mix --seed 1 --seconds 55 --trace 0

Run from the repository root. The first call configures and builds a
Release tree of the hiermeans libraries, hmserved and hmbench in
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild
incrementally. hmbench then drives one run; its last stdout line, the
result object, is this script's last line and its exit status is
this script's. `--workload all` runs every workload in turn and
prints a table for people, ending with the last run's result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["hit_mix", "miss_large"]
# A run ends within --seconds plus set-up, checking and shutdown; past
# this much extra time it is killed.
RUN_SLACK_SECONDS = 120


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build; exit 1 with the log tail on failure."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "hmserved", "hmbench"])
    with open(log_path, "w") as out:
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT):
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                log("build failed: " + " ".join(step))
                # A failed configure must be retried from scratch.
                cache = os.path.join(build_dir, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                sys.exit(1)


def run_one(build_dir, workload, seed, seconds, trace):
    """Run hmbench once; returns (exit status, last stdout line)."""
    run_dir = os.path.join(build_dir, "runs",
                           "%s-seed%d-trace%d" % (workload, seed, trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    command = [os.path.join(build_dir, "hmbench"),
               "--workload=" + workload, "--seed=%d" % seed,
               "--seconds=%g" % seconds, "--trace=%d" % trace,
               "--hmserved=" + os.path.join(build_dir, "hmserved"),
               "--run-dir=" + run_dir]
    # A session of its own, so that hmbench and every hmserved it
    # starts can be stopped together whatever happens.
    child = subprocess.Popen(command, stdout=subprocess.PIPE,
                             start_new_session=True, text=True)
    try:
        out, _ = child.communicate(timeout=seconds + RUN_SLACK_SECONDS)
    except subprocess.TimeoutExpired:
        log("hmbench overran its time; stopping it")
        out = ""
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if trace:
        spans = os.path.join(run_dir, "spans.jsonl")
        if os.path.exists(spans):
            os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
            shutil.move(spans, os.path.join(
                build_dir, "traces",
                "%s-seed%d.spans.jsonl" % (workload, seed)))
    shutil.rmtree(run_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    status = child.returncode if child.returncode is not None else 1
    return status, lines[-1] if lines else ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(build_dir)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status, line = 0, ""
    for workload in workloads:
        status_one, line = run_one(build_dir, workload, args.seed,
                                   args.seconds, args.trace)
        status = status or status_one
        if args.workload == "all" and line:
            result = json.loads(line)
            log("%s: correct=%s attempted=%d failed=%d" % (
                workload, result["correct"], result["attempted"],
                result["failed"]))
            for name, metric in result["metrics"].items():
                log("  %-36s %14.6g %s" % (name, metric["value"],
                                           metric["unit"]))
    if not line:
        log("hmbench printed no result")
        sys.exit(status or 1)
    print(line, flush=True)
    sys.exit(status)


if __name__ == "__main__":
    main()
