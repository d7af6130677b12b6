#!/usr/bin/env python3
"""One benchmark harness: the perfbench workloads, the kernels, the store.

Runs each bench several times and writes one ``BENCH_<name>.json`` per
bench, holding every metric's runs, median, quartiles and noise band
(interquartile range over median). Before overwriting a file it prints
each fresh median's delta against the committed one.

Benches:
  hit_mix, miss_large  the workloads BENCHMARK.json declares, each run
                       with its ``command`` (perfbench/run.py) for
                       ``run_seconds``, seeds 1..--repeats. Every run
                       must exit 0 with ``correct: true``. Records each
                       ``end_to_end`` metric, plus the ``*_share``
                       layer metrics and ``traced.p50_ms`` of one
                       ``--trace 1`` run on seed 1; ``traced.p50_ms``
                       minus ``p50_ms`` is the tracing overhead.
  kernels              perf_microbench (Google Benchmark) with --repeats
                       repetitions: each benchmark's real time.
  store_replay         perf_store_replay, --repeats runs: WAL append
                       cost per fsync cadence and cold-boot replay time.

The gate: an end-to-end metric whose fresh median is worse than the
committed one by more than its BENCHMARK.json ``bound``, in the
direction its ``better`` names, has regressed, and the run exits 1. A
metric whose fresh band is wider than its bound is reported unresolved
instead, since its runs cannot tell. Kernel, store and layer deltas are
printed and never gate.

perfbench builds its own Release tree (see perfbench/README.md); the
kernel and store benches use the Release tree at --build-dir.

Usage:
  tools/run_benchmarks.py [--repeats=5] [--build-dir=build-bench]
                          [--skip-build] [--out-dir=.]
                          [--only=NAME[,NAME...]]

Standard library only; no third-party packages.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = ("perf_microbench", "perf_store_replay")


def log(message):
    print("run_benchmarks: %s" % message, flush=True)


def load_spec():
    """BENCHMARK.json: workloads, command, run length and metric rules."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        return json.load(stream)


def pinned_cpus():
    """The CPU set every bench process is pinned to: up to 4 of the
    CPUs this process may run on (all of them on small machines)."""
    try:
        available = sorted(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux fallback: no pinning
        return None
    return available[: min(4, len(available))]


def run(cmd, cpus, **kwargs):
    """subprocess.run with CPU affinity applied to the child."""
    preexec = None
    if cpus is not None:
        def preexec():
            os.sched_setaffinity(0, cpus)
    return subprocess.run(cmd, preexec_fn=preexec, cwd=ROOT, **kwargs)


def git_revision():
    """HEAD's short hash, marked -dirty when tracked files differ."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty",
             "--exclude=*"],
            capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (subprocess.CalledProcessError, FileNotFoundError):
        return "unknown"


def build_release(build_dir, cpus):
    log("configuring Release build in %s" % build_dir)
    run(["cmake", "-B", build_dir, "-S", ROOT,
         "-DCMAKE_BUILD_TYPE=Release"],
        None, check=True, stdout=subprocess.DEVNULL)
    jobs = str(len(cpus) if cpus else os.cpu_count() or 2)
    log("building (j%s)" % jobs)
    run(["cmake", "--build", build_dir, "-j", jobs, "--target", *TOOLS],
        None, check=True, stdout=subprocess.DEVNULL)


def summarize(runs, unit=None):
    """Median, quartiles (linear between order statistics) and band."""
    if len(runs) == 1:
        q1 = median = q3 = runs[0]
    else:
        q1, median, q3 = statistics.quantiles(runs, n=4,
                                              method="inclusive")
    summary = {"runs": runs, "median": median, "q1": q1, "q3": q3,
               "band": (q3 - q1) / abs(median) if median else 0.0}
    if unit:
        summary["unit"] = unit
    return summary


def run_perfbench(spec, workload, seed, trace, cpus):
    """One perfbench run; its metrics, or RuntimeError unless it exited
    0 with a correct result."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "%g" % spec["run_seconds"],
                             "--trace", str(trace)]
    out = run(cmd, cpus, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if out.returncode != 0 or result.get("correct") is not True:
        raise RuntimeError("%s seed %d trace %d: exit %d, correct %s\n%s"
                           % (workload, seed, trace, out.returncode,
                              result.get("correct"), out.stderr[-2000:]))
    return result["metrics"]


def bench_workload(spec, workload, cpus, repeats):
    seeds = list(range(1, repeats + 1))
    runs = {metric["name"]: [] for metric in spec["end_to_end"]}
    for seed in seeds:
        log("  %s seed %d" % (workload, seed))
        metrics = run_perfbench(spec, workload, seed, 0, cpus)
        for name, values in runs.items():
            values.append(metrics[name]["value"])
    log("  %s seed %d traced" % (workload, seeds[0]))
    traced = run_perfbench(spec, workload, seeds[0], 1, cpus)
    layers = [metric["name"] for metric in spec["per_layer"]
              if metric["name"].endswith("_share")] + ["traced.p50_ms"]
    return {
        "metrics": {metric["name"]: summarize(runs[metric["name"]],
                                              metric["unit"])
                    for metric in spec["end_to_end"]},
        "layers": {name: traced[name]["value"] for name in layers},
        "meta": {"seeds": seeds, "trace_seed": seeds[0],
                 "run_seconds": spec["run_seconds"]},
    }


def bench_kernels(tools, cpus, repeats):
    out = run([tools["perf_microbench"],
               "--benchmark_repetitions=%d" % repeats,
               "--benchmark_format=json"],
              cpus, check=True, capture_output=True, text=True)
    runs, units = {}, {}
    for entry in json.loads(out.stdout)["benchmarks"]:
        if entry["run_type"] == "iteration":
            runs.setdefault(entry["run_name"], []).append(
                entry["real_time"])
            units[entry["run_name"]] = entry["time_unit"]
    return {"metrics": {name: summarize(values, units[name])
                        for name, values in runs.items()}}


def bench_store_replay(tools, cpus, repeats):
    runs = {}
    for _ in range(repeats):
        out = run([tools["perf_store_replay"], "--json-only"], cpus,
                  check=True, capture_output=True, text=True)
        for name, value in json.loads(
                out.stdout.splitlines()[-1]).items():
            if not isinstance(value, str):
                runs.setdefault(name, []).append(value)
    return {"metrics": {name: summarize(values)
                        for name, values in runs.items()}}


def relative_change(base, fresh):
    """(fresh - base) / |base|, infinite when only base is 0."""
    if base == 0:
        return 0.0 if fresh == 0 else math.copysign(math.inf, fresh)
    return (fresh - base) / abs(base)


def verdict(base, fresh, rule):
    """One end-to-end metric against its committed summary, by its
    BENCHMARK.json rule: "unresolved" when the fresh band is wider than
    the bound, "REGRESSED" when the median is worse by more than it."""
    if fresh["band"] > rule["bound"]:
        return "unresolved"
    change = relative_change(base["median"], fresh["median"])
    worse = change if rule["better"] == "lower" else -change
    return "REGRESSED" if worse > rule["bound"] else "ok"


def table_row(bench, metric, base, fresh, band, judged):
    """One line of the delta table; base is None when nothing is
    committed."""
    if base is None:
        return (bench, metric, "-", "%.6g" % fresh, "-", band, judged)
    return (bench, metric, "%.6g" % base, "%.6g" % fresh,
            "%+.1f%%" % (100 * relative_change(base, fresh)), band, judged)


def report(results, baselines, spec):
    """Print every fresh metric's delta against its committed file;
    returns 1 when an end-to-end metric regressed, else 0."""
    workloads = {workload["name"] for workload in spec["workloads"]}
    rules = {metric["name"]: metric for metric in spec["end_to_end"]}
    rows, regressed = [], []
    for name, result in results.items():
        baseline = baselines.get(name) or {}
        for metric, fresh in result["metrics"].items():
            base = baseline.get("metrics", {}).get(metric)
            rule = rules.get(metric) if name in workloads else None
            judged = "-"
            if base is None:
                judged = "new"
            elif rule:
                judged = verdict(base, fresh, rule)
                if judged == "REGRESSED":
                    regressed.append("%s %s" % (name, metric))
                judged += " (bound %g%%)" % (100 * rule["bound"])
            rows.append(table_row(name, metric,
                            None if base is None else base["median"],
                            fresh["median"],
                            "%.1f%%" % (100 * fresh["band"]), judged))
        for layer, value in result.get("layers", {}).items():
            rows.append(table_row(name, layer,
                            baseline.get("layers", {}).get(layer), value,
                            "-", "traced"))
    header = ("bench", "metric", "committed", "fresh", "delta", "band",
              "verdict")
    widths = [max(len(row[i]) for row in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    if regressed:
        log("regressed beyond their BENCHMARK.json bound: %s"
            % ", ".join(regressed))
        return 1
    return 0


def load_baseline(out_dir, name):
    """The committed BENCH_<name>.json, or None."""
    try:
        with open(os.path.join(out_dir, "BENCH_%s.json" % name)) as stream:
            return json.load(stream)
    except (OSError, ValueError):
        return None


def main():
    parser = argparse.ArgumentParser(
        description="run the benches, record BENCH_*.json, gate "
                    "end-to-end metrics on BENCHMARK.json's bounds")
    parser.add_argument("--repeats", type=int, default=5,
                        help="perfbench seeds 1..N, kernel repetitions "
                             "and store runs (default 5)")
    parser.add_argument("--build-dir", default="build-bench",
                        help="Release tree for the kernel and store "
                             "benches (default build-bench)")
    parser.add_argument("--skip-build", action="store_true",
                        help="reuse existing binaries in --build-dir")
    parser.add_argument("--out-dir", default=".",
                        help="where BENCH_*.json files are read and "
                             "written")
    parser.add_argument("--only",
                        help="comma-separated bench names to run")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    spec = load_spec()
    workloads = [workload["name"] for workload in spec["workloads"]]
    benches = workloads + ["kernels", "store_replay"]
    selected = benches
    if args.only:
        selected = [name.strip() for name in args.only.split(",")]
        unknown = [name for name in selected if name not in benches]
        if unknown:
            parser.error("unknown benches: %s (have: %s)"
                         % (", ".join(unknown), ", ".join(benches)))

    cpus = pinned_cpus()
    log("CPU pin set: %s" % (cpus if cpus else "unavailable"))
    build_dir = os.path.join(ROOT, args.build_dir)
    tools = {name: os.path.join(build_dir, "bench", name)
             for name in TOOLS}
    if any(name not in workloads for name in selected):
        if not args.skip_build:
            build_release(build_dir, cpus)
        for path in tools.values():
            if not os.path.exists(path):
                log("missing binary %s; run without --skip-build" % path)
                return 1

    meta = {
        "git_revision": git_revision(),
        "build_type": "Release",
        "cpu_affinity": cpus,
        "repeats": args.repeats,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    os.makedirs(args.out_dir, exist_ok=True)
    baselines, results = {}, {}
    failures = 0
    for name in selected:
        log("bench %s (%d runs)" % (name, args.repeats))
        try:
            if name == "kernels":
                result = bench_kernels(tools, cpus, args.repeats)
            elif name == "store_replay":
                result = bench_store_replay(tools, cpus, args.repeats)
            else:
                result = bench_workload(spec, name, cpus, args.repeats)
        except (OSError, RuntimeError, ValueError, KeyError,
                subprocess.CalledProcessError) as error:
            log("bench %s FAILED: %s" % (name, error))
            failures += 1
            continue
        result["bench"] = name
        result["meta"] = dict(meta, **result.get("meta", {}))
        baselines[name] = load_baseline(args.out_dir, name)
        results[name] = result
        out_path = os.path.join(args.out_dir, "BENCH_%s.json" % name)
        with open(out_path, "w") as out:
            json.dump(result, out, indent=2, sort_keys=True)
            out.write("\n")
        log("  -> %s" % out_path)
    status = report(results, baselines, spec) if results else 0
    return 1 if failures else status


if __name__ == "__main__":
    sys.exit(main())
