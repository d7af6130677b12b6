#!/usr/bin/env python3
"""One-command perf benches: rebuild Release, pin CPUs, repeat-median.

Rebuilds the project into a dedicated Release build tree, pins every
benchmark process to a fixed CPU set (so background noise and frequency
migration don't smear the numbers), runs each bench several times, and
writes one ``BENCH_<name>.json`` file per bench with the median and the
raw runs — the perf trajectory files that future PRs diff against.

Benches:
  score_pipeline    hmscore end-to-end wall time on the example data
  batch_throughput  hmbatch documents/second over the example manifest
  serve_rps         hmserved + hmload requests/second and latency
  overload_shed     goodput at 1x/2x/4x capacity with deadlines
  wire_format       JSON vs negotiated-binary /v1/score (latency and
                    bytes per request, via hmload --wire)
  gen_families      per-family generated suites (hmgen): registration
                    round trip, hmload --suite score throughput and
                    drift-detection wall time

Before overwriting, the committed baselines in ``--out-dir`` are read
and a regression table is printed comparing each fresh median to its
baseline (sign-aware: ``direction`` names which way is better). With
``--max-regress=PCT`` any bench regressing by more than PCT percent
fails the run — the CI guard-rail; without it the table is a report.

Usage:
  tools/run_benchmarks.py [--repeats=5] [--duration-s=3]
                          [--build-dir=build-bench] [--skip-build]
                          [--out-dir=.] [--only=NAME[,NAME...]]
                          [--max-regress=PCT]

Standard library only; no third-party packages.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("examples", "data", "manifest.txt")
SCORES = os.path.join("examples", "data", "scores.csv")
FEATURES = os.path.join("examples", "data", "features.csv")


def log(message):
    print("run_benchmarks: %s" % message, flush=True)


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
    return subprocess.run(cmd, preexec_fn=preexec, **kwargs)


def popen(cmd, cpus, **kwargs):
    preexec = None
    if cpus is not None:
        def preexec():
            os.sched_setaffinity(0, cpus)
    return subprocess.Popen(cmd, preexec_fn=preexec, **kwargs)


def git_revision():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (subprocess.CalledProcessError, FileNotFoundError):
        return "unknown"


def build_release(build_dir, cpus):
    log("configuring Release build in %s" % build_dir)
    run(["cmake", "-B", build_dir, "-S", ROOT,
         "-DCMAKE_BUILD_TYPE=Release"],
        None, check=True, cwd=ROOT,
        stdout=subprocess.DEVNULL)
    jobs = str(len(cpus) if cpus else os.cpu_count() or 2)
    log("building (j%s)" % jobs)
    run(["cmake", "--build", build_dir, "-j", jobs, "--target",
         "hmscore", "hmbatch", "hmserved", "hmload", "hmctl", "hmgen"],
        None, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)


def free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def wait_http_ok(tool, port, deadline_s=10.0):
    """Poll hmctl until the daemon on ``port`` answers healthy."""
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        probe = subprocess.run(
            [tool, "--port=%d" % port, "--json-only"],
            capture_output=True, cwd=ROOT)
        if probe.returncode == 0:
            return
        time.sleep(0.1)
    raise RuntimeError("daemon on port %d never became healthy" % port)


def stop(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def bench_score_pipeline(tools, cpus, args):
    """hmscore wall seconds, full SOM + clustering pipeline."""
    runs = []
    cmd = [tools["hmscore"], "--scores=" + SCORES,
           "--features=" + FEATURES, "--machine-a=machineX",
           "--machine-b=machineY",
           "--som-steps=4000", "--seed=7", "--quiet"]
    for _ in range(args.repeats):
        started = time.monotonic()
        run(cmd, cpus, check=True, cwd=ROOT,
            stdout=subprocess.DEVNULL)
        runs.append(time.monotonic() - started)
    return {"unit": "seconds", "direction": "down", "runs": runs}


def bench_batch_throughput(tools, cpus, args):
    """hmbatch documents/second over the example manifest."""
    lines = 0
    with open(os.path.join(ROOT, MANIFEST)) as manifest:
        for text in manifest:
            text = text.strip()
            if text and not text.startswith("#"):
                lines += 1
    repeat = 10
    runs = []
    cmd = [tools["hmbatch"], "--manifest=" + MANIFEST,
           "--threads=%d" % (len(cpus) if cpus else 2),
           "--repeat=%d" % repeat]
    for _ in range(args.repeats):
        started = time.monotonic()
        run(cmd, cpus, check=True, cwd=ROOT,
            stdout=subprocess.DEVNULL)
        elapsed = time.monotonic() - started
        runs.append(lines * repeat / elapsed)
    return {"unit": "docs_per_second", "direction": "up", "runs": runs}


def load_report(tools, cpus, args, port):
    """One hmload run; returns its parsed JSON report."""
    cmd = [tools["hmload"], "--manifest=" + MANIFEST,
           "--concurrency=2", "--duration-s=%d" % args.duration_s,
           "--timeout-ms=10000", "--json-only", "--port=%d" % port]
    out = run(cmd, cpus, check=True, cwd=ROOT, capture_output=True,
              text=True)
    return json.loads(out.stdout.splitlines()[-1])


def bench_serve_rps(tools, cpus, args):
    """Single hmserved node: requests/second plus latency tails."""
    runs, extras = [], []
    for _ in range(args.repeats):
        port = free_port()
        server = popen([tools["hmserved"], "--port=%d" % port,
                        "--threads=2", "--queue-depth=8"],
                       cpus, cwd=ROOT, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        try:
            wait_http_ok(tools["hmctl"], port)
            report = load_report(tools, cpus, args, port=port)
        finally:
            stop(server)
        runs.append(report["rps"])
        extras.append({"p50_ms": report["p50_ms"],
                       "p95_ms": report["p95_ms"],
                       "p99_ms": report["p99_ms"]})
    return {"unit": "requests_per_second", "direction": "up",
            "runs": runs, "latency": extras}


def bench_overload_shed(tools, cpus, args):
    """Goodput under deadline-aware shedding at 1x/2x/4x capacity.

    One small hmserved (2 engine threads, queue depth 4) is driven by
    closed-loop hmload at concurrency equal to, twice and four times
    the admission capacity, every request carrying a 10 s end-to-end
    deadline. The reported number is goodput (2xx per second) at 4x:
    with deadline-aware shedding it should stay within ~10% of the 1x
    capacity instead of collapsing under queueing, and no admitted
    request should be answered past its deadline (deadline_misses).
    """
    depth = 4
    runs, detail = [], []
    for _ in range(args.repeats):
        port = free_port()
        server = popen([tools["hmserved"], "--port=%d" % port,
                        "--threads=2", "--queue-depth=%d" % depth,
                        "--default-deadline=10s"],
                       cpus, cwd=ROOT, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        levels = {}
        try:
            wait_http_ok(tools["hmctl"], port)
            for mult in (1, 2, 4):
                cmd = [tools["hmload"], "--manifest=" + MANIFEST,
                       "--port=%d" % port,
                       "--concurrency=%d" % (depth * mult),
                       "--duration-s=%d" % args.duration_s,
                       "--deadline-ms=10000", "--timeout-ms=12000",
                       "--json-only"]
                out = run(cmd, cpus, check=True, cwd=ROOT,
                          capture_output=True, text=True)
                report = json.loads(out.stdout.splitlines()[-1])
                goodput = (report["http_2xx"] / report["duration_s"]
                           if report["duration_s"] > 0 else 0.0)
                levels["%dx" % mult] = {
                    "goodput_rps": goodput,
                    "p99_ms": report["p99_ms"],
                    "p99_9_ms": report.get("p99_9_ms", 0.0),
                    "shed": report.get("shed", 0),
                    "server_expired": report.get("server_expired", 0),
                    "deadline_misses": report.get(
                        "deadline_misses", 0),
                }
        finally:
            stop(server)
        runs.append(levels["4x"]["goodput_rps"])
        detail.append(levels)
    return {"unit": "goodput_rps", "direction": "up", "runs": runs,
            "detail": detail}


def bench_wire_format(tools, cpus, args):
    """JSON vs negotiated-binary scoring through hmload --wire.

    One hmserved node is driven twice per repeat with identical load —
    once forcing JSON (``--wire=json``) and once leading with binary
    frames (``--wire=binary``, the client default). The reported
    number is the binary arm's requests/second; ``detail`` keeps both
    arms' latency percentiles and bytes moved per request, which is
    where the binary format's advantage is deterministic.
    """
    runs, detail = [], []
    for _ in range(args.repeats):
        port = free_port()
        server = popen([tools["hmserved"], "--port=%d" % port,
                        "--threads=2", "--queue-depth=8"],
                       cpus, cwd=ROOT, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        arms = {}
        try:
            wait_http_ok(tools["hmctl"], port)
            for wire in ("json", "binary"):
                cmd = [tools["hmload"], "--manifest=" + MANIFEST,
                       "--port=%d" % port, "--concurrency=2",
                       "--duration-s=%d" % args.duration_s,
                       "--timeout-ms=10000", "--wire=" + wire,
                       "--json-only"]
                out = run(cmd, cpus, check=True, cwd=ROOT,
                          capture_output=True, text=True)
                report = json.loads(out.stdout.splitlines()[-1])
                arms[wire] = {
                    "rps": report["rps"],
                    "p50_ms": report["p50_ms"],
                    "p95_ms": report["p95_ms"],
                    "p99_ms": report["p99_ms"],
                    "bytes_per_request":
                        report.get("request_bytes_per_request", 0.0)
                        + report.get("response_bytes_per_request",
                                     0.0),
                }
        finally:
            stop(server)
        runs.append(arms["binary"]["rps"])
        detail.append(arms)
    return {"unit": "binary_rps", "direction": "up", "runs": runs,
            "detail": detail}


def bench_gen_families(tools, cpus, args):
    """Per-family generated-suite serving with hmgen.

    Every workload family gets its own hmserved node (durable store,
    16-observation drift window) serving a freshly generated suite.
    Three numbers per family: the versioned-registration round trip,
    hmload ``--suite`` score throughput, and the wall time for the
    family's shifted observation schedule to drive the drift monitor
    stale (stream + recluster + verdict). The reported number is the
    mean score throughput across families.
    """
    families = ("bigdata", "spec-int-historical",
                "correlated-cluster", "heavy-tail")
    runs, detail = [], []
    for _ in range(args.repeats):
        per_family = {}
        for family in families:
            port = free_port()
            scratch = tempfile.mkdtemp(prefix="hiermeans_bench_gen_")
            suite = "bench." + family.replace("-", "_")
            data = os.path.join(scratch, "data")
            os.mkdir(data)
            server = popen([tools["hmserved"], "--port=%d" % port,
                            "--threads=2", "--queue-depth=8",
                            "--data-dir=" + data,
                            "--drift-window=16",
                            "--drift-min-window=8"],
                           cpus, cwd=ROOT, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
            try:
                run([tools["hmgen"], "--family=" + family,
                     "--name=" + suite, "--out=" + scratch,
                     "--data-dir=" + scratch],
                    cpus, check=True, cwd=ROOT,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL)
                wait_http_ok(tools["hmctl"], port)
                started = time.monotonic()
                run([tools["hmgen"], "--family=" + family,
                     "--name=" + suite, "--data-dir=" + scratch,
                     "--register", "--port=%d" % port,
                     "--suite-version=1"],
                    cpus, check=True, cwd=ROOT,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL)
                register_ms = (time.monotonic() - started) * 1000.0
                out = run([tools["hmload"], "--port=%d" % port,
                           "--suite=" + suite, "--concurrency=2",
                           "--duration-s=%d" % args.duration_s,
                           "--timeout-ms=10000", "--json-only"],
                          cpus, check=True, cwd=ROOT,
                          capture_output=True, text=True)
                report = json.loads(out.stdout.splitlines()[-1])
                # Baseline the monitor on the stationary prefix, then
                # time the shifted suffix through to the stale verdict.
                run([tools["hmgen"], "--family=" + family,
                     "--name=" + suite, "--observe-stream",
                     "--shifted=0", "--port=%d" % port],
                    cpus, check=True, cwd=ROOT,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL)
                run([tools["hmctl"], "--port=%d" % port,
                     "--recluster=" + suite, "--json-only"],
                    cpus, cwd=ROOT, stdout=subprocess.DEVNULL)
                started = time.monotonic()
                run([tools["hmgen"], "--family=" + family,
                     "--name=" + suite, "--observe-stream",
                     "--stationary=0", "--port=%d" % port],
                    cpus, check=True, cwd=ROOT,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL)
                run([tools["hmctl"], "--port=%d" % port,
                     "--recluster=" + suite, "--json-only"],
                    cpus, cwd=ROOT, stdout=subprocess.DEVNULL)
                verdict = run([tools["hmctl"], "--port=%d" % port,
                               "--drift=" + suite, "--json-only"],
                              cpus, cwd=ROOT,
                              stdout=subprocess.DEVNULL)
                detect_ms = (time.monotonic() - started) * 1000.0
                per_family[family] = {
                    "register_ms": register_ms,
                    "score_rps": report["rps"],
                    "p95_ms": report["p95_ms"],
                    "detect_ms": detect_ms,
                    "stale": verdict.returncode == 2,
                }
            finally:
                stop(server)
                shutil.rmtree(scratch, ignore_errors=True)
        detail.append(per_family)
        runs.append(statistics.fmean(
            entry["score_rps"] for entry in per_family.values()))
    return {"unit": "mean_suite_rps", "direction": "up", "runs": runs,
            "detail": detail}


BENCHES = {
    "score_pipeline": bench_score_pipeline,
    "batch_throughput": bench_batch_throughput,
    "serve_rps": bench_serve_rps,
    "overload_shed": bench_overload_shed,
    "wire_format": bench_wire_format,
    "gen_families": bench_gen_families,
}


def load_baselines(out_dir, names):
    """The committed BENCH_*.json medians, before we overwrite them."""
    baselines = {}
    for name in names:
        path = os.path.join(out_dir, "BENCH_%s.json" % name)
        try:
            with open(path) as stream:
                doc = json.load(stream)
            baselines[name] = {"median": float(doc["median"]),
                               "unit": doc.get("unit", ""),
                               "direction": doc.get("direction", "up"),
                               "revision": doc.get("meta", {}).get(
                                   "git_revision", "?")}
        except (OSError, ValueError, KeyError, TypeError):
            continue  # no baseline yet: the bench reports as new.
    return baselines


def regression_percent(baseline, result):
    """Signed regression: positive = worse, in percent of baseline.

    ``direction`` "up" means bigger is better (throughput), "down"
    means smaller is better (wall time); the sign flip makes the
    table read the same way for both.
    """
    base = baseline["median"]
    if base == 0:
        return 0.0
    change = (result["median"] - base) / base * 100.0
    return -change if result["direction"] == "up" else change


def print_regression_table(baselines, results, max_regress):
    """The trajectory diff; returns the benches over the threshold."""
    rows = []
    regressed = []
    for name, result in sorted(results.items()):
        baseline = baselines.get(name)
        if baseline is None:
            rows.append((name, "-", "%.4f" % result["median"],
                         "-", "new baseline"))
            continue
        regress = regression_percent(baseline, result)
        if max_regress is not None and regress > max_regress:
            verdict = "REGRESSED"
            regressed.append(name)
        elif regress > 0:
            verdict = "worse"
        else:
            verdict = "better"
        rows.append((name, "%.4f" % baseline["median"],
                     "%.4f" % result["median"],
                     "%+.1f%%" % regress,
                     "%s vs %s" % (verdict, baseline["revision"])))
    header = ("bench", "baseline", "fresh", "regress", "verdict")
    widths = [max(len(str(row[i])) for row in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    return regressed


def main():
    parser = argparse.ArgumentParser(
        description="rebuild Release, pin CPUs, repeat-median benches")
    parser.add_argument("--repeats", type=int, default=5,
                        help="runs per bench; the median is reported")
    parser.add_argument("--duration-s", type=int, default=3,
                        help="seconds per hmload measurement")
    parser.add_argument("--build-dir", default="build-bench",
                        help="Release build tree (default build-bench)")
    parser.add_argument("--skip-build", action="store_true",
                        help="reuse existing binaries in --build-dir")
    parser.add_argument("--out-dir", default=".",
                        help="where BENCH_*.json files land")
    parser.add_argument("--only",
                        help="comma-separated bench names to run")
    parser.add_argument("--max-regress", type=float, default=None,
                        metavar="PCT",
                        help="fail when any bench regresses more than "
                             "PCT percent vs its committed baseline")
    args = parser.parse_args()

    selected = list(BENCHES)
    if args.only:
        selected = [name.strip() for name in args.only.split(",")]
        unknown = [name for name in selected if name not in BENCHES]
        if unknown:
            parser.error("unknown benches: %s (have: %s)"
                         % (", ".join(unknown), ", ".join(BENCHES)))

    cpus = pinned_cpus()
    log("CPU pin set: %s" % (cpus if cpus else "unavailable"))

    build_dir = os.path.join(ROOT, args.build_dir)
    if not args.skip_build:
        build_release(build_dir, cpus)
    tools = {name: os.path.join(build_dir, "tools", name)
             for name in ("hmscore", "hmbatch", "hmserved", "hmload",
                          "hmctl", "hmgen")}
    for name, path in tools.items():
        if not os.path.exists(path):
            log("missing binary %s — run without --skip-build" % path)
            return 1

    meta = {
        "git_revision": git_revision(),
        "build_type": "Release",
        "cpu_affinity": cpus,
        "repeats": args.repeats,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    os.makedirs(args.out_dir, exist_ok=True)
    baselines = load_baselines(args.out_dir, selected)
    failures = 0
    results = {}
    for name in selected:
        log("bench %s (%d runs)" % (name, args.repeats))
        try:
            result = BENCHES[name](tools, cpus, args)
        except Exception as error:  # keep the other benches running
            log("bench %s FAILED: %s" % (name, error))
            failures += 1
            continue
        result["name"] = name
        result["median"] = statistics.median(result["runs"])
        result["meta"] = meta
        results[name] = result
        out_path = os.path.join(args.out_dir,
                                "BENCH_%s.json" % name)
        with open(out_path, "w") as out:
            json.dump(result, out, indent=2, sort_keys=True)
            out.write("\n")
        log("  median %.4f %s -> %s"
            % (result["median"], result["unit"], out_path))
    if results:
        print()
        regressed = print_regression_table(baselines, results,
                                           args.max_regress)
        if regressed:
            log("regressions over %.1f%%: %s"
                % (args.max_regress, ", ".join(regressed)))
            return 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
