/**
 * @file
 * hmload — closed-loop load generator for the hmserved scoring daemon.
 *
 * Spawns N worker threads, each holding one keep-alive connection, and
 * drives `POST /v1/score` with the lines of a manifest (round-robin,
 * offset per worker) for a fixed duration. Closed loop: every worker
 * waits for its response before sending the next request, so offered
 * load adapts to what the server sustains.
 *
 * Workers run on client::ClusterClient over client::ScoringClient, so
 * connection-level failures are attributed to distinct classes
 * (refused / reset / timed out / other) instead of one opaque counter,
 * degraded-mode responses are tallied as `stale_served`, and optional
 * retries (off by default — a closed loop should see errors, not paper
 * over them) follow the shared RetryPolicy.
 *
 * Against a mesh, `--targets=host:port,host:port,...` makes every
 * worker fail over across the listed nodes (rotating on transport
 * failures and `mesh_unreachable` answers, following 307 redirects),
 * and the report gains a per-target breakdown: which node answered,
 * which node ate which failure class, how many failovers helped.
 *
 * Reports one machine-readable JSON line:
 *   {"rps":..,"requests":..,"http_2xx":..,"http_4xx":..,"http_5xx":..,
 *    "stale_served":..,"connect_errors":..,"connect_refused":..,
 *    "conn_reset":..,"timeouts":..,"net_other":..,"bad_response":..,
 *    "deadline_expired":..,"shed":..,"drain_sheds":..,
 *    "server_expired":..,"cancelled":..,"deadline_misses":..,
 *    "deadline_miss_rate":..,"retries":..,"backoff_ms":..,
 *    "p50_ms":..,"p95_ms":..,"p99_ms":..,"p99_9_ms":..,
 *    "max_ms":..,"duration_s":..,"concurrency":..,"slow_traces":[..]}
 *
 * With --trace every request carries a generated X-Hiermeans-Trace ID;
 * the IDs of the slowest percentile are reported (slow_traces), ready
 * for `hmctl --trace=ID` against a daemon started with --trace.
 *
 * Usage:
 *   hmload --port=N [--host=127.0.0.1] [--targets=HOST:PORT,...]
 *          [--concurrency=2]
 *          [--duration-s=3] [--manifest=FILE] [--suite=NAME]
 *          [--timeout-ms=0]
 *          [--retries=0] [--retry-base-ms=50] [--retry-cap-ms=2000]
 *          [--retry-budget-ms=10000] [--seed=N] [--wire=binary|json]
 *          [--json-only]
 *
 * --wire picks the /v1/score request format: `binary` (default) posts
 * negotiated application/x-hiermeans-wire frames, `json` the classic
 * text path; the report's `wire_format` and `*_bytes_per_request`
 * fields make the two directly comparable.
 *
 * Without --manifest a GET /healthz mix is used, which exercises the
 * server path without needing data files.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/hiermeans.h"

namespace {

using namespace hiermeans;

util::FlagSet
flagSpec()
{
    util::FlagSet flags(
        "hmload",
        "closed-loop load generator for the hmserved scoring daemon");
    flags.section("required flags").flag("port", "N", "hmserved port");
    flags.section("optional flags")
        .flag("host", "NAME", "server host (default 127.0.0.1)")
        .flag("concurrency", "N", "worker connections (default 2)")
        .flag("duration-s", "N", "seconds to run (default 3)")
        .flag("manifest", "FILE",
              "request mix: each line is POSTed to /v1/score\n"
              "(default: GET /healthz probes)")
        .flag("suite", "NAME",
              "request mix from a registered suite: one\n"
              "`suite=NAME line=K` body per manifest line of\n"
              "its latest version (fetched from /v1/suites;\n"
              "mutually exclusive with --manifest)")
        .flag("timeout-ms", "N",
              "per-attempt response deadline; expiries count\n"
              "as timeouts (default 0: wait forever)")
        .flag("deadline-ms", "N",
              "end-to-end budget per request, sent as\n"
              "X-Hiermeans-Deadline and spanning retries and\n"
              "failover; answers landing after it count as\n"
              "deadline misses (default 0: none)")
        .flag("retries", "N",
              "extra attempts per request on retryable\n"
              "failures (default 0: report every error)")
        .flag("retry-base-ms", "N",
              "backoff draw lower bound (default 50)")
        .flag("retry-cap-ms", "N",
              "backoff draw upper bound (default 2000)")
        .flag("retry-budget-ms", "N",
              "total backoff sleep per request (default 10000)")
        .flag("seed", "N", "backoff jitter seed (default 1)")
        .flag("wire", "FMT",
              "score request format: `binary` (the negotiated\n"
              "wire frames, default) or `json` (the text paths);\n"
              "binary falls back to json on a 415")
        .flag("json-only", "", "print only the JSON result line");
    flags.section("mesh flags")
        .flag("targets", "LIST",
              "comma-separated host:port list: fail over\n"
              "across these nodes (overrides --host/--port)\n"
              "and report per-target breakdowns");
    flags.section("tracing flags")
        .flag("trace", "",
              "send a generated X-Hiermeans-Trace ID with every\n"
              "request and report the slowest percentile's IDs\n"
              "(retrieve span trees with hmctl --trace=ID)");
    flags.standard();
    return flags;
}

/**
 * Build the `suite=NAME line=K` request mix for a registered suite:
 * ask GET /v1/suites for the registry, find @p suite's entry, and emit
 * one body per manifest line of its latest version. Throws when the
 * suite is unknown or the endpoint is unavailable (no store).
 */
std::vector<std::string>
suiteMix(const std::string &host, std::uint16_t port,
         const std::string &suite)
{
    server::HttpClient probe(host, port);
    const auto response = probe.roundTrip("GET", "/v1/suites");
    HM_REQUIRE(response.status == 200, "GET /v1/suites answered "
                                           << response.status << ": "
                                           << response.body);
    const std::string needle = "\"name\":" + server::json::quote(suite);
    const std::size_t at = response.body.find(needle);
    HM_REQUIRE(at != std::string::npos,
               "no registered suite `" << suite << "`");
    // The suite's entry runs to its matching close brace; its last
    // versions element is the latest, so the last "lines" value
    // inside the entry is the line count to spread load across.
    const std::size_t open = response.body.rfind('{', at);
    std::size_t end = open;
    int depth = 0;
    for (std::size_t i = open; i < response.body.size(); ++i) {
        if (response.body[i] == '{') {
            ++depth;
        } else if (response.body[i] == '}' && --depth == 0) {
            end = i;
            break;
        }
    }
    const std::string entry = response.body.substr(open, end - open + 1);
    const std::size_t lines_at = entry.rfind("\"lines\":");
    HM_REQUIRE(lines_at != std::string::npos,
               "suite `" << suite << "` entry carries no line count");
    const auto lines =
        server::json::findNumber(entry.substr(lines_at), "lines");
    HM_REQUIRE(lines && *lines >= 1.0,
               "suite `" << suite << "` has no manifest lines");
    std::vector<std::string> mix;
    for (std::size_t k = 1; k <= static_cast<std::size_t>(*lines); ++k)
        mix.push_back("suite=" + suite + " line=" + std::to_string(k));
    return mix;
}

/** Shared tallies across workers. */
struct Tally
{
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> http2xx{0};
    std::atomic<std::uint64_t> http4xx{0};
    std::atomic<std::uint64_t> http5xx{0};
    std::atomic<std::uint64_t> staleServed{0};
    std::atomic<std::uint64_t> connectRefused{0};
    std::atomic<std::uint64_t> connReset{0};
    std::atomic<std::uint64_t> timeouts{0};
    std::atomic<std::uint64_t> netOther{0};
    std::atomic<std::uint64_t> badResponse{0};
    std::atomic<std::uint64_t> deadlineExpired{0};
    std::atomic<std::uint64_t> shed{0};        ///< 503 overloaded.
    std::atomic<std::uint64_t> drainSheds{0};  ///< 503 draining.
    std::atomic<std::uint64_t> serverExpired{0}; ///< 504 deadline_expired.
    std::atomic<std::uint64_t> cancelled{0};   ///< 503 after admission.
    std::atomic<std::uint64_t> deadlineMisses{0}; ///< late answers.
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> backoffMicros{0};
    std::atomic<std::uint64_t> requestBytes{0};  ///< bodies sent.
    std::atomic<std::uint64_t> responseBytes{0}; ///< bodies received.
    /** Wall time (ms) per answered request, for exact percentiles. */
    std::mutex latencyMutex;
    std::vector<double> latencies;

    /** (latency ms, trace ID) per answered request under --trace. */
    std::mutex tracedMutex;
    std::vector<std::pair<double, std::string>> traced;

    /** Per-target tallies, index-aligned with the target list. */
    std::mutex targetMutex;
    std::vector<client::TargetStats> targets;
    std::uint64_t failovers = 0;
};

void
worker(const client::ClusterClient::Config &config,
       const std::vector<std::string> &mix, std::size_t offset,
       std::chrono::steady_clock::time_point deadline, bool trace,
       double deadline_ms, Tally &tally)
{
    client::ClusterClient client(config);
    std::size_t next = offset;
    while (std::chrono::steady_clock::now() < deadline) {
        const auto start = std::chrono::steady_clock::now();
        std::string trace_id;
        if (trace)
            trace_id = obs::generateTraceId();
        client::Outcome outcome;
        if (mix.empty()) {
            outcome = client.health();
        } else {
            outcome = client.score(mix[next % mix.size()], trace_id);
            ++next;
        }
        tally.retries += outcome.attempts - 1;
        tally.backoffMicros += static_cast<std::uint64_t>(
            outcome.backoffMillis * 1000.0);

        if (!outcome.haveResponse) {
            switch (outcome.failure) {
            case client::FailureClass::ConnectRefused:
                ++tally.connectRefused;
                break;
            case client::FailureClass::ConnectionReset:
                ++tally.connReset;
                break;
            case client::FailureClass::TimedOut:
                ++tally.timeouts;
                break;
            case client::FailureClass::BadResponse:
                ++tally.badResponse;
                break;
            case client::FailureClass::DeadlineExpired:
                ++tally.deadlineExpired;
                break;
            default:
                ++tally.netOther;
                break;
            }
            // Back off briefly so a down server doesn't spin the loop.
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            continue;
        }
        const std::chrono::duration<double, std::milli> elapsed =
            std::chrono::steady_clock::now() - start;
        ++tally.requests;
        tally.requestBytes += outcome.requestBodyBytes;
        tally.responseBytes += outcome.responseBodyBytes;
        {
            std::lock_guard<std::mutex> lock(tally.latencyMutex);
            tally.latencies.push_back(elapsed.count());
        }
        if (deadline_ms > 0.0 && elapsed.count() > deadline_ms)
            ++tally.deadlineMisses;
        switch (outcome.apiError) {
        case server::ApiError::Overloaded:
        case server::ApiError::CircuitOpen:
            ++tally.shed;
            break;
        case server::ApiError::Draining:
            // Pre-admission drain refusals and post-admission
            // cancellations share the code; both mean "go elsewhere".
            ++tally.drainSheds;
            ++tally.cancelled;
            break;
        case server::ApiError::DeadlineExpired:
            ++tally.serverExpired;
            break;
        default:
            break;
        }
        if (trace && !outcome.traceId.empty()) {
            std::lock_guard<std::mutex> lock(tally.tracedMutex);
            tally.traced.emplace_back(elapsed.count(),
                                      outcome.traceId);
        }
        if (outcome.stale)
            ++tally.staleServed;
        if (outcome.status >= 200 && outcome.status < 300)
            ++tally.http2xx;
        else if (outcome.status >= 400 && outcome.status < 500)
            ++tally.http4xx;
        else if (outcome.status >= 500)
            ++tally.http5xx;
    }

    // Fold this worker's per-target attribution into the shared tally.
    std::lock_guard<std::mutex> lock(tally.targetMutex);
    const std::vector<client::TargetStats> &stats = client.stats();
    for (std::size_t i = 0; i < stats.size(); ++i) {
        client::TargetStats &into = tally.targets[i];
        into.attempts += stats[i].attempts;
        into.http2xx += stats[i].http2xx;
        into.http4xx += stats[i].http4xx;
        into.http5xx += stats[i].http5xx;
        into.redirectsFollowed += stats[i].redirectsFollowed;
        into.meshUnreachable += stats[i].meshUnreachable;
        for (std::size_t c = 0; c < into.byFailure.size(); ++c)
            into.byFailure[c] += stats[i].byFailure[c];
    }
    tally.failovers += client.failovers();
}

int
run(const util::CommandLine &cl)
{
    if (!cl.has("port") && !cl.has("targets")) {
        std::cerr << flagSpec().usage();
        return 2;
    }
    const auto port = static_cast<std::uint16_t>(cl.getInt("port", 0));
    const std::string host = cl.getString("host", "127.0.0.1");
    const auto concurrency =
        static_cast<std::size_t>(cl.getInt("concurrency", 2));
    HM_REQUIRE(concurrency >= 1, "--concurrency must be >= 1");
    const double duration_s = cl.getDouble("duration-s", 3.0);
    HM_REQUIRE(duration_s > 0.0, "--duration-s must be > 0");
    const bool json_only = cl.getBool("json-only", false);
    const bool trace = cl.getBool("trace", false);
    const double deadline_ms = cl.getDouble("deadline-ms", 0.0);

    client::ClusterClient::Config client_config;
    const std::string targets_spec = cl.getString("targets", "");
    if (!targets_spec.empty())
        client_config.targets = client::parseTargets(targets_spec);
    else
        client_config.targets = {client::ClusterTarget{host, port}};
    client_config.readTimeoutMillis =
        static_cast<int>(cl.getInt("timeout-ms", 0));
    client_config.deadlineMillis = deadline_ms;
    client_config.retry.maxAttempts =
        1 + static_cast<std::size_t>(cl.getInt("retries", 0));
    client_config.retry.baseMillis = cl.getDouble("retry-base-ms", 50.0);
    client_config.retry.capMillis = cl.getDouble("retry-cap-ms", 2000.0);
    client_config.retry.budgetMillis =
        cl.getDouble("retry-budget-ms", 10000.0);
    client_config.retry.seed =
        static_cast<std::uint64_t>(cl.getInt("seed", 1));
    const std::string wire_format = cl.getString("wire", "binary");
    HM_REQUIRE(wire_format == "binary" || wire_format == "json",
               "--wire must be `binary` or `json`, got `"
                   << wire_format << "`");
    client_config.binaryWire = wire_format == "binary";

    // The request mix: every non-comment manifest line becomes one
    // /v1/score body, replayed round-robin.
    std::vector<std::string> mix;
    const std::string manifest_path = cl.getString("manifest", "");
    const std::string suite = cl.getString("suite", "");
    HM_REQUIRE(manifest_path.empty() || suite.empty(),
               "--manifest and --suite are mutually exclusive");
    if (!manifest_path.empty()) {
        for (const std::string &raw :
             str::split(util::readFile(manifest_path), '\n')) {
            const std::string line = str::trim(raw);
            if (!line.empty() && line.front() != '#')
                mix.push_back(line);
        }
        HM_REQUIRE(!mix.empty(), "manifest `" << manifest_path
                                              << "` has no requests");
    } else if (!suite.empty()) {
        // Reference bodies: the server expands the stored manifest
        // line, so the mix stresses the registry path as well.
        const client::ClusterTarget &target =
            client_config.targets.front();
        mix = suiteMix(target.host, target.port, suite);
    }

    if (!json_only) {
        std::string where = client_config.targets.front().label();
        for (std::size_t i = 1; i < client_config.targets.size(); ++i)
            where += "," + client_config.targets[i].label();
        std::cout << "hmload: " << concurrency << " worker(s), "
                  << duration_s << "s against " << where << " ("
                  << (mix.empty() ? "GET /healthz"
                                  : std::to_string(mix.size()) +
                                        "-line score mix")
                  << ")\n";
    }

    Tally tally;
    tally.targets.resize(client_config.targets.size());
    const auto start = std::chrono::steady_clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(duration_s));
    std::vector<std::thread> threads;
    threads.reserve(concurrency);
    for (std::size_t i = 0; i < concurrency; ++i) {
        // Decorrelate each worker's jitter stream.
        client::ClusterClient::Config worker_config = client_config;
        worker_config.retry.seed += i;
        threads.emplace_back([&, worker_config, i] {
            worker(worker_config, mix, i, deadline, trace, deadline_ms,
                   tally);
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;

    const auto requests = tally.requests.load();
    const std::uint64_t connect_errors =
        tally.connectRefused.load() + tally.connReset.load() +
        tally.timeouts.load() + tally.netOther.load();
    const double rps =
        elapsed.count() > 0.0
            ? static_cast<double>(requests) / elapsed.count()
            : 0.0;

    // Nearest-rank percentiles: the smallest sample covering p percent
    // of the requests (0 before the first answer).
    std::sort(tally.latencies.begin(), tally.latencies.end());
    const auto percentile = [&tally](double p) {
        const std::vector<double> &sorted = tally.latencies;
        if (sorted.empty())
            return 0.0;
        const auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
        return sorted[std::min(rank == 0 ? 0 : rank - 1, sorted.size() - 1)];
    };

    // The slowest percentile's trace IDs (at least 1, at most 10):
    // the requests worth pulling span trees for.
    std::string slow_traces = "[";
    if (!tally.traced.empty()) {
        std::sort(tally.traced.begin(), tally.traced.end(),
                  [](const auto &a, const auto &b) {
                      return a.first > b.first;
                  });
        std::size_t keep = tally.traced.size() / 100;
        keep = std::min<std::size_t>(std::max<std::size_t>(keep, 1), 10);
        for (std::size_t i = 0; i < keep; ++i) {
            if (i > 0)
                slow_traces += ",";
            slow_traces +=
                "{\"ms\":" +
                server::json::number(tally.traced[i].first) +
                ",\"trace_id\":" +
                server::json::quote(tally.traced[i].second) + "}";
        }
        if (!json_only) {
            std::cout << "slowest traced requests (hmctl --trace=ID "
                         "--port=N to inspect):\n";
            for (std::size_t i = 0; i < keep; ++i) {
                std::printf("  %9.3f ms  %s\n", tally.traced[i].first,
                            tally.traced[i].second.c_str());
            }
        }
    }
    slow_traces += "]";

    // Per-target attribution: which node answered what, which node
    // ate which failure class, whether failing over helped.
    std::string targets_json = "[";
    for (std::size_t i = 0; i < tally.targets.size(); ++i) {
        const client::TargetStats &stats = tally.targets[i];
        if (i > 0)
            targets_json += ",";
        targets_json +=
            "{\"target\":" +
            server::json::quote(client_config.targets[i].label()) +
            ",\"attempts\":" + std::to_string(stats.attempts) +
            ",\"http_2xx\":" + std::to_string(stats.http2xx) +
            ",\"http_4xx\":" + std::to_string(stats.http4xx) +
            ",\"http_5xx\":" + std::to_string(stats.http5xx) +
            ",\"redirects_followed\":" +
            std::to_string(stats.redirectsFollowed) +
            ",\"mesh_unreachable\":" +
            std::to_string(stats.meshUnreachable);
        for (std::size_t c = 1; c < stats.byFailure.size(); ++c) {
            std::string key =
                client::failureClassName(
                    static_cast<client::FailureClass>(c));
            for (char &ch : key)
                if (ch == '-')
                    ch = '_';
            targets_json +=
                ",\"" + key + "\":" + std::to_string(stats.byFailure[c]);
        }
        targets_json += "}";
    }
    targets_json += "]";
    if (!json_only && tally.targets.size() > 1) {
        std::cout << "per-target breakdown (failovers that helped: "
                  << tally.failovers << "):\n";
        for (std::size_t i = 0; i < tally.targets.size(); ++i) {
            const client::TargetStats &stats = tally.targets[i];
            std::printf("  %-21s attempts=%llu 2xx=%llu 4xx=%llu "
                        "5xx=%llu redirected=%llu unreachable=%llu",
                        client_config.targets[i].label().c_str(),
                        static_cast<unsigned long long>(stats.attempts),
                        static_cast<unsigned long long>(stats.http2xx),
                        static_cast<unsigned long long>(stats.http4xx),
                        static_cast<unsigned long long>(stats.http5xx),
                        static_cast<unsigned long long>(
                            stats.redirectsFollowed),
                        static_cast<unsigned long long>(
                            stats.meshUnreachable));
            for (std::size_t c = 1; c < stats.byFailure.size(); ++c) {
                if (stats.byFailure[c] == 0)
                    continue;
                std::printf(" %s=%llu",
                            client::failureClassName(
                                static_cast<client::FailureClass>(c)),
                            static_cast<unsigned long long>(
                                stats.byFailure[c]));
            }
            std::printf("\n");
        }
    }

    std::printf(
        "{\"rps\":%s,\"requests\":%llu,\"http_2xx\":%llu,"
        "\"http_4xx\":%llu,\"http_5xx\":%llu,\"stale_served\":%llu,"
        "\"connect_errors\":%llu,\"connect_refused\":%llu,"
        "\"conn_reset\":%llu,\"timeouts\":%llu,\"net_other\":%llu,"
        "\"bad_response\":%llu,\"deadline_expired\":%llu,"
        "\"shed\":%llu,\"drain_sheds\":%llu,"
        "\"server_expired\":%llu,\"cancelled\":%llu,"
        "\"deadline_misses\":%llu,\"deadline_miss_rate\":%s,"
        "\"retries\":%llu,\"backoff_ms\":%s,"
        "\"p50_ms\":%s,\"p95_ms\":%s,\"p99_ms\":%s,"
        "\"p99_9_ms\":%s,\"max_ms\":%s,"
        "\"duration_s\":%s,\"concurrency\":%llu,"
        "\"wire_format\":\"%s\","
        "\"request_bytes_per_request\":%s,"
        "\"response_bytes_per_request\":%s,"
        "\"failovers\":%llu,\"targets\":%s,"
        "\"slow_traces\":%s}\n",
        server::json::number(rps).c_str(),
        static_cast<unsigned long long>(requests),
        static_cast<unsigned long long>(tally.http2xx.load()),
        static_cast<unsigned long long>(tally.http4xx.load()),
        static_cast<unsigned long long>(tally.http5xx.load()),
        static_cast<unsigned long long>(tally.staleServed.load()),
        static_cast<unsigned long long>(connect_errors),
        static_cast<unsigned long long>(tally.connectRefused.load()),
        static_cast<unsigned long long>(tally.connReset.load()),
        static_cast<unsigned long long>(tally.timeouts.load()),
        static_cast<unsigned long long>(tally.netOther.load()),
        static_cast<unsigned long long>(tally.badResponse.load()),
        static_cast<unsigned long long>(tally.deadlineExpired.load()),
        static_cast<unsigned long long>(tally.shed.load()),
        static_cast<unsigned long long>(tally.drainSheds.load()),
        static_cast<unsigned long long>(tally.serverExpired.load()),
        static_cast<unsigned long long>(tally.cancelled.load()),
        static_cast<unsigned long long>(tally.deadlineMisses.load()),
        server::json::number(
            requests > 0 ? static_cast<double>(
                               tally.deadlineMisses.load()) /
                               static_cast<double>(requests)
                         : 0.0)
            .c_str(),
        static_cast<unsigned long long>(tally.retries.load()),
        server::json::number(
            static_cast<double>(tally.backoffMicros.load()) / 1000.0)
            .c_str(),
        server::json::number(percentile(50.0)).c_str(),
        server::json::number(percentile(95.0)).c_str(),
        server::json::number(percentile(99.0)).c_str(),
        server::json::number(percentile(99.9)).c_str(),
        server::json::number(percentile(100.0)).c_str(),
        server::json::number(elapsed.count()).c_str(),
        static_cast<unsigned long long>(concurrency),
        wire_format.c_str(),
        server::json::number(
            requests > 0
                ? static_cast<double>(tally.requestBytes.load()) /
                      static_cast<double>(requests)
                : 0.0)
            .c_str(),
        server::json::number(
            requests > 0
                ? static_cast<double>(tally.responseBytes.load()) /
                      static_cast<double>(requests)
                : 0.0)
            .c_str(),
        static_cast<unsigned long long>(tally.failovers),
        targets_json.c_str(), slow_traces.c_str());
    std::fflush(stdout);

    // A run that never completed a request is a failed run: the server
    // was unreachable for the whole window.
    return requests > 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const auto cl = util::CommandLine::parse(argc, argv);
        if (flagSpec().handleStandard(cl, std::cout))
            return 0;
        return run(cl);
    } catch (const hiermeans::Error &e) {
        std::cerr << "hmload: " << e.what() << "\n";
        return 1;
    }
}
