/**
 * @file
 * hmctl — command-line probe for a running hmserved daemon.
 *
 * The operational companion to hmload: where hmload stresses, hmctl
 * asks. It wraps client::ClusterClient, so probes ride the same retry
 * policy and failure taxonomy as real clients — and against a mesh
 * node, probes for suites owned elsewhere follow the 307 redirect to
 * the owner. Its exit code makes the health state scriptable:
 *
 *   0  server answered and is healthy (ok)
 *   2  server answered but is degraded
 *   3  server is draining (graceful shutdown in progress)
 *   1  unreachable / retries exhausted / unexpected answer
 *
 * Usage:
 *   hmctl --port=N [--host=127.0.0.1] [--health] [--metrics]
 *         [--check] [--cluster] [--score=LINE] [--trace=ID] [--traces]
 *         [--register=NAME --manifest=FILE] [--history[=SUITE]]
 *         [--snapshot] [--drift[=SUITE]] [--recluster[=SUITE]]
 *         [--observe=SUITE --ratio=R [--plain-ratio=R] [--id=NAME]]
 *         [--timeout-ms=2000] [--retries=2] [--retry-base-ms=50]
 *         [--retry-cap-ms=2000] [--retry-budget-ms=10000] [--seed=N]
 *         [--json-only]
 *
 * The store probes (--register, --history, --snapshot) need a daemon
 * started with --data-dir; without one they answer 503 store_disabled.
 * `--history=SUITE` pretty-prints the persisted score-history ring as
 * a table; omitting the suite shows the ad-hoc (unregistered) ring.
 *
 * Default probe is --health. Output is one JSON line:
 *   {"probe":"health","ok":true,"status":200,"health":"ok",
 *    "attempts":1,"backoff_ms":0,"stale":false,"failure":"none"}
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "src/hiermeans.h"

namespace {

using namespace hiermeans;

util::FlagSet
flagSpec()
{
    util::FlagSet flags("hmctl",
                        "probe for a running hmserved daemon");
    flags.section("required flags").flag("port", "N", "hmserved port");
    flags.section("probes (default --health)")
        .flag("health", "",
              "GET /healthz; exit 0 ok, 2 degraded,\n"
              "3 draining, 1 unreachable")
        .flag("metrics", "", "GET /metrics; print the metrics body")
        .flag("check", "",
              "GET /metrics and lint the Prometheus exposition\n"
              "format (one-hot state gauges included) and that\n"
              "every series this build declares is served; on a\n"
              "store daemon also cross-check that every\n"
              "drift-tracked suite is still registered; on a\n"
              "mesh daemon also lint the /v1/cluster payload,\n"
              "per-shard health and `wire` advertisement;\n"
              "exit 0 clean, 1 with issues listed")
        .flag("cluster", "",
              "GET /v1/cluster; pretty-print membership,\n"
              "per-node health and replication offsets\n"
              "(mesh daemons only); exit 0 all nodes ok,\n"
              "2 with nodes down, 1 unreachable/not a mesh")
        .flag("score", "LINE", "POST one manifest line to /v1/score")
        .flag("trace", "ID",
              "GET /v1/trace/<ID>; print the span tree (the\n"
              "daemon must run with --trace)")
        .flag("traces", "", "GET /v1/traces; list stored trace IDs")
        .flag("register", "NAME",
              "POST the --manifest file to /v1/suites as the\n"
              "next version of suite NAME")
        .flag("manifest", "FILE",
              "manifest file for --register (required with it)")
        .flag("history", "SUITE",
              "GET /v1/history?suite=SUITE and pretty-print\n"
              "the score-history ring (no SUITE: ad-hoc ring)")
        .flag("snapshot", "",
              "POST /v1/admin/snapshot; force a snapshot +\n"
              "WAL compaction")
        .flag("drain", "",
              "POST /v1/admin/drain: begin graceful shutdown,\n"
              "then watch until the daemon exits; exit 0 when\n"
              "it drained inside its deadline, 2 when the\n"
              "drain deadline was exceeded, 1 unreachable")
        .flag("drift", "SUITE",
              "GET /v1/suites/<SUITE>/drift (no SUITE: every\n"
              "tracked suite via /v1/drift) and pretty-print\n"
              "the staleness table; exit 0 all fresh,\n"
              "2 when any probed suite is stale")
        .flag("recluster", "SUITE",
              "POST /v1/admin/recluster[?suite=SUITE]; force\n"
              "a drift tick and print the resulting table")
        .flag("observe", "SUITE",
              "POST one observation to\n"
              "/v1/suites/<SUITE>/observe; feeds the drift\n"
              "monitor without running the pipeline\n"
              "(requires --ratio)")
        .flag("ratio", "R", "observed ratio for --observe")
        .flag("plain-ratio", "R",
              "plain-mean ratio for --observe\n"
              "(default: the --ratio value)")
        .flag("id", "NAME", "observation id for --observe");
    flags.section("optional flags")
        .flag("host", "NAME", "server host (default 127.0.0.1)")
        .flag("timeout-ms", "N",
              "per-attempt response deadline\n"
              "(default 2000; 0 = wait forever)")
        .flag("retries", "N",
              "extra attempts on retryable failures (default 2)")
        .flag("retry-base-ms", "N",
              "backoff draw lower bound (default 50)")
        .flag("retry-cap-ms", "N",
              "backoff draw upper bound (default 2000)")
        .flag("retry-budget-ms", "N",
              "total backoff sleep (default 10000)")
        .flag("seed", "N", "backoff jitter seed (default 1)")
        .flag("json-only", "",
              "suppress non-JSON output (--metrics body,\n"
              "--score response body, span trees)");
    flags.standard();
    return flags;
}

/**
 * Split the flat JSON objects out of a `"key":[...]` array of a
 * server envelope. Brace-depth scan, string-aware; good enough for
 * the server's own output (the array elements are flat objects).
 */
std::vector<std::string>
arrayObjects(const std::string &body, const std::string &key)
{
    std::vector<std::string> entries;
    const std::string marker = "\"" + key + "\":[";
    const std::size_t at = body.find(marker);
    if (at == std::string::npos)
        return entries;
    std::size_t i = at + marker.size();
    std::size_t start = 0;
    int depth = 0;
    bool in_string = false;
    for (; i < body.size(); ++i) {
        const char c = body[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"') {
            in_string = true;
        } else if (c == '{') {
            if (depth++ == 0)
                start = i;
        } else if (c == '}') {
            if (--depth == 0)
                entries.push_back(body.substr(start, i - start + 1));
        } else if (c == ']' && depth == 0) {
            break;
        }
    }
    return entries;
}


/** Render one /v1/history envelope as a column-aligned table. */
std::string
renderHistoryTable(const std::string &body)
{
    util::TextTable table({"seq", "id", "ver", "k", "ratio", "plain",
                           "wall_ms", "fingerprint"});
    const auto integer = [](const std::optional<double> &value) {
        return value ? std::to_string(
                           static_cast<long long>(*value))
                     : std::string("-");
    };
    const auto real = [](const std::optional<double> &value) {
        if (!value)
            return std::string("-");
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.4g", *value);
        return std::string(buf);
    };
    for (const std::string &entry : arrayObjects(body, "entries")) {
        table.addRow({
            integer(server::json::findNumber(entry, "sequence")),
            server::json::findString(entry, "id").value_or("-"),
            integer(server::json::findNumber(entry, "suite_version")),
            integer(server::json::findNumber(entry, "recommended_k")),
            real(server::json::findNumber(entry, "ratio")),
            real(server::json::findNumber(entry, "plain_ratio")),
            real(server::json::findNumber(entry, "wall_ms")),
            server::json::findString(entry, "fingerprint")
                .value_or("-"),
        });
    }
    return table.render();
}


/** Render drift report objects as a column-aligned table. */
std::string
renderDriftTable(const std::vector<std::string> &reports)
{
    util::TextTable table({"suite", "state", "mean", "churn",
                           "stability", "qe_ratio", "window", "ticks",
                           "obs"});
    const auto integer = [](const std::optional<double> &value) {
        return value ? std::to_string(static_cast<long long>(*value))
                     : std::string("-");
    };
    const auto real = [](const std::optional<double> &value) {
        if (!value)
            return std::string("-");
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.4g", *value);
        return std::string(buf);
    };
    for (const std::string &report : reports) {
        table.addRow({
            server::json::findString(report, "suite").value_or("-"),
            server::json::findString(report, "state").value_or("-"),
            real(server::json::findNumber(report, "published_mean")),
            real(server::json::findNumber(report, "churn")),
            real(server::json::findNumber(report, "stability")),
            real(server::json::findNumber(report, "qe_ratio")),
            integer(server::json::findNumber(report, "window")),
            integer(server::json::findNumber(report, "ticks")),
            integer(server::json::findNumber(report, "observations")),
        });
    }
    return table.render();
}


/**
 * Lint a /v1/cluster payload: required top-level fields, a plausible
 * membership list, per-node required fields, per-shard health, and
 * the wire-format advertisement clients use to pick an encoding.
 * A down node is an issue — the mesh serves, but degraded.
 */
std::vector<std::string>
lintClusterPayload(const std::string &body)
{
    std::vector<std::string> issues;
    if (!server::json::findString(body, "self"))
        issues.push_back("cluster: missing `self`");
    const auto replicas = server::json::findNumber(body, "replicas");
    if (!replicas)
        issues.push_back("cluster: missing `replicas`");
    if (!server::json::findNumber(body, "vnodes"))
        issues.push_back("cluster: missing `vnodes`");
    if (!server::json::findNumber(body, "store_sequence"))
        issues.push_back("cluster: missing `store_sequence`");
    // The negotiation advertisement: a node that does not list the
    // version our clients speak forces the JSON fallback lap.
    const std::size_t wire_at = body.find("\"wire\":{");
    if (wire_at == std::string::npos) {
        issues.push_back("cluster: missing `wire` advertisement");
    } else {
        const std::size_t wire_end = body.find('}', wire_at);
        const std::string advert = body.substr(
            wire_at, wire_end == std::string::npos
                         ? std::string::npos
                         : wire_end - wire_at + 1);
        const std::string version = std::to_string(
            static_cast<unsigned>(wire::kWireVersion));
        if (advert.find("\"version\":" + version) ==
            std::string::npos)
            issues.push_back(
                "cluster: `wire` does not advertise version " +
                version);
        for (const char *format : {"\"json\"", "\"binary\""}) {
            if (advert.find(format) == std::string::npos)
                issues.push_back(
                    std::string("cluster: `wire` missing format ") +
                    format);
        }
    }
    const std::vector<std::string> nodes = arrayObjects(body, "nodes");
    if (nodes.empty()) {
        issues.push_back("cluster: empty `nodes` membership");
        return issues;
    }
    if (replicas &&
        (*replicas < 1.0 ||
         *replicas > static_cast<double>(nodes.size())))
        issues.push_back("cluster: `replicas` outside 1..nodes");
    for (const std::string &node : nodes) {
        const auto id = server::json::findString(node, "id");
        if (!id) {
            issues.push_back("cluster: node without `id`");
            continue;
        }
        if (!server::json::findString(node, "host") ||
            !server::json::findNumber(node, "port"))
            issues.push_back("cluster: node `" + *id +
                             "` missing host/port");
        const auto health = server::json::findString(node, "health");
        if (!health)
            issues.push_back("cluster: node `" + *id +
                             "` missing `health`");
        else if (*health == "down")
            issues.push_back("cluster: node `" + *id + "` is down");
        else if (*health != "ok" && *health != "unknown")
            issues.push_back("cluster: node `" + *id +
                             "` has unrecognized health `" + *health +
                             "`");
    }
    return issues;
}


/** Render a /v1/cluster envelope as a membership table. */
std::string
renderClusterTable(const std::string &body)
{
    util::TextTable table({"id", "addr", "health", "role", "acked"});
    for (const std::string &node : arrayObjects(body, "nodes")) {
        const bool self = node.find("\"self\":true") != std::string::npos;
        const bool follower =
            node.find("\"follower\":true") != std::string::npos;
        const auto port = server::json::findNumber(node, "port");
        const auto acked = server::json::findNumber(node, "acked");
        table.addRow({
            server::json::findString(node, "id").value_or("-"),
            server::json::findString(node, "host").value_or("-") + ":" +
                (port ? std::to_string(
                            static_cast<long long>(*port))
                      : "-"),
            server::json::findString(node, "health").value_or("-"),
            self ? "self" : (follower ? "follower" : "peer"),
            acked ? std::to_string(static_cast<long long>(*acked))
                  : "-",
        });
    }
    std::string rendered = table.render();
    for (const std::string &follow : arrayObjects(body, "follows")) {
        const auto sequence =
            server::json::findNumber(follow, "sequence");
        rendered +=
            "follows " +
            server::json::findString(follow, "leader").value_or("-") +
            " at sequence " +
            (sequence
                 ? std::to_string(static_cast<long long>(*sequence))
                 : "-") +
            "\n";
    }
    return rendered;
}


/** One JSON summary line for any probe outcome. */
void
printSummary(const char *probe, const client::Outcome &outcome,
             const std::string &health)
{
    std::printf(
        "{\"probe\":\"%s\",\"ok\":%s,\"status\":%d,\"health\":%s,"
        "\"attempts\":%llu,\"backoff_ms\":%s,\"stale\":%s,"
        "\"failure\":\"%s\"}\n",
        probe, outcome.ok() ? "true" : "false", outcome.status,
        health.empty() ? "null" : server::json::quote(health).c_str(),
        static_cast<unsigned long long>(outcome.attempts),
        server::json::number(outcome.backoffMillis).c_str(),
        outcome.stale ? "true" : "false",
        client::failureClassName(outcome.failure));
    std::fflush(stdout);
}

int
run(const util::CommandLine &cl)
{
    if (!cl.has("port")) {
        std::cerr << flagSpec().usage();
        return 2;
    }

    // ClusterClient with one target: against a mesh node, a probe for
    // a suite owned elsewhere transparently follows the 307 to the
    // owner instead of dumping the redirect on the operator.
    client::ClusterClient::Config config;
    config.targets = {client::ClusterTarget{
        cl.getString("host", "127.0.0.1"),
        static_cast<std::uint16_t>(cl.getInt("port", 0))}};
    config.readTimeoutMillis =
        static_cast<int>(cl.getInt("timeout-ms", 2000));
    config.retry.maxAttempts =
        1 + static_cast<std::size_t>(cl.getInt("retries", 2));
    config.retry.baseMillis = cl.getDouble("retry-base-ms", 50.0);
    config.retry.capMillis = cl.getDouble("retry-cap-ms", 2000.0);
    config.retry.budgetMillis = cl.getDouble("retry-budget-ms", 10000.0);
    config.retry.seed = static_cast<std::uint64_t>(cl.getInt("seed", 1));
    const bool json_only = cl.getBool("json-only", false);

    client::ClusterClient client(config);

    if (cl.has("metrics")) {
        const client::Outcome outcome =
            client.request("GET", "/metrics");
        if (outcome.haveResponse && !json_only)
            std::cout << outcome.response.body;
        printSummary("metrics", outcome, "");
        if (!outcome.haveResponse) {
            std::cerr << "hmctl: " << outcome.error << "\n";
            return 1;
        }
        return outcome.ok() ? 0 : 1;
    }

    if (cl.has("check")) {
        const client::Outcome outcome =
            client.request("GET", "/metrics");
        printSummary("check", outcome, "");
        if (!outcome.haveResponse) {
            std::cerr << "hmctl: " << outcome.error << "\n";
            return 1;
        }
        std::vector<std::string> issues;
        for (const std::string &issue :
             obs::lintExposition(outcome.response.body))
            issues.push_back("exposition: " + issue);
        // Every series this build's server and engine declare must be
        // served (zero-valued ones included), e.g. each generator
        // family's registration counter and the wire version.
        const server::ServerMetrics server_declared;
        const engine::EngineMetrics engine_declared;
        for (const obs::Registry *declared :
             {&server_declared.registry(), &engine_declared.registry()})
            for (const std::string &issue :
                 obs::missingSeries(*declared, outcome.response.body))
                issues.push_back("exposition: " + issue);
        // Registry cross-check: every suite the drift monitor tracks
        // must still be registered — a monitor outliving its suite
        // serves staleness for ghosts. Both endpoints answer 503
        // without a store (and /v1/drift is absent pre-drift builds);
        // skip unless both answer 200.
        const client::Outcome drift = client.request("GET", "/v1/drift");
        const client::Outcome suites =
            client.request("GET", "/v1/suites");
        if (drift.haveResponse && drift.status == 200 &&
            suites.haveResponse && suites.status == 200) {
            std::vector<std::string> registered;
            for (const std::string &entry :
                 arrayObjects(suites.response.body, "suites")) {
                if (const auto name =
                        server::json::findString(entry, "name"))
                    registered.push_back(*name);
            }
            for (const std::string &report :
                 arrayObjects(drift.response.body, "suites")) {
                const auto name =
                    server::json::findString(report, "suite");
                if (name && std::find(registered.begin(),
                                      registered.end(),
                                      *name) == registered.end())
                    issues.push_back("registry: drift-tracked suite `" +
                                     *name + "` is not registered");
            }
        }
        // A mesh daemon exposes /v1/cluster; lint its payload and the
        // per-shard health too. 404 means single-node: nothing to do.
        const client::Outcome membership =
            client.request("GET", "/v1/cluster");
        bool meshed = false;
        if (membership.haveResponse && membership.status == 200) {
            meshed = true;
            for (const std::string &issue :
                 lintClusterPayload(membership.response.body))
                issues.push_back(issue);
        } else if (membership.haveResponse &&
                   membership.status != 404) {
            issues.push_back("cluster: /v1/cluster answered " +
                             std::to_string(membership.status));
        }
        if (issues.empty()) {
            if (!json_only)
                std::cout << (meshed
                                  ? "exposition format + cluster: clean\n"
                                  : "exposition format: clean\n");
            return outcome.ok() ? 0 : 1;
        }
        for (const std::string &issue : issues)
            std::cerr << "hmctl: " << issue << "\n";
        return 1;
    }

    if (cl.has("cluster")) {
        const client::Outcome outcome =
            client.request("GET", "/v1/cluster");
        printSummary("cluster", outcome, "");
        if (!outcome.haveResponse) {
            std::cerr << "hmctl: " << outcome.error << "\n";
            return 1;
        }
        if (!outcome.ok()) {
            std::cerr << "hmctl: /v1/cluster answered "
                      << outcome.status
                      << (outcome.status == 404
                              ? " (not a mesh daemon?)"
                              : "")
                      << "\n";
            return 1;
        }
        if (!json_only)
            std::cout << renderClusterTable(outcome.response.body);
        bool down = false;
        for (const std::string &node :
             arrayObjects(outcome.response.body, "nodes"))
            down = down || server::json::findString(node, "health")
                                   .value_or("") == "down";
        return down ? 2 : 0;
    }

    if (cl.has("score")) {
        // `--score=LINE --trace=ID` posts under that trace ID, ready
        // for a follow-up `hmctl --trace=ID` span-tree fetch.
        const client::Outcome outcome = client.score(
            cl.getString("score", ""), cl.getString("trace", ""));
        if (outcome.haveResponse && !json_only)
            std::cout << outcome.response.body << "\n";
        printSummary("score", outcome, "");
        if (!outcome.haveResponse) {
            std::cerr << "hmctl: " << outcome.error << "\n";
            return 1;
        }
        return outcome.ok() ? 0 : 1;
    }

    if (cl.has("trace")) {
        const std::string id = cl.getString("trace", "");
        const client::Outcome outcome =
            client.request("GET", "/v1/trace/" + id);
        printSummary("trace", outcome, "");
        if (!outcome.haveResponse) {
            std::cerr << "hmctl: " << outcome.error << "\n";
            return 1;
        }
        if (!outcome.ok()) {
            const auto message = server::json::findString(
                outcome.response.body, "message");
            std::cerr << "hmctl: "
                      << message.value_or(outcome.response.body)
                      << "\n";
            return 1;
        }
        if (!json_only) {
            // The envelope carries the rendered tree; print it rather
            // than re-deriving it from the span list.
            const auto tree = server::json::findString(
                outcome.response.body, "tree");
            if (tree)
                std::cout << *tree;
            else
                std::cout << outcome.response.body << "\n";
        }
        return 0;
    }

    if (cl.has("traces")) {
        const client::Outcome outcome =
            client.request("GET", "/v1/traces");
        printSummary("traces", outcome, "");
        if (!outcome.haveResponse) {
            std::cerr << "hmctl: " << outcome.error << "\n";
            return 1;
        }
        if (!json_only)
            std::cout << outcome.response.body;
        return outcome.ok() ? 0 : 1;
    }

    if (cl.has("register")) {
        if (!cl.has("manifest")) {
            std::cerr << "hmctl: --register needs --manifest=FILE\n";
            return 1;
        }
        const std::string name = cl.getString("register", "");
        const std::string manifest =
            util::readFile(cl.getString("manifest", ""));
        const client::Outcome outcome = client.request(
            "POST", "/v1/suites?name=" + name, manifest);
        if (outcome.haveResponse && !json_only)
            std::cout << outcome.response.body << "\n";
        printSummary("register", outcome, "");
        if (!outcome.haveResponse) {
            std::cerr << "hmctl: " << outcome.error << "\n";
            return 1;
        }
        return outcome.ok() ? 0 : 1;
    }

    if (cl.has("history")) {
        const std::string suite = cl.getString("history", "");
        const std::string target =
            suite.empty() ? "/v1/history" : "/v1/history?suite=" + suite;
        const client::Outcome outcome = client.request("GET", target);
        printSummary("history", outcome, "");
        if (!outcome.haveResponse) {
            std::cerr << "hmctl: " << outcome.error << "\n";
            return 1;
        }
        if (!outcome.ok()) {
            const auto message = server::json::findString(
                outcome.response.body, "message");
            std::cerr << "hmctl: "
                      << message.value_or(outcome.response.body)
                      << "\n";
            return 1;
        }
        if (!json_only)
            std::cout << renderHistoryTable(outcome.response.body);
        return 0;
    }

    if (cl.has("observe")) {
        if (!cl.has("ratio")) {
            std::cerr << "hmctl: --observe needs --ratio=R\n";
            return 1;
        }
        const std::string suite = cl.getString("observe", "");
        std::string body =
            "{\"ratio\":" +
            server::json::number(cl.getDouble("ratio", 0.0));
        if (cl.has("plain-ratio"))
            body += ",\"plain_ratio\":" +
                    server::json::number(
                        cl.getDouble("plain-ratio", 0.0));
        if (cl.has("id"))
            body += ",\"id\":" +
                    server::json::quote(cl.getString("id", ""));
        body += "}";
        const client::Outcome outcome = client.request(
            "POST", "/v1/suites/" + suite + "/observe", body);
        if (outcome.haveResponse && !json_only)
            std::cout << outcome.response.body << "\n";
        printSummary("observe", outcome, "");
        if (!outcome.haveResponse) {
            std::cerr << "hmctl: " << outcome.error << "\n";
            return 1;
        }
        if (!outcome.ok()) {
            const auto message = server::json::findString(
                outcome.response.body, "message");
            std::cerr << "hmctl: "
                      << message.value_or(outcome.response.body)
                      << "\n";
            return 1;
        }
        return 0;
    }

    if (cl.has("drift") || cl.has("recluster")) {
        const bool force = cl.has("recluster");
        const std::string suite =
            cl.getString(force ? "recluster" : "drift", "");
        std::string target;
        if (force)
            target = suite.empty()
                         ? "/v1/admin/recluster"
                         : "/v1/admin/recluster?suite=" + suite;
        else
            target = suite.empty() ? "/v1/drift"
                                   : "/v1/suites/" + suite + "/drift";
        const client::Outcome outcome =
            client.request(force ? "POST" : "GET", target);
        printSummary(force ? "recluster" : "drift", outcome, "");
        if (!outcome.haveResponse) {
            std::cerr << "hmctl: " << outcome.error << "\n";
            return 1;
        }
        if (!outcome.ok()) {
            const auto message = server::json::findString(
                outcome.response.body, "message");
            std::cerr << "hmctl: "
                      << message.value_or(outcome.response.body)
                      << "\n";
            return 1;
        }
        // A single-suite probe answers the report object itself; the
        // list endpoints answer {"suites":[...]}.
        std::vector<std::string> reports =
            arrayObjects(outcome.response.body, "suites");
        if (reports.empty() && !suite.empty() && !force)
            reports = {outcome.response.body};
        if (!json_only)
            std::cout << renderDriftTable(reports);
        bool stale = false;
        for (const std::string &report : reports)
            stale = stale || server::json::findString(report, "state")
                                     .value_or("") == "stale";
        return stale ? 2 : 0;
    }

    if (cl.has("snapshot")) {
        const client::Outcome outcome =
            client.request("POST", "/v1/admin/snapshot");
        printSummary("snapshot", outcome, "");
        if (!outcome.haveResponse) {
            std::cerr << "hmctl: " << outcome.error << "\n";
            return 1;
        }
        if (!outcome.ok()) {
            const auto message = server::json::findString(
                outcome.response.body, "message");
            std::cerr << "hmctl: "
                      << message.value_or(outcome.response.body)
                      << "\n";
            return 1;
        }
        if (!json_only) {
            const auto sequence = server::json::findNumber(
                outcome.response.body, "sequence");
            std::cout << "snapshot committed at sequence "
                      << (sequence ? static_cast<long long>(*sequence)
                                   : -1)
                      << "\n";
        }
        return 0;
    }

    if (cl.has("drain")) {
        const client::Outcome outcome =
            client.request("POST", "/v1/admin/drain");
        printSummary("drain", outcome, "");
        if (!outcome.haveResponse) {
            std::cerr << "hmctl: " << outcome.error << "\n";
            return 1;
        }
        if (!outcome.ok()) {
            std::cerr << "hmctl: /v1/admin/drain answered "
                      << outcome.status << "\n";
            return 1;
        }
        const double advertised =
            server::json::findNumber(outcome.response.body,
                                     "drain_deadline_ms")
                .value_or(5000.0);
        // Watch the daemon leave: poll /healthz with a one-shot,
        // no-retry client until the connect is refused. Give it the
        // advertised deadline plus slack for snapshot + exit.
        const double grace_ms = advertised + 5000.0;
        client::ScoringClient::Config probe_config;
        probe_config.host = cl.getString("host", "127.0.0.1");
        probe_config.port =
            static_cast<std::uint16_t>(cl.getInt("port", 0));
        probe_config.readTimeoutMillis = 1000;
        probe_config.retry.maxAttempts = 1;
        const auto started = std::chrono::steady_clock::now();
        for (;;) {
            client::ScoringClient probe(probe_config);
            const client::Outcome alive = probe.health();
            const double waited =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - started)
                    .count();
            if (!alive.haveResponse &&
                alive.failure == client::FailureClass::ConnectRefused) {
                if (!json_only)
                    std::cout << "drained and exited after "
                              << static_cast<long>(waited) << " ms\n";
                return 0;
            }
            if (waited > grace_ms) {
                std::cerr << "hmctl: drain deadline exceeded ("
                          << static_cast<long>(waited)
                          << " ms and still serving)\n";
                return 2;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
        }
    }

    // Default: the health probe. A draining server answers 503 with
    // the state in the body/header, so "haveResponse + 503" is still
    // a successful probe — of a server on its way out.
    const client::Outcome outcome = client.health();
    if (!outcome.haveResponse) {
        printSummary("health", outcome, "");
        std::cerr << "hmctl: " << outcome.error << "\n";
        return 1;
    }
    static const std::string kEmpty;
    std::string health =
        outcome.response.header("x-hiermeans-health", kEmpty);
    if (health.empty())
        health = str::trim(outcome.response.body);
    printSummary("health", outcome, health);
    if (health == "ok")
        return 0;
    if (health == "degraded")
        return 2;
    if (health == "draining")
        return 3;
    return 1;
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
        std::cerr << "hmctl: " << e.what() << "\n";
        return 1;
    }
}
