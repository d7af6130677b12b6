/**
 * @file
 * chaos_harness — deterministic chaos testing of the serving stack.
 *
 * Drives an in-process server::Server under seeded fault schedules
 * (util/fault.h) and checks the robustness contract end to end:
 *
 *   (a) the process never crashes — faults surface as error responses
 *       or closed connections, never as termination;
 *   (b) no client is ever left hanging: every request either gets a
 *       response or a promptly-detectable connection failure (a client
 *       read timeout counts as a violation), and on the server side
 *       every counted request was answered
 *       (requests == responses_2xx + 4xx + 5xx);
 *   (c) every 200 body is bit-identical to the fault-free baseline for
 *       the same manifest line (volatile fields `wall_ms` and
 *       `served_by` stripped) — faults may fail requests, but they may
 *       never corrupt a success;
 *   (d) kill-and-recover: each schedule's server mounts a durable
 *       store (WAL + snapshots) on a scratch data dir, with store
 *       faults in the schedule; after the run a fresh fault-free
 *       StateStore recovers the dir and its canonical state image
 *       must be bit-identical to what the live server had committed;
 *   (e) mesh leader kill: a 2-node loopback mesh (replicas=2) takes a
 *       stream of suite writes, the shard leader dies mid-stream, and
 *       the surviving node must hold every acknowledged write exactly
 *       once — replication acks only after the follower is durable,
 *       so a leader kill may lose nothing and duplicate nothing.
 *
 * Determinism: the fault schedules are derived from --seed, request
 * counts are fixed (not duration-based), and the report contains only
 * deterministic fields — so two runs with the same flags must print
 * bit-identical reports. tools/smoke_chaos.sh diffs exactly that.
 *
 * Usage:
 *   chaos_harness [--seed=1] [--clients=4] [--requests=25]
 *                 [--schedules=3] [--json-only]
 *
 * Prints one JSON report line; exits 0 iff every invariant held.
 */

#include <cerrno>
#include <cstdio>
#include <iostream>
#include <memory>
#include <thread>
#include <unistd.h>
#include <vector>

#include "src/hiermeans.h"

namespace {

using namespace hiermeans;

void
printUsage()
{
    std::cout <<
        "chaos_harness (" << util::kVersionString << "): deterministic\n"
        "chaos testing of the serving stack\n"
        "\n"
        "optional flags:\n"
        "  --seed=N       master seed for the fault schedules (default 1)\n"
        "  --clients=N    concurrent clients per schedule (default 4)\n"
        "  --requests=N   requests per client per schedule (default 25)\n"
        "  --schedules=N  distinct fault schedules to run (default 3)\n"
        "  --json-only    print only the JSON report line\n";
}

/** Remove one `"key":value` field (and its comma) from a JSON body. */
std::string
stripField(std::string body, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t pos = body.find(needle);
    if (pos == std::string::npos)
        return body;
    std::size_t end = pos + needle.size();
    if (end < body.size() && body[end] == '"') {
        end = body.find('"', end + 1);
        end = (end == std::string::npos) ? body.size() : end + 1;
    } else {
        while (end < body.size() && body[end] != ',' && body[end] != '}')
            ++end;
    }
    std::size_t start = pos;
    if (start > 0 && body[start - 1] == ',')
        --start;
    else if (end < body.size() && body[end] == ',')
        ++end;
    body.erase(start, end - start);
    return body;
}

/** A 200 body with the volatile fields removed. */
std::string
canonicalBody(const std::string &body)
{
    return stripField(
        stripField(stripField(body, "wall_ms"), "served_by"),
        "trace_id");
}

/** One seeded fault schedule, derived deterministically from the
 *  master seed and the schedule index. */
std::string
makeSchedule(std::uint64_t seed, std::size_t index)
{
    rng::Engine rng(seed ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
    std::vector<std::string> fragments;
    // Some network noise is always on; the heavier faults are drawn.
    fragments.push_back("net.write.short=p:" +
                        str::fixed(0.05 + 0.15 * rng.uniform(), 3));
    fragments.push_back("net.read.eintr=p:" +
                        str::fixed(0.05 + 0.10 * rng.uniform(), 3));
    if (rng.bernoulli(0.5))
        fragments.push_back("server.response.write=every:" +
                            std::to_string(7 + rng.below(20)));
    if (rng.bernoulli(0.5))
        fragments.push_back("net.write.fail=every:" +
                            std::to_string(13 + rng.below(30)));
    if (rng.bernoulli(0.4))
        fragments.push_back("net.read.reset=nth:" +
                            std::to_string(3 + rng.below(40)));
    if (rng.bernoulli(0.4))
        fragments.push_back("net.accept=p:" +
                            str::fixed(0.10 * rng.uniform(), 3));
    if (rng.bernoulli(0.5))
        fragments.push_back("engine.task=every:" +
                            std::to_string(4 + rng.below(10)));
    if (rng.bernoulli(0.5))
        fragments.push_back("engine.cache.put=p:" +
                            str::fixed(0.30 * rng.uniform(), 3));
    if (rng.bernoulli(0.35))
        fragments.push_back("engine.stall=nth:" +
                            std::to_string(1 + rng.below(5)) + "@2500");
    if (rng.bernoulli(0.3))
        fragments.push_back("file.read=p:" +
                            str::fixed(0.05 * rng.uniform(), 3));
    // Store faults: appends that fail, a torn final frame, snapshot
    // writes that abort. `store.wal.fsync` is deliberately absent —
    // it fires after the frame is durable, so the disk would hold a
    // record the live state lacks and (d) would flag a false loss.
    // The append path sees only a handful of hits per schedule (one
    // per distinct score plus snapshot cadence), so these triggers
    // are tuned hot or they would never fire.
    if (rng.bernoulli(0.4))
        fragments.push_back("store.wal.append=p:" +
                            str::fixed(0.25 + 0.35 * rng.uniform(), 3));
    if (rng.bernoulli(0.4))
        fragments.push_back("store.wal.torn=nth:" +
                            std::to_string(1 + rng.below(4)));
    if (rng.bernoulli(0.35))
        fragments.push_back("store.snapshot.write=p:" +
                            str::fixed(0.30 + 0.40 * rng.uniform(), 3));
    std::string spec;
    for (const std::string &fragment : fragments) {
        if (!spec.empty())
            spec += ",";
        spec += fragment;
    }
    return spec;
}

/** Fixture files + distinct manifest lines shared by every schedule. */
struct Workbench
{
    std::string scoresPath;
    std::string featuresPath;
    std::vector<std::string> lines;

    Workbench()
    {
        const std::string stem = "/tmp/hiermeans_chaos_" +
                                 std::to_string(::getpid());
        scoresPath = stem + "_scores.csv";
        featuresPath = stem + "_features.csv";
        util::writeFile(scoresPath, "workload,mA,mB\n"
                                    "w0,1.0,2.0\n"
                                    "w1,2.0,1.0\n"
                                    "w2,1.5,1.5\n"
                                    "w3,3.0,1.0\n"
                                    "w4,1.0,3.0\n"
                                    "w5,2.5,2.5\n");
        util::writeFile(featuresPath, "workload,f0,f1,f2\n"
                                      "w0,0.1,1.0,-0.5\n"
                                      "w1,0.9,-1.0,0.5\n"
                                      "w2,0.2,0.8,-0.4\n"
                                      "w3,0.8,-0.9,0.6\n"
                                      "w4,-0.7,0.1,1.2\n"
                                      "w5,-0.6,0.2,1.1\n");
        for (int i = 0; i < 3; ++i) {
            lines.push_back("scores=" + scoresPath +
                            " features=" + featuresPath +
                            " machine-a=mA machine-b=mB som-steps=150" +
                            " id=chaos" + std::to_string(i) +
                            " seed=" + std::to_string(101 + i));
        }
    }

    ~Workbench()
    {
        std::remove(scoresPath.c_str());
        std::remove(featuresPath.c_str());
    }
};

/** Delete every file in @p path (descending into replica_<leader>
 *  mirror subdirectories), then the directory itself. */
void
wipeDir(const std::string &path)
{
    if (!util::fileExists(path))
        return;
    for (const std::string &name : util::listDir(path)) {
        const std::string entry = path + "/" + name;
        if (::rmdir(entry.c_str()) == 0)
            continue;
        if (errno == ENOTEMPTY || errno == EEXIST) {
            for (const std::string &inner : util::listDir(entry))
                util::removeFile(entry + "/" + inner);
            ::rmdir(entry.c_str());
        } else {
            util::removeFile(entry);
        }
    }
    ::rmdir(path.c_str());
}

server::Server::Config
chaosServerConfig(const std::string &data_dir = "")
{
    server::Server::Config config;
    config.port = 0;
    config.engine.threads = 2;
    config.queueDepth = 2;
    config.connectionThreads = 8;
    config.breaker.failureThreshold = 4;
    config.breaker.openMillis = 300.0;
    config.defaultDeadlineMillis = 1500.0;
    if (!data_dir.empty()) {
        config.store.dataDir = data_dir;
        config.store.fsyncEvery = 1;
        // A tiny cadence keeps snapshots churning mid-schedule, so
        // store faults hit compaction as well as the append path.
        config.store.snapshotEvery = 2;
    }
    return config;
}

client::ScoringClient::Config
chaosClientConfig(std::uint16_t port, std::uint64_t seed)
{
    client::ScoringClient::Config config;
    config.port = port;
    config.readTimeoutMillis = 10000; // expiry = an unanswered client.
    config.retry.maxAttempts = 8;
    config.retry.baseMillis = 10.0;
    config.retry.capMillis = 250.0;
    config.retry.budgetMillis = 8000.0;
    config.retry.seed = seed;
    // A timeout must be *reported*, not papered over by a retry: the
    // whole point of the harness is catching hangs.
    config.retry.retryTimeout = false;
    return config;
}

/** Fault-free pass: the canonical 200 body per manifest line. */
std::vector<std::string>
recordBaseline(const Workbench &bench)
{
    fault::reset();
    server::Server server(chaosServerConfig());
    server.start();
    client::ScoringClient probe(chaosClientConfig(server.port(), 1));
    std::vector<std::string> baseline;
    for (const std::string &line : bench.lines) {
        const client::Outcome outcome = probe.score(line);
        HM_REQUIRE(outcome.ok(), "chaos baseline request failed: "
                                     << (outcome.haveResponse
                                             ? outcome.response.body
                                             : outcome.error));
        baseline.push_back(canonicalBody(outcome.response.body));
    }
    server.stop();
    return baseline;
}

struct ScheduleOutcome
{
    std::string spec;
    std::uint64_t requests = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t unanswered = 0;
    bool serverInvariantOk = false;
    bool storeInvariantOk = false;
    std::string recovery; ///< recovery outcome of the post-run reopen.
};

ScheduleOutcome
runSchedule(const Workbench &bench,
            const std::vector<std::string> &baseline, std::uint64_t seed,
            std::size_t index, std::size_t clients,
            std::size_t requests_per_client, bool verbose)
{
    ScheduleOutcome outcome;
    outcome.spec = makeSchedule(seed, index);
    outcome.requests =
        static_cast<std::uint64_t>(clients) * requests_per_client;

    const std::string data_dir = "/tmp/hiermeans_chaos_" +
                                 std::to_string(::getpid()) + "_s" +
                                 std::to_string(index);
    wipeDir(data_dir);
    server::Server server(chaosServerConfig(data_dir));
    server.start();

    // Arm faults only once the server is up, so startup is clean.
    fault::configure(outcome.spec, seed ^ (index + 1));

    std::vector<std::uint64_t> mismatches(clients, 0);
    std::vector<std::uint64_t> unanswered(clients, 0);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            client::ScoringClient prober(chaosClientConfig(
                server.port(), seed + 1000 * (index + 1) + c));
            for (std::size_t r = 0; r < requests_per_client; ++r) {
                const std::size_t which =
                    (c + r) % bench.lines.size();
                const client::Outcome result =
                    prober.score(bench.lines[which]);
                if (!result.haveResponse) {
                    if (result.failure == client::FailureClass::TimedOut)
                        ++unanswered[c];
                    // Other connection failures are detectable (the
                    // client was not left hanging) — acceptable chaos.
                    continue;
                }
                if (result.status == 200 &&
                    canonicalBody(result.response.body) !=
                        baseline[which])
                    ++mismatches[c];
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    // What the live server committed, captured before shutdown. The
    // final-snapshot attempt in stop() runs with faults still armed
    // and may fail; recovery must reproduce this image regardless.
    const std::string committed = server.store()->encodeStateBody();

    // The drain runs with faults still armed — chaos the exit too.
    server.stop();

    const server::ServerMetrics &metrics = server.metrics();
    outcome.serverInvariantOk =
        metrics.requests.value() == metrics.responses[0].value() +
                                        metrics.responses[1].value() +
                                        metrics.responses[2].value();

    for (std::size_t c = 0; c < clients; ++c) {
        outcome.mismatches += mismatches[c];
        outcome.unanswered += unanswered[c];
    }

    // Kill-and-recover: reopen the data dir with faults disarmed and
    // demand the recovered image match the committed one bit for bit.
    const std::vector<fault::PointReport> fault_report = fault::report();
    fault::reset();
    {
        store::StateStore::Config cfg;
        cfg.dataDir = data_dir;
        cfg.fsyncEvery = 1;
        cfg.snapshotEvery = 0;
        store::StateStore recovered(cfg);
        const store::RecoveryInfo info = recovered.open();
        outcome.recovery = store::recoveryOutcomeName(info.outcome);
        outcome.storeInvariantOk =
            recovered.encodeStateBody() == committed;
    }
    wipeDir(data_dir);

    if (verbose) {
        std::cout << "schedule " << index << ": " << outcome.spec
                  << "\n  requests=" << outcome.requests
                  << " 2xx=" << metrics.responses[0].value()
                  << " 4xx=" << metrics.responses[1].value()
                  << " 5xx=" << metrics.responses[2].value()
                  << " stale=" << metrics.staleServed.value()
                  << " watchdog=" << metrics.watchdogTrips.value()
                  << " mismatches=" << outcome.mismatches
                  << " unanswered=" << outcome.unanswered << "\n";
        std::cout << "  store: recovery=" << outcome.recovery
                  << " invariant="
                  << (outcome.storeInvariantOk ? "ok" : "VIOLATED")
                  << "\n";
        for (const fault::PointReport &point : fault_report) {
            std::cout << "  fault " << point.point << " ("
                      << point.trigger << "): " << point.fires << "/"
                      << point.hits << " fired\n";
        }
    }
    return outcome;
}

struct MeshOutcome
{
    std::uint64_t writes = 0;
    std::uint64_t lost = 0;
    std::uint64_t duplicated = 0;
    bool ok = false;
};

/**
 * Invariant (e): a 2-node mesh takes suite writes through a failover
 * client; the shard leader is stopped after half of them; every write
 * that was acknowledged must be served by the survivor exactly once.
 * Fault-free and fully sequenced, so the outcome is deterministic.
 */
MeshOutcome
runMeshLeaderKill(const Workbench &bench, bool verbose)
{
    fault::reset();
    MeshOutcome outcome;
    const std::string stem = "/tmp/hiermeans_chaos_" +
                             std::to_string(::getpid()) + "_mesh";
    // Ports below the kernel's ephemeral range (32768 and up), where
    // the port-0 listeners and client sockets of concurrent runs land.
    auto base = static_cast<std::uint16_t>(
        23000 + (::getpid() * 17) % 9000);
    const char *ids[2] = {"a", "b"};
    std::string dirs[2];
    for (int i = 0; i < 2; ++i) {
        dirs[i] = stem + "_" + ids[i];
        wipeDir(dirs[i]);
    }

    std::unique_ptr<mesh::MeshRuntime> runtimes[2];
    std::unique_ptr<server::Server> servers[2];
    const auto startMesh = [&] {
        std::string meshText = "replicas = 2\nvnodes = 32\n";
        for (int i = 0; i < 2; ++i)
            meshText += std::string("node ") + ids[i] + " 127.0.0.1:" +
                        std::to_string(base + i) + "\n";
        for (int i = 0; i < 2; ++i) {
            mesh::MeshRuntime::Config mesh_config;
            mesh_config.mesh = mesh::parseMeshConfig(
                std::string("self = ") + ids[i] + "\n" + meshText);
            mesh_config.dataDir = dirs[i];
            mesh_config.tickMillis = 100;
            runtimes[i] =
                std::make_unique<mesh::MeshRuntime>(mesh_config);
            server::Server::Config config = chaosServerConfig(dirs[i]);
            config.port = static_cast<std::uint16_t>(base + i);
            config.store.snapshotEvery = 0;
            config.cluster = runtimes[i].get();
            servers[i] = std::make_unique<server::Server>(config);
            servers[i]->start();
            runtimes[i]->start(servers[i]->store());
        }
    };
    // A port some other process still holds moves both nodes up.
    for (int attempt = 0;; ++attempt) {
        try {
            startMesh();
            break;
        } catch (const net::NetError &) {
            for (int i = 0; i < 2; ++i) {
                if (servers[i] != nullptr)
                    servers[i]->stop();
                if (runtimes[i] != nullptr)
                    runtimes[i]->stop();
                servers[i].reset();
                runtimes[i].reset();
                wipeDir(dirs[i]);
            }
            if (attempt == 4)
                throw;
            base = static_cast<std::uint16_t>(base + 2);
        }
    }

    // Both nodes must see each other healthy before routing is
    // exercised (the very first probe can beat the peer's listener).
    const auto converged = [&](int node) {
        server::HttpClient probe("127.0.0.1",
                                 static_cast<std::uint16_t>(
                                     base + node));
        probe.setReadTimeoutMillis(2000);
        const auto seen = probe.roundTrip("GET", "/v1/cluster");
        return seen.status == 200 &&
               seen.body.find("\"health\":\"down\"") ==
                   std::string::npos &&
               seen.body.find("\"health\":\"unknown\"") ==
                   std::string::npos;
    };
    for (int i = 0; i < 100 && !(converged(0) && converged(1)); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    client::ClusterClient::Config client_config;
    for (int i = 0; i < 2; ++i)
        client_config.targets.push_back(client::ClusterTarget{
            "127.0.0.1", static_cast<std::uint16_t>(base + i)});
    client_config.readTimeoutMillis = 10000;
    client_config.retry.maxAttempts = 4;
    client_config.retry.baseMillis = 10.0;
    client_config.retry.capMillis = 100.0;
    client::ClusterClient client(client_config);

    HM_REQUIRE(client
                   .request("POST", "/v1/suites?name=chaosmesh",
                            bench.lines[0])
                   .ok(),
               "mesh suite registration failed");

    const std::uint64_t total = 20;
    std::uint64_t acked = 0;
    const auto write = [&](std::uint64_t i) {
        const client::Outcome result = client.score(
            "suite=chaosmesh id=mesh-" + std::to_string(i) +
            " seed=" + std::to_string(300 + i));
        if (result.ok())
            ++acked;
        return result.ok();
    };
    for (std::uint64_t i = 0; i < total / 2; ++i)
        HM_REQUIRE(write(i), "pre-kill mesh write " << i << " failed");

    // Drop the shard leader; replication acked each write durably on
    // the follower before the 200, so nothing acknowledged may vanish.
    const std::string owner =
        runtimes[0]->ring().ownerOf("chaosmesh");
    const int ownerIndex = owner == "a" ? 0 : 1;
    const int survivor = 1 - ownerIndex;
    servers[ownerIndex]->stop();
    runtimes[ownerIndex]->stop();
    // Wait until the survivor has marked the leader down, so the
    // post-kill writes route deterministically to the promoted node.
    for (int i = 0; i < 100; ++i) {
        server::HttpClient probe("127.0.0.1",
                                 static_cast<std::uint16_t>(
                                     base + survivor));
        probe.setReadTimeoutMillis(2000);
        if (probe.roundTrip("GET", "/v1/cluster")
                .body.find("\"health\":\"down\"") !=
            std::string::npos)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    for (std::uint64_t i = total / 2; i < total; ++i)
        HM_REQUIRE(write(i), "post-kill mesh write " << i << " failed");

    client::ClusterClient::Config survivor_config;
    survivor_config.targets = {client::ClusterTarget{
        "127.0.0.1", static_cast<std::uint16_t>(base + survivor)}};
    survivor_config.readTimeoutMillis = 10000;
    client::ClusterClient reader(survivor_config);
    const client::Outcome history =
        reader.request("GET", "/v1/history?suite=chaosmesh");
    HM_REQUIRE(history.ok(), "mesh history read failed");
    const std::string &body = history.response.body;
    for (std::uint64_t i = 0; i < total; ++i) {
        const std::string needle =
            "\"id\":\"mesh-" + std::to_string(i) + "\"";
        const std::size_t first = body.find(needle);
        if (first == std::string::npos)
            ++outcome.lost;
        else if (body.find(needle, first + 1) != std::string::npos)
            ++outcome.duplicated;
    }
    outcome.writes = acked;
    outcome.ok = acked == total && outcome.lost == 0 &&
                 outcome.duplicated == 0;

    servers[survivor]->stop();
    runtimes[survivor]->stop();
    for (int i = 0; i < 2; ++i)
        wipeDir(dirs[i]);
    if (verbose)
        std::cout << "mesh leader kill: owner=" << owner
                  << " acked=" << acked << " lost=" << outcome.lost
                  << " duplicated=" << outcome.duplicated
                  << " invariant=" << (outcome.ok ? "ok" : "VIOLATED")
                  << "\n";
    return outcome;
}

int
run(const util::CommandLine &cl)
{
    const auto seed = static_cast<std::uint64_t>(cl.getInt("seed", 1));
    const auto clients =
        static_cast<std::size_t>(cl.getInt("clients", 4));
    const auto requests =
        static_cast<std::size_t>(cl.getInt("requests", 25));
    const auto schedules =
        static_cast<std::size_t>(cl.getInt("schedules", 3));
    const bool json_only = cl.getBool("json-only", false);
    HM_REQUIRE(clients >= 1, "--clients must be >= 1");
    HM_REQUIRE(requests >= 1, "--requests must be >= 1");
    HM_REQUIRE(schedules >= 1, "--schedules must be >= 1");

    Workbench bench;
    const std::vector<std::string> baseline = recordBaseline(bench);
    if (!json_only)
        std::cout << "baseline recorded: " << baseline.size()
                  << " canonical bodies\n";

    std::vector<ScheduleOutcome> outcomes;
    for (std::size_t s = 0; s < schedules; ++s)
        outcomes.push_back(runSchedule(bench, baseline, seed, s,
                                       clients, requests, !json_only));
    const MeshOutcome mesh = runMeshLeaderKill(bench, !json_only);

    bool pass = mesh.ok;
    std::string schedules_json = "[";
    for (std::size_t s = 0; s < outcomes.size(); ++s) {
        const ScheduleOutcome &o = outcomes[s];
        if (o.mismatches != 0 || o.unanswered != 0 ||
            !o.serverInvariantOk || !o.storeInvariantOk)
            pass = false;
        if (s > 0)
            schedules_json += ",";
        schedules_json +=
            "{\"spec\":" + server::json::quote(o.spec) +
            ",\"requests\":" + std::to_string(o.requests) +
            ",\"mismatches\":" + std::to_string(o.mismatches) +
            ",\"unanswered\":" + std::to_string(o.unanswered) +
            ",\"server_invariant_ok\":" +
            (o.serverInvariantOk ? "true" : "false") +
            ",\"store_invariant_ok\":" +
            (o.storeInvariantOk ? "true" : "false") + "}";
        // `recovery` stays out of the JSON: the outcome name depends
        // on where in the request interleaving the torn/snapshot
        // faults landed, and the report must diff clean across runs.
    }
    schedules_json += "]";

    // Deterministic by construction: same flags => identical report.
    // (Reaching this line at all is the "no crash" invariant.)
    std::printf("{\"seed\":%llu,\"clients\":%llu,"
                "\"requests_per_client\":%llu,\"schedules\":%s,"
                "\"mesh\":{\"writes\":%llu,\"lost\":%llu,"
                "\"duplicated\":%llu,\"invariant_ok\":%s},"
                "\"crashes\":0,\"verdict\":\"%s\"}\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(clients),
                static_cast<unsigned long long>(requests),
                schedules_json.c_str(),
                static_cast<unsigned long long>(mesh.writes),
                static_cast<unsigned long long>(mesh.lost),
                static_cast<unsigned long long>(mesh.duplicated),
                mesh.ok ? "true" : "false", pass ? "pass" : "fail");
    std::fflush(stdout);
    return pass ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const auto cl = util::CommandLine::parse(argc, argv);
        if (cl.has("help")) {
            printUsage();
            return 0;
        }
        return run(cl);
    } catch (const hiermeans::Error &e) {
        std::cerr << "chaos_harness: " << e.what() << "\n";
        return 1;
    }
}
