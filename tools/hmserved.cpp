/**
 * @file
 * hmserved — HTTP scoring daemon over the concurrent scoring engine.
 *
 * Binds a POSIX listener, serves the manifest-line scoring API
 * (`POST /v1/score`, `POST /v1/batch`, `GET /metrics`, `GET /healthz`)
 * and runs until SIGINT/SIGTERM, at which point it stops accepting,
 * drains in-flight requests and prints a final metrics summary: the
 * same Prometheus document GET /metrics serves (`--quiet` skips it).
 *
 * Usage:
 *   hmserved [--port=8377] [--threads=4] [--queue-depth=8]
 *            [--cache-entries=256] [--cache-mb=64] [--max-body-kb=256]
 *            [--default-deadline=30s] [--breaker-failures=8]
 *            [--breaker-open-ms=2000] [--degrade-ratio=0.5]
 *            [--no-stale] [--quiet] [--trace] [--trace-slow-ms=250]
 *            [--trace-keep=64] [--trace-keep-slow=16] [--faults=SPEC]
 *            [--fault-seed=N] [--data-dir=DIR] [--fsync-every=1]
 *            [--snapshot-every=256] [--history-capacity=256]
 *            [--recluster-every=SECONDS] [--drift-window=64]
 *            [--drift-min-window=8] [--drift-calm-ticks=2]
 *
 * Drift: with a store mounted, every suite's score history feeds an
 * online SOM; `--recluster-every` re-clusters each suite's window on
 * that cadence and classifies it fresh|drifting|stale (see
 * GET /v1/suites/<name>/drift and the hiermeans_drift_* metrics).
 *
 * Persistence: `--data-dir=DIR` mounts the durable store (WAL +
 * snapshots). On boot the store recovers — newest valid snapshot plus
 * WAL tail, torn final record truncated — the result cache is
 * warm-started from the recovered score records, and a `store
 * recovered` line is printed (on a mesh, one `mesh: replica of`
 * line per mirrored leader too). Suites registered via POST /v1/suites
 * and every executed score survive restarts; graceful shutdown takes
 * a final snapshot.
 *
 * `--port=0` picks an ephemeral port; the chosen port is printed (and
 * flushed) as `listening on port N` so scripts can scrape it.
 *
 * Fault injection (chaos testing): `--faults` takes the spec grammar of
 * util/fault.h (e.g. `net.write.short=p:0.1,engine.task=nth:7`), or set
 * HIERMEANS_FAULTS / HIERMEANS_FAULT_SEED in the environment.
 */

#include <csignal>
#include <iostream>

#include "src/hiermeans.h"

namespace {

using namespace hiermeans;

util::FlagSet
flagSpec()
{
    util::FlagSet flags("hmserved",
                        "HTTP scoring daemon over the concurrent "
                        "scoring engine");
    flags.section("serving flags")
        .flag("port", "N", "TCP port (default 8377; 0 = ephemeral)")
        .flag("threads", "N", "engine worker threads (default 4)")
        .flag("queue-depth", "N",
              "admission queue bound; beyond it requests\n"
              "are shed with 503 (default 8)")
        .flag("cache-entries", "N",
              "result cache entry bound (default 256)")
        .flag("cache-mb", "N", "result cache byte bound (default 64)")
        .flag("max-body-kb", "N",
              "request body limit, 413 beyond (default 256)")
        .flag("bulk-queue-depth", "N",
              "admission slots the bulk lane (/v1/batch,\n"
              "observe) may hold; interactive /v1/score owns\n"
              "the rest (default 0: half of --queue-depth)")
        .flag("quiet", "", "suppress the final metrics summary");
    flags.section("resilience flags")
        .flag("breaker-failures", "N",
              "consecutive 5xx that open the /v1/score\n"
              "circuit (default 8; 0 disables)")
        .flag("breaker-open-ms", "N",
              "open window before a half-open probe (default 2000)")
        .flag("degrade-ratio", "X",
              "shed fraction of recent requests that flips\n"
              "/healthz to degraded (default 0.5)")
        .flag("no-stale", "",
              "never serve stale cached scores when shedding\n"
              "(default: serve them with X-Hiermeans-Stale: 1)")
        .flag("default-deadline", "DUR",
              "deadline for a manifest line that states none\n"
              "(no timeout-ms= and no X-Hiermeans-Deadline);\n"
              "a worker still busy 250 ms past a line's\n"
              "deadline is answered 504 (e.g. 2s, 1m;\n"
              "default 30s; 0: none)")
        .flag("drain-deadline", "DUR",
              "how long SIGTERM waits for in-flight work\n"
              "before cancelling it (e.g. 5s, 1m;\n"
              "default 5s)");
    flags.section("persistence flags")
        .flag("data-dir", "DIR",
              "mount the durable store (WAL + snapshots) here;\n"
              "unset = no persistence")
        .flag("fsync-every", "N",
              "fsync the WAL every Nth record (default 1:\n"
              "every record; 0 = never, rely on the page cache)")
        .flag("snapshot-every", "N",
              "snapshot + compact the WAL every Nth record\n"
              "(default 256; 0 = only on shutdown/request)")
        .flag("history-capacity", "N",
              "score-history entries kept per suite ring\n"
              "(default 256)");
    flags.section("drift flags")
        .flag("recluster-every", "SECONDS",
              "re-cluster every suite's history window and\n"
              "re-score drift on this cadence (default 0:\n"
              "only on POST /v1/admin/recluster)")
        .flag("drift-window", "N",
              "newest history entries re-clustered per tick\n"
              "(default 64)")
        .flag("drift-min-window", "N",
              "observations required before the first\n"
              "clustering is published (default 8)")
        .flag("drift-calm-ticks", "N",
              "consecutive calm ticks per staleness\n"
              "step-down (default 2)");
    flags.section("mesh flags")
        .flag("mesh-config", "FILE",
              "join the cluster described by FILE (see\n"
              "src/mesh/config.h for the grammar); requires\n"
              "--data-dir")
        .flag("mesh-rpc-timeout-ms", "N",
              "peer RPC read timeout: replication ships,\n"
              "forwards and health probes (default 5000)")
        .flag("mesh-tick-ms", "N",
              "health-probe + follower-catch-up cadence\n"
              "(default 500)");
    flags.tracing().standard().epilogue(
        "endpoints:\n"
        "  POST /v1/score      body = one manifest line -> envelope\n"
        "  POST /v1/batch      body = manifest -> one envelope per line\n"
        "  GET  /v1/trace/<id> span tree of a traced request\n"
        "  GET  /v1/traces     recent + slow-sampled trace IDs\n"
        "  POST /v1/suites?name=X  register a named manifest version\n"
        "  GET  /v1/suites     registered suites + versions\n"
        "  GET  /v1/history?suite=X  persisted score history\n"
        "  POST /v1/suites/<name>/observe  append one observation\n"
        "  GET  /v1/suites/<name>/drift    suite drift report\n"
        "  GET  /v1/drift      every tracked suite's drift state\n"
        "  POST /v1/admin/recluster[?suite=X]  force a drift tick\n"
        "  POST /v1/admin/snapshot  force snapshot + compaction\n"
        "  POST /v1/admin/drain    begin graceful drain + exit\n"
        "  GET  /metrics       Prometheus text exposition\n"
        "  GET  /healthz       liveness probe\n");
    return flags;
}


int
run(const util::CommandLine &cl)
{
    server::Server::Config config;
    config.port = static_cast<std::uint16_t>(cl.getInt("port", 8377));
    config.engine.threads =
        static_cast<std::size_t>(cl.getInt("threads", 4));
    config.queueDepth =
        static_cast<std::size_t>(cl.getInt("queue-depth", 8));
    config.engine.cache.maxEntries =
        static_cast<std::size_t>(cl.getInt("cache-entries", 256));
    config.engine.cache.maxBytes =
        static_cast<std::size_t>(cl.getInt("cache-mb", 64)) * 1024 *
        1024;
    config.maxBodyBytes =
        static_cast<std::size_t>(cl.getInt("max-body-kb", 256)) * 1024;
    config.bulkQueueDepth =
        static_cast<std::size_t>(cl.getInt("bulk-queue-depth", 0));
    config.defaultDeadlineMillis =
        cl.getDurationMillis("default-deadline", 30000.0);
    config.drainDeadlineMillis =
        cl.getDurationMillis("drain-deadline", 5000.0);
    config.breaker.failureThreshold =
        static_cast<std::size_t>(cl.getInt("breaker-failures", 8));
    config.breaker.openMillis =
        cl.getDurationMillis("breaker-open-ms", 2000.0);
    config.health.degradeRatio = cl.getDouble("degrade-ratio", 0.5);
    config.health.recoverRatio = config.health.degradeRatio / 4.0;
    config.serveStale = !cl.getBool("no-stale", false);
    config.store.dataDir = cl.getString("data-dir", "");
    config.store.fsyncEvery =
        static_cast<std::size_t>(cl.getInt("fsync-every", 1));
    config.store.snapshotEvery =
        static_cast<std::size_t>(cl.getInt("snapshot-every", 256));
    config.store.limits.historyCapacity =
        static_cast<std::size_t>(cl.getInt("history-capacity", 256));
    config.reclusterEverySeconds = cl.getDouble("recluster-every", 0.0);
    config.drift.window =
        static_cast<std::size_t>(cl.getInt("drift-window", 64));
    config.drift.minWindow =
        static_cast<std::size_t>(cl.getInt("drift-min-window", 8));
    config.drift.thresholds.calmTicks =
        static_cast<std::uint32_t>(cl.getInt("drift-calm-ticks", 2));
    // Connection workers must outnumber the admission queue or the
    // gate can never fill; keep a few extra for the cheap endpoints.
    config.connectionThreads = config.queueDepth + 8;

    obs::Tracer::instance().configure(
        obs::traceConfigFromCommandLine(cl));

    util::installShutdownSignals({SIGINT, SIGTERM});

    // Cluster mode: the mesh runtime must outlive the server (the
    // server holds a ClusterHooks pointer into it).
    std::unique_ptr<mesh::MeshRuntime> runtime;
    const std::string mesh_path = cl.getString("mesh-config", "");
    if (!mesh_path.empty()) {
        if (config.store.dataDir.empty())
            throw InvalidArgument(
                "--mesh-config requires --data-dir (replication "
                "mirrors live under it)");
        mesh::MeshRuntime::Config mesh_config;
        mesh_config.mesh = mesh::loadMeshConfig(mesh_path);
        mesh_config.dataDir = config.store.dataDir;
        mesh_config.rpcTimeoutMillis =
            static_cast<int>(cl.getInt("mesh-rpc-timeout-ms", 5000));
        mesh_config.tickMillis =
            static_cast<int>(cl.getInt("mesh-tick-ms", 500));
        // The advertised port must be the one we actually bind.
        const mesh::MeshNode &self = mesh_config.mesh.self();
        if (cl.getString("port", "").empty())
            config.port = self.port;
        else if (config.port != self.port)
            throw InvalidArgument(
                "--port disagrees with this node's mesh entry (" +
                std::to_string(self.port) + ")");
        runtime = std::make_unique<mesh::MeshRuntime>(mesh_config);
        config.cluster = runtime.get();
    }

    server::Server server(config);
    server.start();
    if (runtime != nullptr) {
        runtime->setDriftSummary(
            [&server] { return server.driftSummaryJson(); });
        runtime->setSelfHealth([&server]() -> std::string {
            return server.draining() ? "draining" : "ok";
        });
        runtime->start(server.store());
        std::cout << "mesh: node `" << runtime->meshConfig().selfId
                  << "` of " << runtime->meshConfig().nodes.size()
                  << " (replicas=" << runtime->meshConfig().replicas
                  << ", ring points=" << runtime->ring().points()
                  << ")" << std::endl;
        for (const auto &[leader, recovery] : runtime->replicaRecoveries())
            std::cout << "mesh: replica of `" << leader << "` recovered: "
                      << store::describeRecovery(recovery) << std::endl;
    }
    if (server.store() != nullptr) {
        std::cout << "store recovered: "
                  << store::describeRecovery(server.storeRecovery())
                  << " cache_warmed=" << server.warmedCacheEntries()
                  << std::endl;
    }
    std::cout << "listening on port " << server.port() << std::endl;

    while (!util::shutdownRequested())
        util::waitForShutdown(500);

    std::cout << "shutdown requested, draining in-flight requests\n";
    server.stop();
    if (runtime != nullptr)
        runtime->stop();

    if (!cl.getBool("quiet", false))
        std::cout << "final metrics:\n" << server.renderPrometheus();
    else
        std::cout << "final metrics: suppressed (--quiet)\n";
    return 0;
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
        std::cerr << "hmserved: " << e.what() << "\n";
        return 1;
    }
}
