/**
 * @file
 * `hmserved`'s core: the scoring daemon, composed of two layers.
 *
 *   HttpTransport (transport.h)     connections, parsing, dispatch
 *        -> Router -> Server handlers (scoring, observability)
 *             -> SuiteService (suite_service.h)   suites + store
 *                  -> AdmissionGate -> ScoringEngine -> HttpResponse
 *
 * Endpoints (every /v1 JSON body is the api.h envelope):
 *   POST /v1/score     body = one manifest line; answers one envelope
 *                      with an `X-Hiermeans-Source: pipeline|cache|
 *                      dedupe` provenance header;
 *   POST /v1/batch     body = a whole manifest; answers one envelope
 *                      per line (NDJSON), failures isolated per line;
 *   GET  /v1/trace/<id> span tree of a finished traced request;
 *   GET  /v1/traces    recent + slow-sampled trace IDs;
 *   POST /v1/suites?name=X  register the body as the next version of
 *                      suite X (durable store; 503 when not mounted);
 *   GET  /v1/suites    registered suites and their versions;
 *   GET  /v1/history?suite=X  the persisted score-history ring;
 *   POST /v1/admin/snapshot  force a snapshot + WAL compaction;
 *   GET  /metrics      Prometheus text exposition of every declared
 *                      family (renderPrometheus());
 *   GET  /healthz      liveness probe (text).
 *
 * Cluster mode (Config::cluster attached, hmserved --mesh-config):
 *   GET  /v1/cluster        membership, ring and per-node health;
 *   POST /v1/mesh/replicate WAL shipping from a shard leader;
 * and every suite-affine request above is routed by the consistent-
 * hash ring — served locally when this node owns the suite, proxied
 * or 307-redirected to the owner otherwise (see cluster.h).
 *
 * Persistence: with Config::store.dataDir set (hmserved --data-dir),
 * a /v1/score or /v1/batch body may be a `suite=<name>[@version]`
 * reference — plus optional `line=<n>` and override tokens — that
 * expands to the stored manifest text (appended tokens win, the
 * CommandLine last-wins rule). Every pipeline-executed score is
 * WAL-appended to the score history; on boot the engine's result
 * cache warm-starts from the recovered store, so a restarted daemon
 * answers previously-scored requests from cache without
 * re-executing the pipeline.
 *
 * Tracing: when obs tracing is armed (hmserved --trace, or
 * obs::Tracer::configure in tests), every request gets a trace ID —
 * accepted from an `X-Hiermeans-Trace` request header or generated —
 * echoed in the response header and envelope, with spans recorded
 * from accept through admission, queue wait, engine execute and the
 * pipeline stages. Disarmed tracing costs one relaxed atomic load
 * per request.
 *
 * Robustness contract:
 *   - malformed requests answer 400 without touching the engine;
 *   - a full admission queue answers `503 Retry-After: 1` immediately
 *     (backpressure; the connection is never dropped silently) — unless
 *     the result cache already holds this request's score, in which
 *     case the stale copy is served as `200` + `X-Hiermeans-Stale: 1`
 *     (degraded serving beats shedding);
 *   - every manifest line gets one absolute deadline — the earlier of
 *     its `timeout-ms=` and the client's `X-Hiermeans-Deadline`, or
 *     Config::defaultDeadlineMillis when neither is stated — armed on
 *     its CancelToken, the only deadline the engine enforces; a line
 *     that runs out of it answers `504 timeout`;
 *   - the handler waits once per line, until that deadline plus a
 *     250 ms grace: a worker wedged past it is abandoned, its token
 *     cancelled, and the line answered `504 watchdog_timeout` instead
 *     of hanging the connection;
 *   - a CircuitBreaker in front of /v1/score fast-fails with
 *     `503 Retry-After` after consecutive hard failures (504s/500s),
 *     probing half-open once per open window;
 *   - /healthz reports the HealthMonitor's `ok|degraded|draining`
 *     state (503 while draining, so balancers stop routing here);
 *   - stop() stops accepting, drains in-flight requests, then joins —
 *     a request already received is always answered.
 *
 * The server is usable fully in-process (port 0 = ephemeral), which is
 * how the integration tests and the chaos harness drive it.
 */

#ifndef HIERMEANS_SERVER_SERVER_H
#define HIERMEANS_SERVER_SERVER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/drift/monitor.h"
#include "src/engine/engine.h"
#include "src/engine/manifest.h"
#include "src/server/admission.h"
#include "src/server/cluster.h"
#include "src/server/http.h"
#include "src/server/resilience.h"
#include "src/server/router.h"
#include "src/server/server_metrics.h"
#include "src/server/suite_service.h"
#include "src/server/transport.h"
#include "src/store/store.h"

namespace hiermeans {
namespace server {

/** The scoring daemon. One instance per process is typical. */
class Server
{
  public:
    struct Config
    {
        /** TCP port; 0 binds an ephemeral port (see port()). */
        std::uint16_t port = 8377;

        /** Connection workers: concurrent connections being served.
         *  Sized above queueDepth so the admission gate — not the
         *  worker count — is what sheds scoring load. */
        std::size_t connectionThreads = 16;

        /** Admission slots for scoring work (score requests + batch
         *  documents admitted but unfinished). Full gate => 503. */
        std::size_t queueDepth = 8;

        /** Request body limit; larger bodies answer 413. */
        std::size_t maxBodyBytes = 256 * 1024;

        /** Bulk-lane cap inside queueDepth (/v1/batch + observe);
         *  0 = half the queue depth. Interactive /v1/score may use
         *  every slot, so bulk can never starve it. */
        std::size_t bulkQueueDepth = 0;

        /** Deadline for a line that states none: no `timeout-ms=`
         *  and no X-Hiermeans-Deadline header; 0 = none, the handler
         *  waits as long as the work takes. */
        double defaultDeadlineMillis = 30000.0;

        /** How long stop() waits for admitted work to finish before
         *  cancelling it (the drain state machine's budget). */
        double drainDeadlineMillis = 5000.0;

        /** When the gate is full (or the breaker is open), serve a
         *  cached stale score instead of 503 when one exists. */
        bool serveStale = true;

        engine::ScoringEngine::Config engine;
        CircuitBreaker::Config breaker;
        HealthMonitor::Config health;

        /** Durable state store (WAL + snapshots). An empty
         *  `store.dataDir` leaves persistence off: /v1/suites,
         *  /v1/history and /v1/admin/snapshot answer 503
         *  store_disabled, and nothing touches disk. */
        store::StateStore::Config store;

        /** Mesh integration (nullptr = single-node). Must outlive
         *  the server; routes /v1/cluster, /v1/mesh/replicate and the
         *  suite-affine routing decisions through it. */
        ClusterHooks *cluster = nullptr;

        /** Seconds between automatic drift re-cluster passes
         *  (hmserved --recluster-every). 0 disables the background
         *  job; POST /v1/admin/recluster still ticks on demand. */
        double reclusterEverySeconds = 0.0;

        /** Drift-monitor tuning (window sizes, thresholds, map
         *  shape). Only consulted when the store is mounted. */
        drift::DriftMonitor::Config drift;
    };

    explicit Server(Config config);

    /** Stops and drains if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen and spawn the accept loop + workers. Throws when
     *  the port cannot be bound. One-shot: start/stop once. */
    void start();

    /**
     * Graceful shutdown: beginDrain(), wait for admitted work up to
     * Config::drainDeadlineMillis, cancel what is still in flight,
     * serve every request already received, flush a final snapshot,
     * close idle connections, join all threads. Idempotent.
     */
    void stop();

    /**
     * Enter the draining state without stopping yet: /healthz flips
     * to 503, /v1/cluster advertises `draining`, and new scoring
     * work is shed with the `draining` code so clients fail over
     * proactively. One-way; stop() calls this first. Idempotent.
     */
    void beginDrain();

    /** True once beginDrain() (or stop()) has run. */
    bool draining() const { return draining_.load(); }

    bool running() const { return transport_.running(); }

    /** The bound port (resolves port 0 after start()). */
    std::uint16_t port() const { return transport_.port(); }

    engine::ScoringEngine &engine() { return engine_; }
    AdmissionGate &gate() { return gate_; }

    /** The durable store; nullptr when persistence is off. */
    store::StateStore *store() { return suites_.store(); }

    /** The suite-service layer (reference expansion, registry,
     *  history, persistence). */
    SuiteService &suiteService() { return suites_; }

    /** How start() recovered the store (meaningful iff store()). */
    const store::RecoveryInfo &storeRecovery() const
    {
        return suites_.recovery();
    }

    /** Cache entries repopulated from the store at start(). */
    std::size_t warmedCacheEntries() const { return warmedEntries_; }

    /** The drift monitor; nullptr until start(), or when persistence
     *  is off (drift needs the history rings). */
    drift::DriftMonitor *driftMonitor() { return drift_.get(); }

    /** Compact per-suite drift states as a JSON value (the `drift`
     *  field a mesh node splices into /v1/cluster); "[]" when drift
     *  monitoring is off. */
    std::string driftSummaryJson() const;

    const ServerMetrics &metrics() const { return metrics_; }
    CircuitBreaker &breaker() { return breaker_; }
    HealthMonitor &health() { return health_; }

    /** The /healthz state, breaker-aware (an open breaker on the
     *  scoring path degrades an otherwise-ok server). */
    HealthState healthState() const;

    /** Every declared family — server, engine, the server's own
     *  gauges (gate, health, breaker, tracer, store, drift) and the
     *  mesh's — in Prometheus text exposition format: the /metrics
     *  body and hmserved's shutdown summary. */
    std::string renderPrometheus() const;

  private:
    /** One manifest line on the scoring path. */
    struct Line
    {
        std::size_t number = 0; ///< line number in the manifest.
        engine::ScoreRequest request;
        /** Failed to build (invalid_manifest); result.error says why
         *  and the line never reaches the engine. */
        bool invalid = false;
        /** The worker was still busy past deadline + grace: the
         *  handler answered for it (watchdog_timeout). */
        bool tripped = false;
        engine::CancelSource cancel; ///< carries the line's deadline.
        std::future<engine::ScoreResult> future;
        engine::ScoreResult result;
    };

    /** A /v1/score or /v1/batch body, decoded, expanded and built. */
    struct Parsed
    {
        /** Set when the request is answered already (a shed, a 4xx,
         *  a relayed mesh answer); the rest is then meaningless. */
        std::optional<HttpResponse> response;
        std::string suite; ///< referenced suite ("" = ad hoc).
        std::uint32_t suiteVersion = 0;
        std::vector<Line> lines;
    };

    HttpResponse handleScore(const RequestContext &ctx);
    HttpResponse handleBatch(const RequestContext &ctx);
    HttpResponse handleMetrics(const RequestContext &ctx);
    HttpResponse handleHealthz(const RequestContext &ctx);
    HttpResponse handleTrace(const RequestContext &ctx);
    HttpResponse handleTraces(const RequestContext &ctx);

    /** The answer for a request shed before admission: the server is
     *  draining, or the client's budget is already spent. nullopt
     *  lets the request go on. */
    std::optional<HttpResponse> shedBeforeAdmission(const RequestContext &ctx);

    /**
     * The front of the scoring path: shed, decode (@p decode turns a
     * binary body into manifest text), expand suite references, parse
     * and build every line. A line that fails to build is marked
     * invalid and fails alone.
     */
    Parsed parseBody(const RequestContext &ctx,
                     std::string (*decode)(const std::string &));

    /**
     * The back of the scoring path: admit the request in @p lane, arm
     * each line's deadline, submit every line, wait once per line,
     * persist what scored. False = shed by the gate (the caller
     * answers); otherwise every line's result is filled in.
     */
    bool scoreLines(const RequestContext &ctx, Parsed &parsed, Lane lane);

    /** GET /v1/drift: every tracked suite's drift report. */
    HttpResponse handleDriftList(const RequestContext &ctx);
    /** GET /v1/suites/<name>/drift (and 404s for other suffixes). */
    HttpResponse handleSuiteGet(const RequestContext &ctx);
    /** POST /v1/suites/<name>/observe (other suffixes 404). */
    HttpResponse handleSuitePost(const RequestContext &ctx);
    /** POST /v1/admin/recluster[?suite=X]: force a drift tick. */
    HttpResponse handleRecluster(const RequestContext &ctx);
    /** POST /v1/admin/drain: request a graceful process drain. */
    HttpResponse handleDrain(const RequestContext &ctx);

    /** The --recluster-every background job. */
    void reclusterLoop();

    /** 503 + Retry-After (the admission-shed and overflow answer). */
    static HttpResponse overloadedResponse(const std::string &traceId);

    /** @p request's cached score as 200 + X-Hiermeans-Stale (in the
     *  request's negotiated format) when available and allowed;
     *  otherwise @p fallback (the 503). */
    HttpResponse staleOr(const engine::ScoreRequest &request,
                         const RequestContext &ctx, HttpResponse fallback);

    Config config_;
    engine::ScoringEngine engine_;
    AdmissionGate gate_;
    ServerMetrics metrics_;
    /** The families read from server state at scrape time. */
    obs::Registry registry_;
    CircuitBreaker breaker_;
    HealthMonitor health_;
    Router router_;
    SuiteService suites_;
    HttpTransport transport_;
    engine::CsvCache csvs_;
    util::CommandLine requestDefaults_;
    std::unique_ptr<drift::DriftMonitor> drift_;
    std::mutex reclusterMutex_;
    std::condition_variable reclusterCv_;
    bool reclusterStop_ = false; ///< guarded by reclusterMutex_.
    std::thread reclusterThread_;
    std::size_t warmedEntries_ = 0;
    bool started_ = false;

    /** Parent of every per-request cancel source; drain fires it. */
    engine::CancelSource drainSource_;
    std::atomic<bool> draining_{false};

    /** Lines past their deadline + grace whose request is not yet
     *  answered: the health monitor's stuck-worker input. */
    std::atomic<std::size_t> overdue_{0};
};

} // namespace server
} // namespace hiermeans

#endif // HIERMEANS_SERVER_SERVER_H
