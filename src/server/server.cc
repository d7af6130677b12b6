#include "src/server/server.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>

#include "src/obs/prometheus.h"
#include "src/obs/trace.h"
#include "src/server/api.h"
#include "src/server/json.h"
#include "src/server/wire_json.h"
#include "src/util/error.h"
#include "src/util/log.h"
#include "src/util/signal.h"
#include "src/wire/wire.h"

namespace hiermeans {
namespace server {

namespace {

const char *
servedBy(const engine::ScoreResult &result)
{
    if (result.cacheHit)
        return "cache";
    if (result.deduped)
        return "dedupe";
    return "pipeline";
}

/**
 * A successful score result as the codec-neutral wire document —
 * the single source both response formats are rendered from, which
 * is what keeps the JSON and binary answers bit-identical (the JSON
 * body is always scoreDocumentJson() of this struct).
 */
wire::ScoreDocument
resultDocument(const engine::ScoreResult &result)
{
    wire::ScoreDocument doc;
    doc.id = result.id;
    doc.servedBy = servedBy(result);
    doc.fingerprint = result.fingerprint;
    doc.recommendedK = result.recommendedK;
    doc.ratio = result.report.rows[result.report.recommendedRow()].ratio;
    doc.plainRatio = result.report.plainRatio;
    doc.wallMillis = result.wallMillis;
    doc.rows.reserve(result.report.rows.size());
    for (const auto &row : result.report.rows) {
        wire::ScoreRow out;
        out.k = static_cast<std::uint32_t>(row.clusterCount);
        out.scoreA = row.scoreA;
        out.scoreB = row.scoreB;
        out.ratio = row.ratio;
        doc.rows.push_back(out);
    }
    return doc;
}

/** A successful score result as the envelope's `data` value. */
std::string
resultDataJson(const engine::ScoreResult &result)
{
    return scoreDocumentJson(resultDocument(result));
}

/** The negotiated /v1/score success response: the JSON envelope by
 *  default, one binary ScoreReport frame when Accept asked for it. */
HttpResponse
scoredResponse(const engine::ScoreResult &result,
               const RequestContext &ctx)
{
    HttpResponse response;
    if (ctx.wantsBinary()) {
        response.status = 200;
        response.set("Content-Type", wire::kMediaType);
        response.body = wire::encodeScoreReport(resultDocument(result));
    } else {
        response = okResponse(resultDataJson(result), ctx.traceId);
    }
    response.set("X-Hiermeans-Source", servedBy(result));
    return response;
}

/** The error code of a failed line; @p invalid = it failed to build. */
ApiError
resultError(const engine::ScoreResult &result, bool invalid)
{
    if (invalid)
        return ApiError::InvalidManifest;
    if (result.timedOut)
        return ApiError::Timeout;
    // Cancelled without an expired deadline: the server gave up
    // (drain), not the work — retryable elsewhere.
    if (result.cancelled)
        return ApiError::Draining;
    return ApiError::ScoringFailed;
}

/** A failed line as an error envelope (one score or one batch line;
 *  @p extra is spliced into the error object). */
std::string
resultErrorEnvelope(const engine::ScoreResult &result, bool invalid,
                    const std::string &traceId, std::string extra = "")
{
    if (result.timedOut)
        extra = extra.empty() ? "\"timed_out\":true"
                              : extra + ",\"timed_out\":true";
    return errorEnvelope(resultError(result, invalid), result.error,
                         traceId, extra);
}

/** One span as JSON for the /v1/trace payload. */
std::string
spanJson(const obs::Span &span)
{
    std::ostringstream out;
    out << "{\"name\":" << json::quote(span.name) << ",\"parent\":";
    if (span.parent == obs::kNoParent)
        out << "null";
    else
        out << span.parent;
    out << ",\"start_ms\":"
        << json::number(static_cast<double>(span.startNanos) / 1e6)
        << ",\"duration_ms\":";
    if (span.endNanos == 0)
        out << "null";
    else
        out << json::number(span.durationMillis());
    out << "}";
    return out.str();
}

std::string
idListJson(const std::vector<std::string> &ids)
{
    std::string out = "[";
    for (std::size_t i = 0; i < ids.size(); ++i) {
        if (i > 0)
            out += ",";
        out += json::quote(ids[i]);
    }
    out += "]";
    return out;
}

/** How long past a line's deadline the handler waits for a wedged
 *  worker, so the engine's cooperative timeout can answer first. */
constexpr std::chrono::milliseconds kAwaitGrace{250};

HttpTransport::Config
transportConfig(const Server::Config &config)
{
    HttpTransport::Config transport;
    transport.port = config.port;
    transport.connectionThreads = config.connectionThreads;
    transport.maxBodyBytes = config.maxBodyBytes;
    return transport;
}

/** The hiermeans_store_* families, read from @p store per scrape. */
void
declareStoreFamilies(obs::Registry &registry, const store::StateStore &store,
                     const std::size_t &warmed)
{
    const auto read = [&store](auto field) {
        return [&store, field] {
            return obs::scalar(static_cast<double>(store.metrics().*field));
        };
    };
    using M = store::StoreMetrics;
    registry.counter("hiermeans_store_wal_records_total",
                     "Records appended to the write-ahead log.",
                     read(&M::walRecords));
    registry.counter("hiermeans_store_wal_bytes_total",
                     "Bytes appended to the write-ahead log.",
                     read(&M::walBytes));
    registry.counter("hiermeans_store_wal_fsyncs_total", "WAL fsync calls.",
                     read(&M::walFsyncs));
    registry.counter("hiermeans_store_wal_append_failures_total",
                     "WAL appends that failed (the response was served "
                     "anyway).",
                     read(&M::walAppendFailures));
    registry.gauge("hiermeans_store_wal_size_bytes",
                   "Current WAL file size.", read(&M::walSizeBytes));
    registry.counter("hiermeans_store_snapshots_total",
                     "Snapshots written (auto + requested + shutdown).",
                     read(&M::snapshotsWritten));
    registry.counter("hiermeans_store_snapshot_failures_total",
                     "Snapshot attempts that failed.",
                     read(&M::snapshotFailures));
    registry.gauge("hiermeans_store_snapshot_age_seconds",
                   "Seconds since the last snapshot (or since boot).",
                   read(&M::sinceSnapshotSeconds));
    registry.gauge("hiermeans_store_recovery_outcome",
                   "Boot recovery outcome (1 on the active series).",
                   [&store] {
                       return obs::oneHot(
                           {"clean_start", "clean", "truncated_tail",
                            "snapshot_fallback"},
                           store::recoveryOutcomeName(
                               store.metrics().recoveryOutcome));
                   });
    registry.gauge("hiermeans_store_recovered_records",
                   "Records replayed at boot (snapshot + WAL tail).",
                   read(&M::recoveredRecords));
    registry.gauge("hiermeans_store_recovery_discarded_bytes",
                   "Torn WAL tail bytes truncated at boot.",
                   read(&M::recoveryDiscardedBytes));
    registry.gauge("hiermeans_store_warmed_cache_entries",
                   "Result-cache entries repopulated at boot.",
                   [&warmed] { return obs::scalar(warmed); });
    registry.gauge("hiermeans_store_last_sequence",
                   "Highest committed record sequence.",
                   read(&M::lastSequence));
    registry.gauge("hiermeans_store_suites", "Registered suites.",
                   read(&M::suiteCount));
    registry.gauge("hiermeans_store_history_entries",
                   "Score-history entries across every ring.",
                   read(&M::historyEntries));
    registry.gauge("hiermeans_store_results",
                   "Retained full score records (warm-startable).",
                   read(&M::resultCount));
}

/** The hiermeans_drift_* families: one series per tracked suite. */
void
declareDriftFamilies(obs::Registry &registry,
                     const drift::DriftMonitor &monitor)
{
    using Report = drift::DriftMonitor::Report;
    const auto perSuite = [&monitor](auto field) {
        return [&monitor, field] {
            std::vector<obs::Sample> samples;
            for (const Report &report : monitor.reports())
                samples.push_back({{{"suite", report.suite}},
                                   static_cast<double>(field(report))});
            return samples;
        };
    };
    registry.gauge("hiermeans_drift_suites",
                   "Suites with a drift monitor attached.", [&monitor] {
                       return obs::scalar(monitor.reports().size());
                   });
    registry.gauge(
        "hiermeans_drift_state",
        "Per-suite staleness (1 on the active series).", [&monitor] {
            std::vector<obs::Sample> samples;
            for (const Report &report : monitor.reports()) {
                const std::vector<obs::Sample> states = obs::oneHot(
                    {"fresh", "drifting", "stale"},
                    drift::driftStateName(report.state),
                    {{"suite", report.suite}});
                samples.insert(samples.end(), states.begin(), states.end());
            }
            return samples;
        });
    registry.gauge("hiermeans_drift_churn",
                   "Assignment churn vs the published clustering "
                   "(fraction of the window).",
                   perSuite([](const Report &r) { return r.metrics.churn; }));
    registry.gauge(
        "hiermeans_drift_stability",
        "Adjusted Rand index vs the published clustering.",
        perSuite([](const Report &r) { return r.metrics.stability; }));
    registry.gauge(
        "hiermeans_drift_qe_ratio",
        "Window quantization error over the published baseline.",
        perSuite([](const Report &r) { return r.metrics.qeRatio; }));
    registry.gauge("hiermeans_drift_published_mean",
                   "Hierarchical geometric mean at last publish.",
                   perSuite([](const Report &r) { return r.publishedMean; }));
    registry.counter("hiermeans_drift_ticks_total",
                     "Re-cluster ticks per suite.",
                     perSuite([](const Report &r) { return r.ticks; }));
    registry.counter(
        "hiermeans_drift_observations_total",
        "Observations folded into the online map.",
        perSuite([](const Report &r) { return r.observations; }));
}

} // namespace

Server::Server(Config config)
    : config_(config), engine_(config.engine),
      gate_(config.queueDepth, config.bulkQueueDepth),
      breaker_(config.breaker),
      health_(config.health),
      suites_(metrics_),
      transport_(transportConfig(config), router_, metrics_),
      requestDefaults_(util::CommandLine::parse({"hmserved"}))
{
    suites_.setCluster(config_.cluster);

    // State that lives in the gate, the breaker, the health monitor
    // and the tracer, read at scrape time. The store and drift
    // families join in start(), once they exist.
    registry_.counter("hiermeans_server_shed_total",
                      "Requests shed by the admission gate (503).",
                      [this] { return obs::scalar(gate_.shedTotal()); });
    registry_.counter("hiermeans_overload_shed_total",
                      "Admission sheds by lane (503).", [this] {
                          std::vector<obs::Sample> samples;
                          for (Lane lane : {Lane::Interactive, Lane::Bulk})
                              samples.push_back(
                                  {{{"lane", laneName(lane)}},
                                   static_cast<double>(
                                       gate_.shedTotal(lane))});
                          return samples;
                      });
    registry_.gauge("hiermeans_overload_draining",
                    "1 while the drain state machine is active.",
                    [this] { return obs::scalar(draining() ? 1.0 : 0.0); });
    registry_.counter("hiermeans_server_breaker_opens_total",
                      "Times the circuit breaker opened.",
                      [this] { return obs::scalar(breaker_.opens()); });
    registry_.gauge("hiermeans_server_admission_queue_depth",
                    "Admission slots currently held.",
                    [this] { return obs::scalar(gate_.depth()); });
    registry_.gauge("hiermeans_server_admission_queue_capacity",
                    "Admission slot capacity.",
                    [this] { return obs::scalar(gate_.capacity()); });
    registry_.gauge("hiermeans_server_health_state",
                    "Health state (1 on the active series).", [this] {
                        return obs::oneHot({"ok", "degraded", "draining"},
                                           healthStateName(healthState()));
                    });
    registry_.gauge("hiermeans_server_breaker_state",
                    "Circuit-breaker state (1 on the active series).",
                    [this] {
                        return obs::oneHot({"closed", "open", "half-open"},
                                           breaker_.stateName());
                    });
    registry_.gauge("hiermeans_trace_enabled",
                    "1 when request tracing is armed.", [] {
                        return obs::scalar(obs::tracingEnabled() ? 1.0
                                                                 : 0.0);
                    });
    registry_.counter("hiermeans_trace_finished_total",
                      "Traces recorded since tracing was configured.", [] {
                          return obs::scalar(
                              obs::Tracer::instance().finishedTotal());
                      });
    registry_.counter("hiermeans_trace_slow_sampled_total",
                      "Traces kept by the slow-request sampler.", [] {
                          return obs::scalar(
                              obs::Tracer::instance().slowTotal());
                      });

    router_.add("POST", "/v1/score", [this](const RequestContext &c) {
        return handleScore(c);
    });
    router_.add("POST", "/v1/batch", [this](const RequestContext &c) {
        return handleBatch(c);
    });
    router_.add("GET", "/v1/traces", [this](const RequestContext &c) {
        return handleTraces(c);
    });
    router_.addPrefix("GET", "/v1/trace/",
                      [this](const RequestContext &c) {
                          return handleTrace(c);
                      });
    router_.add("GET", "/metrics", [this](const RequestContext &c) {
        return handleMetrics(c);
    });
    router_.add("GET", "/healthz", [this](const RequestContext &c) {
        return handleHealthz(c);
    });
    router_.add("POST", "/v1/suites", [this](const RequestContext &c) {
        return suites_.handleSuiteRegister(c);
    });
    router_.add("GET", "/v1/suites", [this](const RequestContext &c) {
        return suites_.handleSuiteList(c);
    });
    router_.add("GET", "/v1/history", [this](const RequestContext &c) {
        return suites_.handleHistory(c);
    });
    router_.add("POST", "/v1/admin/snapshot",
                [this](const RequestContext &c) {
                    return suites_.handleSnapshot(c);
                });
    router_.add("GET", "/v1/drift", [this](const RequestContext &c) {
        return handleDriftList(c);
    });
    router_.add("POST", "/v1/admin/recluster",
                [this](const RequestContext &c) {
                    return handleRecluster(c);
                });
    router_.add("POST", "/v1/admin/drain",
                [this](const RequestContext &c) {
                    return handleDrain(c);
                });
    router_.addPrefix("GET", "/v1/suites/",
                      [this](const RequestContext &c) {
                          return handleSuiteGet(c);
                      });
    router_.addPrefix("POST", "/v1/suites/",
                      [this](const RequestContext &c) {
                          return handleSuitePost(c);
                      });
    if (config_.cluster != nullptr) {
        router_.add("GET", "/v1/cluster",
                    [this](const RequestContext &c) {
                        return config_.cluster->handleCluster(c);
                    });
        router_.add("POST", "/v1/mesh/replicate",
                    [this](const RequestContext &c) {
                        return config_.cluster->handleReplicate(c);
                    });
    }
}

Server::~Server() { stop(); }

void
Server::start()
{
    HM_REQUIRE(!started_, "Server::start: already started");
    started_ = true;
    suites_.open(config_.store);
    if (suites_.store() != nullptr) {
        warmedEntries_ = suites_.warmStart(engine_);
        HM_LOG(Info) << "store: cache warmed=" << warmedEntries_;
        declareStoreFamilies(registry_, *suites_.store(), warmedEntries_);
        drift_ = std::make_unique<drift::DriftMonitor>(
            config_.drift, suites_.store());
        declareDriftFamilies(registry_, *drift_);
        const std::size_t machines = drift_->warmStart();
        if (machines > 0)
            HM_LOG(Info) << "drift: restored " << machines
                         << " suite monitor(s)";
        if (config_.reclusterEverySeconds > 0.0)
            reclusterThread_ = std::thread([this] { reclusterLoop(); });
    }
    transport_.start();
}

void
Server::reclusterLoop()
{
    const auto period = std::chrono::duration<double>(
        config_.reclusterEverySeconds);
    auto next = std::chrono::steady_clock::now() + period;
    std::unique_lock<std::mutex> lock(reclusterMutex_);
    // stop() sets the flag and notifies, so it never waits a period.
    while (!reclusterCv_.wait_until(lock, next,
                                    [this] { return reclusterStop_; })) {
        next += period;
        lock.unlock();
        try {
            const std::size_t ticked = drift_->tickAll().size();
            if (ticked > 0 && config_.cluster != nullptr)
                config_.cluster->afterWrite();
        } catch (const std::exception &e) {
            HM_LOG(Warn) << "drift: recluster pass failed: "
                         << e.what();
        }
        lock.lock();
    }
}

void
Server::beginDrain()
{
    if (draining_.exchange(true))
        return;
    health_.setDraining(); // /healthz flips to 503 for the drain.
    HM_LOG(Info) << "drain: started (deadline "
                 << config_.drainDeadlineMillis << " ms)";
}

void
Server::stop()
{
    {
        std::lock_guard<std::mutex> lock(reclusterMutex_);
        reclusterStop_ = true;
    }
    reclusterCv_.notify_all();
    if (reclusterThread_.joinable())
        reclusterThread_.join();
    if (!transport_.running())
        return;

    // The drain state machine: advertise first (new scoring work is
    // shed with the `draining` code, cluster clients fail over), wait
    // for admitted work against the drain deadline, then cancel
    // whatever is still in flight so the transport can drain its
    // connections without a worker wedged mid-pipeline.
    beginDrain();
    constexpr auto kSlice = std::chrono::milliseconds(20);
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double, std::milli>(
            config_.drainDeadlineMillis);
    while (gate_.depth() > 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(kSlice);
    if (gate_.depth() > 0) {
        HM_LOG(Warn) << "drain: deadline exceeded with "
                     << gate_.depth()
                     << " request(s) in flight; cancelling";
        drainSource_.cancel();
    }
    transport_.stop();
    try {
        suites_.close(); // final snapshot + WAL compaction.
    } catch (const Error &e) {
        HM_LOG(Warn) << "store: final snapshot failed: " << e.what();
    }
}

HttpResponse
Server::handleDrain(const RequestContext &ctx)
{
    // Flip to draining immediately (this request's own answer already
    // advertises it), then ask the process to shut down: hmserved's
    // main loop observes the flag and runs stop() — the same path a
    // SIGTERM takes.
    beginDrain();
    util::requestShutdown();
    return okResponse("{\"draining\":true,\"drain_deadline_ms\":" +
                          json::number(config_.drainDeadlineMillis) +
                          "}",
                      ctx.traceId);
}

HttpResponse
Server::overloadedResponse(const std::string &traceId)
{
    HttpResponse response =
        errorResponse(ApiError::Overloaded,
                      "server overloaded, admission queue full",
                      traceId);
    response.set("Retry-After", "1");
    return response;
}

std::optional<HttpResponse>
Server::shedBeforeAdmission(const RequestContext &ctx)
{
    // Draining: shed before any work so cluster clients fail over to
    // a peer immediately instead of racing the shutdown.
    if (draining_.load()) {
        metrics_.drainSheds.inc();
        HttpResponse response =
            errorResponse(ApiError::Draining,
                          "server draining, try another node",
                          ctx.traceId);
        response.set("Retry-After", "1");
        return response;
    }
    // A request whose client budget is already spent is shed before
    // it touches the breaker, the gate or the engine: nobody is
    // waiting for the answer. Not a breaker event — the server is
    // healthy, the budget was just too small.
    if (ctx.hasDeadline() && ctx.remainingMillis() <= 0.0) {
        metrics_.deadlineExpired.inc();
        return errorResponse(ApiError::DeadlineExpired,
                             "client deadline spent before admission",
                             ctx.traceId, "\"timed_out\":true");
    }
    return std::nullopt;
}

HttpResponse
Server::staleOr(const engine::ScoreRequest &request,
                const RequestContext &ctx, HttpResponse fallback)
{
    if (!config_.serveStale)
        return fallback;
    // Only the degraded paths read the cache before submit, so only
    // they hash the request here; submit() hashes the admitted one.
    const std::uint64_t fingerprint = engine::fingerprintRequest(request);
    std::optional<engine::CachedResult> cached =
        engine_.cache().get(fingerprint);
    if (!cached.has_value())
        return fallback;

    engine::ScoreResult result;
    result.id = request.id;
    result.ok = true;
    result.cacheHit = true;
    result.fingerprint = fingerprint;
    result.report = std::move(cached->report);
    result.analysis = std::move(cached->analysis);
    result.recommendedK = cached->recommendedK;

    metrics_.staleServed.inc();
    HttpResponse response = scoredResponse(result, ctx);
    response.set("X-Hiermeans-Stale", "1");
    return response;
}

Server::Parsed
Server::parseBody(const RequestContext &ctx,
                  std::string (*decode)(const std::string &))
{
    Parsed parsed;
    parsed.response = shedBeforeAdmission(ctx);
    if (parsed.response.has_value())
        return parsed;

    // Decode the body to manifest text before expansion: from here
    // on the pipeline is codec-agnostic.
    std::string text = ctx.http.body;
    if (ctx.binaryBody) {
        try {
            text = decode(ctx.http.body);
        } catch (const Error &e) {
            metrics_.malformed.inc();
            parsed.response =
                errorResponse(ApiError::BadRequest, e.what(), ctx.traceId);
            return parsed;
        }
    }
    SuiteService::Expansion expanded = suites_.expand(ctx, text);
    if (expanded.response.has_value()) {
        parsed.response = std::move(expanded.response);
        return parsed;
    }
    parsed.suite = std::move(expanded.suite);
    parsed.suiteVersion = expanded.suiteVersion;

    obs::ScopedSpan span("parse.manifest");
    std::vector<engine::ManifestLine> lines;
    try {
        lines = engine::parseManifest(expanded.text);
    } catch (const Error &e) {
        metrics_.malformed.inc();
        parsed.response =
            errorResponse(ApiError::BadRequest, e.what(), ctx.traceId);
        return parsed;
    }
    // Build every line up front so a bad line fails alone without
    // touching the engine, mirroring hmbatch.
    for (const engine::ManifestLine &manifest_line : lines) {
        Line &line = parsed.lines.emplace_back();
        line.number = manifest_line.lineNumber;
        try {
            line.request = engine::buildManifestRequest(
                manifest_line, requestDefaults_, csvs_);
        } catch (const Error &e) {
            line.invalid = true;
            line.result.error = e.what();
        }
    }
    return parsed;
}

bool
Server::scoreLines(const RequestContext &ctx, Parsed &parsed, Lane lane)
{
    obs::ScopedSpan admissionSpan("admission");
    AdmissionTicket ticket(gate_, lane);
    if (!ticket.admitted()) { // the gate counts the shed.
        health_.onShed();
        return false;
    }
    health_.onAdmitted();
    admissionSpan.close();

    // Submit every line before waiting on any, so a batch's lines
    // share the engine pool.
    for (Line &line : parsed.lines) {
        if (line.invalid)
            continue;
        // One absolute deadline per line: the earlier of its
        // timeout-ms= and the client's X-Hiermeans-Deadline, both
        // counted from arrival, or the server default when neither is
        // stated. The token is chained to the drain source, so drain
        // cancels it too; the engine enforces nothing else.
        double budget = line.request.timeoutMillis;
        if (ctx.hasDeadline() &&
            (budget <= 0.0 || ctx.deadlineMillis < budget))
            budget = ctx.deadlineMillis;
        line.cancel = engine::CancelSource(drainSource_.token());
        line.cancel.setDeadline(
            budget > 0.0 ? budget : config_.defaultDeadlineMillis,
            ctx.arrived);
        line.request.cancel = line.cancel.token();
        if (ctx.trace) {
            // Hand the live trace to the engine: the submit-side spans
            // (cache.lookup, engine.queue) and the worker-side spans
            // (engine.execute, pipeline.*) parent under our root.
            line.request.trace = ctx.trace;
            line.request.traceParent = ctx.rootSpan;
        }
        line.future = engine_.submit(std::move(line.request));
    }

    obs::ScopedSpan awaitSpan("server.await");
    std::size_t trips = 0;
    for (Line &line : parsed.lines) {
        if (line.invalid)
            continue;
        // One wait per line: only a worker wedged past deadline +
        // grace (the pipeline is not interruptible) is abandoned here.
        const auto deadline = line.cancel.deadline();
        if (deadline == std::chrono::steady_clock::time_point::max() ||
            line.future.wait_until(deadline + kAwaitGrace) ==
                std::future_status::ready) {
            line.result = line.future.get();
        } else {
            // The engine task resolves into a dead promise; only this
            // connection is rescued. Cancelling the token purges a
            // still-queued entry instead of executing it.
            line.cancel.cancel();
            line.tripped = true;
            line.result.timedOut = true;
            line.result.error = "watchdog: batch exceeded its budget";
            metrics_.watchdogTrips.inc();
            health_.onStuckWorkers(overdue_.fetch_add(1) + 1);
            ++trips;
        }
        const engine::ScoreResult &result = line.result;
        if (result.timedOut)
            metrics_.timeouts.inc();
        if (result.cancelled)
            metrics_.cancelled.inc();
        if (result.ok) {
            suites_.persistScore(result, parsed.suite, parsed.suiteVersion,
                                 ctx.hasDeadline() ? ctx.remainingMillis()
                                                   : 0.0);
            if (ctx.remainingMillis() < 0.0) // +inf without a deadline.
                metrics_.deadlineMisses.inc();
        }
    }
    if (trips > 0) // answered from here on: no longer stuck.
        health_.onStuckWorkers(overdue_.fetch_sub(trips) - trips);
    return true;
}

HttpResponse
Server::handleScore(const RequestContext &ctx)
{
    Parsed parsed = parseBody(ctx, [](const std::string &body) {
        return wire::decodeScoreRequest(body);
    });
    if (parsed.response.has_value())
        return std::move(*parsed.response);
    if (parsed.lines.size() != 1) {
        metrics_.malformed.inc();
        const std::string count = std::to_string(parsed.lines.size());
        return errorResponse(
            ApiError::BadRequest,
            parsed.suite.empty()
                ? "expected exactly one manifest line, got " + count
                : "suite `" + parsed.suite + "` has " + count +
                      " lines; pick one with line=<n> or POST the "
                      "suite to /v1/batch",
            ctx.traceId);
    }
    Line &line = parsed.lines.front();
    if (line.invalid) {
        metrics_.malformed.inc();
        return errorResponse(ApiError::InvalidManifest, line.result.error,
                             ctx.traceId);
    }

    if (!breaker_.allow()) {
        metrics_.breakerFastFails.inc();
        HttpResponse open = errorResponse(
            ApiError::CircuitOpen, "circuit open on /v1/score", ctx.traceId);
        open.set("Retry-After", std::to_string(std::max(
                                    1L, breaker_.retryAfterSeconds())));
        return staleOr(line.request, ctx, std::move(open));
    }
    if (!scoreLines(ctx, parsed, Lane::Interactive)) {
        breaker_.onAbandoned(); // a shed is not a probe outcome.
        return staleOr(line.request, ctx, overloadedResponse(ctx.traceId));
    }

    const engine::ScoreResult &result = line.result;
    if (result.ok) {
        breaker_.onSuccess();
        return scoredResponse(result, ctx);
    }
    HttpResponse response =
        line.tripped
            ? errorResponse(ApiError::WatchdogTimeout,
                            "watchdog: request exceeded its budget",
                            ctx.traceId, "\"timed_out\":true")
            : jsonResponse(apiErrorStatus(resultError(result, false)),
                           resultErrorEnvelope(result, false, ctx.traceId) +
                               "\n");
    if (result.timedOut) {
        breaker_.onFailure();
    } else if (result.cancelled) {
        // Cancelled by the drain state machine, not by load: the
        // client fails over, and a half-open breaker probe is released
        // without counting an outcome.
        breaker_.onAbandoned();
        response.set("Retry-After", "1");
    } else {
        // A 4xx is the caller's fault, not the server's: the scoring
        // path is healthy, so it closes a half-open probe as success.
        breaker_.onSuccess();
    }
    return response;
}

HttpResponse
Server::handleBatch(const RequestContext &ctx)
{
    Parsed parsed = parseBody(ctx, [](const std::string &body) {
        return wire::BatchView(body).manifestText();
    });
    if (parsed.response.has_value())
        return std::move(*parsed.response);
    if (parsed.lines.empty()) {
        metrics_.malformed.inc();
        return errorResponse(ApiError::BadRequest,
                             "manifest has no requests", ctx.traceId);
    }

    // The whole document is one admission unit: it occupies one
    // connection worker and its lines share the engine pool anyway.
    // Batch competes in the bulk lane, which is capped below the
    // gate's capacity so it can never starve /v1/score.
    if (!scoreLines(ctx, parsed, Lane::Bulk))
        return overloadedResponse(ctx.traceId);

    std::ostringstream body;
    for (const Line &line : parsed.lines) {
        const engine::ScoreResult &result = line.result;
        if (ctx.wantsBinary()) {
            // Binary stream: one BatchItem frame per manifest line,
            // in line order (the NDJSON stream's binary twin).
            wire::BatchItem item;
            item.line = static_cast<std::uint32_t>(line.number);
            item.ok = result.ok;
            if (result.ok) {
                item.doc = resultDocument(result);
            } else {
                item.errorCode =
                    apiErrorCode(resultError(result, line.invalid));
                item.error = result.error;
                item.timedOut = result.timedOut;
            }
            body << wire::encodeBatchItem(item);
            continue;
        }

        const std::string line_field =
            "\"line\":" + std::to_string(line.number);
        body << (result.ok
                     ? okEnvelope("{" + line_field + "," +
                                      resultDataJson(result).substr(1),
                                  ctx.traceId)
                     : resultErrorEnvelope(result, line.invalid,
                                           ctx.traceId, line_field))
             << "\n";
    }
    HttpResponse response;
    response.status = 200;
    response.set("Content-Type", ctx.wantsBinary()
                                     ? wire::kMediaType
                                     : "application/x-ndjson");
    response.body = body.str();
    return response;
}

HttpResponse
Server::handleMetrics(const RequestContext &)
{
    HttpResponse response;
    response.status = 200;
    response.set("Content-Type",
                 "text/plain; version=0.0.4; charset=utf-8");
    response.body = renderPrometheus();
    return response;
}

HttpResponse
Server::handleHealthz(const RequestContext &)
{
    health_.onStuckWorkers(overdue_.load());
    const HealthState state = healthState();
    HttpResponse response = textResponse(
        state == HealthState::Draining ? 503 : 200,
        std::string(healthStateName(state)) + "\n");
    response.set("X-Hiermeans-Health", healthStateName(state));
    return response;
}

HttpResponse
Server::handleTrace(const RequestContext &ctx)
{
    constexpr const char *kPrefix = "/v1/trace/";
    const std::string path = ctx.http.path();
    const std::string id = path.size() > std::string(kPrefix).size()
                               ? path.substr(std::string(kPrefix).size())
                               : "";
    if (id.empty() || !obs::validTraceId(id))
        return errorResponse(ApiError::BadRequest,
                             "missing or invalid trace id", ctx.traceId);

    std::shared_ptr<const obs::Trace> found =
        obs::Tracer::instance().find(id);
    if (!found) {
        std::string message = "no such trace: " + id;
        if (!obs::tracingEnabled())
            message += " (tracing is disabled; start hmserved with "
                       "--trace)";
        return errorResponse(ApiError::NotFound, message, ctx.traceId);
    }

    const std::vector<obs::Span> spans = found->spans();
    std::ostringstream data;
    data << "{\"id\":" << json::quote(found->id())
         << ",\"root_ms\":" << json::number(found->rootMillis())
         << ",\"spans\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (i > 0)
            data << ",";
        data << spanJson(spans[i]);
    }
    data << "],\"tree\":"
         << json::quote(obs::renderSpanTree(found->id(), spans)) << "}";
    return okResponse(data.str(), ctx.traceId);
}

HttpResponse
Server::handleTraces(const RequestContext &ctx)
{
    std::size_t limit = 0;
    if (auto bad = parseListLimit(ctx, kMaxListLimit, limit))
        return std::move(*bad);
    obs::Tracer &tracer = obs::Tracer::instance();
    std::vector<std::string> recent = tracer.recentIds();
    std::vector<std::string> slow = tracer.slowIds();
    if (recent.size() > limit)
        recent.resize(limit);
    if (slow.size() > limit)
        slow.resize(limit);
    std::ostringstream data;
    data << "{\"enabled\":"
         << (obs::tracingEnabled() ? "true" : "false")
         << ",\"slow_ms\":" << json::number(tracer.config().slowMillis)
         << ",\"finished_total\":" << tracer.finishedTotal()
         << ",\"slow_total\":" << tracer.slowTotal()
         << ",\"recent\":" << idListJson(recent)
         << ",\"slow\":" << idListJson(slow) << "}";
    return okResponse(data.str(), ctx.traceId);
}

namespace {

/** One suite's drift report as a JSON object (the /v1 payloads). */
std::string
driftReportJson(const drift::DriftMonitor::Report &report)
{
    std::ostringstream out;
    out << "{\"suite\":" << json::quote(report.suite)
        << ",\"state\":\"" << drift::driftStateName(report.state)
        << "\",\"published\":" << (report.published ? "true" : "false")
        << ",\"published_mean\":" << json::number(report.publishedMean)
        << ",\"published_qe\":" << json::number(report.publishedQe)
        << ",\"churn\":" << json::number(report.metrics.churn)
        << ",\"stability\":" << json::number(report.metrics.stability)
        << ",\"qe_ratio\":" << json::number(report.metrics.qeRatio)
        << ",\"window\":" << report.metrics.window
        << ",\"ticks\":" << report.ticks
        << ",\"observations\":" << report.observations
        << ",\"calm_streak\":" << report.calmStreak
        << ",\"last_sequence\":" << report.lastSequence << "}";
    return out.str();
}

/** Split a /v1/suites/ sub-path into "<name>" and the "<action>"
 *  after the next slash ("" when absent). */
void
splitSuitePath(const std::string &path, std::string &name,
               std::string &action)
{
    static const std::string kPrefix = "/v1/suites/";
    const std::string rest =
        path.size() > kPrefix.size() ? path.substr(kPrefix.size()) : "";
    const std::size_t slash = rest.find('/');
    if (slash == std::string::npos) {
        name = rest;
        action.clear();
    } else {
        name = rest.substr(0, slash);
        action = rest.substr(slash + 1);
    }
}

} // namespace

HttpResponse
Server::handleDriftList(const RequestContext &ctx)
{
    if (drift_ == nullptr)
        return errorResponse(ApiError::StoreDisabled,
                             "drift monitoring needs a durable store "
                             "(start hmserved with --data-dir)",
                             ctx.traceId);
    std::size_t limit = 0;
    if (auto bad = parseListLimit(ctx, kMaxListLimit, limit))
        return std::move(*bad);
    std::vector<drift::DriftMonitor::Report> reports =
        drift_->reports();
    if (reports.size() > limit)
        reports.resize(limit);
    std::ostringstream data;
    data << "{\"count\":" << reports.size()
         << ",\"recluster_every_seconds\":"
         << json::number(config_.reclusterEverySeconds)
         << ",\"suites\":[";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        if (i > 0)
            data << ",";
        data << driftReportJson(reports[i]);
    }
    data << "]}";
    return okResponse(data.str(), ctx.traceId);
}

HttpResponse
Server::handleSuiteGet(const RequestContext &ctx)
{
    std::string name, action;
    splitSuitePath(ctx.http.path(), name, action);
    if (name.empty() || action != "drift")
        return errorResponse(ApiError::NotFound,
                             "no such endpoint: " + ctx.http.path(),
                             ctx.traceId);
    const ClusterRoute route = suites_.route(ctx, name, false);
    if (route.action != ClusterRoute::Action::Local)
        return suites_.cluster()->relay(ctx, route);
    if (drift_ == nullptr)
        return errorResponse(ApiError::StoreDisabled,
                             "drift monitoring needs a durable store "
                             "(start hmserved with --data-dir)",
                             ctx.traceId);
    std::optional<drift::DriftMonitor::Report> report =
        drift_->report(name);
    if (!report.has_value()) {
        if (!suites_.store()->resolveSuite(name).has_value())
            return errorResponse(ApiError::SuiteUnknown,
                                 "no registered suite `" + name + "`",
                                 ctx.traceId);
        // Registered but never observed or ticked: a default-fresh
        // report, so pollers need no special case before first tick.
        report = drift::DriftMonitor::Report{};
        report->suite = name;
    }
    return okResponse(driftReportJson(*report), ctx.traceId);
}

HttpResponse
Server::handleSuitePost(const RequestContext &ctx)
{
    std::string name, action;
    splitSuitePath(ctx.http.path(), name, action);
    if (name.empty() || action != "observe")
        return errorResponse(ApiError::NotFound,
                             "no such endpoint: " + ctx.http.path(),
                             ctx.traceId);
    if (std::optional<HttpResponse> shed = shedBeforeAdmission(ctx))
        return std::move(*shed);
    // Observations are feed traffic: bulk lane, so a firehose of
    // observes can never crowd interactive scores out of the gate.
    AdmissionTicket ticket(gate_, Lane::Bulk);
    if (!ticket.admitted()) { // the gate counts the shed.
        health_.onShed();
        return overloadedResponse(ctx.traceId);
    }
    HttpResponse response = suites_.handleObserve(ctx, name);
    // Fold the fresh observation into the online map right away so a
    // drift probe between ticks already sees it.
    if (response.status == 200 && drift_ != nullptr)
        drift_->absorb(name);
    return response;
}

HttpResponse
Server::handleRecluster(const RequestContext &ctx)
{
    obs::ScopedSpan span("drift.recluster");
    if (drift_ == nullptr)
        return errorResponse(ApiError::StoreDisabled,
                             "drift monitoring needs a durable store "
                             "(start hmserved with --data-dir)",
                             ctx.traceId);
    const std::string suite = ctx.http.queryParam("suite", "");
    std::vector<drift::DriftMonitor::Report> reports;
    if (!suite.empty()) {
        if (!suites_.store()->resolveSuite(suite).has_value() &&
            !drift_->report(suite).has_value())
            return errorResponse(ApiError::SuiteUnknown,
                                 "no registered suite `" + suite + "`",
                                 ctx.traceId);
        reports.push_back(drift_->tick(suite));
    } else {
        reports = drift_->tickAll();
    }
    if (!reports.empty() && config_.cluster != nullptr)
        config_.cluster->afterWrite();
    std::ostringstream data;
    data << "{\"ticked\":" << reports.size() << ",\"suites\":[";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        if (i > 0)
            data << ",";
        data << driftReportJson(reports[i]);
    }
    data << "]}";
    return okResponse(data.str(), ctx.traceId);
}

std::string
Server::driftSummaryJson() const
{
    if (drift_ == nullptr)
        return "[]";
    const std::vector<drift::DriftMonitor::Report> reports =
        drift_->reports();
    std::string out = "[";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        if (i > 0)
            out += ",";
        out += "{\"suite\":" + json::quote(reports[i].suite) +
               ",\"state\":\"" +
               drift::driftStateName(reports[i].state) +
               "\",\"published_mean\":" +
               json::number(reports[i].publishedMean) + "}";
    }
    out += "]";
    return out;
}

HealthState
Server::healthState() const
{
    HealthState state = health_.state();
    if (state == HealthState::Ok &&
        breaker_.state() != CircuitBreaker::State::Closed)
        state = HealthState::Degraded;
    return state;
}

std::string
Server::renderPrometheus() const
{
    obs::PrometheusWriter writer;
    metrics_.registry().render(writer);
    registry_.render(writer);
    engine_.metrics().registry().render(writer);
    if (config_.cluster != nullptr)
        config_.cluster->registry().render(writer);
    return writer.text();
}

} // namespace server
} // namespace hiermeans
