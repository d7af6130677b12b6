#include "src/server/suite_service.h"

#include <cctype>
#include <sstream>

#include "src/engine/manifest.h"
#include "src/gen/registry.h"
#include "src/server/api.h"
#include "src/server/json.h"
#include "src/server/wire_json.h"
#include "src/util/error.h"
#include "src/util/str.h"
#include "src/wire/wire.h"

namespace hiermeans {
namespace server {

namespace {

/** A `suite=<name>[@version]` reference found in a request body. */
struct SuiteRef
{
    bool present = false;
    std::string name;
    std::uint32_t version = 0; ///< 0 = newest.
    std::size_t line = 0;      ///< `line=<n>`, 1-based; 0 = all.
    std::string extras;        ///< leftover tokens, space-joined.
    std::string error;         ///< set when the reference is bad.
};

/**
 * Request lines of a manifest by parseManifest's line rule: trimmed,
 * blank lines skipped, and `#` starting a comment only as a line's
 * first non-blank character — so a `#` inside a value (an id, a CSV
 * path) survives, in a stored manifest exactly as registration
 * checked it, and in a reference's own override tokens.
 */
std::vector<std::string>
storedRequestLines(const std::string &manifest)
{
    std::vector<std::string> lines;
    for (const std::string &raw : str::split(manifest, '\n')) {
        std::string line = str::trim(raw);
        if (!line.empty() && line.front() != '#')
            lines.push_back(std::move(line));
    }
    return lines;
}

/**
 * Scan @p body for a `suite=` reference. The body is treated as one
 * token stream (a suite-referencing request is a single logical
 * line); `suite=` and `line=` tokens are consumed, everything else
 * becomes override tokens appended after the stored manifest text —
 * the CommandLine last-wins rule turns them into overrides.
 */
SuiteRef
parseSuiteReference(const std::string &body)
{
    SuiteRef ref;
    for (const std::string &line : storedRequestLines(body)) {
        std::istringstream tokens(line);
        std::string token;
        while (tokens >> token) {
            if (token.rfind("suite=", 0) == 0) {
                if (ref.present) {
                    ref.error = "multiple suite= references";
                    return ref;
                }
                ref.present = true;
                std::string spec = token.substr(6);
                const std::size_t at = spec.find('@');
                if (at != std::string::npos) {
                    const std::string digits = spec.substr(at + 1);
                    try {
                        ref.version = static_cast<std::uint32_t>(
                            std::stoul(digits));
                    } catch (const std::exception &) {
                        ref.error = "bad suite version `" + digits + "`";
                        return ref;
                    }
                    spec.resize(at);
                }
                ref.name = spec;
                if (ref.name.empty()) {
                    ref.error = "empty suite name";
                    return ref;
                }
            } else if (token.rfind("line=", 0) == 0) {
                const std::string digits = token.substr(5);
                try {
                    ref.line = std::stoul(digits);
                } catch (const std::exception &) {
                    ref.error = "bad line number `" + digits + "`";
                    return ref;
                }
                if (ref.line == 0) {
                    ref.error = "line= is 1-based";
                    return ref;
                }
            } else {
                if (!ref.extras.empty())
                    ref.extras += ' ';
                ref.extras += token;
            }
        }
    }
    return ref;
}

} // namespace

std::vector<std::string>
manifestLogicalLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string raw;
    while (std::getline(in, raw)) {
        const std::size_t hash = raw.find('#');
        if (hash != std::string::npos)
            raw.resize(hash);
        std::istringstream tokens(raw);
        std::string token, joined;
        while (tokens >> token) {
            if (!joined.empty())
                joined += ' ';
            joined += token;
        }
        if (!joined.empty())
            lines.push_back(std::move(joined));
    }
    return lines;
}

SuiteService::SuiteService(ServerMetrics &metrics) : metrics_(metrics) {}

store::RecoveryInfo
SuiteService::open(const store::StateStore::Config &config)
{
    if (config.dataDir.empty() || store_ != nullptr)
        return recovery_;
    store_ = std::make_unique<store::StateStore>(config);
    recovery_ = store_->open();
    return recovery_;
}

void
SuiteService::close()
{
    if (store_ != nullptr)
        store_->close(); // final snapshot + WAL compaction.
}

std::size_t
SuiteService::warmStart(engine::ScoringEngine &engine)
{
    if (store_ == nullptr)
        return 0;
    std::size_t warmed = 0;
    for (store::ScoreRecord &record : store_->scoreRecords()) {
        if (record.report.rows.empty())
            continue; // history-only: nothing servable.
        engine::CachedResult cached;
        cached.report = std::move(record.report);
        cached.recommendedK =
            static_cast<std::size_t>(record.recommendedK);
        engine.cache().put(record.fingerprint, std::move(cached));
        ++warmed;
    }
    return warmed;
}

ClusterRoute
SuiteService::routeFor(const RequestContext &ctx,
                       const std::string &suite, bool isWrite) const
{
    static const std::string kEmpty;
    if (cluster_ == nullptr || suite.empty() ||
        !ctx.http.header("x-hiermeans-forwarded", kEmpty).empty())
        return ClusterRoute{}; // Local.
    return cluster_->routeSuite(suite, isWrite);
}

std::optional<store::SuiteVersion>
SuiteService::resolveAnywhere(const std::string &name,
                              std::uint32_t version) const
{
    if (store_ != nullptr) {
        std::optional<store::SuiteVersion> local =
            store_->resolveSuite(name, version);
        if (local.has_value())
            return local;
    }
    if (cluster_ != nullptr)
        return cluster_->replicaSuite(name, version);
    return std::nullopt;
}

SuiteService::Expansion
SuiteService::expand(const RequestContext &ctx, const std::string &body)
{
    // A `suite=` reference expands to the stored manifest before any
    // parsing: the whole document, or one line of it with line=<n>,
    // override tokens appended to every line (the CommandLine
    // last-wins rule turns them into overrides).
    Expansion out;
    out.text = body;
    const SuiteRef ref = parseSuiteReference(out.text);
    if (!ref.present)
        return out;
    if (!ref.error.empty()) {
        metrics_.malformed.inc();
        out.response = errorResponse(ApiError::BadRequest, ref.error,
                                     ctx.traceId);
        return out;
    }
    const ClusterRoute route = routeFor(ctx, ref.name, true);
    if (route.action != ClusterRoute::Action::Local) {
        out.response = cluster_->relay(ctx, route);
        return out;
    }
    if (store_ == nullptr) {
        out.response = errorResponse(
            ApiError::StoreDisabled,
            "suite references need a durable store "
            "(start hmserved with --data-dir)",
            ctx.traceId);
        return out;
    }
    const std::optional<store::SuiteVersion> stored =
        resolveAnywhere(ref.name, ref.version);
    if (!stored.has_value()) {
        out.response = errorResponse(
            ApiError::SuiteUnknown,
            "no registered suite `" + ref.name + "`" +
                (ref.version != 0
                     ? " at version " + std::to_string(ref.version)
                     : ""),
            ctx.traceId);
        return out;
    }
    out.suite = ref.name;
    out.suiteVersion = stored->version;
    std::vector<std::string> stored_lines =
        storedRequestLines(stored->manifest);
    if (ref.line > stored_lines.size()) {
        metrics_.malformed.inc();
        out.response = errorResponse(
            ApiError::BadRequest,
            "suite `" + ref.name + "` has " +
                std::to_string(stored_lines.size()) +
                " lines; line=" + std::to_string(ref.line) +
                " is out of range",
            ctx.traceId);
        return out;
    }
    if (ref.line != 0)
        stored_lines = {stored_lines[ref.line - 1]};
    out.text.clear();
    for (const std::string &stored_line : stored_lines) {
        out.text += stored_line;
        if (!ref.extras.empty())
            out.text += " " + ref.extras;
        out.text += "\n";
    }
    return out;
}

HttpResponse
SuiteService::handleSuiteRegister(const RequestContext &ctx)
{
    const std::string name = ctx.http.queryParam("name", "");
    if (name.empty()) {
        metrics_.malformed.inc();
        return errorResponse(ApiError::BadRequest,
                             "missing `name` query parameter",
                             ctx.traceId);
    }
    for (const char c : name) {
        const bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                        c == '.' || c == '_' || c == '-';
        if (!ok) {
            metrics_.malformed.inc();
            return errorResponse(
                ApiError::BadRequest,
                "suite names are [A-Za-z0-9._-]+, got `" + name + "`",
                ctx.traceId);
        }
    }
    const ClusterRoute route = routeFor(ctx, name, true);
    if (route.action != ClusterRoute::Action::Local)
        return cluster_->relay(ctx, route);
    if (store_ == nullptr)
        return errorResponse(ApiError::StoreDisabled,
                             "no durable store (start hmserved with "
                             "--data-dir)",
                             ctx.traceId);

    // A binary body is a BatchManifest frame; decode it to manifest
    // text so registration is codec-agnostic from here down.
    std::string manifest = ctx.http.body;
    if (ctx.binaryBody) {
        try {
            manifest = wire::BatchView(ctx.http.body).manifestText();
        } catch (const Error &e) {
            metrics_.malformed.inc();
            return errorResponse(ApiError::BadRequest, e.what(),
                                 ctx.traceId);
        }
    }

    // Syntax-check the manifest now so junk is never registered;
    // semantic problems (missing CSVs) stay scoring-time concerns.
    std::vector<engine::ManifestLine> lines;
    try {
        lines = engine::parseManifest(manifest);
    } catch (const Error &e) {
        metrics_.malformed.inc();
        return errorResponse(ApiError::InvalidManifest, e.what(),
                             ctx.traceId);
    }
    if (lines.empty()) {
        metrics_.malformed.inc();
        return errorResponse(ApiError::InvalidManifest,
                             "manifest has no requests", ctx.traceId);
    }

    // `version=` pins the registration: an existing version with an
    // identical payload is an idempotent no-op, a differing payload
    // is refused 409 (versions are immutable), a gap past latest+1
    // is a 400. Absent (or 0) keeps append-next semantics.
    std::uint64_t requested_version = 0;
    const std::string version_param = ctx.http.queryParam("version", "");
    if (!version_param.empty()) {
        std::size_t consumed = 0;
        unsigned long long parsed = 0;
        try {
            parsed = std::stoull(version_param, &consumed);
        } catch (const std::exception &) {
            consumed = 0;
        }
        if (consumed != version_param.size()) {
            metrics_.malformed.inc();
            return errorResponse(ApiError::BadRequest,
                                 "version must be a non-negative "
                                 "integer, got `" +
                                     version_param + "`",
                                 ctx.traceId);
        }
        requested_version = parsed;
    }

    try {
        const store::StateStore::RegisterOutcome outcome =
            store_->registerSuiteVersion(name, manifest,
                                         requested_version);
        if (outcome.conflict) {
            metrics_.malformed.inc();
            return errorResponse(
                ApiError::SuiteVersionConflict,
                "suite `" + name + "` version " +
                    std::to_string(requested_version) +
                    " already exists with a different manifest; "
                    "versions are immutable — register the next "
                    "version instead",
                ctx.traceId);
        }
        if (outcome.gap) {
            metrics_.malformed.inc();
            return errorResponse(
                ApiError::BadRequest,
                "suite `" + name + "` version " +
                    std::to_string(requested_version) +
                    " would leave a gap (latest is " +
                    std::to_string(outcome.version.version) + ")",
                ctx.traceId);
        }
        if (outcome.created && cluster_ != nullptr)
            cluster_->afterWrite(
                ctx.hasDeadline() ? ctx.remainingMillis() : 0.0);
        // Per-family registration counter; unknown family names land
        // in the bounded "other" slot.
        const std::string generator =
            ctx.http.queryParam("generator", "");
        if (outcome.created && !generator.empty())
            metrics_.genRegistrations[gen::familyMetricSlot(generator)]
                .inc();
        std::ostringstream data;
        data << "{\"name\":" << json::quote(name)
             << ",\"version\":" << outcome.version.version
             << ",\"sequence\":" << outcome.version.sequence
             << ",\"lines\":" << lines.size() << ",\"created\":"
             << (outcome.created ? "true" : "false") << "}";
        return okResponse(data.str(), ctx.traceId);
    } catch (const Error &e) {
        // The WAL refused: the registration is not durable, so it is
        // not acknowledged.
        return errorResponse(ApiError::Internal, e.what(), ctx.traceId);
    }
}

HttpResponse
SuiteService::handleSuiteList(const RequestContext &ctx)
{
    if (store_ == nullptr)
        return errorResponse(ApiError::StoreDisabled,
                             "no durable store (start hmserved with "
                             "--data-dir)",
                             ctx.traceId);
    std::size_t limit = 0;
    if (auto bad = parseListLimit(ctx, kMaxListLimit, limit))
        return std::move(*bad);
    std::vector<store::Suite> all = store_->suites();
    const std::size_t total = all.size();
    if (all.size() > limit)
        all.resize(limit);
    std::ostringstream data;
    data << "{\"count\":" << total << ",\"suites\":[";
    bool first_suite = true;
    for (const store::Suite &suite : all) {
        if (!first_suite)
            data << ",";
        first_suite = false;
        data << "{\"name\":" << json::quote(suite.name)
             << ",\"latest\":" << suite.versions.back().version
             << ",\"versions\":[";
        for (std::size_t i = 0; i < suite.versions.size(); ++i) {
            const store::SuiteVersion &version = suite.versions[i];
            if (i > 0)
                data << ",";
            data << "{\"version\":" << version.version
                 << ",\"sequence\":" << version.sequence
                 << ",\"lines\":"
                 << manifestLogicalLines(version.manifest).size()
                 << "}";
        }
        data << "]}";
    }
    data << "]}";
    return okResponse(data.str(), ctx.traceId);
}

HttpResponse
SuiteService::handleHistory(const RequestContext &ctx)
{
    if (store_ == nullptr)
        return errorResponse(ApiError::StoreDisabled,
                             "no durable store (start hmserved with "
                             "--data-dir)",
                             ctx.traceId);
    // `suite=` selects a registered suite's ring; omitted (or empty)
    // reads the ad-hoc ring of non-suite scores.
    const std::string suite = ctx.http.queryParam("suite", "");
    const ClusterRoute route = routeFor(ctx, suite, false);
    if (route.action != ClusterRoute::Action::Local)
        return cluster_->relay(ctx, route);
    std::vector<store::HistoryEntry> entries = store_->history(suite);
    if (!suite.empty()) {
        const bool known_locally =
            store_->resolveSuite(suite).has_value();
        const bool known_replica =
            cluster_ != nullptr &&
            cluster_->replicaSuite(suite, 0).has_value();
        if (!known_locally && !known_replica && entries.empty())
            return errorResponse(ApiError::SuiteUnknown,
                                 "no registered suite `" + suite + "`",
                                 ctx.traceId);
        if (known_replica) {
            // A promoted node answers for its dead leader: the
            // leader's acknowledged history (its sequence space, from
            // the replica mirror) first, our post-promotion entries
            // after.
            std::vector<store::HistoryEntry> merged =
                cluster_->replicaHistory(suite);
            merged.insert(merged.end(), entries.begin(), entries.end());
            entries = std::move(merged);
        }
    }
    // `?limit=` keeps the newest N entries (shared bound with
    // /v1/traces and /v1/drift).
    std::size_t limit = 0;
    if (auto bad = parseListLimit(ctx, kMaxListLimit, limit))
        return std::move(*bad);
    if (entries.size() > limit)
        entries.erase(entries.begin(),
                      entries.end() - static_cast<std::ptrdiff_t>(limit));

    std::ostringstream data;
    data << "{\"suite\":" << json::quote(suite)
         << ",\"count\":" << entries.size() << ",\"entries\":[";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const store::HistoryEntry &entry = entries[i];
        if (i > 0)
            data << ",";
        data << "{\"sequence\":" << entry.sequence
             << ",\"id\":" << json::quote(entry.id)
             << ",\"suite_version\":" << entry.suiteVersion
             << ",\"fingerprint\":\"" << std::hex << entry.fingerprint
             << std::dec << "\""
             << ",\"recommended_k\":" << entry.recommendedK
             << ",\"ratio\":" << json::number(entry.ratio)
             << ",\"plain_ratio\":" << json::number(entry.plainRatio)
             << ",\"wall_ms\":" << json::number(entry.wallMillis)
             << "}";
    }
    data << "]}";
    return okResponse(data.str(), ctx.traceId);
}

HttpResponse
SuiteService::handleSnapshot(const RequestContext &ctx)
{
    if (store_ == nullptr)
        return errorResponse(ApiError::StoreDisabled,
                             "no durable store (start hmserved with "
                             "--data-dir)",
                             ctx.traceId);
    try {
        const std::uint64_t sequence = store_->snapshotNow();
        std::ostringstream data;
        data << "{\"sequence\":" << sequence << "}";
        return okResponse(data.str(), ctx.traceId);
    } catch (const Error &e) {
        return errorResponse(ApiError::Internal, e.what(), ctx.traceId);
    }
}

HttpResponse
SuiteService::handleObserve(const RequestContext &ctx,
                            const std::string &suite)
{
    if (suite.empty()) {
        metrics_.malformed.inc();
        return errorResponse(ApiError::BadRequest,
                             "observe needs a suite name in the path",
                             ctx.traceId);
    }
    const ClusterRoute route = routeFor(ctx, suite, true);
    if (route.action != ClusterRoute::Action::Local)
        return cluster_->relay(ctx, route);
    if (store_ == nullptr)
        return errorResponse(ApiError::StoreDisabled,
                             "no durable store (start hmserved with "
                             "--data-dir)",
                             ctx.traceId);
    const std::optional<store::SuiteVersion> stored =
        resolveAnywhere(suite, 0);
    if (!stored.has_value())
        return errorResponse(ApiError::SuiteUnknown,
                             "no registered suite `" + suite + "`",
                             ctx.traceId);

    // Decode the intake from whichever wire format carried it; the
    // rest of the handler consumes the struct, not the codec.
    wire::Observation observation;
    if (ctx.binaryBody) {
        try {
            observation = wire::decodeObservation(ctx.http.body);
        } catch (const Error &e) {
            metrics_.malformed.inc();
            return errorResponse(ApiError::BadRequest, e.what(),
                                 ctx.traceId);
        }
    } else if (!observationFromJson(ctx.http.body, observation)) {
        metrics_.malformed.inc();
        return errorResponse(
            ApiError::BadRequest,
            "observe body needs a positive numeric `ratio`",
            ctx.traceId);
    }
    if (!(observation.ratio > 0.0)) {
        metrics_.malformed.inc();
        return errorResponse(
            ApiError::BadRequest,
            "observe body needs a positive numeric `ratio`",
            ctx.traceId);
    }
    const double plain_ratio = observation.hasPlain
                                   ? observation.plainRatio
                                   : observation.ratio;
    const std::string id =
        observation.id.empty() ? "observe" : observation.id;

    store::ScoreRecord record; // empty report = history-only entry.
    record.suite = suite;
    record.suiteVersion = stored->version;
    record.id = id;
    record.fingerprint = store::crc32(
        suite + "\n" + id + "\n" + json::number(observation.ratio) +
        "\n" + json::number(plain_ratio));
    record.ratio = observation.ratio;
    record.plainRatio = plain_ratio;
    if (!store_->recordScore(std::move(record)))
        return errorResponse(ApiError::Internal,
                             "observation not persisted (WAL append "
                             "failed)",
                             ctx.traceId);
    if (cluster_ != nullptr)
        cluster_->afterWrite(
            ctx.hasDeadline() ? ctx.remainingMillis() : 0.0);

    const std::vector<store::HistoryEntry> entries =
        store_->history(suite);
    std::ostringstream data;
    data << "{\"suite\":" << json::quote(suite)
         << ",\"sequence\":" << store_->lastSequence()
         << ",\"ratio\":" << json::number(observation.ratio)
         << ",\"plain_ratio\":" << json::number(plain_ratio)
         << ",\"history\":" << entries.size() << "}";
    return okResponse(data.str(), ctx.traceId);
}

void
SuiteService::persistScore(const engine::ScoreResult &result,
                           const std::string &suite,
                           std::uint32_t suiteVersion,
                           double budget_millis)
{
    // Only pipeline executions are recorded: a cache/dedupe answer is
    // a replay of a score already in the history, and re-appending it
    // would duplicate ring entries on every retry.
    if (store_ == nullptr || !result.ok || result.cacheHit ||
        result.deduped)
        return;
    store::ScoreRecord record;
    record.suite = suite;
    record.suiteVersion = suiteVersion;
    record.id = result.id;
    record.fingerprint = result.fingerprint;
    record.recommendedK = result.recommendedK;
    record.ratio =
        result.report.rows[result.report.recommendedRow()].ratio;
    record.plainRatio = result.report.plainRatio;
    record.wallMillis = result.wallMillis;
    record.report = result.report;
    if (store_->recordScore(std::move(record)) && cluster_ != nullptr)
        cluster_->afterWrite(budget_millis);
}

} // namespace server
} // namespace hiermeans
