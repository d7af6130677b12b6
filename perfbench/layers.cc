#include "layers.h"

#include <algorithm>
#include <fstream>
#include <memory>

#include "src/core/characterization.h"
#include "src/core/pipeline.h"
#include "src/engine/engine.h"
#include "src/server/api.h"
#include "src/server/http.h"
#include "src/server/json.h"
#include "src/server/suite_service.h"
#include "src/server/wire_json.h"
#include "src/util/error.h"

namespace perfbench {

using namespace hiermeans;

namespace {

constexpr std::size_t kRoot = static_cast<std::size_t>(-1);

/** Closes a span when the scope ends. */
class Scoped
{
  public:
    Scoped(SpanLog &log, const char *name, std::size_t parent,
           std::uint64_t request)
        : log_(log), index_(log.begin(name, parent, request))
    {}
    ~Scoped() { log_.end(index_); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    std::size_t index() const { return index_; }

  private:
    SpanLog &log_;
    std::size_t index_;
};

/** The request bytes server::HttpClient puts on the wire. */
std::string
rawRequest(const Request &request, const std::string &body)
{
    std::string raw = std::string("POST ") + request.target() +
                      " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
    if (*request.accept() != '\0')
        raw += std::string("Accept: ") + request.accept() + "\r\n";
    raw += std::string("Content-Type: ") + request.contentType() + "\r\n";
    raw += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
    return raw + body;
}

store::StateStore::Config
storeConfig(const std::string &dir)
{
    store::StateStore::Config config; // hmserved's defaults.
    config.dataDir = dir;
    return config;
}

} // namespace

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double at = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(at);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) *
                            (at - static_cast<double>(lo));
}

SpanLog::SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

std::size_t
SpanLog::begin(const std::string &name, std::size_t parent,
               std::uint64_t request)
{
    SpanRecord span;
    span.name = name;
    span.parent = parent;
    span.request = request;
    span.startNanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - epoch_)
                          .count();
    spans_.push_back(std::move(span));
    return spans_.size() - 1;
}

void
SpanLog::end(std::size_t index)
{
    spans_[index].endNanos =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count();
}

std::vector<std::int64_t>
SpanLog::selfNanos() const
{
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent != kRoot)
            children[spans_[i].parent].push_back(i);

    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &span = spans_[i];
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<std::int64_t, std::int64_t>> covered;
        for (std::size_t c : children[i])
            covered.emplace_back(
                std::max(spans_[c].startNanos, span.startNanos),
                std::min(spans_[c].endNanos, span.endNanos));
        std::sort(covered.begin(), covered.end());
        std::int64_t busy = 0;
        std::int64_t reach = span.startNanos;
        for (const auto &[start, end] : covered) {
            const std::int64_t from = std::max(start, reach);
            if (end > from) {
                busy += end - from;
                reach = end;
            }
        }
        self[i] = span.endNanos - span.startNanos - busy;
    }
    return self;
}

void
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &span = spans_[i];
        out << "{\"id\":" << i << ",\"request\":" << span.request
            << ",\"name\":" << server::json::quote(span.name)
            << ",\"parent\":";
        if (span.parent == kRoot)
            out << "null";
        else
            out << span.parent;
        out << ",\"start_ns\":" << span.startNanos
            << ",\"end_ns\":" << span.endNanos << "}\n";
    }
    HM_REQUIRE(out.good(), "cannot write spans to " << path);
}

std::map<std::string, LayerStat>
layerStats(const SpanLog &log, const std::string &root,
           double &rootTotalMillis)
{
    const std::vector<std::int64_t> self = log.selfNanos();
    std::map<std::string, std::vector<double>> samples;
    rootTotalMillis = 0.0;
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
        const SpanRecord &span = log.spans()[i];
        if (span.name == root) {
            rootTotalMillis +=
                static_cast<double>(span.endNanos - span.startNanos) / 1e6;
            continue;
        }
        samples[span.name].push_back(static_cast<double>(self[i]) / 1e6);
    }
    std::map<std::string, LayerStat> out;
    for (const auto &[name, values] : samples) {
        LayerStat &stat = out[name];
        stat.calls = values.size();
        stat.selfP50Millis = percentile(values, 0.5);
        for (double v : values)
            stat.selfTotalMillis += v;
    }
    return out;
}

LayerReplay::LayerReplay(const Suite &suite, const Workload &workload,
                         const std::string &storeDir)
    : suite_(suite), workload_(workload), store_(storeConfig(storeDir))
{
    store_.open();
    store_.registerSuite(suite.name, suite.manifestText);
}

std::vector<wire::ScoreDocument>
LayerReplay::replay(const Request &request, SpanLog &log, std::uint64_t id)
{
    static const util::CommandLine kDefaults =
        util::CommandLine::parse({"hmserved"});
    const std::string raw =
        rawRequest(request, request.body(suite_, workload_));

    Scoped root(log, "request", kRoot, id);
    const std::size_t parent = root.index();

    server::HttpRequestParser parser;
    {
        Scoped span(log, "server.http_parse", parent, id);
        HM_REQUIRE(parser.feed(raw) ==
                       server::HttpRequestParser::State::Ready,
                   "replayed request did not parse");
    }
    const std::string &body = parser.request().body;

    std::string text;
    if (request.binary()) {
        Scoped span(log, "wire.decode", parent, id);
        text = request.batch() ? wire::BatchView(body).manifestText()
                               : wire::decodeScoreRequest(body);
    } else {
        text = body;
    }

    // Suite expansion: resolve the stored manifest and append the
    // override tokens to the referenced line(s).
    std::string expanded;
    std::uint32_t suiteVersion = 0;
    {
        Scoped span(log, "server.expand", parent, id);
        HM_REQUIRE(server::manifestLogicalLines(text).size() == 1,
                   "suite reference spans several lines");
        const std::optional<store::SuiteVersion> stored =
            store_.resolveSuite(suite_.name);
        HM_REQUIRE(stored.has_value(), "suite not registered");
        suiteVersion = stored->version;
        const std::vector<std::string> lines =
            server::manifestLogicalLines(stored->manifest);
        const std::string extras = request.overrides(workload_);
        for (std::size_t i = 0; i < lines.size(); ++i)
            if (request.batch() || i + 1 == request.line)
                expanded += lines[i] + extras + "\n";
    }

    std::vector<engine::ScoreRequest> built;
    {
        Scoped span(log, "engine.manifest", parent, id);
        for (const engine::ManifestLine &line :
             engine::parseManifest(expanded))
            built.push_back(
                engine::buildManifestRequest(line, kDefaults, csvs_));
    }

    std::vector<wire::ScoreDocument> docs;
    for (const engine::ScoreRequest &score : built) {
        std::uint64_t fingerprint = 0;
        {
            Scoped span(log, "engine.fingerprint", parent, id);
            fingerprint = engine::fingerprintRequest(score);
        }
        std::optional<engine::CachedResult> cached;
        {
            Scoped span(log, "engine.cache", parent, id);
            cached = cache_.get(fingerprint);
        }
        if (cached.has_value()) {
            docs.push_back(documentFor(score.id, fingerprint, cached->report));
            docs.back().servedBy = "cache";
            continue;
        }

        // The stages of core::analyzeClusters, one call per span.
        const auto started = std::chrono::steady_clock::now();
        engine::CachedResult result;
        {
            Scoped pipeline(log, "pipeline", parent, id);
            const std::size_t stage = pipeline.index();
            core::PipelineConfig config = score.config;
            config.som.seed = score.seed;
            core::CharacteristicVectors vectors;
            {
                Scoped span(log, "core.characterize", stage, id);
                vectors = core::characterizeRaw(
                    score.features, score.workloads, score.featureNames);
            }
            std::optional<som::SelfOrganizingMap> map;
            {
                Scoped span(log, "som.train", stage, id);
                map.emplace(som::SelfOrganizingMap::train(vectors.features,
                                                          config.som));
            }
            std::vector<std::size_t> bmus;
            linalg::Matrix positions;
            {
                Scoped span(log, "som.map", stage, id);
                bmus = map->bmuAll(vectors.features);
                positions = map->mapAll(vectors.features);
            }
            std::optional<cluster::Dendrogram> dendrogram;
            {
                Scoped span(log, "cluster.agglomerate", stage, id);
                dendrogram.emplace(cluster::agglomerate(
                    positions, config.linkage, config.metric));
            }
            std::vector<scoring::Partition> partitions;
            {
                Scoped span(log, "cluster.sweep", stage, id);
                partitions = dendrogram->partitionSweep(
                    config.kMin,
                    std::min(config.kMax, vectors.features.rows()));
            }
            {
                Scoped span(log, "scoring.report", stage, id);
                result.report = scoring::buildScoreReport(
                    score.kind, score.scoresA, score.scoresB, partitions);
            }
            result.recommendedK =
                result.report.rows[result.report.recommendedRow()]
                    .clusterCount;
            result.analysis = std::make_shared<const core::ClusterAnalysis>(
                core::ClusterAnalysis{std::move(vectors), std::move(*map),
                                      std::move(bmus), std::move(positions),
                                      std::move(*dendrogram),
                                      std::move(partitions)});
        }
        const double wall =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - started)
                .count();
        docs.push_back(documentFor(score.id, fingerprint, result.report));
        docs.back().servedBy = "pipeline";
        docs.back().wallMillis = wall;
        {
            Scoped span(log, "engine.cache", parent, id);
            cache_.put(fingerprint, result);
        }
        {
            Scoped span(log, "store.record_score", parent, id);
            store::ScoreRecord record;
            record.suite = suite_.name;
            record.suiteVersion = suiteVersion;
            record.id = score.id;
            record.fingerprint = fingerprint;
            record.recommendedK = result.recommendedK;
            record.ratio = docs.back().ratio;
            record.plainRatio = docs.back().plainRatio;
            record.wallMillis = wall;
            record.report = std::move(result.report);
            store_.recordScore(std::move(record));
        }
    }

    // The response as hmserved renders it: HMW1 frames, or the JSON
    // envelope (one NDJSON line per batch line).
    server::HttpResponse response;
    if (request.binary()) {
        Scoped span(log, "wire.encode", parent, id);
        response.set("Content-Type", wire::kMediaType);
        if (request.batch()) {
            for (std::size_t i = 0; i < docs.size(); ++i) {
                wire::BatchItem item;
                item.line = static_cast<std::uint32_t>(i + 1);
                item.ok = true;
                item.doc = docs[i];
                response.body += wire::encodeBatchItem(item);
            }
        } else {
            response.body = wire::encodeScoreReport(docs.front());
        }
        (void)response.serialize();
    } else {
        Scoped span(log, "server.encode", parent, id);
        if (request.batch()) {
            response.set("Content-Type", "application/x-ndjson");
            for (std::size_t i = 0; i < docs.size(); ++i)
                response.body +=
                    server::okEnvelope("{\"line\":" + std::to_string(i + 1) +
                                           "," +
                                           server::scoreDocumentJson(docs[i])
                                               .substr(1),
                                       "") +
                    "\n";
        } else {
            response = server::okResponse(
                server::scoreDocumentJson(docs.front()), "");
        }
        (void)response.serialize();
    }
    return docs;
}

} // namespace perfbench
