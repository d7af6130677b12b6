#include "requests.h"

#include <bit>
#include <cmath>
#include <filesystem>

#include "src/core/characterization.h"
#include "src/core/pipeline.h"
#include "src/engine/engine.h"
#include "src/gen/manifest.h"
#include "src/gen/registry.h"
#include "src/scoring/score_report.h"
#include "src/server/json.h"
#include "src/server/suite_service.h"
#include "src/server/wire_json.h"
#include "src/util/error.h"
#include "src/util/file.h"

namespace perfbench {

using namespace hiermeans;

namespace {

// Open-loop rates, in requests/s; a request carries 1.7 documents on
// average (every tenth is an 8-line batch). On a 4-core x86-64 VM with
// hmserved --threads=2 the parent commit serves about 300 docs/s on
// miss_large, so 75 requests/s load it to about 0.4: at half load the
// median sits where requests start to queue behind batches and jumps
// between runs. hit_mix serves about 24k docs/s over its two
// connections; at 2500 requests/s (about a sixth) a host stall delays
// a few requests instead of queueing a burst behind it.
const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = [] {
        Workload hit;
        hit.name = "hit_mix";
        hit.workloads = 32;
        hit.clusters = 4;
        hit.somSteps = "2000";
        hit.repeatKeys = true;
        hit.rate = 2500.0;

        Workload large;
        large.name = "miss_large";
        large.workloads = 160;
        large.clusters = 8;
        large.rate = 75.0;
        return std::vector<Workload>{hit, large};
    }();
    return all;
}

/** The @p k-th hit_mix key seed (below 2^62, like stream seeds). */
std::uint64_t
keySeed(std::uint64_t seed, std::size_t k)
{
    return derive(seed, 100 + k) >> 2;
}

} // namespace

const Workload &
workloadByName(const std::string &name)
{
    for (const Workload &workload : workloads())
        if (workload.name == name)
            return workload;
    HM_REQUIRE(false, "unknown workload `" << name
                                           << "` (hit_mix, miss_large)");
    return workloads().front(); // unreachable
}

std::uint64_t
derive(std::uint64_t seed, std::uint64_t stream)
{
    Rng rng(seed ^ (stream * 0xD1B54A32D192ED03ull));
    rng.next();
    return rng.next();
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t
Rng::below(std::size_t n)
{
    return static_cast<std::size_t>(next() % n);
}

Suite
prepareSuite(const Workload &workload, std::uint64_t seed,
             const std::string &dir)
{
    gen::FamilyConfig config =
        gen::defaultConfig(gen::FamilyKind::BigData, derive(seed, 1));
    config.workloads = workload.workloads;
    config.clusters = workload.clusters;
    config.machines = kMachines;
    config.name = "bench." + workload.name;
    const gen::GeneratedSuite generated = gen::generateSuite(config);

    std::filesystem::create_directories(dir);
    const std::string abs = std::filesystem::absolute(dir).string();
    const gen::SuiteArtifacts artifacts =
        gen::renderArtifacts(generated, abs);
    util::writeFile(abs + "/scores.csv", artifacts.scoresCsv);
    util::writeFile(abs + "/features.csv", artifacts.featuresCsv);

    Suite suite;
    suite.name = generated.name;
    suite.manifestText = artifacts.manifestText;
    suite.lines = artifacts.manifestLines;
    HM_REQUIRE(suite.lines.size() == kLines,
               "suite has " << suite.lines.size() << " lines, expected "
                            << kLines);
    return suite;
}

Request
Request::otherFormat() const
{
    Request other = *this;
    switch (shape) {
    case Shape::ScoreBinary: other.shape = Shape::ScoreText; break;
    case Shape::ScoreText: other.shape = Shape::ScoreBinary; break;
    case Shape::BatchBinary: other.shape = Shape::BatchText; break;
    case Shape::BatchText: other.shape = Shape::BatchBinary; break;
    }
    return other;
}

std::string
Request::overrides(const Workload &workload) const
{
    std::string text = " seed=" + std::to_string(seed);
    if (!workload.somSteps.empty())
        text += " som-steps=" + workload.somSteps;
    return text;
}

std::string
Request::manifestText(const Suite &suite, const Workload &workload) const
{
    std::string text = "suite=" + suite.name;
    if (!batch())
        text += " line=" + std::to_string(line);
    return text + overrides(workload);
}

std::string
Request::body(const Suite &suite, const Workload &workload) const
{
    const std::string text = manifestText(suite, workload);
    switch (shape) {
    case Shape::ScoreBinary: return wire::encodeScoreRequest(text);
    case Shape::BatchBinary: return wire::encodeBatchManifest({text});
    default: return text;
    }
}

const char *
Request::target() const
{
    return batch() ? "/v1/batch" : "/v1/score";
}

const char *
Request::contentType() const
{
    return binary() ? wire::kMediaType : "text/plain";
}

const char *
Request::accept() const
{
    return binary() ? wire::kMediaType : "";
}

std::vector<std::string>
Request::expandedLines(const Suite &suite, const Workload &workload) const
{
    // The override tokens follow the stored line, exactly as the
    // daemon's suite expansion appends them (last value wins).
    const std::string extras = overrides(workload);
    std::vector<std::string> out;
    for (std::size_t i = 0; i < suite.lines.size(); ++i)
        if (batch() || i + 1 == line)
            out.push_back(suite.lines[i] + extras);
    return out;
}

RequestStream::RequestStream(const Workload &workload, std::uint64_t seed,
                             unsigned slice)
    : workload_(workload),
      // 22 bits of workload seed, 8 of slice, 32 of counter: disjoint
      // per slice and below 2^62, so every seed prints as an int64.
      seedBase_(((derive(seed, 2) & 0x3FFFFFull) << 40) |
                (static_cast<std::uint64_t>(slice & 0xFF) << 32)),
      rng_(derive(seed, 1000 + slice))
{
    for (std::size_t k = 0; k < kKeySeeds; ++k)
        keySeeds_.push_back(keySeed(seed, k));
}

Request
RequestStream::next()
{
    // Every tenth request is a batch; the rest alternate between the
    // binary and the text /v1/score, and batches alternate likewise.
    const std::uint64_t i = count_++;
    Request request;
    if (i % 10 == 9)
        request.shape = (i / 10) % 2 == 0 ? Shape::BatchBinary
                                          : Shape::BatchText;
    else
        request.shape = i % 2 == 0 ? Shape::ScoreBinary : Shape::ScoreText;
    request.line = 1 + rng_.below(kLines);
    request.seed = workload_.repeatKeys
                       ? keySeeds_[rng_.below(kKeySeeds)]
                       : seedBase_ + i;
    return request;
}

std::vector<Request>
keyRequests(const Workload &workload, std::uint64_t seed)
{
    HM_REQUIRE(workload.repeatKeys,
               workload.name << " has no key set to warm");
    std::vector<Request> out;
    for (std::size_t k = 0; k < kKeySeeds; ++k)
        for (std::size_t line = 1; line <= kLines; ++line) {
            Request request;
            request.shape = Shape::ScoreText;
            request.line = line;
            request.seed = keySeed(seed, k);
            out.push_back(request);
        }
    return out;
}

namespace {

/** The `data` object of a JSON envelope; throws on an error one. */
std::string
envelopeData(const std::string &envelope)
{
    static const std::string kOk = "{\"ok\":true,\"data\":";
    HM_REQUIRE(envelope.rfind(kOk, 0) == 0,
               "error envelope: " << envelope.substr(0, 200));
    const std::size_t end = envelope.rfind(",\"error\":null");
    HM_REQUIRE(end != std::string::npos && end > kOk.size(),
               "malformed envelope: " << envelope.substr(0, 200));
    return envelope.substr(kOk.size(), end - kOk.size());
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

} // namespace

std::vector<wire::ScoreDocument>
decodeAnswer(const Request &request, const std::string &body)
{
    std::vector<wire::ScoreDocument> docs;
    switch (request.shape) {
    case Shape::ScoreBinary:
        docs.push_back(wire::decodeScoreReport(body));
        break;
    case Shape::ScoreText:
        docs.push_back(server::scoreDocumentFromJson(envelopeData(body)));
        break;
    case Shape::BatchBinary: {
        wire::FrameReader reader(body);
        wire::Frame frame;
        while (reader.next(frame)) {
            wire::BatchItem item = wire::decodeBatchItem(frame);
            HM_REQUIRE(item.ok, "batch line " << item.line << " failed: "
                                              << item.errorCode << " "
                                              << item.error);
            docs.push_back(std::move(item.doc));
        }
        HM_REQUIRE(!reader.sawCorruption(),
                   "corrupt batch stream: " << reader.corruption());
        break;
    }
    case Shape::BatchText:
        for (const std::string &line : server::manifestLogicalLines(body))
            docs.push_back(
                server::scoreDocumentFromJson(envelopeData(line)));
        break;
    }
    HM_REQUIRE(docs.size() == request.docs(),
               "answer has " << docs.size() << " documents, expected "
                             << request.docs());
    return docs;
}

wire::ScoreDocument
documentFor(const std::string &id, std::uint64_t fingerprint,
            const scoring::ScoreReport &report)
{
    const scoring::ScoreReportRow &recommended =
        report.rows[report.recommendedRow()];
    wire::ScoreDocument doc;
    doc.id = id;
    doc.fingerprint = fingerprint;
    doc.recommendedK = recommended.clusterCount;
    doc.ratio = recommended.ratio;
    doc.plainRatio = report.plainRatio;
    for (const scoring::ScoreReportRow &row : report.rows)
        doc.rows.push_back(wire::ScoreRow{
            static_cast<std::uint32_t>(row.clusterCount), row.scoreA,
            row.scoreB, row.ratio});
    return doc;
}

std::vector<wire::ScoreDocument>
referenceAnswer(const Request &request, const Suite &suite,
                const Workload &workload, engine::CsvCache &csvs)
{
    static const util::CommandLine kDefaults =
        util::CommandLine::parse({"hmserved"});
    std::vector<wire::ScoreDocument> docs;
    for (const std::string &text : request.expandedLines(suite, workload)) {
        const std::vector<engine::ManifestLine> lines =
            engine::parseManifest(text);
        HM_REQUIRE(lines.size() == 1, "expanded request is not one line");
        const engine::ScoreRequest built =
            engine::buildManifestRequest(lines.front(), kDefaults, csvs);
        core::PipelineConfig config = built.config;
        config.som.seed = built.seed;
        const core::CharacteristicVectors vectors = core::characterizeRaw(
            built.features, built.workloads, built.featureNames);
        const core::ClusterAnalysis analysis =
            core::analyzeClusters(vectors, config);
        const scoring::ScoreReport report = scoring::buildScoreReport(
            built.kind, built.scoresA, built.scoresB, analysis.partitions);
        docs.push_back(documentFor(
            built.id, engine::fingerprintRequest(built), report));
    }
    return docs;
}

bool
sameDocuments(const std::vector<wire::ScoreDocument> &a,
              const std::vector<wire::ScoreDocument> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const wire::ScoreDocument &x = a[i];
        const wire::ScoreDocument &y = b[i];
        if (x.id != y.id || x.fingerprint != y.fingerprint ||
            x.recommendedK != y.recommendedK || !sameBits(x.ratio, y.ratio) ||
            !sameBits(x.plainRatio, y.plainRatio) ||
            x.rows.size() != y.rows.size())
            return false;
        for (std::size_t r = 0; r < x.rows.size(); ++r) {
            const wire::ScoreRow &p = x.rows[r];
            const wire::ScoreRow &q = y.rows[r];
            if (p.k != q.k || !sameBits(p.scoreA, q.scoreA) ||
                !sameBits(p.scoreB, q.scoreB) || !sameBits(p.ratio, q.ratio))
                return false;
        }
    }
    return true;
}

} // namespace perfbench
