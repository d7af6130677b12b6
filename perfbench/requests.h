/**
 * @file
 * The benchmark's workloads: the generated suites they score, the
 * seeded request streams that drive them, and the in-process reference
 * every sampled answer is checked against.
 *
 * Everything here is a pure function of the workload seed: the suite
 * (through src/gen, the library behind hmgen), the per-connection
 * request streams and the open-loop arrival gaps. The daemon only ever
 * sees the generated CSVs, the registered manifest and the requests.
 */

#ifndef PERFBENCH_REQUESTS_H
#define PERFBENCH_REQUESTS_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/engine/manifest.h"
#include "src/wire/wire.h"

namespace perfbench {

/** One benchmark workload (see BENCHMARK.json for why each exists). */
struct Workload
{
    std::string name;
    /** Generated suite shape: workloads and planted clusters. */
    std::size_t workloads = 32;
    std::size_t clusters = 4;
    /** `som-steps=` override sent with every request; "" keeps the
     *  150 steps of the manifest hmgen renders. */
    std::string somSteps;
    /** Requests repeat a fixed key set (the result-cache workload)
     *  instead of carrying a never-repeated seed. */
    bool repeatKeys = false;
    /** Open-loop arrival rate, requests/s over both connections;
     *  fixed, so that a slower layer shows as latency (requests.cc). */
    double rate = 100.0;
};

/** The workload named @p name; throws hiermeans::InvalidArgument. */
const Workload &workloadByName(const std::string &name);

/** Machines per generated suite, the reference included: the
 *  rendered manifest has one line per other machine, 8 in all. */
inline constexpr std::size_t kMachines = 9;
inline constexpr std::size_t kLines = kMachines - 1;

/** hit_mix key seeds: kKeySeeds x kLines = 64 distinct requests. */
inline constexpr std::size_t kKeySeeds = 8;

/** Derive an independent 64-bit value from (@p seed, @p stream). */
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream);

/** SplitMix64: the benchmark's only random source. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    /** Uniform in [0, n). */
    std::size_t below(std::size_t n);

  private:
    std::uint64_t state_;
};

/** A generated suite, written to disk and ready to register. */
struct Suite
{
    std::string name;
    std::string manifestText;
    std::vector<std::string> lines; ///< manifestText, one per line.
};

/** Generate the workload's suite from @p seed and write its CSVs
 *  into @p dir (created). The manifest names them by absolute path. */
Suite prepareSuite(const Workload &workload, std::uint64_t seed,
                   const std::string &dir);

/** The four request shapes of the traffic mix. */
enum class Shape
{
    ScoreBinary, ///< /v1/score, HMW1 body, HMW1 answer.
    ScoreText,   ///< /v1/score, manifest text body, JSON answer.
    BatchBinary, ///< /v1/batch of every suite line, HMW1 stream.
    BatchText    ///< the same batch as text, NDJSON answer.
};

/** One request of a stream. */
struct Request
{
    Shape shape = Shape::ScoreText;
    std::size_t line = 1;   ///< 1-based suite line; batches use all.
    std::uint64_t seed = 0; ///< the `seed=` override.

    bool batch() const
    {
        return shape == Shape::BatchBinary || shape == Shape::BatchText;
    }
    bool binary() const
    {
        return shape == Shape::ScoreBinary || shape == Shape::BatchBinary;
    }
    /** Scored documents the answer carries (1, or a batch's lines). */
    std::size_t docs() const { return batch() ? kLines : 1; }

    /** The same request in the other wire format. */
    Request otherFormat() const;

    /** The override tokens (` seed=S`, ` som-steps=N`). */
    std::string overrides(const Workload &workload) const;
    /** The `suite=` reference text the body carries. */
    std::string manifestText(const Suite &suite,
                             const Workload &workload) const;
    /** The body bytes as sent (text, or the HMW1 frame). */
    std::string body(const Suite &suite, const Workload &workload) const;
    const char *target() const;
    const char *contentType() const;
    /** Accept header value; "" sends none (JSON answer). */
    const char *accept() const;
    /** Every manifest line the request expands to, overrides
     *  appended — what the daemon scores. */
    std::vector<std::string> expandedLines(const Suite &suite,
                                           const Workload &workload) const;
};

/**
 * The request stream of one connection in one phase. Streams with
 * different @p slice never share a seed, so no request of one
 * connection can dedupe onto another's in-flight twin; hit_mix draws
 * from the shared 64-key set instead.
 */
class RequestStream
{
  public:
    RequestStream(const Workload &workload, std::uint64_t seed,
                  unsigned slice);
    Request next();

  private:
    const Workload &workload_;
    std::vector<std::uint64_t> keySeeds_;
    std::uint64_t seedBase_;
    Rng rng_;
    std::uint64_t count_ = 0;
};

/** The 64 hit_mix keys as single-line text requests (the warm-up). */
std::vector<Request> keyRequests(const Workload &workload,
                                 std::uint64_t seed);

/** The answer documents of one response body, in line order. Throws
 *  hiermeans::Error on an error envelope or a malformed body. */
std::vector<hiermeans::wire::ScoreDocument>
decodeAnswer(const Request &request, const std::string &body);

/**
 * Recompute what the daemon must answer for @p request in process:
 * manifest → core::characterizeRaw → core::analyzeClusters →
 * scoring::buildScoreReport, one document per expanded line.
 */
std::vector<hiermeans::wire::ScoreDocument>
referenceAnswer(const Request &request, const Suite &suite,
                const Workload &workload,
                hiermeans::engine::CsvCache &csvs);

/** The document a score result renders to (the server's mapping). */
hiermeans::wire::ScoreDocument
documentFor(const std::string &id, std::uint64_t fingerprint,
            const hiermeans::scoring::ScoreReport &report);

/** True when @p a and @p b agree bit for bit on everything but the
 *  provenance fields (served_by, wall_ms). */
bool sameDocuments(const std::vector<hiermeans::wire::ScoreDocument> &a,
                   const std::vector<hiermeans::wire::ScoreDocument> &b);

} // namespace perfbench

#endif // PERFBENCH_REQUESTS_H
