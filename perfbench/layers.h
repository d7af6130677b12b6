/**
 * @file
 * The traced run's layer breakdown. The benchmark replays requests
 * through the same public calls the daemon's request path makes —
 * HTTP parse, wire decode, suite expansion, manifest build,
 * fingerprint, result cache, the pipeline stages, the WAL append and
 * the response encode — in its own process, with a span around every
 * call. The daemon is left untouched: only its existing
 * `engine.queue` trace spans are read back over /v1/trace.
 *
 * Spans carry a name, start, end, parent and request id; they are
 * kept in memory and written out once, at the end of the run. A
 * span's self time is its duration minus the part its children cover.
 */

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "requests.h"
#include "src/engine/result_cache.h"
#include "src/store/store.h"

namespace perfbench {

/** The @p q quantile of @p values, linearly interpolated; 0 when
 *  empty. */
double percentile(std::vector<double> values, double q);

/** One recorded span. */
struct SpanRecord
{
    std::string name;
    std::size_t parent = static_cast<std::size_t>(-1);
    std::uint64_t request = 0;
    std::int64_t startNanos = 0;
    std::int64_t endNanos = 0;
};

/** In-memory span log of one run. */
class SpanLog
{
  public:
    SpanLog();

    /** Open a span; returns its index. */
    std::size_t begin(const std::string &name, std::size_t parent,
                      std::uint64_t request);
    void end(std::size_t index);

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /** Self time of every span, in nanoseconds, in span order. */
    std::vector<std::int64_t> selfNanos() const;

    /** Write every span as one JSON object per line. */
    void write(const std::string &path) const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    std::vector<SpanRecord> spans_;
};

/** Per-layer aggregate over the root spans' requests. */
struct LayerStat
{
    std::size_t calls = 0;
    double selfP50Millis = 0.0;
    double selfTotalMillis = 0.0;
};

/**
 * Aggregate @p log by span name (roots excluded), and the summed wall
 * time of the root spans named @p root.
 */
std::map<std::string, LayerStat> layerStats(const SpanLog &log,
                                            const std::string &root,
                                            double &rootTotalMillis);

/**
 * The daemon's scoring path rebuilt from the program's public calls,
 * with its own durable store and result cache configured like
 * hmserved's defaults.
 */
class LayerReplay
{
  public:
    LayerReplay(const Suite &suite, const Workload &workload,
                const std::string &storeDir);

    /** Replay @p request under a root span ("request") in @p log and
     *  return the documents it answers with. */
    std::vector<hiermeans::wire::ScoreDocument>
    replay(const Request &request, SpanLog &log, std::uint64_t id);

  private:
    const Suite &suite_;
    const Workload &workload_;
    hiermeans::store::StateStore store_;
    hiermeans::engine::CsvCache csvs_;
    hiermeans::engine::ResultCache cache_;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
