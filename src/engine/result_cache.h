/**
 * @file
 * Thread-safe LRU cache from request fingerprints to pipeline results.
 *
 * The expensive half of a scoring request — SOM training plus the
 * dendrogram — depends only on (features, config, seed), and suite
 * studies re-score the same data under hundreds of config/machine
 * combinations. The cache keeps recently-computed `ScoreReport`s
 * behind the 64-bit content fingerprint, bounded both by entry count
 * and by an estimate of resident bytes; the least recently used entry
 * is evicted when either bound is exceeded.
 */

#ifndef HIERMEANS_ENGINE_RESULT_CACHE_H
#define HIERMEANS_ENGINE_RESULT_CACHE_H

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "src/core/pipeline.h"
#include "src/scoring/score_report.h"

namespace hiermeans {
namespace engine {

/** A cached pipeline result: the report and its recommended k. */
struct CachedResult
{
    scoring::ScoreReport report;
    /**
     * The cluster analysis behind the report. The engine never sets it:
     * its entries, like the ones warm start rebuilds from the WAL, are
     * report-only. perfbench's traced replay stores its analyses here,
     * and estimateBytes() counts them.
     */
    std::shared_ptr<const core::ClusterAnalysis> analysis;
    /** Cluster count of the report's recommended row. */
    std::size_t recommendedK = 0;
};

/**
 * Resident-size estimate of a cached result in bytes: the report rows
 * and their partition labels, plus, when an analysis is attached, its
 * vectors, the trained map (weights and its copy of the training
 * data), BMUs, grid positions, merges and partitions. Used for the
 * byte bound; allocator overhead and spare capacity are left out.
 */
std::size_t estimateBytes(const CachedResult &result);

/** A bounded, thread-safe LRU map fingerprint -> CachedResult. */
class ResultCache
{
  public:
    struct Config
    {
        /** Maximum number of entries (>= 1). */
        std::size_t maxEntries = 256;
        /** Maximum total estimated bytes across entries. */
        std::size_t maxBytes = 64ull * 1024 * 1024;
    };

    /** Cumulative counters (monotonic since construction). */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t insertions = 0;
        std::uint64_t evictions = 0;
    };

    /** Cache with the default bounds. */
    ResultCache() : ResultCache(Config{}) {}

    explicit ResultCache(Config config);

    /**
     * Look up @p fingerprint; a hit promotes the entry to
     * most-recently-used and returns a copy of the cached result.
     */
    std::optional<CachedResult> get(std::uint64_t fingerprint);

    /**
     * Insert (or overwrite) the entry for @p fingerprint, then evict
     * LRU entries until both bounds hold. A result estimated larger
     * than maxBytes is dropped immediately (never resident).
     */
    void put(std::uint64_t fingerprint, CachedResult result);

    /** Remove every entry (counters are preserved). */
    void clear();

    /** Current entry count. */
    std::size_t size() const;

    /** Current total estimated bytes. */
    std::size_t byteEstimate() const;

    /** Snapshot of the cumulative counters. */
    Stats stats() const;

  private:
    struct Entry
    {
        std::uint64_t fingerprint = 0;
        CachedResult result;
        std::size_t bytes = 0;
    };

    void evictUntilBounded(); // requires mutex_ held.

    Config config_;
    mutable std::mutex mutex_;
    std::list<Entry> lru_; ///< front = most recently used.
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
    std::size_t totalBytes_ = 0;
    Stats stats_;
};

} // namespace engine
} // namespace hiermeans

#endif // HIERMEANS_ENGINE_RESULT_CACHE_H
