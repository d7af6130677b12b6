#include "src/engine/result_cache.h"

#include <string>
#include <vector>

#include "src/util/error.h"

namespace hiermeans {
namespace engine {

namespace {

std::size_t
matrixBytes(const linalg::Matrix &matrix)
{
    return matrix.rows() * matrix.cols() * sizeof(double);
}

std::size_t
namesBytes(const std::vector<std::string> &names)
{
    std::size_t bytes = 0;
    for (const std::string &name : names)
        bytes += sizeof(name) + name.size();
    return bytes;
}

} // namespace

std::size_t
estimateBytes(const CachedResult &result)
{
    std::size_t bytes = sizeof(CachedResult);
    for (const auto &row : result.report.rows)
        bytes += sizeof(row) + row.partition.size() * sizeof(std::size_t);
    if (!result.analysis)
        return bytes;

    const core::ClusterAnalysis &a = *result.analysis;
    bytes += sizeof(a) + matrixBytes(a.vectors.features) +
             namesBytes(a.vectors.workloadNames) +
             namesBytes(a.vectors.featureNames);
    // The trained map keeps its own copy of the data it trained on.
    bytes += matrixBytes(a.map.trainingData()) + matrixBytes(a.map.weights());
    bytes += a.bmus.size() * sizeof(std::size_t) +
             matrixBytes(a.gridPositions) +
             a.dendrogram.merges().size() * sizeof(cluster::Merge);
    for (const auto &partition : a.partitions)
        bytes += sizeof(partition) + partition.size() * sizeof(std::size_t);
    return bytes;
}

ResultCache::ResultCache(Config config) : config_(config)
{
    HM_REQUIRE(config_.maxEntries >= 1,
               "ResultCache: maxEntries must be >= 1");
}

std::optional<CachedResult>
ResultCache::get(std::uint64_t fingerprint)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(fingerprint);
    if (it == index_.end()) {
        ++stats_.misses;
        return std::nullopt;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second); // promote to MRU.
    return it->second->result;
}

void
ResultCache::put(std::uint64_t fingerprint, CachedResult result)
{
    const std::size_t bytes = estimateBytes(result);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.insertions;

    const auto it = index_.find(fingerprint);
    if (it != index_.end()) {
        totalBytes_ -= it->second->bytes;
        lru_.erase(it->second);
        index_.erase(it);
    }
    if (bytes > config_.maxBytes)
        return; // would never fit; treat as an immediate eviction.

    lru_.push_front(Entry{fingerprint, std::move(result), bytes});
    index_[fingerprint] = lru_.begin();
    totalBytes_ += bytes;
    evictUntilBounded();
}

void
ResultCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    lru_.clear();
    index_.clear();
    totalBytes_ = 0;
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
}

std::size_t
ResultCache::byteEstimate() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return totalBytes_;
}

ResultCache::Stats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
ResultCache::evictUntilBounded()
{
    while (lru_.size() > config_.maxEntries ||
           totalBytes_ > config_.maxBytes) {
        const Entry &victim = lru_.back();
        totalBytes_ -= victim.bytes;
        index_.erase(victim.fingerprint);
        lru_.pop_back();
        ++stats_.evictions;
    }
}

} // namespace engine
} // namespace hiermeans
