#include "src/cluster/dendrogram.h"

#include <algorithm>
#include <numeric>

#include "src/util/error.h"

namespace hiermeans {
namespace cluster {

namespace {

/** Union-find over leaf ids. */
class UnionFind
{
  public:
    explicit UnionFind(std::size_t n) : parent_(n)
    {
        for (std::size_t i = 0; i < n; ++i)
            parent_[i] = i;
    }

    std::size_t
    find(std::size_t x)
    {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }

    void
    unite(std::size_t a, std::size_t b)
    {
        parent_[find(a)] = find(b);
    }

    /** The current components as a (canonically labelled) partition. */
    scoring::Partition
    partition()
    {
        std::vector<std::size_t> labels(parent_.size());
        for (std::size_t i = 0; i < labels.size(); ++i)
            labels[i] = find(i);
        return scoring::Partition::fromLabels(labels);
    }

  private:
    std::vector<std::size_t> parent_;
};

/**
 * The smallest leaf under every node id (leaves, then merges in
 * order): leavesUnder(node).front() for all nodes in one pass. A merge
 * joins the components of the smallest leaves under its two sides.
 */
std::vector<std::size_t>
smallestLeaves(std::size_t num_leaves, const std::vector<Merge> &merges)
{
    std::vector<std::size_t> out(num_leaves + merges.size());
    std::iota(out.begin(), out.begin() + num_leaves, 0);
    for (std::size_t m = 0; m < merges.size(); ++m)
        out[num_leaves + m] =
            std::min(out[merges[m].left], out[merges[m].right]);
    return out;
}

} // namespace

Dendrogram::Dendrogram(std::size_t num_leaves, std::vector<Merge> merges)
    : numLeaves_(num_leaves), merges_(std::move(merges))
{
    HM_REQUIRE(numLeaves_ >= 1, "Dendrogram: no leaves");
    HM_REQUIRE(merges_.size() == numLeaves_ - 1,
               "Dendrogram: " << numLeaves_ << " leaves need "
                              << numLeaves_ - 1 << " merges, got "
                              << merges_.size());
    std::vector<bool> consumed(numLeaves_ + merges_.size(), false);
    for (std::size_t m = 0; m < merges_.size(); ++m) {
        const Merge &merge = merges_[m];
        const std::size_t new_id = numLeaves_ + m;
        HM_REQUIRE(merge.left < new_id && merge.right < new_id,
                   "Dendrogram: merge " << m << " references node ids "
                                        << merge.left << "/" << merge.right
                                        << " not yet created");
        HM_REQUIRE(merge.left != merge.right,
                   "Dendrogram: merge " << m << " merges a node with "
                                           "itself");
        HM_REQUIRE(!consumed[merge.left] && !consumed[merge.right],
                   "Dendrogram: merge " << m << " reuses a consumed node");
        HM_REQUIRE(merge.height >= 0.0, "Dendrogram: negative height");
        consumed[merge.left] = true;
        consumed[merge.right] = true;
    }
}

std::vector<double>
Dendrogram::heights() const
{
    std::vector<double> out;
    out.reserve(merges_.size());
    for (const Merge &m : merges_)
        out.push_back(m.height);
    return out;
}

bool
Dendrogram::heightsMonotone() const
{
    for (std::size_t i = 1; i < merges_.size(); ++i) {
        if (merges_[i].height < merges_[i - 1].height - 1e-12)
            return false;
    }
    return true;
}

std::vector<std::size_t>
Dendrogram::leavesUnder(std::size_t node) const
{
    HM_REQUIRE(node < numLeaves_ + merges_.size(),
               "leavesUnder: node " << node << " out of range");
    if (node < numLeaves_)
        return {node};
    std::vector<std::size_t> out;
    std::vector<std::size_t> stack = {node};
    while (!stack.empty()) {
        const std::size_t current = stack.back();
        stack.pop_back();
        if (current < numLeaves_) {
            out.push_back(current);
            continue;
        }
        const Merge &m = merges_[current - numLeaves_];
        stack.push_back(m.left);
        stack.push_back(m.right);
    }
    std::sort(out.begin(), out.end());
    return out;
}

scoring::Partition
Dendrogram::cutAtCount(std::size_t k) const
{
    HM_REQUIRE(k >= 1 && k <= numLeaves_,
               "cutAtCount: k " << k << " outside [1, " << numLeaves_
                                << "]");
    return partitionSweep(k, k).front();
}

scoring::Partition
Dendrogram::cutAtDistance(double distance) const
{
    const std::vector<std::size_t> leaf = smallestLeaves(numLeaves_, merges_);
    UnionFind uf(numLeaves_);
    for (const Merge &m : merges_) {
        if (m.height > distance)
            continue;
        uf.unite(leaf[m.left], leaf[m.right]);
    }
    return uf.partition();
}

std::size_t
Dendrogram::clusterCountAtDistance(double distance) const
{
    return cutAtDistance(distance).clusterCount();
}

std::vector<scoring::Partition>
Dendrogram::partitionSweep(std::size_t k_min, std::size_t k_max) const
{
    k_min = std::max<std::size_t>(k_min, 1);
    k_max = std::min(k_max, numLeaves_);
    HM_REQUIRE(k_min <= k_max, "partitionSweep: empty range [" << k_min
                                                               << ", "
                                                               << k_max
                                                               << "]");
    // One pass over the merges: k clusters remain once the first
    // numLeaves_ - k are applied, so walk k downwards.
    const std::vector<std::size_t> leaf = smallestLeaves(numLeaves_, merges_);
    UnionFind uf(numLeaves_);
    std::size_t applied = 0;
    std::vector<scoring::Partition> out;
    out.reserve(k_max - k_min + 1);
    for (std::size_t k = k_max; k >= k_min; --k) {
        for (; applied < numLeaves_ - k; ++applied)
            uf.unite(leaf[merges_[applied].left],
                     leaf[merges_[applied].right]);
        out.push_back(uf.partition());
    }
    std::reverse(out.begin(), out.end());
    return out;
}

linalg::Matrix
Dendrogram::copheneticDistances() const
{
    linalg::Matrix out(numLeaves_, numLeaves_, 0.0);
    for (const Merge &m : merges_) {
        const std::vector<std::size_t> left = leavesUnder(m.left);
        const std::vector<std::size_t> right = leavesUnder(m.right);
        for (std::size_t a : left) {
            for (std::size_t b : right) {
                out(a, b) = m.height;
                out(b, a) = m.height;
            }
        }
    }
    return out;
}

} // namespace cluster
} // namespace hiermeans
