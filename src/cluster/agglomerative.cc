#include "src/cluster/agglomerative.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "src/util/error.h"

namespace hiermeans {
namespace cluster {

namespace {

/** Distances this close count as a tie in the closest-pair scan. */
constexpr double kTieTolerance = 1e-15;

/**
 * The closest-pair scan: slot c of @p work starts as the cluster with
 * node id node_id[c] and size[c] leaves; the k-th merge it makes gets
 * id next_id + k and is appended to @p merges.
 */
void
closestPairScan(linalg::Matrix work, std::vector<std::size_t> node_id,
                std::vector<std::size_t> size, std::size_t next_id,
                Linkage linkage, std::vector<Merge> &merges)
{
    // A merged cluster reuses the smaller of its two slots; the other
    // is retired. One byte per slot: with std::vector<bool>'s bit
    // lookups this scan ran about a third slower.
    const std::size_t n = work.rows();
    std::vector<char> alive(n, 1);

    for (std::size_t step = 0; step + 1 < n; ++step) {
        // Find the closest live pair; ties resolved by smallest node
        // ids for determinism.
        double best = std::numeric_limits<double>::infinity();
        std::size_t bi = 0, bj = 0;
        bool found = false;
        for (std::size_t i = 0; i < n; ++i) {
            if (!alive[i])
                continue;
            for (std::size_t j = i + 1; j < n; ++j) {
                if (!alive[j])
                    continue;
                const double d = work(i, j);
                if (d < best - kTieTolerance) {
                    best = d;
                    bi = i;
                    bj = j;
                    found = true;
                } else if (found && std::abs(d - best) <= kTieTolerance) {
                    const auto current =
                        std::minmax(node_id[i], node_id[j]);
                    const auto incumbent =
                        std::minmax(node_id[bi], node_id[bj]);
                    if (current < incumbent) {
                        bi = i;
                        bj = j;
                    }
                }
            }
        }
        HM_ASSERT(found, "agglomerate: no live pair found");

        Merge merge;
        merge.left = std::min(node_id[bi], node_id[bj]);
        merge.right = std::max(node_id[bi], node_id[bj]);
        merge.height = best;
        merge.size = size[bi] + size[bj];
        merges.push_back(merge);

        // Update distances from every other live cluster to bi (the
        // surviving slot) via Lance-Williams, then retire bj.
        for (std::size_t k = 0; k < n; ++k) {
            if (!alive[k] || k == bi || k == bj)
                continue;
            const LanceWilliams lw =
                lanceWilliams(linkage, size[bi], size[bj], size[k]);
            const double d = updateDistance(lw, work(k, bi), work(k, bj),
                                            work(bi, bj));
            work(k, bi) = d;
            work(bi, k) = d;
        }
        size[bi] += size[bj];
        alive[bj] = 0;
        node_id[bi] = next_id + step;
    }
}

/**
 * The zero-height collapse (DESIGN.md §7). The full scan first merges
 * the repeats of each row at height 0, smallest node-id pair first,
 * leaving each group in the slot of its smallest leaf; under complete,
 * single and weighted linkage every other distance it holds meanwhile
 * is unchanged, so the rest of the scan is the scan over one
 * representative per group. Emits the zero-height merges directly and
 * scans only the representatives. Returns nullopt, for the full scan,
 * where the two could differ or no row repeats.
 */
std::optional<Dendrogram>
collapseRepeats(const linalg::Matrix &points, Linkage linkage,
                linalg::Metric metric)
{
    const std::size_t n = points.rows();
    const std::size_t dims = points.cols();
    const bool exact_update = linkage == Linkage::Complete ||
                              linkage == Linkage::Single ||
                              linkage == Linkage::Weighted;
    if (!exact_update || metric == linalg::Metric::Cosine)
        return std::nullopt;
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < dims; ++c)
            if (!std::isfinite(points(r, c)))
                return std::nullopt;

    // Group equal rows, numbered by their smallest leaf. Each group
    // holds its live nodes as the scan would: a queue of ascending ids,
    // since a new node's id is the largest yet.
    struct Group
    {
        std::vector<std::size_t> id, size;
        std::size_t head = 0; ///< first live node.
    };
    const auto row_less = [&](std::size_t a, std::size_t b) {
        return std::lexicographical_compare(
            points.rowData(a), points.rowData(a) + dims, points.rowData(b),
            points.rowData(b) + dims);
    };
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), row_less);
    std::size_t m = 1;
    for (std::size_t i = 1; i < n; ++i)
        m += row_less(order[i - 1], order[i]) ? 1 : 0;
    if (m == n)
        return std::nullopt;
    std::vector<Group> groups;
    groups.reserve(m);
    for (std::size_t i = 0; i < n; ++i) {
        if (i == 0 || row_less(order[i - 1], order[i]))
            groups.emplace_back();
        groups.back().id.push_back(order[i]); // ascending: a stable sort.
        groups.back().size.push_back(1);
    }
    std::sort(groups.begin(), groups.end(),
              [](const Group &a, const Group &b) {
                  return a.id.front() < b.id.front();
              });

    // Representatives must be farther apart than the tie tolerance, so
    // that the scan never weighs a zero against a positive distance.
    linalg::Matrix reps(m, dims);
    for (std::size_t g = 0; g < m; ++g)
        for (std::size_t c = 0; c < dims; ++c)
            reps(g, c) = points(groups[g].id.front(), c);
    linalg::Matrix distances = linalg::pairwiseDistances(reps, metric);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = i + 1; j < m; ++j) {
            const double d = distances(i, j);
            if (!(d > kTieTolerance) || std::isinf(d))
                return std::nullopt;
        }
    }

    // The zero-height merges in scan order: the scan's smallest
    // (min, max) pair is the front two of the group whose front is
    // smallest.
    std::vector<Merge> merges;
    merges.reserve(n - 1);
    std::size_t next_id = n;
    for (std::size_t step = 0; step < n - m; ++step) {
        Group *pick = nullptr;
        for (Group &g : groups) {
            if (g.id.size() - g.head >= 2 &&
                (pick == nullptr || g.id[g.head] < pick->id[pick->head]))
                pick = &g;
        }
        HM_ASSERT(pick != nullptr, "agglomerate: no repeated row left");
        Merge merge;
        merge.left = pick->id[pick->head];
        merge.right = pick->id[pick->head + 1];
        merge.height = 0.0;
        merge.size = pick->size[pick->head] + pick->size[pick->head + 1];
        merges.push_back(merge);
        pick->id.push_back(next_id++);
        pick->size.push_back(merge.size);
        pick->head += 2;
    }

    std::vector<std::size_t> node_id, size;
    for (const Group &g : groups) {
        node_id.push_back(g.id[g.head]);
        size.push_back(g.size[g.head]);
    }
    closestPairScan(std::move(distances), std::move(node_id),
                    std::move(size), next_id, linkage, merges);
    return Dendrogram(n, std::move(merges));
}

} // namespace

Dendrogram
agglomerate(const linalg::Matrix &points, Linkage linkage,
            linalg::Metric metric)
{
    HM_REQUIRE(points.rows() >= 1, "agglomerate: no points");
    if (linkage == Linkage::Ward) {
        HM_REQUIRE(metric == linalg::Metric::Euclidean,
                   "agglomerate: ward linkage requires the Euclidean "
                   "metric");
    }
    if (std::optional<Dendrogram> collapsed =
            collapseRepeats(points, linkage, metric))
        return std::move(*collapsed);
    return agglomerateFromDistances(linalg::pairwiseDistances(points,
                                                              metric),
                                    linkage);
}

Dendrogram
agglomerateFromDistances(const linalg::Matrix &distances, Linkage linkage)
{
    const std::size_t n = distances.rows();
    HM_REQUIRE(n >= 1 && distances.cols() == n,
               "agglomerateFromDistances: matrix is " << distances.rows()
                                                      << "x"
                                                      << distances.cols());
    for (std::size_t i = 0; i < n; ++i) {
        HM_REQUIRE(distances(i, i) == 0.0,
                   "agglomerateFromDistances: nonzero diagonal at " << i);
        for (std::size_t j = i + 1; j < n; ++j) {
            HM_REQUIRE(std::abs(distances(i, j) - distances(j, i)) <= 1e-12,
                       "agglomerateFromDistances: asymmetric at (" << i
                                                                   << ", "
                                                                   << j
                                                                   << ")");
            HM_REQUIRE(distances(i, j) >= 0.0,
                       "agglomerateFromDistances: negative distance");
        }
    }

    std::vector<std::size_t> node_id(n);
    std::iota(node_id.begin(), node_id.end(), 0);
    std::vector<Merge> merges;
    merges.reserve(n - 1);
    closestPairScan(distances, std::move(node_id),
                    std::vector<std::size_t>(n, 1), n, linkage, merges);
    return Dendrogram(n, std::move(merges));
}

} // namespace cluster
} // namespace hiermeans
