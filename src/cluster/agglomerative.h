/**
 * @file
 * Agglomerative hierarchical clustering (Section III-B of the paper).
 *
 * "In the beginning, the algorithm assigns each point a cluster. At
 * each iteration the closest pair of clusters are merged to create a
 * new cluster, reducing the number of clusters by one each time. The
 * algorithm proceeds until all the points result in a single cluster."
 *
 * Cluster-to-cluster distances are maintained with the Lance-Williams
 * recurrence; ties on the minimum distance are broken by the smallest
 * (left, right) node-id pair so results are fully deterministic.
 */

#ifndef HIERMEANS_CLUSTER_AGGLOMERATIVE_H
#define HIERMEANS_CLUSTER_AGGLOMERATIVE_H

#include "src/cluster/dendrogram.h"
#include "src/cluster/linkage.h"
#include "src/linalg/distance.h"
#include "src/linalg/matrix.h"

namespace hiermeans {
namespace cluster {

/**
 * Cluster the rows of @p points. The merge list equals
 * agglomerateFromDistances(pairwiseDistances(points, metric), linkage)
 * bit for bit; where rows repeat (SOM grid positions do), complete,
 * single and weighted linkage scan only the distinct rows
 * (DESIGN.md §7).
 *
 * @param points n x d observations (n >= 1).
 * @param linkage cluster-to-cluster distance criterion.
 * @param metric point-to-point distance (the paper uses Euclidean).
 */
Dendrogram agglomerate(const linalg::Matrix &points,
                       Linkage linkage = Linkage::Complete,
                       linalg::Metric metric = linalg::Metric::Euclidean);

/**
 * Cluster from a precomputed symmetric pairwise distance matrix with a
 * zero diagonal. Useful when distances come from a non-vector source.
 */
Dendrogram agglomerateFromDistances(const linalg::Matrix &distances,
                                    Linkage linkage = Linkage::Complete);

} // namespace cluster
} // namespace hiermeans

#endif // HIERMEANS_CLUSTER_AGGLOMERATIVE_H
