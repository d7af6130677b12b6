/**
 * @file
 * The Self-Organizing Map (Section III-A of the paper).
 *
 * Maps high-dimensional characteristic vectors onto a 2-D unit grid so
 * that vectors close in the original space land on nearby units. The
 * trained map's unit positions are the reduced-dimension coordinates
 * that feed the hierarchical clustering stage.
 */

#ifndef HIERMEANS_SOM_SOM_H
#define HIERMEANS_SOM_SOM_H

#include <cstdint>
#include <vector>

#include "src/linalg/matrix.h"
#include "src/linalg/vector.h"
#include "src/som/kernel.h"
#include "src/som/schedule.h"
#include "src/som/topology.h"
#include "src/util/rng.h"

namespace hiermeans {
namespace som {

/** Weight initialization strategies. */
enum class InitKind
{
    /** Uniform random within the per-feature data range. */
    Random,
    /**
     * Sample the subspace of the two major principal components — the
     * initialization the paper describes ("usually determined by
     * sampling a subspace generated by the two major principal
     * components"). Falls back to Random for degenerate data.
     */
    Pca,
};

/** Training configuration. */
struct SomConfig
{
    std::size_t rows = 8;
    std::size_t cols = 10;
    GridKind grid = GridKind::Rectangular;
    KernelKind kernel = KernelKind::Gaussian;
    InitKind init = InitKind::Pca;
    DecayKind decay = DecayKind::Exponential;

    /** Total sequential training steps (one random sample each). */
    std::size_t steps = 5000;

    /** Learning-rate factor alpha(n): start and end values. */
    double alphaStart = 0.5;
    double alphaEnd = 0.01;

    /**
     * Neighborhood radius sigma(n). sigmaStart <= 0 selects the
     * conventional default max(rows, cols) / 2.
     */
    double sigmaStart = 0.0;
    double sigmaEnd = 0.4;

    /** Seed for initialization and sample-selection order. */
    std::uint64_t seed = 0x5eed;
};

/** A trained (or in-training) self-organizing map. */
class SelfOrganizingMap
{
  public:
    /**
     * Initialize a map for @p data (rows = observations) and train it
     * for config.steps steps. Requires at least one observation and one
     * feature.
     */
    static SelfOrganizingMap train(const linalg::Matrix &data,
                                   const SomConfig &config);

    /**
     * Initialize without training (weights only); step() can then be
     * driven manually, e.g. to observe convergence in tests.
     */
    static SelfOrganizingMap initialize(const linalg::Matrix &data,
                                        const SomConfig &config);

    /**
     * One training step: sample a random observation, update weights.
     * Builds the unit x unit grid-distance table for this step alone;
     * trainToCompletion() builds it once for all its steps.
     */
    void step();

    /** Run all remaining steps of the configured schedule. */
    void trainToCompletion();

    /**
     * One *batch* epoch (Kohonen's batch map): every unit's weight is
     * replaced by the kernel-weighted mean of all observations, with
     * weights h(unit, BMU(x)) at the given radius. Deterministic (no
     * sampling) and order-independent; several epochs with a shrinking
     * sigma refine the map. An alternative to the paper's sequential
     * rule, exposed for ablations.
     *
     * @param sigma neighborhood radius for this epoch (> 0).
     */
    void batchEpoch(double sigma);

    /**
     * Batch-train: @p epochs epochs with sigma decaying from the
     * config's sigma schedule endpoints.
     */
    void trainBatch(std::size_t epochs);

    /** Number of steps executed so far. */
    std::size_t stepsDone() const { return stepsDone_; }

    const SomConfig &config() const { return config_; }
    const GridTopology &topology() const { return topology_; }

    /** Weight vector of a unit. */
    linalg::Vector weight(std::size_t unit) const;

    /** All weights as a unitCount x dim matrix. */
    const linalg::Matrix &weights() const { return weights_; }

    /** The map's own copy of the observations it trains on. */
    const linalg::Matrix &trainingData() const { return data_; }

    /**
     * Best matching unit for @p x: the unit whose weight vector has
     * minimum Euclidean distance to x (ties broken by lowest index,
     * making the result deterministic).
     */
    std::size_t bestMatchingUnit(const linalg::Vector &x) const;

    /** Grid location of the BMU of @p x. */
    GridPoint mapToGrid(const linalg::Vector &x) const;

    /**
     * Map every row of @p data to its BMU location; the result is an
     * n x 2 matrix of (Dimension 1, Dimension 2) coordinates — the
     * reduced dimension handed to the hierarchical clustering.
     */
    linalg::Matrix mapAll(const linalg::Matrix &data) const;

    /** BMU indices for every row of @p data. */
    std::vector<std::size_t> bmuAll(const linalg::Matrix &data) const;

    /**
     * Average distance between each observation and its BMU weight
     * (quantization error; decreases as the map fits the data).
     */
    double quantizationError(const linalg::Matrix &data) const;

    /**
     * Fraction of observations whose first and second BMUs are not
     * lattice neighbors (topographic error; measures topology
     * preservation).
     */
    double topographicError(const linalg::Matrix &data) const;

  private:
    SelfOrganizingMap(const linalg::Matrix &data, const SomConfig &config);

    SomConfig config_;
    GridTopology topology_;
    linalg::Matrix data_;    ///< training observations (copied).
    linalg::Matrix weights_; ///< unitCount x dim.
    DecaySchedule alpha_;
    DecaySchedule sigma_;
    rng::Engine engine_;
    std::size_t stepsDone_ = 0;

    void initRandom();
    void initPca();
    /** bestMatchingUnit of the weights().cols() values at @p x. */
    std::size_t nearestUnit(const double *x) const;
    /** A step with @p grid_sq, the unit x unit squared grid distances. */
    void step(const std::vector<double> &grid_sq);
    /** Pull every unit toward @p x; @p grid_sq: row of the BMU. */
    void updateWeights(const double *x, const double *grid_sq, double alpha,
                       double sigma);
};

} // namespace som
} // namespace hiermeans

#endif // HIERMEANS_SOM_SOM_H
