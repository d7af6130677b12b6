/**
 * @file
 * Umbrella header for the hiermeans library.
 *
 * hiermeans reproduces "Hierarchical Means: Single Number Benchmarking
 * with Workload Cluster Analysis" (Yoo, Lee, Lee, Chow — IISWC 2007):
 * benchmark-suite scores that cancel workload redundancy by averaging
 * hierarchically over clusters discovered with a self-organizing map
 * and agglomerative clustering.
 *
 * Typical use:
 * @code
 *   using namespace hiermeans;
 *   auto vectors = core::characterizeRaw(measurements, names, features);
 *   auto analysis = core::analyzeClusters(vectors, core::PipelineConfig{});
 *   auto report = core::scoreAgainstClusters(
 *       analysis, stats::MeanKind::Geometric, scoresA, scoresB);
 *   std::cout << report.render("A", "B");
 * @endcode
 */

#ifndef HIERMEANS_HIERMEANS_H
#define HIERMEANS_HIERMEANS_H

// util
#include "src/util/cli.h"
#include "src/util/csv.h"
#include "src/util/error.h"
#include "src/util/fault.h"
#include "src/util/file.h"
#include "src/util/log.h"
#include "src/util/net.h"
#include "src/util/rng.h"
#include "src/util/signal.h"
#include "src/util/str.h"
#include "src/util/text_table.h"
#include "src/util/version.h"

// obs — tracing + Prometheus metrics exposition
#include "src/obs/prometheus.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

// linalg
#include "src/linalg/distance.h"
#include "src/linalg/eigen.h"
#include "src/linalg/matrix.h"
#include "src/linalg/pca.h"
#include "src/linalg/standardize.h"
#include "src/linalg/vector.h"

// stats
#include "src/stats/bootstrap.h"
#include "src/stats/correlation.h"
#include "src/stats/descriptive.h"
#include "src/stats/means.h"

// scoring — the paper's contribution
#include "src/scoring/hierarchical_mean.h"
#include "src/scoring/partition.h"
#include "src/scoring/score_report.h"
#include "src/scoring/score_table.h"
#include "src/scoring/sensitivity.h"

// som
#include "src/som/kernel.h"
#include "src/som/render.h"
#include "src/som/schedule.h"
#include "src/som/som.h"
#include "src/som/topology.h"
#include "src/som/umatrix.h"

// cluster
#include "src/cluster/agglomerative.h"
#include "src/cluster/dendrogram.h"
#include "src/cluster/gap_statistic.h"
#include "src/cluster/kmeans.h"
#include "src/cluster/linkage.h"
#include "src/cluster/render.h"
#include "src/cluster/validity.h"

// workload substrate
#include "src/workload/execution_model.h"
#include "src/workload/machine.h"
#include "src/workload/method_profile.h"
#include "src/workload/mica_features.h"
#include "src/workload/paper_data.h"
#include "src/workload/sar_counters.h"
#include "src/workload/suite.h"
#include "src/workload/workload_profile.h"

// core pipeline
#include "src/core/case_study.h"
#include "src/core/characterization.h"
#include "src/core/consensus.h"
#include "src/core/csv_io.h"
#include "src/core/pipeline.h"
#include "src/core/recommendation.h"
#include "src/core/redundancy.h"
#include "src/core/report.h"
#include "src/core/subsetting.h"

// engine — concurrent scoring service core
#include "src/engine/engine.h"
#include "src/engine/fingerprint.h"
#include "src/engine/manifest.h"
#include "src/engine/metrics.h"
#include "src/engine/result_cache.h"
#include "src/engine/thread_pool.h"

// store — durable state: WAL + snapshots, suites, score history
#include "src/store/record.h"
#include "src/store/snapshot.h"
#include "src/store/state.h"
#include "src/store/store.h"
#include "src/store/wal.h"

// wire — negotiated binary framing for the /v1 API surface
#include "src/wire/wire.h"

// drift — streaming suites: online re-clustering + drift detection
#include "src/drift/detector.h"
#include "src/drift/monitor.h"
#include "src/drift/online_som.h"

// gen — deterministic synthetic workload-family generators
#include "src/gen/family.h"
#include "src/gen/manifest.h"
#include "src/gen/observe.h"
#include "src/gen/registry.h"

// server — HTTP serving layer over the engine
#include "src/server/admission.h"
#include "src/server/api.h"
#include "src/server/client.h"
#include "src/server/cluster.h"
#include "src/server/http.h"
#include "src/server/json.h"
#include "src/server/resilience.h"
#include "src/server/router.h"
#include "src/server/server.h"
#include "src/server/server_metrics.h"
#include "src/server/suite_service.h"
#include "src/server/transport.h"
#include "src/server/wire_json.h"

// mesh — multi-node cluster: ring sharding + WAL replication
#include "src/mesh/config.h"
#include "src/mesh/ring.h"
#include "src/mesh/runtime.h"

// client — resilient front door (retries, failure taxonomy)
#include "src/client/cluster_client.h"
#include "src/client/retry.h"
#include "src/client/scoring_client.h"

#endif // HIERMEANS_HIERMEANS_H
