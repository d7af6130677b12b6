/**
 * @file
 * hmscore — hierarchical-means scoring for user benchmark data.
 *
 * Reads per-workload scores and characteristic vectors from CSV files,
 * runs the SOM + hierarchical-clustering pipeline, and prints the
 * hierarchical-mean score table, the SOM map, the dendrogram and the
 * cluster-count recommendation. Results can be exported back to CSV.
 *
 * Usage:
 *   hmscore --scores=scores.csv --features=features.csv \
 *           --machine-a=X --machine-b=Y \
 *           [--mean=gm|am|hm] [--kmin=2] [--kmax=8] [--linkage=complete]
 *           [--som-rows=8] [--som-cols=10] [--som-steps=4000]
 *           [--seed=N] [--out-csv=report.csv] [--quiet]
 *           [--all-machines] [--influence]
 *
 * With --all-machines the A/B comparison is replaced by an N-machine
 * hierarchical-mean table over every machine column in scores.csv;
 * --influence appends the leave-one-out influence of each workload.
 *
 * CSV formats (header row required, workload name first):
 *   scores.csv:   workload,X,Y,...    positive scores per machine
 *   features.csv: workload,f1,f2,...  raw characteristic values
 */

#include <fstream>
#include <iostream>
#include <memory>

#include "src/hiermeans.h"

namespace {

using namespace hiermeans;
using util::readFile;

util::FlagSet
flagSpec()
{
    util::FlagSet flags(
        "hmscore", "score a benchmark suite with hierarchical means");
    flags.section("required flags")
        .flag("scores", "FILE",
              "CSV: workload,<machine>,... (positive)")
        .flag("features", "FILE", "CSV: workload,<feature>,...")
        .flag("machine-a", "NAME", "first machine column to compare")
        .flag("machine-b", "NAME",
              "second machine column to compare\n"
              "(or --all-machines to compare every column at once)");
    flags.section("optional flags")
        .flag("mean", "gm|am|hm", "mean family (default gm)")
        .flag("kmin", "N", "cluster-count sweep start (default 2)")
        .flag("kmax", "N", "cluster-count sweep end (default 8)")
        .flag("linkage", "NAME",
              "single|complete|average|weighted|ward")
        .flag("som-rows", "N", "SOM rows (default: auto-sized)")
        .flag("som-cols", "N", "SOM columns (default: auto-sized)")
        .flag("som-steps", "N", "SOM training steps (default 4000)")
        .flag("seed", "N", "RNG seed (default 0x5eed)")
        .flag("out-csv", "FILE", "also write the report as CSV")
        .flag("all-machines", "", "N-machine table instead of A/B")
        .flag("influence", "", "leave-one-out workload influence")
        .flag("partition", "FILE",
              "score against a fixed reference cluster\n"
              "distribution (workload,cluster CSV) instead of\n"
              "clustering; --features is then optional")
        .flag("out-partition", "F",
              "save the recommended partition as the\n"
              "reference cluster distribution")
        .flag("quiet", "", "print only the score table");
    flags.tracing().standard();
    return flags;
}

int
run(const util::CommandLine &cl)
{
    const std::string scores_path = cl.getString("scores", "");
    const std::string features_path = cl.getString("features", "");
    const std::string machine_a = cl.getString("machine-a", "");
    const std::string machine_b = cl.getString("machine-b", "");
    const std::string partition_path = cl.getString("partition", "");
    const bool all_machines = cl.getBool("all-machines", false);
    if (scores_path.empty() ||
        (features_path.empty() && partition_path.empty()) ||
        (!all_machines && (machine_a.empty() || machine_b.empty()))) {
        std::cerr << flagSpec().usage();
        return 2;
    }

    const core::ScoresCsv scores =
        core::parseScoresCsv(readFile(scores_path));

    // Reference-partition mode: the committee's published clusters
    // replace the whole characterization/clustering pipeline.
    if (!partition_path.empty()) {
        const scoring::Partition reference = core::parsePartitionCsv(
            readFile(partition_path), scores.workloads);
        const stats::MeanKind kind =
            stats::parseMeanKind(cl.getString("mean", "gm"));
        std::cout << "reference cluster distribution ("
                  << reference.clusterCount() << " clusters):\n  "
                  << reference.toString(scores.workloads) << "\n\n";
        if (all_machines) {
            std::vector<std::vector<double>> machine_scores;
            for (const std::string &machine : scores.machines)
                machine_scores.push_back(
                    scores.machineScores(machine));
            const scoring::MultiMachineReport report =
                scoring::buildMultiMachineReport(
                    kind, machine_scores, scores.machines,
                    {reference});
            std::cout << report.render();
        } else {
            const scoring::ScoreReport report =
                scoring::buildScoreReport(
                    kind, scores.machineScores(machine_a),
                    scores.machineScores(machine_b), {reference});
            std::cout << report.render(machine_a, machine_b);
        }
        return 0;
    }

    const core::FeaturesCsv features =
        core::parseFeaturesCsv(readFile(features_path));
    core::requireAlignedWorkloads(scores, features);

    // In A/B mode, resolve the two columns up front so typos fail fast.
    const std::vector<double> scores_a =
        all_machines ? std::vector<double>{}
                     : scores.machineScores(machine_a);
    const std::vector<double> scores_b =
        all_machines ? std::vector<double>{}
                     : scores.machineScores(machine_b);

    core::PipelineConfig config;
    config.kMin = static_cast<std::size_t>(cl.getInt("kmin", 2));
    config.kMax = static_cast<std::size_t>(cl.getInt("kmax", 8));
    config.linkage =
        cluster::parseLinkage(cl.getString("linkage", "complete"));
    config.autoSizeSom(scores.workloads.size());
    if (cl.has("som-rows")) {
        config.som.rows =
            static_cast<std::size_t>(cl.getInt("som-rows", 8));
    }
    if (cl.has("som-cols")) {
        config.som.cols =
            static_cast<std::size_t>(cl.getInt("som-cols", 10));
    }
    config.som.steps =
        static_cast<std::size_t>(cl.getInt("som-steps", 4000));
    config.som.seed =
        static_cast<std::uint64_t>(cl.getInt("seed", 0x5eed));
    const stats::MeanKind kind =
        stats::parseMeanKind(cl.getString("mean", "gm"));

    // With --trace armed, the pipeline stages below record spans into
    // a local trace whose tree is printed after the report.
    obs::Tracer::instance().configure(
        obs::traceConfigFromCommandLine(cl));
    std::shared_ptr<obs::Trace> trace;
    std::size_t trace_root = obs::kNoParent;
    if (obs::tracingEnabled()) {
        trace = obs::Tracer::instance().start(obs::generateTraceId());
        trace_root = trace->begin("hmscore.run");
    }
    obs::ScopedTraceContext trace_context(trace.get(), trace_root);

    const core::CharacteristicVectors vectors = core::characterizeRaw(
        features.values, features.workloads, features.features);
    const core::ClusterAnalysis analysis =
        core::analyzeClusters(vectors, config);

    const bool quiet = cl.getBool("quiet", false);
    if (!quiet) {
        std::cout << analysis.renderMap("Workload distribution") << "\n";
        std::cout << cluster::renderVerticalDendrogram(
                         analysis.dendrogram, features.workloads,
                         "Cluster hierarchy")
                  << "\n";
    }

    scoring::Partition recommended_partition =
        scoring::Partition::single(scores.workloads.size());
    if (all_machines) {
        std::vector<std::vector<double>> machine_scores;
        for (const std::string &machine : scores.machines)
            machine_scores.push_back(scores.machineScores(machine));
        const scoring::MultiMachineReport report =
            scoring::buildMultiMachineReport(kind, machine_scores,
                                             scores.machines,
                                             analysis.partitions);
        std::cout << report.render() << "\n";
        std::cout << (report.rankingStable()
                          ? "machine ranking is stable across every "
                            "cluster count.\n"
                          : "machine ranking CHANGES with the cluster "
                            "count - inspect before publishing a "
                            "single number.\n");
        recommended_partition = analysis.partitions.front();
    } else {
        const scoring::ScoreReport report = core::scoreAgainstClusters(
            analysis, kind, scores_a, scores_b);
        const auto recommendation =
            core::recommendClusterCount(analysis, report);
        std::cout << report.render(machine_a, machine_b) << "\n";
        std::cout << recommendation.explain() << "\n";
        recommended_partition = analysis.dendrogram.cutAtCount(
            recommendation.recommended);
        std::cout << "partition at recommended k:\n  "
                  << recommended_partition.toString(features.workloads)
                  << "\n";

        const std::string out_csv = cl.getString("out-csv", "");
        if (!out_csv.empty()) {
            std::ofstream out(out_csv, std::ios::binary);
            HM_REQUIRE(out.good(), "cannot write `" << out_csv << "`");
            out << core::scoreReportToCsv(report, machine_a, machine_b);
            std::cout << "report written to " << out_csv << "\n";
        }
    }

    const std::string out_partition = cl.getString("out-partition", "");
    if (!out_partition.empty()) {
        std::ofstream out(out_partition, std::ios::binary);
        HM_REQUIRE(out.good(), "cannot write `" << out_partition
                                                << "`");
        out << core::partitionToCsv(recommended_partition,
                                    scores.workloads);
        std::cout << "reference cluster distribution written to "
                  << out_partition << "\n";
    }

    if (cl.getBool("influence", false)) {
        const std::vector<double> &basis =
            all_machines ? scores.machineScores(scores.machines.front())
                         : scores_a;
        const auto influences = scoring::leaveOneOutInfluence(
            kind, basis, recommended_partition);
        std::cout << "\nleave-one-out influence ("
                  << (all_machines ? scores.machines.front() : machine_a)
                  << ", plain vs hierarchical):\n";
        util::TextTable table({"workload", "plain %", "hierarchical %"});
        for (const auto &inf : influences) {
            table.addRow(
                {features.workloads[inf.workload],
                 str::fixed(100.0 * inf.plainInfluence, 2),
                 str::fixed(100.0 * inf.hierarchicalInfluence, 2)});
        }
        std::cout << table.render();
    }

    if (trace) {
        trace->end(trace_root);
        std::cout << "\n"
                  << obs::renderSpanTree(trace->id(), trace->spans());
        obs::Tracer::instance().finish(std::move(trace));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const auto cl = util::CommandLine::parse(argc, argv);
        if (flagSpec().handleStandard(cl, std::cout))
            return 0;
        return run(cl);
    } catch (const hiermeans::Error &e) {
        std::cerr << "hmscore: " << e.what() << "\n";
        return 1;
    }
}
