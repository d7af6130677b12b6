/**
 * @file
 * hmbatch — batch front-end for the concurrent scoring engine.
 *
 * Reads a manifest with one scoring request per line, executes every
 * request concurrently through engine::ScoringEngine (thread pool +
 * content-addressed result cache + in-flight dedupe), and prints one
 * consolidated report plus an engine metrics summary. A bad line (a
 * missing CSV, a typo'd machine, degenerate features) fails only that
 * request; the rest of the batch completes.
 *
 * Usage:
 *   hmbatch --manifest=FILE [--threads=4] [--repeat=1]
 *           [--cache-entries=256] [--cache-mb=64]
 *           [--mean=gm] [--kmin=2] [--kmax=8] [--linkage=complete]
 *           [--seed=N] [--timeout-ms=0] [--out=FILE] [--quiet]
 *
 * Manifest format: one request per line of whitespace-separated
 * key=value tokens (`#` starts a comment, blank lines are skipped):
 *
 *   scores=data/scores.csv features=data/features.csv \
 *       machine-a=machineX machine-b=machineY
 *
 * Per-line keys: scores, features, machine-a, machine-b (required);
 * id, mean, kmin, kmax, linkage, seed, som-rows, som-cols, som-steps,
 * timeout-ms (optional — tool-level flags provide the defaults).
 */

#include <iostream>
#include <optional>

#include "src/hiermeans.h"

namespace {

using namespace hiermeans;

util::FlagSet
flagSpec()
{
    util::FlagSet flags("hmbatch",
                        "run a manifest of scoring requests through "
                        "the concurrent\nscoring engine");
    flags.section("required flags")
        .flag("manifest", "FILE",
              "one request per line (key=value tokens;\n"
              "keys: scores features machine-a machine-b\n"
              "[id mean kmin kmax linkage seed som-rows\n"
              "som-cols som-steps timeout-ms])");
    flags.section("optional flags")
        .flag("threads", "N", "engine worker threads (default 4)")
        .flag("repeat", "N",
              "run the whole manifest N times; repeats are\n"
              "served from the result cache")
        .flag("cache-entries", "N",
              "result cache entry bound (default 256)")
        .flag("cache-mb", "N", "result cache byte bound (default 64)")
        .flag("mean", "gm|am|hm", "default for lines omitting the key")
        .flag("kmin", "N", "default for lines omitting the key")
        .flag("kmax", "N", "default for lines omitting the key")
        .flag("linkage", "NAME", "default for lines omitting the key")
        .flag("seed", "N", "default for lines omitting the key")
        .flag("timeout-ms", "N", "default for lines omitting the key")
        .flag("out", "FILE",
              "also write the consolidated report there")
        .flag("quiet", "", "print only the consolidated report");
    flags.tracing().standard();
    return flags;
}

int
run(const util::CommandLine &cl)
{
    const std::string manifest_path = cl.getString("manifest", "");
    if (manifest_path.empty()) {
        std::cerr << flagSpec().usage();
        return 2;
    }
    obs::Tracer::instance().configure(
        obs::traceConfigFromCommandLine(cl));
    const auto threads =
        static_cast<std::size_t>(cl.getInt("threads", 4));
    const auto repeat = static_cast<std::size_t>(cl.getInt("repeat", 1));
    HM_REQUIRE(repeat >= 1, "--repeat must be >= 1");
    const bool quiet = cl.getBool("quiet", false);

    const std::vector<engine::ManifestLine> lines =
        engine::parseManifest(util::readFile(manifest_path));
    HM_REQUIRE(!lines.empty(),
               "manifest `" << manifest_path << "` has no requests");

    engine::ScoringEngine::Config engine_config;
    engine_config.threads = threads;
    engine_config.cache.maxEntries =
        static_cast<std::size_t>(cl.getInt("cache-entries", 256));
    engine_config.cache.maxBytes =
        static_cast<std::size_t>(cl.getInt("cache-mb", 64)) * 1024 *
        1024;
    engine::ScoringEngine engine(engine_config);

    // Build requests up front; a bad line becomes a failed result
    // without touching the engine (failure isolation starts here).
    engine::CsvCache csvs;
    std::vector<std::optional<engine::ScoreRequest>> requests;
    std::vector<engine::ScoreResult> line_errors(lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
        try {
            requests.push_back(
                engine::buildManifestRequest(lines[i], cl, csvs));
        } catch (const Error &e) {
            requests.push_back(std::nullopt);
            line_errors[i].id =
                "line" + std::to_string(lines[i].lineNumber);
            line_errors[i].error = e.what();
        }
    }

    util::TextTable table({"request", "machines", "status", "served by",
                           "k*", "ratio@k*", "plain ratio", "ms"});
    std::size_t ok_count = 0;
    std::size_t fail_count = 0;

    for (std::size_t pass = 0; pass < repeat; ++pass) {
        // Submit the full manifest, then gather in manifest order.
        std::vector<std::optional<std::future<engine::ScoreResult>>>
            futures;
        std::vector<std::string> machines;
        for (const auto &request : requests) {
            if (request) {
                machines.push_back(request->labelA + "/" +
                                   request->labelB);
                // The engine enforces only the cancel token: arm the
                // line's timeout-ms on it, counted from submission.
                engine::ScoreRequest submitted = *request;
                engine::CancelSource deadline;
                deadline.setDeadline(request->timeoutMillis);
                submitted.cancel = deadline.token();
                futures.push_back(engine.submit(std::move(submitted)));
            } else {
                machines.push_back("-");
                futures.push_back(std::nullopt);
            }
        }

        for (std::size_t i = 0; i < futures.size(); ++i) {
            const engine::ScoreResult result =
                futures[i] ? futures[i]->get() : line_errors[i];
            const bool ok = result.ok;
            ok ? ++ok_count : ++fail_count;

            std::string served_by = "pipeline";
            if (result.cacheHit)
                served_by = "cache";
            else if (result.deduped)
                served_by = "dedupe";

            table.addRow(
                {result.id, machines[i], ok ? "ok" : "FAILED",
                 ok ? served_by : "-",
                 ok ? std::to_string(result.recommendedK) : "-",
                 ok ? str::fixed(
                          result.report
                              .rows[result.report.recommendedRow()]
                              .ratio,
                          2)
                    : "-",
                 ok ? str::fixed(result.report.plainRatio, 2) : "-",
                 str::fixed(result.wallMillis, 1)});
            if (!ok && !quiet) {
                std::cerr << "hmbatch: " << result.id << " failed: "
                          << result.error << "\n";
            }
        }
        if (pass + 1 < repeat)
            table.addSeparator();
    }

    const std::string consolidated = table.render();
    std::cout << consolidated;
    std::cout << "\n" << ok_count << " ok, " << fail_count
              << " failed, " << threads << " threads, " << repeat
              << " pass(es)\n";
    if (!quiet) {
        std::cout << "\nengine metrics:\n"
                  << engine.metrics().registry().render();
    }

    const std::string out_path = cl.getString("out", "");
    if (!out_path.empty()) {
        util::writeFile(out_path, consolidated);
        std::cout << "report written to " << out_path << "\n";
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
        std::cerr << "hmbatch: " << e.what() << "\n";
        return 1;
    }
}
