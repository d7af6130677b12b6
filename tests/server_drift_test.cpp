/**
 * The drift serving surface, end to end over loopback HTTP: the
 * /observe append path (no pipeline execution), the full lifecycle —
 * an i.i.d. stream stays `fresh` across ten re-cluster periods while
 * an injected mean shift flips the suite to `stale` within one — the
 * /v1/drift and per-suite drift endpoints, the hiermeans_drift_*
 * Prometheus family (one-hot staleness, lint-clean), warm-started
 * drift state across a daemon restart, and the periodic re-cluster
 * thread driven by Config::reclusterEverySeconds.
 */

#include <chrono>
#include <cstdio>
#include <gtest/gtest.h>
#include <memory>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "src/obs/prometheus.h"
#include "src/server/client.h"
#include "src/server/json.h"
#include "src/server/server.h"
#include "src/util/file.h"

namespace {

using namespace hiermeans;
using Response = server::HttpResponseParser::Response;

class ServerDriftTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        stem_ = "/tmp/hiermeans_server_drift_test_" +
                std::to_string(::getpid());
        dataDir_ = stem_ + "_data";
        wipeDataDir();
        scoresPath_ = stem_ + "_scores.csv";
        featuresPath_ = stem_ + "_features.csv";
        util::writeFile(scoresPath_, "workload,mA,mB\n"
                                     "w0,1.0,2.0\n"
                                     "w1,2.0,1.0\n"
                                     "w2,1.5,1.5\n"
                                     "w3,3.0,1.0\n"
                                     "w4,1.0,3.0\n"
                                     "w5,2.5,2.5\n");
        util::writeFile(featuresPath_, "workload,f0,f1,f2\n"
                                       "w0,0.1,1.0,-0.5\n"
                                       "w1,0.9,-1.0,0.5\n"
                                       "w2,0.2,0.8,-0.4\n"
                                       "w3,0.8,-0.9,0.6\n"
                                       "w4,-0.7,0.1,1.2\n"
                                       "w5,-0.6,0.2,1.1\n");
        startServer();
    }

    void
    TearDown() override
    {
        if (server_ != nullptr)
            server_->stop();
        server_.reset();
        std::remove(scoresPath_.c_str());
        std::remove(featuresPath_.c_str());
        wipeDataDir();
    }

    void
    startServer(double recluster_every = 0.0)
    {
        server::Server::Config config;
        config.port = 0;
        config.engine.threads = 2;
        config.queueDepth = 4;
        config.connectionThreads = 8;
        config.store.dataDir = dataDir_;
        config.store.fsyncEvery = 1;
        config.store.snapshotEvery = 0;
        config.reclusterEverySeconds = recluster_every;
        // A small window and a fast-settling map keep the lifecycle
        // test's observation counts modest; the stream itself is
        // deterministic, so every assertion below is exact.
        config.drift.window = 16;
        config.drift.minWindow = 8;
        config.drift.som.decaySteps = 50;
        server_ = std::make_unique<server::Server>(config);
        server_->start();
    }

    void
    restartServer()
    {
        server_->stop();
        server_.reset();
        startServer();
    }

    void
    wipeDataDir()
    {
        if (!util::fileExists(dataDir_))
            return;
        for (const std::string &name : util::listDir(dataDir_))
            util::removeFile(dataDir_ + "/" + name);
        ::rmdir(dataDir_.c_str());
    }

    std::string
    line() const
    {
        return "scores=" + scoresPath_ + " features=" + featuresPath_ +
               " machine-a=mA machine-b=mB som-steps=150";
    }

    server::HttpClient
    client() const
    {
        return server::HttpClient("127.0.0.1", server_->port());
    }

    void
    registerSuite(server::HttpClient &c, const std::string &name)
    {
        ASSERT_EQ(
            c.roundTrip("POST", "/v1/suites?name=" + name, line()).status,
            200);
    }

    static Response
    observe(server::HttpClient &c, const std::string &suite,
            double ratio, int i)
    {
        std::ostringstream body;
        body << "{\"ratio\":" << server::json::number(ratio)
             << ",\"plain_ratio\":"
             << server::json::number(ratio - 0.001 * (i % 5))
             << ",\"id\":\"obs-" << i << "\"}";
        return c.roundTrip("POST", "/v1/suites/" + suite + "/observe",
                           body.str());
    }

    /**
     * The deterministic "i.i.d." stream: four well-separated levels
     * visited round-robin with a small index-keyed jitter — a
     * stationary distribution the published clustering should keep
     * describing forever.
     */
    static double
    stationaryRatio(int i)
    {
        static const double bases[4] = {1.0, 2.0, 3.0, 4.0};
        return bases[i % 4] + 0.002 * (i % 7);
    }

    std::string stem_;
    std::string dataDir_;
    std::string scoresPath_;
    std::string featuresPath_;
    std::unique_ptr<server::Server> server_;
};

TEST_F(ServerDriftTest, ObserveAppendsHistoryWithoutThePipeline)
{
    auto c = client();
    registerSuite(c, "stream");

    const Response first = observe(c, "stream", 1.25, 1);
    ASSERT_EQ(first.status, 200) << first.body;
    EXPECT_EQ(server::json::findString(first.body, "suite"), "stream");
    EXPECT_EQ(server::json::findNumber(first.body, "history"), 1.0);
    EXPECT_EQ(server::json::findNumber(first.body, "ratio"), 1.25);

    const Response second = observe(c, "stream", 1.3, 2);
    ASSERT_EQ(second.status, 200);
    EXPECT_EQ(server::json::findNumber(second.body, "history"), 2.0);

    const Response history =
        c.roundTrip("GET", "/v1/history?suite=stream");
    ASSERT_EQ(history.status, 200);
    EXPECT_EQ(server::json::findNumber(history.body, "count"), 2.0);
    EXPECT_EQ(server_->engine().metrics().executions.value(), 0u)
        << "observations must never run the scoring pipeline";
}

TEST_F(ServerDriftTest, ObserveValidatesItsInputs)
{
    auto c = client();
    registerSuite(c, "stream");

    // Unknown suite: typed 404.
    const Response unknown =
        c.roundTrip("POST", "/v1/suites/nope/observe", "{\"ratio\":1.0}");
    EXPECT_EQ(unknown.status, 404);
    EXPECT_NE(unknown.body.find("suite_unknown"), std::string::npos);

    // Missing / non-positive ratio: 400.
    EXPECT_EQ(c.roundTrip("POST", "/v1/suites/stream/observe",
                          "{\"id\":\"x\"}")
                  .status,
              400);
    EXPECT_EQ(c.roundTrip("POST", "/v1/suites/stream/observe",
                          "{\"ratio\":-1.0}")
                  .status,
              400);
    EXPECT_EQ(c.roundTrip("POST", "/v1/suites/stream/observe",
                          "{\"ratio\":0}")
                  .status,
              400);

    // Unknown sub-path actions are a 404, not a silent fallthrough.
    EXPECT_EQ(c.roundTrip("POST", "/v1/suites/stream/bogus", "{}")
                  .status,
              404);
    EXPECT_EQ(c.roundTrip("GET", "/v1/suites/stream/bogus").status,
              404);
}

TEST_F(ServerDriftTest, UnmonitoredRegisteredSuiteReportsDefaultFresh)
{
    auto c = client();
    registerSuite(c, "idle");
    const Response report =
        c.roundTrip("GET", "/v1/suites/idle/drift");
    ASSERT_EQ(report.status, 200) << report.body;
    EXPECT_EQ(server::json::findString(report.body, "state"), "fresh");
    EXPECT_EQ(server::json::findNumber(report.body, "ticks"), 0.0);
    EXPECT_NE(report.body.find("\"published\":false"),
              std::string::npos);

    const Response unknown = c.roundTrip("GET", "/v1/suites/nope/drift");
    EXPECT_EQ(unknown.status, 404);
    EXPECT_NE(unknown.body.find("suite_unknown"), std::string::npos);

    const Response bad_tick =
        c.roundTrip("POST", "/v1/admin/recluster?suite=nope", "");
    EXPECT_EQ(bad_tick.status, 404);
}

TEST_F(ServerDriftTest, LifecycleFreshUnderIidStaleOnMeanShift)
{
    auto c = client();
    registerSuite(c, "stream");

    // Warm-up: enough stationary observations to seed the map and
    // let the schedules reach their floors.
    int sequence = 0;
    for (; sequence < 60; ++sequence)
        ASSERT_EQ(observe(c, "stream", stationaryRatio(sequence),
                          sequence)
                      .status,
                  200);

    const Response first =
        c.roundTrip("POST", "/v1/admin/recluster?suite=stream", "");
    ASSERT_EQ(first.status, 200) << first.body;
    EXPECT_EQ(server::json::findNumber(first.body, "ticked"), 1.0);
    EXPECT_EQ(server::json::findString(first.body, "state"), "fresh");
    EXPECT_NE(first.body.find("\"published\":true"), std::string::npos)
        << "the warm-up window must publish a first clustering";

    // Ten re-cluster periods of the same stationary stream: the
    // suite must stay fresh through every one of them.
    for (int period = 0; period < 10; ++period) {
        for (int i = 0; i < 2; ++i, ++sequence)
            ASSERT_EQ(observe(c, "stream", stationaryRatio(sequence),
                              sequence)
                          .status,
                      200);
        const Response tick =
            c.roundTrip("POST", "/v1/admin/recluster?suite=stream", "");
        ASSERT_EQ(tick.status, 200);
        EXPECT_EQ(server::json::findString(tick.body, "state"), "fresh")
            << "period " << period << ": " << tick.body;
    }

    const Response fresh_report =
        c.roundTrip("GET", "/v1/suites/stream/drift");
    ASSERT_EQ(fresh_report.status, 200);
    EXPECT_EQ(server::json::findNumber(fresh_report.body, "ticks"),
              11.0);
    const auto fresh_mean =
        server::json::findNumber(fresh_report.body, "published_mean");
    ASSERT_TRUE(fresh_mean.has_value());
    EXPECT_GT(*fresh_mean, 0.0);

    // The mean shift: the stream jumps to a level the published
    // clustering has never seen. One re-cluster period later the
    // suite must already be flagged stale.
    for (int i = 0; i < 20; ++i, ++sequence)
        ASSERT_EQ(observe(c, "stream", 9.0 + 0.002 * (sequence % 7),
                          sequence)
                      .status,
                  200);
    const Response shifted =
        c.roundTrip("POST", "/v1/admin/recluster?suite=stream", "");
    ASSERT_EQ(shifted.status, 200);
    EXPECT_EQ(server::json::findString(shifted.body, "state"), "stale")
        << shifted.body;
    const auto qe_ratio =
        server::json::findNumber(shifted.body, "qe_ratio");
    ASSERT_TRUE(qe_ratio.has_value());
    EXPECT_GT(*qe_ratio, 2.5) << "the QE ratio is the shift tripwire";

    // The frozen published mean still quotes the pre-shift stream.
    const Response stale_report =
        c.roundTrip("GET", "/v1/suites/stream/drift");
    EXPECT_EQ(server::json::findNumber(stale_report.body,
                                       "published_mean"),
              fresh_mean)
        << "a drifting suite must freeze its published baseline";

    // The list endpoint sees the same machine.
    const Response list = c.roundTrip("GET", "/v1/drift");
    ASSERT_EQ(list.status, 200);
    EXPECT_EQ(server::json::findNumber(list.body, "count"), 1.0);
    EXPECT_NE(list.body.find("\"stale\""), std::string::npos);

    // Prometheus: the whole drift family, one-hot staleness, lint
    // clean.
    const Response metrics = c.roundTrip("GET", "/metrics");
    ASSERT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.body.find("hiermeans_drift_suites 1"),
              std::string::npos);
    EXPECT_NE(metrics.body.find("hiermeans_drift_state{suite=\"stream\""
                                ",state=\"stale\"} 1"),
              std::string::npos)
        << metrics.body.substr(0, 3000);
    EXPECT_NE(metrics.body.find("hiermeans_drift_state{suite=\"stream\""
                                ",state=\"fresh\"} 0"),
              std::string::npos)
        << "the staleness gauge must be one-hot";
    for (const char *name : {"hiermeans_drift_churn",
                             "hiermeans_drift_stability",
                             "hiermeans_drift_qe_ratio",
                             "hiermeans_drift_published_mean",
                             "hiermeans_drift_ticks_total",
                             "hiermeans_drift_observations_total"})
        EXPECT_NE(metrics.body.find(name), std::string::npos) << name;
    for (const std::string &issue : obs::lintExposition(metrics.body))
        ADD_FAILURE() << "exposition lint: " << issue;

    // A daemon restart warm-starts the exact machine: same state,
    // same counters, bit-identical published mean.
    const auto ticks_before =
        server::json::findNumber(stale_report.body, "ticks");
    const auto observations_before =
        server::json::findNumber(stale_report.body, "observations");
    restartServer();
    auto c2 = client();
    const Response recovered =
        c2.roundTrip("GET", "/v1/suites/stream/drift");
    ASSERT_EQ(recovered.status, 200) << recovered.body;
    EXPECT_EQ(server::json::findString(recovered.body, "state"),
              "stale");
    EXPECT_EQ(server::json::findNumber(recovered.body, "ticks"),
              ticks_before);
    EXPECT_EQ(server::json::findNumber(recovered.body, "observations"),
              observations_before);
    EXPECT_EQ(server::json::findNumber(recovered.body,
                                       "published_mean"),
              fresh_mean)
        << "the recovered baseline must be bit-identical";
}

TEST_F(ServerDriftTest, ReclusterThreadTicksOnItsOwn)
{
    server_->stop();
    server_.reset();
    startServer(/*recluster_every=*/0.05);

    auto c = client();
    registerSuite(c, "auto");
    for (int i = 0; i < 12; ++i)
        ASSERT_EQ(observe(c, "auto", stationaryRatio(i), i).status, 200);

    // The background thread must tick the suite without any admin
    // call. Poll with a generous deadline; the cadence is 50ms.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    double ticks = 0.0;
    while (std::chrono::steady_clock::now() < deadline) {
        const Response report =
            c.roundTrip("GET", "/v1/suites/auto/drift");
        ASSERT_EQ(report.status, 200);
        ticks = server::json::findNumber(report.body, "ticks")
                    .value_or(0.0);
        if (ticks >= 1.0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_GE(ticks, 1.0) << "the re-cluster thread never fired";
}

TEST_F(ServerDriftTest, WithoutAStoreDriftEndpointsAnswer503)
{
    server::Server::Config config;
    config.port = 0;
    config.engine.threads = 1;
    server::Server bare(config);
    bare.start();
    server::HttpClient c("127.0.0.1", bare.port());
    for (const auto &[method, target] :
         std::vector<std::pair<std::string, std::string>>{
             {"GET", "/v1/drift"},
             {"GET", "/v1/suites/x/drift"},
             {"POST", "/v1/suites/x/observe"},
             {"POST", "/v1/admin/recluster"}}) {
        const Response response =
            c.roundTrip(method, target, "{\"ratio\":1.0}");
        EXPECT_EQ(response.status, 503) << target;
        EXPECT_NE(response.body.find("store_disabled"),
                  std::string::npos)
            << target;
    }
    // No store: the drift metric family stays out of the exposition.
    const Response metrics = c.roundTrip("GET", "/metrics");
    EXPECT_EQ(metrics.body.find("hiermeans_drift_"), std::string::npos);
    bare.stop();
}

} // namespace
