/**
 * Loopback tests of the persistence surface of the serving layer:
 * suite registration (/v1/suites) and suite-reference score bodies,
 * the persisted score history (/v1/history), forced snapshots, the
 * store section of /metrics (lint-clean), and the warm-start
 * guarantee — a restarted daemon answers a previously-scored request
 * from cache without re-executing the pipeline.
 */

#include <cstdio>
#include <gtest/gtest.h>
#include <memory>
#include <unistd.h>

#include "src/obs/prometheus.h"
#include "src/server/client.h"
#include "src/server/json.h"
#include "src/server/server.h"
#include "src/util/file.h"
#include "tests/metric_docs.h"

namespace {

using namespace hiermeans;
using Response = server::HttpResponseParser::Response;

class ServerStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        stem_ = "/tmp/hiermeans_server_store_test_" +
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
    startServer()
    {
        server::Server::Config config;
        config.port = 0;
        config.engine.threads = 2;
        config.queueDepth = 4;
        config.connectionThreads = 8;
        config.store.dataDir = dataDir_;
        config.store.fsyncEvery = 1;
        config.store.snapshotEvery = 0; // snapshot on stop() only.
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
    line(const std::string &extra = "") const
    {
        return "scores=" + scoresPath_ + " features=" + featuresPath_ +
               " machine-a=mA machine-b=mB som-steps=150" +
               (extra.empty() ? "" : " " + extra);
    }

    server::HttpClient
    client() const
    {
        return server::HttpClient("127.0.0.1", server_->port());
    }

    std::string stem_;
    std::string dataDir_;
    std::string scoresPath_;
    std::string featuresPath_;
    std::unique_ptr<server::Server> server_;
};

TEST_F(ServerStoreTest, RegisterListAndResolveSuites)
{
    auto c = client();
    const Response registered = c.roundTrip(
        "POST", "/v1/suites?name=nightly", line("seed=3"));
    ASSERT_EQ(registered.status, 200) << registered.body;
    EXPECT_EQ(server::json::findNumber(registered.body, "version"), 1.0);
    EXPECT_EQ(server::json::findString(registered.body, "name"),
              "nightly");

    // A second registration bumps the version.
    const Response again = c.roundTrip(
        "POST", "/v1/suites?name=nightly", line("seed=4"));
    ASSERT_EQ(again.status, 200);
    EXPECT_EQ(server::json::findNumber(again.body, "version"), 2.0);

    const Response list = c.roundTrip("GET", "/v1/suites");
    ASSERT_EQ(list.status, 200);
    EXPECT_NE(list.body.find("\"nightly\""), std::string::npos);
    EXPECT_NE(list.body.find("\"latest\":2"), std::string::npos);
}

TEST_F(ServerStoreTest, RegisterValidatesNameAndManifest)
{
    auto c = client();
    EXPECT_EQ(c.roundTrip("POST", "/v1/suites", line()).status, 400)
        << "name is required";
    EXPECT_EQ(c.roundTrip("POST", "/v1/suites?name=bad/name", line())
                  .status,
              400);
    const Response junk =
        c.roundTrip("POST", "/v1/suites?name=ok", "not a manifest");
    EXPECT_EQ(junk.status, 400) << "manifest must parse before storing";
    EXPECT_EQ(c.roundTrip("POST", "/v1/suites?name=ok", "").status, 400);
}

TEST_F(ServerStoreTest, SuiteReferenceBodyExpandsAndRecordsHistory)
{
    auto c = client();
    ASSERT_EQ(c.roundTrip("POST", "/v1/suites?name=nightly",
                          line("seed=11 id=night-run"))
                  .status,
              200);

    const Response scored =
        c.roundTrip("POST", "/v1/score", "suite=nightly");
    ASSERT_EQ(scored.status, 200) << scored.body;
    EXPECT_EQ(scored.header("x-hiermeans-source", ""), "pipeline");

    const Response history =
        c.roundTrip("GET", "/v1/history?suite=nightly");
    ASSERT_EQ(history.status, 200) << history.body;
    EXPECT_EQ(server::json::findNumber(history.body, "count"), 1.0);
    EXPECT_NE(history.body.find("\"id\":\"night-run\""),
              std::string::npos)
        << history.body;

    // Unknown suites are a 404 with the typed error code.
    const Response unknown =
        c.roundTrip("POST", "/v1/score", "suite=nope");
    EXPECT_EQ(unknown.status, 404);
    EXPECT_NE(unknown.body.find("suite_unknown"), std::string::npos);
    EXPECT_EQ(c.roundTrip("GET", "/v1/history?suite=nope").status, 404);
}

TEST_F(ServerStoreTest, SuiteReferenceHonorsVersionLineAndOverrides)
{
    auto c = client();
    ASSERT_EQ(c.roundTrip("POST", "/v1/suites?name=multi",
                          line("seed=1 id=line-one") + "\n" +
                              line("seed=2 id=line-two") + "\n")
                  .status,
              200);

    // Two manifest lines: /v1/score needs a line= selector.
    EXPECT_EQ(c.roundTrip("POST", "/v1/score", "suite=multi").status,
              400);
    const Response second =
        c.roundTrip("POST", "/v1/score", "suite=multi line=2");
    ASSERT_EQ(second.status, 200) << second.body;
    EXPECT_NE(second.body.find("line-two"), std::string::npos);
    EXPECT_EQ(
        c.roundTrip("POST", "/v1/score", "suite=multi line=7").status,
        400);

    // Override tokens appended after the stored line win (last-wins).
    const Response overridden = c.roundTrip(
        "POST", "/v1/score", "suite=multi line=1 id=overridden");
    ASSERT_EQ(overridden.status, 200);
    EXPECT_NE(overridden.body.find("overridden"), std::string::npos);

    // An explicit @version pins the older manifest.
    ASSERT_EQ(c.roundTrip("POST", "/v1/suites?name=multi",
                          line("seed=9 id=v2-only"))
                  .status,
              200);
    const Response pinned = c.roundTrip(
        "POST", "/v1/score", "suite=multi@1 line=1");
    ASSERT_EQ(pinned.status, 200) << pinned.body;
    EXPECT_NE(pinned.body.find("line-one"), std::string::npos);
    EXPECT_EQ(
        c.roundTrip("POST", "/v1/score", "suite=multi@9").status, 404);
}

TEST_F(ServerStoreTest, SuiteReferenceKeepsHashInsideStoredValues)
{
    // `#` starts a comment only as a line's first non-blank character,
    // so registration accepts `id=run#2` as the value `run#2`; the
    // reference must score that same value.
    auto c = client();
    const Response adhoc =
        c.roundTrip("POST", "/v1/score", line("seed=5 id=run#2"));
    ASSERT_EQ(adhoc.status, 200) << adhoc.body;
    EXPECT_NE(adhoc.body.find("\"id\":\"run#2\""), std::string::npos)
        << adhoc.body;

    ASSERT_EQ(c.roundTrip("POST", "/v1/suites?name=hashy",
                          "# one request\n" + line("seed=5 id=run#2") +
                              "\n")
                  .status,
              200);
    const Response scored =
        c.roundTrip("POST", "/v1/score", "suite=hashy");
    ASSERT_EQ(scored.status, 200) << scored.body;
    EXPECT_NE(scored.body.find("\"id\":\"run#2\""), std::string::npos)
        << scored.body;

    // The same rule holds for the reference's own override tokens.
    const Response overridden =
        c.roundTrip("POST", "/v1/score", "suite=hashy id=over#1");
    ASSERT_EQ(overridden.status, 200) << overridden.body;
    EXPECT_NE(overridden.body.find("\"id\":\"over#1\""),
              std::string::npos)
        << overridden.body;
}

TEST_F(ServerStoreTest, BatchRunsTheWholeSuiteDocument)
{
    auto c = client();
    ASSERT_EQ(c.roundTrip("POST", "/v1/suites?name=pair",
                          line("seed=21 id=b-one") + "\n" +
                              line("seed=22 id=b-two") + "\n")
                  .status,
              200);
    const Response batch =
        c.roundTrip("POST", "/v1/batch", "suite=pair");
    ASSERT_EQ(batch.status, 200) << batch.body;
    EXPECT_NE(batch.body.find("b-one"), std::string::npos);
    EXPECT_NE(batch.body.find("b-two"), std::string::npos);

    const Response history =
        c.roundTrip("GET", "/v1/history?suite=pair");
    ASSERT_EQ(history.status, 200);
    EXPECT_EQ(server::json::findNumber(history.body, "count"), 2.0);
}

TEST_F(ServerStoreTest, AdHocScoresLandInTheUnnamedRing)
{
    auto c = client();
    ASSERT_EQ(c.roundTrip("POST", "/v1/score", line("seed=31")).status,
              200);
    const Response history = c.roundTrip("GET", "/v1/history");
    ASSERT_EQ(history.status, 200) << history.body;
    EXPECT_EQ(server::json::findNumber(history.body, "count"), 1.0);

    // Cache hits do not re-record: the same line again adds nothing.
    ASSERT_EQ(c.roundTrip("POST", "/v1/score", line("seed=31")).status,
              200);
    const Response after = c.roundTrip("GET", "/v1/history");
    EXPECT_EQ(server::json::findNumber(after.body, "count"), 1.0)
        << "only pipeline-executed scores are persisted";
}

TEST_F(ServerStoreTest, SnapshotEndpointCompactsOnDemand)
{
    auto c = client();
    ASSERT_EQ(c.roundTrip("POST", "/v1/score", line("seed=41")).status,
              200);
    const Response snapshot =
        c.roundTrip("POST", "/v1/admin/snapshot");
    ASSERT_EQ(snapshot.status, 200) << snapshot.body;
    const auto sequence =
        server::json::findNumber(snapshot.body, "sequence");
    ASSERT_TRUE(sequence.has_value());
    EXPECT_GE(*sequence, 1.0);
    EXPECT_EQ(util::fileSize(dataDir_ + "/wal.log"), 0u)
        << "the WAL is truncated once the snapshot commits";
}

TEST_F(ServerStoreTest, WarmStartServesRecoveredScoresFromCache)
{
    auto c = client();
    const Response first =
        c.roundTrip("POST", "/v1/score", line("seed=51"));
    ASSERT_EQ(first.status, 200) << first.body;
    EXPECT_EQ(first.header("x-hiermeans-source", ""), "pipeline");
    const auto ratio = server::json::findNumber(first.body, "ratio");

    restartServer();
    EXPECT_GE(server_->warmedCacheEntries(), 1u);
    EXPECT_EQ(server_->storeRecovery().outcome,
              store::RecoveryOutcome::Clean);

    auto c2 = client();
    const Response warmed =
        c2.roundTrip("POST", "/v1/score", line("seed=51"));
    ASSERT_EQ(warmed.status, 200) << warmed.body;
    EXPECT_EQ(warmed.header("x-hiermeans-source", ""), "cache")
        << "a restarted daemon must not re-execute the pipeline";
    EXPECT_EQ(server::json::findNumber(warmed.body, "ratio"), ratio)
        << "the recovered score must be bit-identical";
    EXPECT_EQ(server_->engine().metrics().executions.value(), 0u)
        << "the warm hit must not re-run the pipeline";
    EXPECT_EQ(server_->engine().metrics().cacheHits.value(), 1u);

    // The cache hit is visible in /metrics, as is the warm count.
    const Response metrics = c2.roundTrip("GET", "/metrics");
    ASSERT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.body.find("hiermeans_store_warmed_cache_entries 1"),
              std::string::npos)
        << metrics.body.substr(0, 2000);
}

TEST_F(ServerStoreTest, HistorySurvivesARestart)
{
    auto c = client();
    ASSERT_EQ(c.roundTrip("POST", "/v1/suites?name=keep",
                          line("seed=61 id=kept-run"))
                  .status,
              200);
    ASSERT_EQ(c.roundTrip("POST", "/v1/score", "suite=keep").status,
              200);

    restartServer();
    auto c2 = client();
    const Response history =
        c2.roundTrip("GET", "/v1/history?suite=keep");
    ASSERT_EQ(history.status, 200) << history.body;
    EXPECT_EQ(server::json::findNumber(history.body, "count"), 1.0);
    EXPECT_NE(history.body.find("kept-run"), std::string::npos);
    const Response list = c2.roundTrip("GET", "/v1/suites");
    EXPECT_NE(list.body.find("\"keep\""), std::string::npos);
}

TEST_F(ServerStoreTest, StoreMetricsAreExposedAndLintClean)
{
    auto c = client();
    ASSERT_EQ(c.roundTrip("POST", "/v1/score", line("seed=71")).status,
              200);
    const Response metrics = c.roundTrip("GET", "/metrics");
    ASSERT_EQ(metrics.status, 200);
    for (const char *name : {"hiermeans_store_wal_records_total",
                             "hiermeans_store_wal_size_bytes",
                             "hiermeans_store_recovery_outcome",
                             "hiermeans_store_last_sequence",
                             "hiermeans_store_history_entries",
                             "hiermeans_store_suites"})
        EXPECT_NE(metrics.body.find(name), std::string::npos) << name;
    EXPECT_NE(metrics.body.find("state=\"clean_start\"} 1"),
              std::string::npos)
        << "the recovery outcome gauge must be one-hot";
    const std::vector<std::string> issues =
        obs::lintExposition(metrics.body);
    for (const std::string &issue : issues)
        ADD_FAILURE() << "exposition lint: " << issue;
    expectFamiliesDocumented(metrics.body);
}

TEST_F(ServerStoreTest, WithoutADataDirStoreEndpointsAnswer503)
{
    server::Server::Config config;
    config.port = 0;
    config.engine.threads = 1;
    server::Server bare(config);
    bare.start();
    server::HttpClient c("127.0.0.1", bare.port());
    for (const auto &[method, target] :
         std::vector<std::pair<std::string, std::string>>{
             {"POST", "/v1/suites?name=x"},
             {"GET", "/v1/suites"},
             {"GET", "/v1/history"},
             {"POST", "/v1/admin/snapshot"}}) {
        const Response response = c.roundTrip(method, target, "a=b");
        EXPECT_EQ(response.status, 503) << target;
        EXPECT_NE(response.body.find("store_disabled"),
                  std::string::npos)
            << target;
    }
    // A suite-reference score body is equally impossible.
    const Response scored = c.roundTrip("POST", "/v1/score", "suite=x");
    EXPECT_EQ(scored.status, 503);
    EXPECT_NE(scored.body.find("store_disabled"), std::string::npos);
    // The store metric section stays out of the exposition entirely.
    const Response metrics = c.roundTrip("GET", "/metrics");
    EXPECT_EQ(metrics.body.find("hiermeans_store_"), std::string::npos);
    bare.stop();
}

} // namespace
