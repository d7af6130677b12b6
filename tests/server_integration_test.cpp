/**
 * Loopback integration tests for the serving layer: a real Server on
 * an ephemeral port driven through HttpClient. Covers the robustness
 * contract (400/404/405/413/503/504, keep-alive, graceful drain) and
 * the determinism guarantee: scores served over HTTP — concurrently —
 * are bit-identical to a single-threaded engine run of the same line.
 */

#include <cstdio>
#include <gtest/gtest.h>
#include <memory>
#include <thread>
#include <unistd.h>

#include "src/engine/manifest.h"
#include "src/server/client.h"
#include "src/server/json.h"
#include "src/server/server.h"
#include "src/util/file.h"
#include "src/util/str.h"

namespace {

using namespace hiermeans;
using Response = server::HttpResponseParser::Response;

class ServerIntegrationTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const std::string stem = "/tmp/hiermeans_server_test_" +
                                 std::to_string(::getpid());
        scoresPath_ = stem + "_scores.csv";
        featuresPath_ = stem + "_features.csv";
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

        server::Server::Config config;
        config.port = 0;
        config.engine.threads = 2;
        config.queueDepth = 2;
        config.connectionThreads = 6;
        config.maxBodyBytes = 4096;
        server_ = std::make_unique<server::Server>(config);
        server_->start();
    }

    void
    TearDown() override
    {
        server_->stop();
        std::remove(scoresPath_.c_str());
        std::remove(featuresPath_.c_str());
    }

    /** A valid /v1/score body with optional extra tokens. */
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

    std::string scoresPath_;
    std::string featuresPath_;
    std::unique_ptr<server::Server> server_;
};

TEST_F(ServerIntegrationTest, HealthzAnswers200)
{
    auto c = client();
    const Response response = c.roundTrip("GET", "/healthz");
    EXPECT_EQ(response.status, 200);
    EXPECT_NE(response.body.find("ok"), std::string::npos);
}

TEST_F(ServerIntegrationTest, MetricsAnswers200WithCounters)
{
    auto c = client();
    ASSERT_EQ(c.roundTrip("GET", "/healthz").status, 200);
    const Response response = c.roundTrip("GET", "/metrics");
    EXPECT_EQ(response.status, 200);
    EXPECT_FALSE(response.body.empty());
    EXPECT_NE(response.body.find("connections"), std::string::npos);
}

TEST_F(ServerIntegrationTest, UnknownPathIs404WrongMethodIs405)
{
    auto c = client();
    EXPECT_EQ(c.roundTrip("GET", "/nope").status, 404);
    const Response response = c.roundTrip("GET", "/v1/score");
    EXPECT_EQ(response.status, 405);
    EXPECT_EQ(response.header("allow", ""), "POST");
}

TEST_F(ServerIntegrationTest,
       ScoreMatchesSingleThreadedEngineBitIdentically)
{
    // Reference: the same manifest line through a fresh 1-thread
    // engine, no HTTP anywhere.
    engine::CsvCache csvs;
    const auto lines = engine::parseManifest(line("seed=42"));
    engine::ScoringEngine::Config serial;
    serial.threads = 1;
    engine::ScoringEngine reference(serial);
    const engine::ScoreResult expected =
        reference
            .submit(engine::buildManifestRequest(
                lines.at(0), util::CommandLine::parse({"test"}), csvs))
            .get();
    ASSERT_TRUE(expected.ok) << expected.error;
    const std::size_t row = expected.report.recommendedRow();

    auto c = client();
    const Response response =
        c.roundTrip("POST", "/v1/score", line("seed=42"));
    ASSERT_EQ(response.status, 200) << response.body;
    EXPECT_EQ(response.header("x-hiermeans-source", ""), "pipeline");

    // %.17g round-trips doubles exactly: parse back and compare
    // bit-identically, not approximately.
    const auto ratio = server::json::findNumber(response.body, "ratio");
    const auto plain =
        server::json::findNumber(response.body, "plain_ratio");
    const auto k =
        server::json::findNumber(response.body, "recommended_k");
    ASSERT_TRUE(ratio && plain && k);
    EXPECT_EQ(*ratio, expected.report.rows[row].ratio);
    EXPECT_EQ(*plain, expected.report.plainRatio);
    EXPECT_EQ(static_cast<std::size_t>(*k), expected.recommendedK);
}

TEST_F(ServerIntegrationTest,
       ConcurrentClientsGetBitIdenticalScores)
{
    // Reference results computed serially, one per distinct seed.
    engine::CsvCache csvs;
    engine::ScoringEngine::Config serial;
    serial.threads = 1;
    engine::ScoringEngine reference(serial);
    constexpr std::size_t kDistinct = 4;
    std::vector<double> expected_ratio;
    for (std::size_t i = 0; i < kDistinct; ++i) {
        const auto lines = engine::parseManifest(
            line("seed=" + std::to_string(100 + i)));
        const engine::ScoreResult result =
            reference
                .submit(engine::buildManifestRequest(
                    lines.at(0), util::CommandLine::parse({"test"}),
                    csvs))
                .get();
        ASSERT_TRUE(result.ok) << result.error;
        expected_ratio.push_back(
            result.report.rows[result.report.recommendedRow()].ratio);
    }

    // 4 clients x 3 passes over the distinct lines, concurrently.
    std::vector<std::thread> clients;
    std::vector<std::string> failures(kDistinct);
    for (std::size_t t = 0; t < kDistinct; ++t) {
        clients.emplace_back([&, t] {
            server::HttpClient c("127.0.0.1", server_->port());
            for (std::size_t pass = 0; pass < 3; ++pass) {
                for (std::size_t i = 0; i < kDistinct; ++i) {
                    // Honor 503 backpressure: retry after a beat, as
                    // a well-behaved client would.
                    Response response;
                    for (int attempt = 0; attempt < 200; ++attempt) {
                        response = c.roundTrip(
                            "POST", "/v1/score",
                            line("seed=" + std::to_string(100 + i)));
                        if (response.status != 503)
                            break;
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(10));
                    }
                    if (response.status != 200) {
                        failures[t] = "HTTP " +
                                      std::to_string(response.status);
                        return;
                    }
                    const auto ratio = server::json::findNumber(
                        response.body, "ratio");
                    if (!ratio || *ratio != expected_ratio[i]) {
                        failures[t] = "ratio mismatch on seed " +
                                      std::to_string(100 + i);
                        return;
                    }
                }
            }
        });
    }
    for (std::thread &thread : clients)
        thread.join();
    for (const std::string &failure : failures)
        EXPECT_TRUE(failure.empty()) << failure;
}

TEST_F(ServerIntegrationTest, RepeatIsServedFromCacheWithProvenance)
{
    auto c = client();
    const Response first =
        c.roundTrip("POST", "/v1/score", line("seed=7"));
    ASSERT_EQ(first.status, 200) << first.body;
    EXPECT_EQ(first.header("x-hiermeans-source", ""), "pipeline");

    const Response second =
        c.roundTrip("POST", "/v1/score", line("seed=7"));
    ASSERT_EQ(second.status, 200);
    EXPECT_EQ(second.header("x-hiermeans-source", ""), "cache");
    // Identical payloads modulo the wall_ms timing field.
    EXPECT_EQ(server::json::findNumber(first.body, "ratio"),
              server::json::findNumber(second.body, "ratio"));
    EXPECT_EQ(server::json::findRawValue(first.body, "fingerprint"),
              server::json::findRawValue(second.body, "fingerprint"));
}

TEST_F(ServerIntegrationTest, MalformedBodyIs400WithoutEngineWork)
{
    const std::uint64_t requests_before =
        server_->engine().metrics().requests.value();
    auto c = client();
    EXPECT_EQ(c.roundTrip("POST", "/v1/score", "not a manifest").status,
              400);
    EXPECT_EQ(c.roundTrip("POST", "/v1/score", "scores=/no/file.csv")
                  .status,
              400);
    EXPECT_EQ(c.roundTrip("POST", "/v1/score", line() + "\n" + line())
                  .status,
              400)
        << "two lines must be rejected by /v1/score";
    EXPECT_EQ(server_->engine().metrics().requests.value(),
              requests_before)
        << "malformed requests must never reach the engine";
    EXPECT_EQ(server_->metrics().malformed.value(), 3u);
}

TEST_F(ServerIntegrationTest, OversizedBodyIs413)
{
    auto c = client();
    const std::string huge(8192, 'x');
    EXPECT_EQ(c.roundTrip("POST", "/v1/score", huge).status, 413);
}

TEST_F(ServerIntegrationTest, DeadlineMapsTo504)
{
    auto c = client();
    const Response response = c.roundTrip(
        "POST", "/v1/score", line("timeout-ms=0.000001 seed=31337"));
    EXPECT_EQ(response.status, 504) << response.body;
    EXPECT_NE(response.body.find("\"timed_out\":true"),
              std::string::npos);
}

TEST_F(ServerIntegrationTest, FullAdmissionGateIs503WithRetryAfter)
{
    // Fill the gate through the test hook, so the next score request
    // is shed deterministically.
    server::AdmissionGate &gate = server_->gate();
    std::size_t held = 0;
    while (gate.tryEnter())
        ++held;
    ASSERT_EQ(held, gate.capacity());

    auto c = client();
    const Response shed =
        c.roundTrip("POST", "/v1/score", line("seed=1"));
    EXPECT_EQ(shed.status, 503);
    EXPECT_EQ(shed.header("retry-after", ""), "1");
    EXPECT_GE(gate.shedTotal(), 1u);
    // Health and metrics stay responsive while scoring is shedding.
    EXPECT_EQ(c.roundTrip("GET", "/healthz").status, 200);

    for (std::size_t i = 0; i < held; ++i)
        gate.leave();
    EXPECT_EQ(c.roundTrip("POST", "/v1/score", line("seed=1")).status,
              200);
}

TEST_F(ServerIntegrationTest, BatchAnswersOneResultPerLine)
{
    const std::string manifest = line("id=good1 seed=1") + "\n" +
                                 "# comment\n" +
                                 "scores=/no/such.csv features=" +
                                 featuresPath_ +
                                 " machine-a=mA machine-b=mB\n" +
                                 line("id=good2 seed=2") + "\n";
    auto c = client();
    const Response response =
        c.roundTrip("POST", "/v1/batch", manifest);
    ASSERT_EQ(response.status, 200) << response.body;

    std::vector<std::string> result_lines;
    for (const std::string &raw : str::split(response.body, '\n')) {
        if (!str::trim(raw).empty())
            result_lines.push_back(raw);
    }
    ASSERT_EQ(result_lines.size(), 3u);
    EXPECT_NE(result_lines[0].find("\"ok\":true"), std::string::npos);
    EXPECT_NE(result_lines[1].find("\"ok\":false"), std::string::npos)
        << "bad line must fail alone";
    EXPECT_NE(result_lines[2].find("\"ok\":true"), std::string::npos);
}

TEST_F(ServerIntegrationTest, KeepAliveServesManyRequestsOnOneSocket)
{
    auto c = client();
    for (int i = 0; i < 20; ++i)
        ASSERT_EQ(c.roundTrip("GET", "/healthz").status, 200);
    EXPECT_TRUE(c.connected());
    const server::ServerMetrics &counters = server_->metrics();
    EXPECT_EQ(counters.connectionsAccepted.value(), 1u);
}

TEST_F(ServerIntegrationTest, StopDrainsInFlightRequestBeforeExit)
{
    // A slow request (big SOM step budget) sent just before stop():
    // the graceful drain must answer it, never cut the connection.
    int status = 0;
    std::string body;
    std::thread in_flight([&] {
        server::HttpClient c("127.0.0.1", server_->port());
        const Response response = c.roundTrip(
            "POST", "/v1/score", line("som-steps=20000 seed=5"));
        status = response.status;
        body = response.body;
    });
    // Give the request time to be accepted and reach the engine.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    server_->stop();
    in_flight.join();
    EXPECT_EQ(status, 200) << body;
}

} // namespace
