/**
 * @file
 * Loopback tests for the server resilience layer: degraded-mode stale
 * serving when the gate is full, the handler's per-line await
 * rescuing a connection (score and batch) from a stuck engine worker,
 * the circuit breaker fast-failing after consecutive hard failures,
 * and the breaker-aware /healthz states.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <gtest/gtest.h>
#include <memory>
#include <thread>
#include <unistd.h>

#include "src/server/client.h"
#include "src/server/server.h"
#include "src/util/fault.h"
#include "src/util/file.h"

namespace {

using namespace hiermeans;
using Response = server::HttpResponseParser::Response;

class ServerResilienceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault::reset();
        const std::string stem = "/tmp/hiermeans_resilience_test_" +
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
    }

    void
    TearDown() override
    {
        if (server_)
            server_->stop();
        fault::reset();
        std::remove(scoresPath_.c_str());
        std::remove(featuresPath_.c_str());
    }

    void
    startServer(const std::function<void(server::Server::Config &)>
                    &tweak = {})
    {
        server::Server::Config config;
        config.port = 0;
        config.engine.threads = 2;
        config.queueDepth = 2;
        config.connectionThreads = 6;
        // Small hysteresis window so a handful of sheds moves the
        // health state within one test.
        config.health.windowSize = 8;
        config.health.minSamples = 4;
        if (tweak)
            tweak(config);
        server_ = std::make_unique<server::Server>(config);
        server_->start();
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

    static double
    millisSince(std::chrono::steady_clock::time_point start)
    {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
            .count();
    }

    /** Occupy every admission slot via the test hook. */
    std::size_t
    fillGate()
    {
        server::AdmissionGate &gate = server_->gate();
        std::size_t held = 0;
        while (gate.tryEnter())
            ++held;
        return held;
    }

    void
    drainGate(std::size_t held)
    {
        for (std::size_t i = 0; i < held; ++i)
            server_->gate().leave();
    }

    std::string scoresPath_;
    std::string featuresPath_;
    std::unique_ptr<server::Server> server_;
};

TEST_F(ServerResilienceTest, FullGateServesStaleCachedScores)
{
    startServer();
    auto c = client();

    // Warm the cache with a fresh score.
    const Response fresh =
        c.roundTrip("POST", "/v1/score", line("seed=80 id=warm"));
    ASSERT_EQ(fresh.status, 200) << fresh.body;
    EXPECT_EQ(fresh.header("x-hiermeans-stale", ""), "");

    const std::size_t held = fillGate();
    ASSERT_GT(held, 0u);

    // Same line while saturated: degraded mode answers from the cache
    // and says so.
    const Response stale =
        c.roundTrip("POST", "/v1/score", line("seed=80 id=warm"));
    EXPECT_EQ(stale.status, 200) << stale.body;
    EXPECT_EQ(stale.header("x-hiermeans-stale", ""), "1");
    EXPECT_EQ(stale.header("x-hiermeans-source", ""), "cache");

    // An uncached line has nothing stale to fall back on: 503.
    const Response shed =
        c.roundTrip("POST", "/v1/score", line("seed=81"));
    EXPECT_EQ(shed.status, 503);
    EXPECT_EQ(shed.header("retry-after", ""), "1");

    drainGate(held);
    const server::ServerMetrics &counters = server_->metrics();
    EXPECT_GE(counters.staleServed.value(), 1u);
}

TEST_F(ServerResilienceTest, StaleServingCanBeDisabled)
{
    startServer([](server::Server::Config &config) {
        config.serveStale = false;
    });
    auto c = client();
    ASSERT_EQ(c.roundTrip("POST", "/v1/score", line("seed=80")).status,
              200);
    const std::size_t held = fillGate();
    const Response shed =
        c.roundTrip("POST", "/v1/score", line("seed=80"));
    EXPECT_EQ(shed.status, 503)
        << "no-stale mode must shed even cached lines";
    drainGate(held);
}

TEST_F(ServerResilienceTest, StaleBodyMatchesTheFreshScore)
{
    startServer();
    auto c = client();
    const Response fresh =
        c.roundTrip("POST", "/v1/score", line("seed=82 id=r1"));
    ASSERT_EQ(fresh.status, 200) << fresh.body;

    const std::size_t held = fillGate();
    const Response stale =
        c.roundTrip("POST", "/v1/score", line("seed=82 id=r1"));
    ASSERT_EQ(stale.status, 200);
    drainGate(held);

    // Strip the volatile fields; everything else must be identical to
    // the fresh answer (this is the chaos harness's invariant too).
    const auto canonical = [](std::string body) {
        for (const char *key : {"\"wall_ms\":", "\"served_by\":"}) {
            const std::size_t at = body.find(key);
            if (at == std::string::npos)
                continue;
            std::size_t end = body.find(',', at);
            if (end == std::string::npos)
                end = body.find('}', at);
            body.erase(at, end - at + 1);
        }
        return body;
    };
    EXPECT_EQ(canonical(fresh.body), canonical(stale.body));
}

TEST_F(ServerResilienceTest, WatchdogRescuesAStuckWorkerWith504)
{
    startServer();
    // The engine worker wedges for 3 s; the request's own deadline is
    // 100 ms. The cooperative timeout cannot fire while the pipeline
    // is stuck, so the handler (deadline + grace) must answer.
    fault::configure("engine.stall=always@3000");
    auto c = client();
    const Response response = c.roundTrip(
        "POST", "/v1/score", line("seed=83 timeout-ms=100"));
    EXPECT_EQ(response.status, 504) << response.body;
    EXPECT_NE(response.body.find("watchdog"), std::string::npos)
        << response.body;

    const server::ServerMetrics &counters = server_->metrics();
    EXPECT_GE(counters.watchdogTrips.value(), 1u);
    EXPECT_GE(counters.timeouts.value(), 1u);

    // The rescued connection keeps serving; the wedged engine task is
    // somebody else's (abandoned) problem.
    const Response health = c.roundTrip("GET", "/healthz");
    EXPECT_EQ(health.status, 200);
    fault::reset();
}

/**
 * The handler's per-line await is the watchdog: a line still
 * unanswered 250 ms past its one deadline is abandoned with a 504, and
 * counts as a stuck worker until its request is answered.
 */
class WatchdogTest : public ServerResilienceTest
{
};

TEST_F(WatchdogTest, TokenExpiresPastTheDefaultBudget)
{
    startServer([](server::Server::Config &config) {
        config.defaultDeadlineMillis = 200.0;
    });
    // A line that states no deadline gets the server default, which
    // the wedged worker cannot meet.
    fault::configure("engine.stall=always@2000");
    auto c = client();
    const Response response =
        c.roundTrip("POST", "/v1/score", line("seed=84"));
    EXPECT_EQ(response.status, 504) << response.body;
    EXPECT_NE(response.body.find("watchdog_timeout"), std::string::npos)
        << response.body;
    EXPECT_GE(server_->metrics().watchdogTrips.value(), 1u);
    fault::reset();
}

TEST_F(WatchdogTest, ExplicitDeadlinePlusGraceIsHonored)
{
    // The default is generous; the line's own 100 ms deadline plus the
    // 250 ms grace is what abandons it — not sooner, and long before
    // the stall ends.
    startServer([](server::Server::Config &config) {
        config.defaultDeadlineMillis = 60000.0;
    });
    fault::configure("engine.stall=always@2000");
    auto c = client();
    const auto sent = std::chrono::steady_clock::now();
    const Response response = c.roundTrip(
        "POST", "/v1/score", line("seed=86 timeout-ms=100"));
    const double elapsed = millisSince(sent);
    EXPECT_EQ(response.status, 504) << response.body;
    EXPECT_NE(response.body.find("watchdog_timeout"), std::string::npos)
        << response.body;
    EXPECT_GE(elapsed, 350.0);
    fault::reset();
}

TEST_F(WatchdogTest, TokenReleasedInTimeNeverTrips)
{
    startServer();
    // Slow work that still answers inside its deadline is never
    // abandoned.
    fault::configure("engine.stall=always@100");
    auto c = client();
    const Response response = c.roundTrip(
        "POST", "/v1/score", line("seed=87 timeout-ms=10000"));
    EXPECT_EQ(response.status, 200) << response.body;
    fault::reset();
    const server::ServerMetrics &counters = server_->metrics();
    EXPECT_EQ(counters.watchdogTrips.value(), 0u);
    EXPECT_EQ(counters.timeouts.value(), 0u);
}

TEST_F(WatchdogTest, ZeroBudgetDisablesExpiry)
{
    // Without a default deadline a line that states none waits as
    // long as its work takes — here longer than the await grace.
    startServer([](server::Server::Config &config) {
        config.defaultDeadlineMillis = 0.0;
    });
    fault::configure("engine.stall=always@300");
    auto c = client();
    const Response response =
        c.roundTrip("POST", "/v1/score", line("seed=85"));
    EXPECT_EQ(response.status, 200) << response.body;
    EXPECT_EQ(server_->metrics().watchdogTrips.value(), 0u);
    fault::reset();
}

TEST_F(WatchdogTest, OverdueGaugeDropsWhenTheTokenDies)
{
    startServer();
    // Both lines wedge. The first is abandoned at 350 ms and counts as
    // stuck — health degraded — while the batch still waits on the
    // second (abandoned at 1250 ms).
    fault::configure("engine.stall=always@2000");
    std::atomic<bool> done{false};
    Response answered;
    std::thread batch([&] {
        auto c = client();
        answered = c.roundTrip("POST", "/v1/batch",
                               line("seed=88 timeout-ms=100") + "\n" +
                                   line("seed=89 timeout-ms=1000") +
                                   "\n");
        done.store(true);
    });
    auto probe = client();
    bool sawStuck = false;
    while (!done.load() && !sawStuck) {
        const Response metrics = probe.roundTrip("GET", "/metrics");
        sawStuck = metrics.body.find(
                       "hiermeans_server_health_state{state=\"degraded\"} "
                       "1") != std::string::npos;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    batch.join();
    EXPECT_TRUE(sawStuck);
    EXPECT_EQ(answered.status, 200) << answered.body;

    // Once the request is answered nothing counts as stuck, although
    // its wedged engine tasks still run.
    const Response metrics = probe.roundTrip("GET", "/metrics");
    ASSERT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.body.find(
                  "hiermeans_server_health_state{state=\"ok\"} 1"),
              std::string::npos);
    fault::reset();
}

TEST_F(ServerResilienceTest, WedgedBatchHonoursTheClientDeadline)
{
    startServer();
    // Both engine workers wedge for 3 s while the client allows 200 ms:
    // every line must come back timed out once its deadline + grace
    // lapses, well inside the stall — also the line whose own
    // timeout-ms is looser, since the earlier deadline wins.
    fault::configure("engine.stall=always@3000");
    auto c = client();
    const auto sent = std::chrono::steady_clock::now();
    const Response response = c.roundTrip(
        "POST", "/v1/batch",
        line("seed=120") + "\n" + line("seed=121 timeout-ms=60000") +
            "\n" + line("seed=122") + "\n",
        "text/plain", {{"X-Hiermeans-Deadline", "200"}});
    const double elapsed = millisSince(sent);
    EXPECT_EQ(response.status, 200) << response.body;
    EXPECT_LT(elapsed, 1500.0);

    std::size_t lines = 0;
    std::size_t start = 0;
    for (std::size_t end = response.body.find('\n', start);
         end != std::string::npos;
         start = end + 1, end = response.body.find('\n', start)) {
        const std::string entry = response.body.substr(start, end - start);
        ++lines;
        EXPECT_NE(entry.find("\"timed_out\":true"), std::string::npos)
            << entry;
    }
    EXPECT_EQ(lines, 3u) << response.body;

    // The connection keeps serving while the workers are still stuck.
    const Response health = c.roundTrip("GET", "/healthz");
    EXPECT_EQ(health.status, 200);
    fault::reset();
}

TEST_F(ServerResilienceTest, BreakerOpensAfterConsecutiveFailures)
{
    startServer([](server::Server::Config &config) {
        config.breaker.failureThreshold = 2;
        config.breaker.openMillis = 60000.0; // stays open for the test.
    });
    auto c = client();

    // Two engine-level timeouts (distinct seeds dodge the cache) are
    // hard failures: the circuit opens.
    for (int i = 0; i < 2; ++i) {
        const Response response = c.roundTrip(
            "POST", "/v1/score",
            line("timeout-ms=0.000001 seed=" + std::to_string(90 + i)));
        ASSERT_EQ(response.status, 504) << response.body;
    }
    EXPECT_EQ(server_->breaker().state(),
              server::CircuitBreaker::State::Open);

    // Fast-fail: no engine work, 503 with a Retry-After.
    const Response fast =
        c.roundTrip("POST", "/v1/score", line("seed=95"));
    EXPECT_EQ(fast.status, 503);
    EXPECT_FALSE(fast.header("retry-after", "").empty());

    const server::ServerMetrics &counters = server_->metrics();
    EXPECT_GE(counters.breakerFastFails.value(), 1u);
    EXPECT_GE(server_->breaker().opens(), 1u);
    // The /metrics body carries the breaker gauges (the Server
    // declares them; ServerMetrics alone does not).
    const Response rendered = c.roundTrip("GET", "/metrics");
    ASSERT_EQ(rendered.status, 200);
    EXPECT_NE(rendered.body.find(
                  "hiermeans_server_breaker_state{state=\"open\"} 1"),
              std::string::npos);

    // An open breaker degrades /healthz even though the gate is idle.
    const Response health = c.roundTrip("GET", "/healthz");
    EXPECT_EQ(health.status, 200);
    EXPECT_NE(health.body.find("degraded"), std::string::npos);
    EXPECT_EQ(health.header("x-hiermeans-health", ""), "degraded");
}

TEST_F(ServerResilienceTest, OpenBreakerStillServesStaleScores)
{
    startServer([](server::Server::Config &config) {
        config.breaker.failureThreshold = 2;
        config.breaker.openMillis = 60000.0;
    });
    auto c = client();
    ASSERT_EQ(
        c.roundTrip("POST", "/v1/score", line("seed=85 id=keep")).status,
        200);
    for (int i = 0; i < 2; ++i) {
        ASSERT_EQ(c.roundTrip("POST", "/v1/score",
                              line("timeout-ms=0.000001 seed=" +
                                   std::to_string(96 + i)))
                      .status,
                  504);
    }
    ASSERT_EQ(server_->breaker().state(),
              server::CircuitBreaker::State::Open);

    const Response stale =
        c.roundTrip("POST", "/v1/score", line("seed=85 id=keep"));
    EXPECT_EQ(stale.status, 200) << stale.body;
    EXPECT_EQ(stale.header("x-hiermeans-stale", ""), "1");
}

TEST_F(ServerResilienceTest, RecoveredProbeClosesTheBreaker)
{
    startServer([](server::Server::Config &config) {
        config.breaker.failureThreshold = 1;
        config.breaker.openMillis = 50.0;
    });
    auto c = client();
    ASSERT_EQ(c.roundTrip("POST", "/v1/score",
                          line("timeout-ms=0.000001 seed=97"))
                  .status,
              504);
    ASSERT_EQ(server_->breaker().state(),
              server::CircuitBreaker::State::Open);

    // After the open window a healthy request is let through as the
    // half-open probe; its success closes the circuit.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const Response probe =
        c.roundTrip("POST", "/v1/score", line("seed=98"));
    EXPECT_EQ(probe.status, 200) << probe.body;
    EXPECT_EQ(server_->breaker().state(),
              server::CircuitBreaker::State::Closed);
}

TEST_F(ServerResilienceTest, HealthzReportsShedDrivenDegradation)
{
    startServer();
    auto c = client();
    ASSERT_EQ(c.roundTrip("GET", "/healthz").status, 200);

    const std::size_t held = fillGate();
    // Enough shed outcomes to dominate the (small) health window.
    for (int i = 0; i < 8; ++i)
        ASSERT_EQ(c.roundTrip("POST", "/v1/score",
                              line("seed=" + std::to_string(200 + i)))
                      .status,
                  503);
    const Response degraded = c.roundTrip("GET", "/healthz");
    EXPECT_EQ(degraded.status, 200);
    EXPECT_NE(degraded.body.find("degraded"), std::string::npos);
    drainGate(held);

    // Healthy traffic flushes the window; hysteresis recovers to ok.
    for (int i = 0; i < 8; ++i)
        ASSERT_EQ(c.roundTrip("POST", "/v1/score", line("seed=80"))
                      .status,
                  200);
    const Response recovered = c.roundTrip("GET", "/healthz");
    EXPECT_EQ(recovered.status, 200);
    EXPECT_NE(recovered.body.find("ok"), std::string::npos);
}

TEST_F(ServerResilienceTest, DrainingHealthzAnswers503)
{
    startServer();
    auto c = client();
    ASSERT_EQ(c.roundTrip("GET", "/healthz").status, 200);

    server_->health().setDraining();
    const Response draining = c.roundTrip("GET", "/healthz");
    EXPECT_EQ(draining.status, 503);
    EXPECT_NE(draining.body.find("draining"), std::string::npos);
    EXPECT_EQ(draining.header("x-hiermeans-health", ""), "draining");
}

TEST_F(ServerResilienceTest, MetricsBodyCarriesResilienceCounters)
{
    startServer();
    auto c = client();
    ASSERT_EQ(c.roundTrip("POST", "/v1/score", line("seed=80")).status,
              200);
    const Response metrics = c.roundTrip("GET", "/metrics");
    ASSERT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.body.find("hiermeans_server_stale_served_total"),
              std::string::npos);
    EXPECT_NE(
        metrics.body.find("hiermeans_server_watchdog_trips_total"),
        std::string::npos);
    EXPECT_NE(
        metrics.body.find("hiermeans_server_breaker_fast_fail_total"),
        std::string::npos);
    EXPECT_NE(metrics.body.find(
                  "hiermeans_server_health_state{state=\"ok\"} 1"),
              std::string::npos);
}

} // namespace
