/**
 * @file
 * Overload-behavior suite (ctest -L overload): cooperative cancel
 * tokens, the two-lane admission gate, the engine purging expired
 * work at dequeue, end-to-end deadline propagation (decremented
 * across retries and 307 redirects), pre-admission deadline shedding
 * and the graceful-drain state machine.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "src/client/cluster_client.h"
#include "src/client/scoring_client.h"
#include "src/engine/cancel.h"
#include "src/engine/engine.h"
#include "src/server/admission.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/server/transport.h"
#include "src/util/file.h"

namespace {

using namespace hiermeans;
using Response = server::HttpResponseParser::Response;

// --- cancel tokens ---------------------------------------------------

TEST(CancelTokenTest, DefaultTokenNeverCancels)
{
    engine::CancelToken token;
    EXPECT_FALSE(token.valid());
    EXPECT_FALSE(token.cancelled());
    EXPECT_TRUE(token.remainingMillis() > 1e12);
}

TEST(CancelTokenTest, ExplicitCancelFlipsTheToken)
{
    engine::CancelSource source;
    engine::CancelToken token = source.token();
    EXPECT_TRUE(token.valid());
    EXPECT_FALSE(token.cancelled());
    source.cancel();
    EXPECT_TRUE(token.cancelled());
    // No deadline was armed, so this is a pure cancel, not a timeout.
    EXPECT_TRUE(token.remainingMillis() > 1e12);
}

TEST(CancelTokenTest, DeadlineExpiryCancelsAndReportsOverdue)
{
    engine::CancelSource source;
    source.setDeadline(1.0);
    engine::CancelToken token = source.token();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(token.cancelled());
    EXPECT_LE(token.remainingMillis(), 0.0);
}

TEST(CancelTokenTest, UnexpiredDeadlineReportsRemainingBudget)
{
    engine::CancelSource source;
    source.setDeadline(60000.0);
    engine::CancelToken token = source.token();
    EXPECT_FALSE(token.cancelled());
    const double remaining = token.remainingMillis();
    EXPECT_GT(remaining, 0.0);
    EXPECT_LE(remaining, 60000.0);
}

TEST(CancelTokenTest, ParentCancelSweepsChildren)
{
    engine::CancelSource drain;
    engine::CancelSource request_a(drain.token());
    engine::CancelSource request_b(drain.token());
    EXPECT_FALSE(request_a.token().cancelled());
    drain.cancel();
    EXPECT_TRUE(request_a.token().cancelled());
    EXPECT_TRUE(request_b.token().cancelled());
}

TEST(CancelTokenTest, ChildCancelLeavesParentAndSiblingAlone)
{
    engine::CancelSource drain;
    engine::CancelSource request_a(drain.token());
    engine::CancelSource request_b(drain.token());
    request_a.cancel();
    EXPECT_TRUE(request_a.token().cancelled());
    EXPECT_FALSE(drain.token().cancelled());
    EXPECT_FALSE(request_b.token().cancelled());
}

// --- two-lane admission gate -----------------------------------------

TEST(AdmissionLaneTest, BulkLaneDefaultsToHalfTheCapacity)
{
    server::AdmissionGate gate(8);
    EXPECT_EQ(gate.capacity(), 8u);
    EXPECT_EQ(gate.bulkCapacity(), 4u);
    server::AdmissionGate tiny(1);
    EXPECT_EQ(tiny.bulkCapacity(), 1u);
}

TEST(AdmissionLaneTest, BulkIsCappedBelowTheGate)
{
    server::AdmissionGate gate(4); // bulk cap = 2.
    EXPECT_TRUE(gate.tryEnter(server::Lane::Bulk));
    EXPECT_TRUE(gate.tryEnter(server::Lane::Bulk));
    EXPECT_FALSE(gate.tryEnter(server::Lane::Bulk))
        << "bulk must stop at its cap with slots still free";
    EXPECT_EQ(gate.depth(server::Lane::Bulk), 2u);
    EXPECT_EQ(gate.shedTotal(server::Lane::Bulk), 1u);
    EXPECT_EQ(gate.shedTotal(server::Lane::Interactive), 0u);
}

TEST(AdmissionLaneTest, SaturatedBulkCannotStarveInteractive)
{
    server::AdmissionGate gate(4);
    while (gate.tryEnter(server::Lane::Bulk))
        ;
    // The lane cap leaves interactive headroom: scores still admit.
    EXPECT_TRUE(gate.tryEnter(server::Lane::Interactive));
    EXPECT_TRUE(gate.tryEnter(server::Lane::Interactive));
    EXPECT_FALSE(gate.tryEnter(server::Lane::Interactive))
        << "total capacity still bounds both lanes";
    EXPECT_EQ(gate.depth(), 4u);
}

TEST(AdmissionLaneTest, InteractiveMayFillTheWholeGate)
{
    server::AdmissionGate gate(4);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(gate.tryEnter(server::Lane::Interactive));
    EXPECT_FALSE(gate.tryEnter(server::Lane::Interactive));
    // ... at which point bulk is locked out entirely.
    EXPECT_FALSE(gate.tryEnter(server::Lane::Bulk));
    gate.leave(server::Lane::Interactive);
    EXPECT_TRUE(gate.tryEnter(server::Lane::Bulk));
}

TEST(AdmissionLaneTest, LeaveReleasesTheRightLane)
{
    server::AdmissionGate gate(4);
    ASSERT_TRUE(gate.tryEnter(server::Lane::Bulk));
    ASSERT_TRUE(gate.tryEnter(server::Lane::Interactive));
    EXPECT_EQ(gate.depth(server::Lane::Bulk), 1u);
    EXPECT_EQ(gate.depth(server::Lane::Interactive), 1u);
    gate.leave(server::Lane::Bulk);
    EXPECT_EQ(gate.depth(server::Lane::Bulk), 0u);
    EXPECT_EQ(gate.depth(server::Lane::Interactive), 1u);
    gate.leave(server::Lane::Interactive);
    EXPECT_EQ(gate.depth(), 0u);
}

// --- engine purge ----------------------------------------------------

/** A small but non-trivial request (mirrors engine_test). */
engine::ScoreRequest
makeRequest(std::uint64_t variant = 0)
{
    const std::size_t n = 6;
    const std::size_t d = 4;
    engine::ScoreRequest request;
    request.features = linalg::Matrix(n, d);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < d; ++c) {
            request.features(r, c) =
                static_cast<double>((r * 7 + c * 3 + variant * 11) %
                                    13) +
                0.25 * static_cast<double>(r);
        }
    }
    for (std::size_t r = 0; r < n; ++r) {
        request.workloads.push_back("w" + std::to_string(r));
        request.scoresA.push_back(1.0 + static_cast<double>(r));
        request.scoresB.push_back(
            2.0 + 0.5 * static_cast<double>((r + variant) % n));
    }
    for (std::size_t c = 0; c < d; ++c)
        request.featureNames.push_back("f" + std::to_string(c));
    request.config.kMin = 2;
    request.config.kMax = 4;
    request.config.som.rows = 4;
    request.config.som.cols = 5;
    request.config.som.steps = 200;
    request.seed = 0x5eed + variant;
    return request;
}

TEST(EnginePurgeTest, CancelledEntryIsPurgedAtDequeueWithoutRunning)
{
    engine::ScoringEngine::Config config;
    config.threads = 2;
    engine::ScoringEngine engine(config);

    engine::CancelSource source;
    source.cancel(); // cancelled before it ever reaches a worker.
    engine::ScoreRequest request = makeRequest(1);
    request.id = "purged";
    request.cancel = source.token();

    const engine::ScoreResult result =
        engine.submit(std::move(request)).get();
    EXPECT_FALSE(result.ok);
    EXPECT_TRUE(result.cancelled);
    EXPECT_FALSE(result.timedOut) << "pure cancel, not a deadline";

    const engine::EngineMetrics &counters = engine.metrics();
    EXPECT_EQ(counters.executions.value(), 0u)
        << "a purged entry must never run the pipeline";
    EXPECT_GE(counters.cancellations.value(), 1u);
}

TEST(EnginePurgeTest, ExpiredDeadlineEntryCountsAsTimeout)
{
    engine::ScoringEngine::Config config;
    config.threads = 2;
    engine::ScoringEngine engine(config);

    engine::CancelSource source;
    source.setDeadline(0.01);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    engine::ScoreRequest request = makeRequest(2);
    request.id = "expired";
    request.cancel = source.token();

    const engine::ScoreResult result =
        engine.submit(std::move(request)).get();
    EXPECT_FALSE(result.ok);
    EXPECT_TRUE(result.timedOut)
        << "an expired deadline classifies as a timeout";
    const engine::EngineMetrics &counters = engine.metrics();
    EXPECT_EQ(counters.executions.value(), 0u);
}

TEST(EnginePurgeTest, UncancelledTokenRunsNormally)
{
    engine::ScoringEngine::Config config;
    config.threads = 2;
    engine::ScoringEngine engine(config);

    engine::CancelSource source;
    source.setDeadline(60000.0);
    engine::ScoreRequest request = makeRequest(3);
    request.id = "fine";
    request.cancel = source.token();
    const engine::ScoreResult result =
        engine.submit(std::move(request)).get();
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_FALSE(result.cancelled);
}

// --- deadline propagation over the wire ------------------------------

/** Bare Router + HttpTransport scaffold around one programmable
 *  handler, for observing exactly what a client sent. */
class EchoServer
{
  public:
    explicit EchoServer(server::Router::Handler handler)
    {
        router_.add("POST", "/v1/score", std::move(handler));
        server::HttpTransport::Config config;
        config.port = 0;
        config.connectionThreads = 2;
        transport_ = std::make_unique<server::HttpTransport>(
            config, router_, metrics_);
        transport_->start();
    }

    ~EchoServer() { transport_->stop(); }

    std::uint16_t port() const { return transport_->port(); }

  private:
    server::Router router_;
    server::ServerMetrics metrics_;
    std::unique_ptr<server::HttpTransport> transport_;
};

double
headerDeadline(const server::RequestContext &ctx)
{
    // The transport already parsed it into the context.
    return ctx.hasDeadline() ? ctx.deadlineMillis : -1.0;
}

TEST(DeadlinePropagationTest, BudgetDecrementsAcrossRetries)
{
    std::vector<double> seen;
    std::atomic<int> calls{0};
    EchoServer echo([&](const server::RequestContext &ctx) {
        seen.push_back(headerDeadline(ctx));
        if (calls.fetch_add(1) == 0) {
            server::HttpResponse busy = server::errorResponse(
                server::ApiError::Overloaded, "full", ctx.traceId);
            busy.set("Retry-After", "0.05");
            return busy;
        }
        return server::okResponse("1", ctx.traceId);
    });

    client::ScoringClient::Config config;
    config.port = echo.port();
    config.deadlineMillis = 10000.0;
    config.retry.maxAttempts = 3;
    config.retry.baseMillis = 30.0;
    config.retry.capMillis = 60.0;
    client::ScoringClient client(config);

    const client::Outcome outcome = client.score("anything");
    ASSERT_TRUE(outcome.ok()) << outcome.error;
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_GT(seen[0], 0.0) << "first attempt must carry the budget";
    EXPECT_LT(seen[1], seen[0])
        << "the retry must carry a smaller remaining budget "
           "(elapsed time + backoff subtracted)";
    EXPECT_LT(seen[1], 10000.0 - 25.0)
        << "at least the backoff sleep must have been subtracted";
}

TEST(DeadlinePropagationTest, SpentBudgetFailsLocallyWithoutARetry)
{
    std::atomic<int> calls{0};
    EchoServer echo([&](const server::RequestContext &ctx) {
        calls.fetch_add(1);
        server::HttpResponse busy = server::errorResponse(
            server::ApiError::Overloaded, "full", ctx.traceId);
        // Longer than the whole budget: the retry must never happen.
        busy.set("Retry-After", "1");
        return busy;
    });

    client::ScoringClient::Config config;
    config.port = echo.port();
    config.deadlineMillis = 300.0;
    config.retry.maxAttempts = 5;
    config.retry.baseMillis = 400.0;
    config.retry.capMillis = 500.0;
    client::ScoringClient client(config);

    const client::Outcome outcome = client.score("anything");
    EXPECT_FALSE(outcome.ok());
    EXPECT_LE(calls.load(), 2)
        << "the budget must stop the retry ladder early";
}

TEST(DeadlinePropagationTest, BudgetDecrementsAcrossARedirect)
{
    std::vector<double> at_owner;
    EchoServer owner([&](const server::RequestContext &ctx) {
        at_owner.push_back(headerDeadline(ctx));
        return server::okResponse("1", ctx.traceId);
    });
    EchoServer router([&](const server::RequestContext &ctx) {
        server::HttpResponse redirect;
        redirect.status = 307;
        redirect.set("Location",
                     "http://127.0.0.1:" +
                         std::to_string(owner.port()) +
                         ctx.http.target);
        return redirect;
    });

    client::ClusterClient::Config config;
    config.targets = {
        client::ClusterTarget{"127.0.0.1", router.port()},
        client::ClusterTarget{"127.0.0.1", owner.port()}};
    config.deadlineMillis = 10000.0;
    client::ClusterClient client(config);

    const client::Outcome outcome = client.score("anything");
    ASSERT_TRUE(outcome.ok()) << outcome.error;
    ASSERT_EQ(at_owner.size(), 1u);
    EXPECT_GT(at_owner[0], 0.0);
    EXPECT_LT(at_owner[0], 10000.0)
        << "the redirected hop must see a decremented budget";
}

// --- server: deadline shedding + drain -------------------------------

class OverloadServerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const std::string stem = "/tmp/hiermeans_overload_test_" +
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
        config.queueDepth = 4;
        config.connectionThreads = 8;
        config.drainDeadlineMillis = 500.0;
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

    std::string scoresPath_;
    std::string featuresPath_;
    std::unique_ptr<server::Server> server_;
};

TEST_F(OverloadServerTest, SpentDeadlineIsShedBeforeTheEngine)
{
    startServer();
    auto c = client();
    // A microscopic budget is gone by the time the handler runs.
    const Response shed = c.roundTrip(
        "POST", "/v1/score", line("seed=1"), "text/plain",
        {{"X-Hiermeans-Deadline", "0.0001"}});
    EXPECT_EQ(shed.status, 504) << shed.body;
    EXPECT_NE(shed.body.find("deadline_expired"), std::string::npos)
        << shed.body;
    const server::ServerMetrics &counters = server_->metrics();
    EXPECT_GE(counters.deadlineExpired.value(), 1u);
    const engine::EngineMetrics &engine_counters = server_->engine().metrics();
    EXPECT_EQ(engine_counters.requests.value(), 0u)
        << "an expired request must never reach the engine";
}

TEST_F(OverloadServerTest, ExpiredFastFailDoesNotTripTheBreaker)
{
    startServer([](server::Server::Config &config) {
        config.breaker.failureThreshold = 2;
    });
    auto c = client();
    for (int i = 0; i < 6; ++i) {
        const Response shed = c.roundTrip(
            "POST", "/v1/score", line("seed=1"), "text/plain",
            {{"X-Hiermeans-Deadline", "0.0001"}});
        ASSERT_EQ(shed.status, 504);
        ASSERT_NE(shed.body.find("deadline_expired"),
                  std::string::npos)
            << "must stay deadline_expired, not become circuit_open";
    }
    // The breaker never saw those: a healthy request still executes.
    const Response fine =
        c.roundTrip("POST", "/v1/score", line("seed=2"));
    EXPECT_EQ(fine.status, 200) << fine.body;
}

TEST_F(OverloadServerTest, GenerousDeadlineIsAdmittedAndAnswered)
{
    startServer();
    auto c = client();
    const Response answered = c.roundTrip(
        "POST", "/v1/score", line("seed=3"), "text/plain",
        {{"X-Hiermeans-Deadline", "60000"}});
    EXPECT_EQ(answered.status, 200) << answered.body;
    // A line's own tighter timeout-ms still wins over the header.
    const Response tighter = c.roundTrip(
        "POST", "/v1/score", line("seed=30 timeout-ms=0.000001"),
        "text/plain", {{"X-Hiermeans-Deadline", "60000"}});
    EXPECT_EQ(tighter.status, 504) << tighter.body;
    const server::ServerMetrics &counters = server_->metrics();
    EXPECT_EQ(counters.deadlineMisses.value(), 0u);
}

TEST_F(OverloadServerTest, DrainShedsScoringAndFlipsHealth)
{
    startServer();
    auto c = client();
    ASSERT_EQ(c.roundTrip("POST", "/v1/score", line("seed=4")).status,
              200);

    server_->beginDrain();
    EXPECT_TRUE(server_->draining());

    const Response shed =
        c.roundTrip("POST", "/v1/score", line("seed=5"));
    EXPECT_EQ(shed.status, 503);
    EXPECT_NE(shed.body.find("\"draining\""), std::string::npos)
        << shed.body;
    EXPECT_EQ(shed.header("retry-after", ""), "1");

    const Response health = c.roundTrip("GET", "/healthz");
    EXPECT_EQ(health.status, 503)
        << "draining must advertise on /healthz so load balancers "
           "and peers stop routing here";
    EXPECT_EQ(health.header("x-hiermeans-health", ""), "draining");

    const server::ServerMetrics &counters = server_->metrics();
    EXPECT_GE(counters.drainSheds.value(), 1u);
    EXPECT_TRUE(server_->draining());
}

TEST_F(OverloadServerTest, DrainIsOneWayAndIdempotent)
{
    startServer();
    server_->beginDrain();
    server_->beginDrain(); // second call is a no-op, not a crash.
    EXPECT_TRUE(server_->draining());
}

TEST_F(OverloadServerTest, ClusterClientFailsOverOffADrainingNode)
{
    startServer();
    // A second, healthy server to fail over to.
    auto second = std::make_unique<server::Server>([this] {
        server::Server::Config config;
        config.port = 0;
        config.engine.threads = 2;
        config.queueDepth = 4;
        config.connectionThreads = 8;
        return config;
    }());
    second->start();

    server_->beginDrain();

    client::ClusterClient::Config config;
    config.targets = {
        client::ClusterTarget{"127.0.0.1", server_->port()},
        client::ClusterTarget{"127.0.0.1", second->port()}};
    client::ClusterClient client(config);

    const client::Outcome outcome = client.score(line("seed=6"));
    EXPECT_TRUE(outcome.ok()) << outcome.error;
    EXPECT_EQ(client.currentTarget(), 1u)
        << "the draining node must be rotated away from";
    EXPECT_GE(client.stats()[0].drainRotations, 1u);
    second->stop();
}

} // namespace
