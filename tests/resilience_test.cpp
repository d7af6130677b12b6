/**
 * Unit tests for the server resilience primitives: CircuitBreaker
 * state machine and HealthMonitor hysteresis.
 */

#include <chrono>
#include <gtest/gtest.h>
#include <thread>

#include "src/server/resilience.h"
#include "src/util/error.h"

namespace {

using namespace hiermeans;
using server::CircuitBreaker;
using server::HealthMonitor;
using server::HealthState;

void
sleepMillis(double millis)
{
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(millis));
}

CircuitBreaker::Config
breakerConfig(std::size_t threshold, double open_millis)
{
    CircuitBreaker::Config config;
    config.failureThreshold = threshold;
    config.openMillis = open_millis;
    return config;
}

TEST(CircuitBreakerTest, StaysClosedBelowThreshold)
{
    CircuitBreaker breaker(breakerConfig(3, 1000.0));
    breaker.onFailure();
    breaker.onFailure();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    EXPECT_TRUE(breaker.allow());
    EXPECT_EQ(breaker.opens(), 0u);
}

TEST(CircuitBreakerTest, ConsecutiveFailuresOpenTheCircuit)
{
    CircuitBreaker breaker(breakerConfig(3, 60000.0));
    for (int i = 0; i < 3; ++i)
        breaker.onFailure();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
    EXPECT_EQ(breaker.opens(), 1u);
    EXPECT_FALSE(breaker.allow());
    EXPECT_FALSE(breaker.allow());
    EXPECT_EQ(breaker.fastFailures(), 2u);
    EXPECT_GE(breaker.retryAfterSeconds(), 1L);
}

TEST(CircuitBreakerTest, SuccessResetsTheFailureStreak)
{
    CircuitBreaker breaker(breakerConfig(3, 1000.0));
    breaker.onFailure();
    breaker.onFailure();
    breaker.onSuccess();
    breaker.onFailure();
    breaker.onFailure();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed)
        << "streak must restart after a success";
}

TEST(CircuitBreakerTest, HalfOpenAdmitsExactlyOneProbe)
{
    CircuitBreaker breaker(breakerConfig(1, 30.0));
    breaker.onFailure();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
    sleepMillis(60.0);
    EXPECT_TRUE(breaker.allow()) << "window lapsed: probe admitted";
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::HalfOpen);
    EXPECT_FALSE(breaker.allow()) << "only one probe at a time";
    breaker.onSuccess();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    EXPECT_TRUE(breaker.allow());
}

TEST(CircuitBreakerTest, FailedProbeReopensTheCircuit)
{
    CircuitBreaker breaker(breakerConfig(1, 30.0));
    breaker.onFailure();
    sleepMillis(60.0);
    ASSERT_TRUE(breaker.allow());
    breaker.onFailure();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
    EXPECT_EQ(breaker.opens(), 2u);
    EXPECT_FALSE(breaker.allow()) << "fresh open window";
}

TEST(CircuitBreakerTest, AbandonedProbeFreesTheSlot)
{
    CircuitBreaker breaker(breakerConfig(1, 30.0));
    breaker.onFailure();
    sleepMillis(60.0);
    ASSERT_TRUE(breaker.allow());
    breaker.onAbandoned(); // probe shed by the gate: outcome unknown.
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::HalfOpen);
    EXPECT_TRUE(breaker.allow()) << "next request takes the probe slot";
}

TEST(CircuitBreakerTest, ZeroThresholdDisablesTheBreaker)
{
    CircuitBreaker breaker(breakerConfig(0, 1000.0));
    for (int i = 0; i < 100; ++i)
        breaker.onFailure();
    EXPECT_TRUE(breaker.allow());
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    EXPECT_EQ(breaker.opens(), 0u);
    EXPECT_FALSE(breaker.enabled());
}

TEST(CircuitBreakerTest, RetryAfterIsZeroUnlessOpen)
{
    CircuitBreaker breaker(breakerConfig(2, 1000.0));
    EXPECT_EQ(breaker.retryAfterSeconds(), 0L);
    breaker.onFailure();
    breaker.onFailure();
    EXPECT_GE(breaker.retryAfterSeconds(), 1L);
}

HealthMonitor::Config
healthConfig()
{
    HealthMonitor::Config config;
    config.windowSize = 16;
    config.degradeRatio = 0.5;
    config.recoverRatio = 0.125;
    config.minSamples = 8;
    return config;
}

TEST(HealthMonitorTest, StartsOkAndIgnoresSparseSamples)
{
    HealthMonitor health(healthConfig());
    EXPECT_EQ(health.state(), HealthState::Ok);
    // Seven sheds — all shed, but below minSamples.
    for (int i = 0; i < 7; ++i)
        health.onShed();
    EXPECT_EQ(health.state(), HealthState::Ok)
        << "ratio untrusted below minSamples";
}

TEST(HealthMonitorTest, HighShedRatioDegrades)
{
    HealthMonitor health(healthConfig());
    for (int i = 0; i < 8; ++i) {
        health.onAdmitted();
        health.onShed();
    }
    EXPECT_EQ(health.state(), HealthState::Degraded);
}

TEST(HealthMonitorTest, RecoveryIsHysteretic)
{
    HealthMonitor health(healthConfig());
    for (int i = 0; i < 16; ++i)
        health.onShed();
    ASSERT_EQ(health.state(), HealthState::Degraded);
    // Drop the ratio to 8/16 = 0.5: above recoverRatio, still degraded.
    for (int i = 0; i < 8; ++i)
        health.onAdmitted();
    EXPECT_EQ(health.state(), HealthState::Degraded)
        << "must sink below recoverRatio before recovering";
    // Flush the window with admissions: ratio 0 <= 0.125 recovers.
    for (int i = 0; i < 16; ++i)
        health.onAdmitted();
    EXPECT_EQ(health.state(), HealthState::Ok);
}

TEST(HealthMonitorTest, StuckWorkersForceDegraded)
{
    HealthMonitor health(healthConfig());
    health.onStuckWorkers(2);
    EXPECT_EQ(health.state(), HealthState::Degraded);
    health.onStuckWorkers(0);
    EXPECT_EQ(health.state(), HealthState::Ok);
}

TEST(HealthMonitorTest, DrainingLatchesAndWins)
{
    HealthMonitor health(healthConfig());
    health.onStuckWorkers(3);
    health.setDraining();
    EXPECT_EQ(health.state(), HealthState::Draining);
    health.onStuckWorkers(0);
    for (int i = 0; i < 32; ++i)
        health.onAdmitted();
    EXPECT_EQ(health.state(), HealthState::Draining)
        << "draining is one-way";
}

TEST(HealthMonitorTest, StateNamesMatchTheHealthzContract)
{
    EXPECT_STREQ(server::healthStateName(HealthState::Ok), "ok");
    EXPECT_STREQ(server::healthStateName(HealthState::Degraded),
                 "degraded");
    EXPECT_STREQ(server::healthStateName(HealthState::Draining),
                 "draining");
}

TEST(HealthMonitorTest, InvalidConfigsAreRejected)
{
    HealthMonitor::Config config = healthConfig();
    config.windowSize = 0;
    EXPECT_THROW(HealthMonitor{config}, InvalidArgument);

    config = healthConfig();
    config.recoverRatio = config.degradeRatio;
    EXPECT_THROW(HealthMonitor{config}, InvalidArgument);
}

} // namespace
