/**
 * @file
 * Server-side resilience primitives: a per-endpoint circuit breaker
 * and the daemon's health state machine.
 *
 * The breaker guards the expensive scoring path: consecutive hard
 * failures (engine exceptions, 504s, abandoned wedged workers) open
 * the circuit and the endpoint fast-fails with `503 Retry-After` — no
 * engine work, no queueing — until the open window lapses. Then a
 * half-open probe is let through: success closes the circuit, failure
 * re-opens it.
 *
 * The health state machine (`ok -> degraded -> draining`) is what
 * `/healthz` reports and what degraded-mode serving keys off:
 *  - `degraded` — the admission gate is shedding a high fraction of
 *    recent requests, a request is stuck on a wedged worker, or a
 *    breaker is open. The server prefers serving *stale* cached scores
 *    (marked `X-Hiermeans-Stale`) over queueing into a saturated
 *    engine.
 *  - `draining` — graceful shutdown has begun; probes get 503 so load
 *    balancers stop routing here while in-flight requests finish.
 * Transitions are hysteretic (enter degraded at a high shed ratio,
 * leave at a low one) so the state doesn't flap at the boundary.
 */

#ifndef HIERMEANS_SERVER_RESILIENCE_H
#define HIERMEANS_SERVER_RESILIENCE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

namespace hiermeans {
namespace server {

/** A consecutive-failure circuit breaker (thread-safe). */
class CircuitBreaker
{
  public:
    struct Config
    {
        /** Consecutive failures that open the circuit; 0 disables the
         *  breaker entirely (allow() is always true). */
        std::size_t failureThreshold = 8;

        /** How long the circuit stays open before a half-open probe. */
        double openMillis = 2000.0;
    };

    enum class State
    {
        Closed,   ///< normal operation.
        Open,     ///< fast-failing; no work admitted.
        HalfOpen  ///< one probe in flight decides the next state.
    };

    explicit CircuitBreaker(Config config) : config_(config) {}
    CircuitBreaker() : CircuitBreaker(Config{}) {}

    CircuitBreaker(const CircuitBreaker &) = delete;
    CircuitBreaker &operator=(const CircuitBreaker &) = delete;

    /**
     * May this request proceed? False means fast-fail (the rejection
     * is counted). An open circuit whose window has lapsed transitions
     * to half-open here and admits exactly one probe.
     */
    bool allow();

    /** Report the outcome of an admitted request. */
    void onSuccess();
    void onFailure();

    /** The admitted request was shed before doing real work (gate
     *  full): releases a half-open probe slot without counting the
     *  outcome either way. */
    void onAbandoned();

    State state() const;
    const char *stateName() const;

    /** Times the circuit transitioned Closed/HalfOpen -> Open. */
    std::uint64_t opens() const
    {
        return opens_.load(std::memory_order_relaxed);
    }

    /** Requests fast-failed by allow(). */
    std::uint64_t fastFailures() const
    {
        return fastFailures_.load(std::memory_order_relaxed);
    }

    /** Whole seconds until a half-open probe is due (>= 1), for the
     *  Retry-After header; 0 when the circuit is not open. */
    long retryAfterSeconds() const;

    bool enabled() const { return config_.failureThreshold > 0; }

  private:
    using Clock = std::chrono::steady_clock;

    Config config_;
    mutable std::mutex mutex_;
    State state_ = State::Closed;
    std::size_t consecutiveFailures_ = 0;
    bool probeInFlight_ = false;
    Clock::time_point openedAt_{};
    std::atomic<std::uint64_t> opens_{0};
    std::atomic<std::uint64_t> fastFailures_{0};
};

/** The /healthz states, in order of increasing trouble. */
enum class HealthState
{
    Ok,
    Degraded,
    Draining
};

/** Display name ("ok", "degraded", "draining"). */
const char *healthStateName(HealthState state);

/** Tracks admission outcomes and stuck workers; derives the state. */
class HealthMonitor
{
  public:
    struct Config
    {
        /** Sliding window of recent admission outcomes. */
        std::size_t windowSize = 64;

        /** Shed fraction of the window that enters Degraded. */
        double degradeRatio = 0.5;

        /** Shed fraction at or below which Degraded recovers to Ok
         *  (hysteresis; must be < degradeRatio). */
        double recoverRatio = 0.125;

        /** Outcomes required before the ratio is trusted at all. */
        std::size_t minSamples = 16;
    };

    explicit HealthMonitor(Config config);
    HealthMonitor() : HealthMonitor(Config{}) {}

    HealthMonitor(const HealthMonitor &) = delete;
    HealthMonitor &operator=(const HealthMonitor &) = delete;

    /** One scoring request admitted past the gate. */
    void onAdmitted();

    /** One scoring request shed because the gate was full. */
    void onShed();

    /** Stuck-worker feed: how many requests are past their deadline
     *  (plus grace) and not yet answered. Any non-zero count forces
     *  Degraded while it lasts. */
    void onStuckWorkers(std::size_t stuck);

    /** Latch Draining (graceful shutdown has begun). One-way. */
    void setDraining();

    HealthState state() const;
    const char *stateName() const { return healthStateName(state()); }

  private:
    void recordOutcome(bool shed); // locks mutex_.

    Config config_;
    mutable std::mutex mutex_;
    std::vector<bool> window_; ///< ring buffer: true = shed.
    std::size_t next_ = 0;
    std::size_t filled_ = 0;
    std::size_t shedInWindow_ = 0;
    bool degraded_ = false;
    std::atomic<std::size_t> stuckWorkers_{0};
    std::atomic<bool> draining_{false};
};

} // namespace server
} // namespace hiermeans

#endif // HIERMEANS_SERVER_RESILIENCE_H
