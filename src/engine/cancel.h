/**
 * @file
 * Cooperative cancellation for in-flight scoring work.
 *
 * A CancelSource is owned by whoever can give up on a request — the
 * HTTP handler (the line's deadline, or a worker still wedged past it)
 * or the drain state machine (process shutdown). The CancelToken it
 * hands out is a cheap shared view that the engine threads poll at
 * stage boundaries: at dequeue (purge without burning a worker),
 * between pipeline stages, and before the result is cached. The token
 * is the only deadline the engine enforces.
 *
 * Two ways for a token to fire:
 *   - an explicit cancel() on its source (or on any *parent* source
 *     it is chained to — the drain source is the parent of every
 *     per-request source, so one cancel() sweeps all in-flight work);
 *   - its deadline passing: setDeadline() arms one absolute
 *     steady-clock deadline, and the token fires once it is behind us.
 *
 * A default-constructed token is null: never cancelled, infinite
 * budget. That keeps call sites unconditional — batch paths and
 * tests that don't care about deadlines pass the null token.
 */

#ifndef HIERMEANS_ENGINE_CANCEL_H
#define HIERMEANS_ENGINE_CANCEL_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <utility>

namespace hiermeans {
namespace engine {

namespace detail {

struct CancelState
{
    using Clock = std::chrono::steady_clock;

    std::atomic<bool> cancelled{false};
    /** Clock::time_point::max() = no deadline armed. */
    Clock::time_point deadline = Clock::time_point::max();
    std::shared_ptr<const CancelState> parent;

    bool fired() const
    {
        if (cancelled.load(std::memory_order_acquire))
            return true;
        if (deadline != Clock::time_point::max() && Clock::now() > deadline)
            return true;
        return parent && parent->fired();
    }

    double remaining() const
    {
        double left = std::numeric_limits<double>::infinity();
        if (deadline != Clock::time_point::max())
            left = std::chrono::duration<double, std::milli>(
                       deadline - Clock::now())
                       .count();
        if (parent) {
            const double up = parent->remaining();
            if (up < left)
                left = up;
        }
        return left;
    }
};

} // namespace detail

/** Shared view polled by engine threads. Copyable, thread-safe. */
class CancelToken
{
  public:
    /** Null token: never cancelled, infinite budget. */
    CancelToken() = default;

    /** True when the source cancelled, the deadline expired, or any
     *  chained parent fired. A null token is never cancelled. */
    bool cancelled() const { return state_ && state_->fired(); }

    /** Millis left in the tightest armed budget along the chain;
     *  +inf when no deadline is armed (or the token is null). */
    double remainingMillis() const
    {
        return state_ ? state_->remaining()
                      : std::numeric_limits<double>::infinity();
    }

    /** True when this token is wired to a source. */
    bool valid() const { return state_ != nullptr; }

  private:
    friend class CancelSource;
    explicit CancelToken(std::shared_ptr<const detail::CancelState> state)
        : state_(std::move(state))
    {}

    std::shared_ptr<const detail::CancelState> state_;
};

/** The owning side: cancel() and deadline arming. */
class CancelSource
{
  public:
    CancelSource() : state_(std::make_shared<detail::CancelState>()) {}

    /** A source whose token also fires when @p parent's does — the
     *  drain source is the parent of every per-request source. */
    explicit CancelSource(const CancelToken &parent)
        : state_(std::make_shared<detail::CancelState>())
    {
        state_->parent = parent.state_;
    }

    /** Fire the token (idempotent, thread-safe). */
    void cancel() { state_->cancelled.store(true, std::memory_order_release); }

    /**
     * Arm a deadline @p budget_millis after @p from (default: now);
     * <= 0 disarms. Budgets are capped at a year, which keeps the
     * time arithmetic in range and is "no deadline" in practice. Call
     * before sharing the token — arming is not synchronized.
     */
    void setDeadline(double budget_millis,
                     std::chrono::steady_clock::time_point from =
                         std::chrono::steady_clock::now())
    {
        constexpr double kMaxBudgetMillis = 365.0 * 24 * 3600 * 1000;
        state_->deadline =
            budget_millis > 0.0
                ? from + std::chrono::duration_cast<
                             std::chrono::steady_clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 std::min(budget_millis, kMaxBudgetMillis)))
                : std::chrono::steady_clock::time_point::max();
    }

    /** The armed deadline; time_point::max() when none is armed. */
    std::chrono::steady_clock::time_point deadline() const
    {
        return state_->deadline;
    }

    bool cancelled() const { return state_->fired(); }

    CancelToken token() const { return CancelToken(state_); }

  private:
    std::shared_ptr<detail::CancelState> state_;
};

} // namespace engine
} // namespace hiermeans

#endif // HIERMEANS_ENGINE_CANCEL_H
