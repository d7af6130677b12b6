/**
 * @file
 * The metric registry: each `/metrics` family is declared once, as
 * the instrument the code increments, and the exposition is rendered
 * from those declarations.
 *
 * A family's name, HELP and TYPE are written once, at declaration.
 * There are three kinds of family:
 *  - counters (and the one up/down connection gauge): atomics the
 *    request path bumps lock-free;
 *  - histograms: fixed buckets on the 0.5 ms … 10 s ladder, a sum and
 *    a count behind one mutex;
 *  - callback families: read at scrape time, for state that lives
 *    elsewhere (the admission gate, the breaker, the store, drift, the
 *    tracer, mesh peers).
 *
 * A labelled counter or histogram takes one label and the full list of
 * its values at declaration, so every series exists — and renders at
 * zero — before the first event.
 */

#ifndef HIERMEANS_OBS_REGISTRY_H
#define HIERMEANS_OBS_REGISTRY_H

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/prometheus.h"

namespace hiermeans {
namespace obs {

/** A monotonic count; lock-free. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** A level that moves both ways (connections in service); lock-free. */
class Gauge
{
  public:
    void add(std::int64_t delta)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }
    std::int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> value_{0};
};

/** A latency histogram (milliseconds) with fixed buckets. */
class Histogram
{
  public:
    /** Finite bucket upper bounds, 0.5 ms … 10 s; a sample equal to a
     *  bound lands in that bucket, one above the last only in +Inf. */
    static constexpr std::array<double, 14> kBounds = {
        0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000,
        10000};

    /** Count one sample. Thread-safe. */
    void observe(double millis);

    /** One consistent read: the `_count` is taken in the same locked
     *  pass as the buckets, so it always equals the +Inf bucket. */
    struct Counts
    {
        /** Samples <= kBounds[i]. */
        std::array<std::uint64_t, kBounds.size()> cumulative{};
        std::uint64_t count = 0;
        double sum = 0.0;
    };
    Counts counts() const;

  private:
    mutable std::mutex mutex_;
    /** Per-bucket (not cumulative) counts; the last slot is +Inf. */
    std::array<std::uint64_t, kBounds.size() + 1> buckets_{};
    double sum_ = 0.0;
};

/** One series of a callback family, read at scrape time. */
struct Sample
{
    Labels labels;
    double value = 0.0;
};

/** A callback family's reader: every series it has right now. */
using Collect = std::function<std::vector<Sample>()>;

/** One unlabelled series of @p value. */
std::vector<Sample> scalar(double value);

/**
 * A one-hot state gauge: one series per @p states value under a
 * `state` label (after @p base), 1 on @p active and 0 elsewhere.
 */
std::vector<Sample> oneHot(std::initializer_list<const char *> states,
                           std::string_view active,
                           const Labels &base = {});

/** The families one component declares, in declaration order. */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** An unlabelled counter. */
    Counter &counter(const std::string &name, const std::string &help);

    /** A counter with one series per value of @p label, indexed in
     *  the order of @p values. */
    std::deque<Counter> &counter(const std::string &name,
                                 const std::string &help,
                                 const std::string &label,
                                 const std::vector<std::string> &values);

    /** A counter family whose series @p collect reads at scrape time
     *  (for counts another component already keeps). */
    void counter(const std::string &name, const std::string &help,
                 Collect collect);

    /** An unlabelled up/down gauge. */
    Gauge &gauge(const std::string &name, const std::string &help);

    /** A gauge family whose series @p collect reads at scrape time. */
    void gauge(const std::string &name, const std::string &help,
               Collect collect);

    /** An unlabelled latency histogram. */
    Histogram &histogram(const std::string &name,
                         const std::string &help);

    /** A histogram with one series per value of @p label. */
    std::deque<Histogram> &
    histogram(const std::string &name, const std::string &help,
              const std::string &label,
              const std::vector<std::string> &values);

    /** Append every family (HELP, TYPE, then its series) to
     *  @p writer. A family with no series keeps its HELP/TYPE. */
    void render(PrometheusWriter &writer) const;

    /** The exposition of this registry alone. */
    std::string render() const;

  private:
    struct Family
    {
        std::string name;
        std::string help;
        std::string type;
        std::string label; ///< "" = one unlabelled series.
        std::vector<std::string> values;
        std::deque<Counter> counters;
        std::deque<Gauge> gauges;
        std::deque<Histogram> histograms;
        Collect collect;

        Labels labelsOf(std::size_t series) const;
    };

    Family &declare(const std::string &name, const std::string &help,
                    const char *type, const std::string &label = "",
                    const std::vector<std::string> &values = {""});

    std::vector<std::unique_ptr<Family>> families_;
};

/**
 * The series @p declared renders that @p body lacks — how a scraper
 * proves a daemon exposes every series a build declares. One issue
 * per missing series; empty means all present.
 */
std::vector<std::string> missingSeries(const Registry &declared,
                                       const std::string &body);

} // namespace obs
} // namespace hiermeans

#endif // HIERMEANS_OBS_REGISTRY_H
