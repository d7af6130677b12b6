/**
 * @file
 * Prometheus text exposition format, version 0.0.4: a writer that
 * emits `# HELP`/`# TYPE` annotated counters, gauges and histograms,
 * and a lexical validator used by tests, smoke_server.sh (via
 * `hmctl --check`) and CI to prove every line `GET /metrics` serves
 * is well-formed exposition.
 *
 * Conventions enforced by the writer:
 *  - metric names are `hiermeans_<subsystem>_<name>` with unit
 *    suffixes (`_total`, `_ms`, `_bytes`) — the caller supplies the
 *    full name, the writer validates it;
 *  - histograms emit cumulative `_bucket{le="..."}` series ending in
 *    `le="+Inf"`, then `_sum` and `_count`;
 *  - label values are escaped per the spec (backslash, quote, \n).
 */

#ifndef HIERMEANS_OBS_PROMETHEUS_H
#define HIERMEANS_OBS_PROMETHEUS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hiermeans {
namespace obs {

/** `name="value"` pairs attached to one sample. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** Accumulates one exposition document. */
class PrometheusWriter
{
  public:
    /** Emit `# HELP`/`# TYPE` for @p name (once per metric family). */
    void header(const std::string &name, const std::string &help,
                const std::string &type);

    /** One counter sample. Family must have been header()'d. */
    void counter(const std::string &name, const Labels &labels,
                 std::uint64_t value);

    /** One gauge sample. */
    void gauge(const std::string &name, const Labels &labels,
               double value);

    /**
     * One histogram: cumulative `_bucket` counts per upper bound in
     * @p bounds (must be sorted ascending; the `+Inf` bucket is
     * implicit and equals @p count), then `_sum` and `_count`.
     */
    void histogram(const std::string &name, const Labels &labels,
                   const std::vector<double> &bounds,
                   const std::vector<std::uint64_t> &cumulative,
                   double sum, std::uint64_t count);

    const std::string &text() const { return text_; }

  private:
    void sample(const std::string &name, const Labels &labels,
                const std::string &value);

    std::string text_;
};

/** Label-value escaping per the exposition spec. */
std::string escapeLabelValue(const std::string &value);

/** True when @p name matches `[a-zA-Z_:][a-zA-Z0-9_:]*`. */
bool validMetricName(const std::string &name);

/**
 * Lexically validate an exposition document: every line is a comment
 * (`# HELP`/`# TYPE ... counter|gauge|histogram|summary|untyped`), a
 * sample (`name{labels} value [timestamp]`), or blank; every sample
 * belongs to a `# TYPE`d family; histogram families end with a
 * `+Inf` bucket and have `_sum`/`_count`; every `state`-labelled
 * gauge is one-hot, summing to exactly 1 per group of its other
 * labels. Returns human-readable problems, one per offending line or
 * group; empty means valid.
 */
std::vector<std::string> lintExposition(const std::string &text);

/** The series key (`name{labels}`, as written) of every sample line
 *  in @p text, in document order. */
std::vector<std::string> seriesKeys(const std::string &text);

} // namespace obs
} // namespace hiermeans

#endif // HIERMEANS_OBS_PROMETHEUS_H
