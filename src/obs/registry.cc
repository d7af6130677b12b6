#include "src/obs/registry.h"

#include <algorithm>
#include <set>

#include "src/util/error.h"

namespace hiermeans {
namespace obs {

void
Histogram::observe(double millis)
{
    const std::size_t bucket = static_cast<std::size_t>(
        std::lower_bound(kBounds.begin(), kBounds.end(), millis) -
        kBounds.begin());
    std::lock_guard<std::mutex> lock(mutex_);
    ++buckets_[bucket];
    sum_ += millis;
}

Histogram::Counts
Histogram::counts() const
{
    Counts out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        out.count += buckets_[i];
        if (i < out.cumulative.size())
            out.cumulative[i] = out.count;
    }
    out.sum = sum_;
    return out;
}

std::vector<Sample>
scalar(double value)
{
    return {Sample{{}, value}};
}

std::vector<Sample>
oneHot(std::initializer_list<const char *> states, std::string_view active,
       const Labels &base)
{
    std::vector<Sample> samples;
    for (const char *state : states) {
        Sample &sample = samples.emplace_back();
        sample.labels = base;
        sample.labels.emplace_back("state", state);
        sample.value = active == state ? 1.0 : 0.0;
    }
    return samples;
}

Labels
Registry::Family::labelsOf(std::size_t series) const
{
    if (label.empty())
        return {};
    return {{label, values[series]}};
}

Registry::Family &
Registry::declare(const std::string &name, const std::string &help,
                  const char *type, const std::string &label,
                  const std::vector<std::string> &values)
{
    HM_REQUIRE(validMetricName(name), "Registry: bad metric name `"
                                          << name << "`");
    for (const auto &family : families_)
        HM_REQUIRE(family->name != name,
                   "Registry: `" << name << "` declared twice");
    auto family = std::make_unique<Family>();
    family->name = name;
    family->help = help;
    family->type = type;
    family->label = label;
    family->values = values;
    families_.push_back(std::move(family));
    return *families_.back();
}

Counter &
Registry::counter(const std::string &name, const std::string &help)
{
    return counter(name, help, "", {""}).front();
}

std::deque<Counter> &
Registry::counter(const std::string &name, const std::string &help,
                  const std::string &label,
                  const std::vector<std::string> &values)
{
    Family &family = declare(name, help, "counter", label, values);
    for (std::size_t i = 0; i < values.size(); ++i)
        family.counters.emplace_back();
    return family.counters;
}

void
Registry::counter(const std::string &name, const std::string &help,
                  Collect collect)
{
    declare(name, help, "counter").collect = std::move(collect);
}

Gauge &
Registry::gauge(const std::string &name, const std::string &help)
{
    return declare(name, help, "gauge").gauges.emplace_back();
}

void
Registry::gauge(const std::string &name, const std::string &help,
                Collect collect)
{
    declare(name, help, "gauge").collect = std::move(collect);
}

Histogram &
Registry::histogram(const std::string &name, const std::string &help)
{
    return histogram(name, help, "", {""}).front();
}

std::deque<Histogram> &
Registry::histogram(const std::string &name, const std::string &help,
                    const std::string &label,
                    const std::vector<std::string> &values)
{
    Family &family = declare(name, help, "histogram", label, values);
    for (std::size_t i = 0; i < values.size(); ++i)
        family.histograms.emplace_back();
    return family.histograms;
}

void
Registry::render(PrometheusWriter &writer) const
{
    static const std::vector<double> kBounds(Histogram::kBounds.begin(),
                                             Histogram::kBounds.end());
    for (const auto &owned : families_) {
        const Family &family = *owned;
        writer.header(family.name, family.help, family.type);
        for (std::size_t i = 0; i < family.counters.size(); ++i)
            writer.counter(family.name, family.labelsOf(i),
                           family.counters[i].value());
        for (std::size_t i = 0; i < family.gauges.size(); ++i)
            writer.gauge(family.name, family.labelsOf(i),
                         static_cast<double>(family.gauges[i].value()));
        for (std::size_t i = 0; i < family.histograms.size(); ++i) {
            const Histogram::Counts counts = family.histograms[i].counts();
            writer.histogram(
                family.name, family.labelsOf(i), kBounds,
                {counts.cumulative.begin(), counts.cumulative.end()},
                counts.sum, counts.count);
        }
        if (!family.collect)
            continue;
        for (const Sample &sample : family.collect()) {
            if (family.type == "counter")
                writer.counter(family.name, sample.labels,
                               static_cast<std::uint64_t>(sample.value));
            else
                writer.gauge(family.name, sample.labels, sample.value);
        }
    }
}

std::string
Registry::render() const
{
    PrometheusWriter writer;
    render(writer);
    return writer.text();
}

std::vector<std::string>
missingSeries(const Registry &declared, const std::string &body)
{
    const std::vector<std::string> present = seriesKeys(body);
    const std::set<std::string> seen(present.begin(), present.end());
    std::vector<std::string> issues;
    for (const std::string &key : seriesKeys(declared.render()))
        if (seen.count(key) == 0)
            issues.push_back("missing series " + key);
    return issues;
}

} // namespace obs
} // namespace hiermeans
