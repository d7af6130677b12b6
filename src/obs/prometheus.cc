#include "src/obs/prometheus.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>

namespace hiermeans {
namespace obs {
namespace {

std::string
formatDouble(double value)
{
    if (std::isinf(value))
        return value > 0 ? "+Inf" : "-Inf";
    if (std::isnan(value))
        return "NaN";
    char buffer[64];
    /* %.17g survives a parse round-trip; trim to %g when exact. */
    std::snprintf(buffer, sizeof(buffer), "%g", value);
    double parsed = 0.0;
    std::sscanf(buffer, "%lf", &parsed);
    if (parsed != value)
        std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

std::string
renderLabels(const Labels &labels)
{
    if (labels.empty())
        return "";
    std::string out = "{";
    bool first = true;
    for (const auto &label : labels) {
        if (!first)
            out += ',';
        first = false;
        out += label.first;
        out += "=\"";
        out += escapeLabelValue(label.second);
        out += '"';
    }
    out += '}';
    return out;
}

} // namespace

std::string
escapeLabelValue(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        switch (c) {
        case '\\':
            out += "\\\\";
            break;
        case '"':
            out += "\\\"";
            break;
        case '\n':
            out += "\\n";
            break;
        default:
            out += c;
        }
    }
    return out;
}

bool
validMetricName(const std::string &name)
{
    if (name.empty())
        return false;
    auto headOk = [](char c) {
        return std::isalpha(static_cast<unsigned char>(c)) ||
               c == '_' || c == ':';
    };
    auto tailOk = [&](char c) {
        return headOk(c) ||
               std::isdigit(static_cast<unsigned char>(c));
    };
    if (!headOk(name[0]))
        return false;
    for (std::size_t i = 1; i < name.size(); ++i)
        if (!tailOk(name[i]))
            return false;
    return true;
}

void
PrometheusWriter::header(const std::string &name,
                         const std::string &help,
                         const std::string &type)
{
    text_ += "# HELP " + name + ' ' + help + '\n';
    text_ += "# TYPE " + name + ' ' + type + '\n';
}

void
PrometheusWriter::sample(const std::string &name, const Labels &labels,
                         const std::string &value)
{
    text_ += name + renderLabels(labels) + ' ' + value + '\n';
}

void
PrometheusWriter::counter(const std::string &name, const Labels &labels,
                          std::uint64_t value)
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%llu",
                  static_cast<unsigned long long>(value));
    sample(name, labels, buffer);
}

void
PrometheusWriter::gauge(const std::string &name, const Labels &labels,
                        double value)
{
    sample(name, labels, formatDouble(value));
}

void
PrometheusWriter::histogram(const std::string &name,
                            const Labels &labels,
                            const std::vector<double> &bounds,
                            const std::vector<std::uint64_t> &cumulative,
                            double sum, std::uint64_t count)
{
    for (std::size_t i = 0; i < bounds.size(); ++i) {
        Labels bucketLabels = labels;
        bucketLabels.emplace_back("le", formatDouble(bounds[i]));
        counter(name + "_bucket", bucketLabels,
                i < cumulative.size() ? cumulative[i] : count);
    }
    Labels infLabels = labels;
    infLabels.emplace_back("le", "+Inf");
    counter(name + "_bucket", infLabels, count);
    sample(name + "_sum", labels, formatDouble(sum));
    counter(name + "_count", labels, count);
}

namespace {

/* --- lint helpers ------------------------------------------------- */

struct LineScanner
{
    const std::string &line;
    std::size_t pos = 0;

    explicit LineScanner(const std::string &l) : line(l) {}

    bool done() const { return pos >= line.size(); }
    char peek() const { return done() ? '\0' : line[pos]; }

    bool scanName(std::string &out)
    {
        const std::size_t start = pos;
        while (!done()) {
            const char c = line[pos];
            const bool ok =
                std::isalnum(static_cast<unsigned char>(c)) ||
                c == '_' || c == ':';
            if (!ok)
                break;
            ++pos;
        }
        out = line.substr(start, pos - start);
        return !out.empty() &&
               !std::isdigit(static_cast<unsigned char>(out[0]));
    }

    /** Scan an optional `{...}` label set into @p labels (values
     *  kept escaped). */
    bool scanLabels(Labels &labels)
    {
        if (peek() != '{')
            return true;
        ++pos;
        if (peek() == '}') { /* empty label set is legal */
            ++pos;
            return true;
        }
        while (true) {
            std::string labelName;
            if (!scanName(labelName))
                return false;
            if (peek() != '=')
                return false;
            ++pos;
            if (peek() != '"')
                return false;
            ++pos;
            const std::size_t valueStart = pos;
            while (!done() && peek() != '"') {
                if (peek() == '\\') {
                    ++pos;
                    const char esc = peek();
                    if (esc != '\\' && esc != '"' && esc != 'n')
                        return false;
                }
                ++pos;
            }
            if (peek() != '"')
                return false;
            labels.emplace_back(labelName,
                                line.substr(valueStart, pos - valueStart));
            ++pos;
            if (peek() == ',') {
                ++pos;
                continue;
            }
            break;
        }
        if (peek() != '}')
            return false;
        ++pos;
        return true;
    }

    bool scanValue(double &value)
    {
        while (!done() && peek() == ' ')
            ++pos;
        const std::size_t start = pos;
        while (!done() && peek() != ' ')
            ++pos;
        const std::string token = line.substr(start, pos - start);
        if (token.empty())
            return false;
        /* strtod also takes the spec's +Inf, -Inf and NaN. */
        char *end = nullptr;
        value = std::strtod(token.c_str(), &end);
        return end != nullptr && *end == '\0';
    }
};

} // namespace

std::vector<std::string>
seriesKeys(const std::string &text)
{
    std::vector<std::string> keys;
    std::istringstream stream(text);
    std::string line;
    while (std::getline(stream, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        LineScanner scanner(line);
        std::string name;
        Labels labels;
        if (scanner.scanName(name) && scanner.scanLabels(labels))
            keys.push_back(line.substr(0, scanner.pos));
    }
    return keys;
}

std::vector<std::string>
lintExposition(const std::string &text)
{
    std::vector<std::string> problems;
    if (text.empty()) {
        problems.push_back("document is empty");
        return problems;
    }
    if (text.back() != '\n')
        problems.push_back("document must end with a newline");

    static const std::set<std::string> kTypes = {
        "counter", "gauge", "histogram", "summary", "untyped"};

    std::map<std::string, std::string> typedFamilies;
    /* histogram family -> {sawInf, sawSum, sawCount} */
    struct HistogramState
    {
        bool inf = false;
        bool sum = false;
        bool count = false;
    };
    std::map<std::string, HistogramState> histograms;
    /* `family{other labels}` -> sum of its `state`-labelled series. */
    std::map<std::string, double> oneHot;

    std::istringstream stream(text);
    std::string line;
    std::size_t lineNo = 0;
    auto complain = [&](const std::string &what) {
        problems.push_back("line " + std::to_string(lineNo) + ": " +
                           what + ": " + line);
    };

    while (std::getline(stream, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        if (line[0] == '#') {
            std::istringstream comment(line);
            std::string hash, keyword, name;
            comment >> hash >> keyword >> name;
            if (keyword == "TYPE") {
                std::string type;
                comment >> type;
                if (!validMetricName(name))
                    complain("bad metric name in TYPE");
                else if (kTypes.find(type) == kTypes.end())
                    complain("unknown metric type '" + type + "'");
                else
                    typedFamilies[name] = type;
            } else if (keyword == "HELP") {
                if (!validMetricName(name))
                    complain("bad metric name in HELP");
            }
            /* Other comments are free-form and legal. */
            continue;
        }

        LineScanner scanner(line);
        std::string name;
        if (!scanner.scanName(name)) {
            complain("sample does not start with a metric name");
            continue;
        }
        Labels labels;
        if (!scanner.scanLabels(labels)) {
            complain("malformed label set");
            continue;
        }
        if (scanner.peek() != ' ') {
            complain("expected space before value");
            continue;
        }
        double value = 0.0;
        if (!scanner.scanValue(value)) {
            complain("malformed sample value");
            continue;
        }
        /* Optional timestamp: integer milliseconds. */
        while (!scanner.done() && scanner.peek() == ' ')
            ++scanner.pos;
        if (!scanner.done()) {
            const std::string rest = line.substr(scanner.pos);
            char *end = nullptr;
            std::strtoll(rest.c_str(), &end, 10);
            if (end == nullptr || *end != '\0') {
                complain("trailing garbage after value");
                continue;
            }
        }

        /* A sample belongs to its own family, or — for histogram
         * series — the family minus the _bucket/_sum/_count suffix. */
        std::string family = name;
        bool isBucket = false, isSum = false, isCount = false;
        auto stripSuffix = [&](const char *suffix, bool &flag) {
            const std::size_t n = std::string(suffix).size();
            if (family.size() > n &&
                family.compare(family.size() - n, n, suffix) == 0 &&
                typedFamilies.count(family.substr(
                    0, family.size() - n))) {
                family = family.substr(0, family.size() - n);
                flag = true;
            }
        };
        stripSuffix("_bucket", isBucket);
        if (!isBucket)
            stripSuffix("_sum", isSum);
        if (!isBucket && !isSum)
            stripSuffix("_count", isCount);

        auto typeIt = typedFamilies.find(family);
        if (typeIt == typedFamilies.end()) {
            complain("sample for family '" + family +
                     "' has no preceding # TYPE");
            continue;
        }
        if (typeIt->second == "histogram") {
            HistogramState &state = histograms[family];
            if (isBucket) {
                if (line.find("le=\"+Inf\"") != std::string::npos)
                    state.inf = true;
                else if (line.find("le=\"") == std::string::npos)
                    complain("histogram bucket without le label");
            } else if (isSum) {
                state.sum = true;
            } else if (isCount) {
                state.count = true;
            } else {
                complain("bare sample in histogram family");
            }
        } else if (isBucket) {
            complain("_bucket sample in non-histogram family");
        } else if (typeIt->second == "gauge") {
            /* A state-labelled gauge is one-hot: each group of its
             * other labels must sum to exactly 1. */
            std::string others; // kept as written (escaped).
            bool stateful = false;
            for (const auto &[labelName, labelValue] : labels) {
                if (labelName == "state")
                    stateful = true;
                else
                    others += (others.empty() ? "" : ",") + labelName +
                              "=\"" + labelValue + '"';
            }
            if (stateful)
                oneHot[others.empty() ? family
                                      : family + '{' + others + '}'] +=
                    value;
        }
    }

    for (const auto &[group, sum] : oneHot)
        if (sum != 1.0)
            problems.push_back("state gauge " + group +
                               " is not one-hot (sum " + formatDouble(sum) +
                               ")");

    for (const auto &entry : histograms) {
        if (!entry.second.inf)
            problems.push_back("histogram '" + entry.first +
                               "' missing le=\"+Inf\" bucket");
        if (!entry.second.sum)
            problems.push_back("histogram '" + entry.first +
                               "' missing _sum");
        if (!entry.second.count)
            problems.push_back("histogram '" + entry.first +
                               "' missing _count");
    }
    return problems;
}

} // namespace obs
} // namespace hiermeans
