/**
 * @file
 * Shared check for the loopback tests that scrape /metrics: every
 * family a daemon serves must have its row in DESIGN.md §11's metric
 * table — the type, the HELP text it is served with and, when the
 * scrape shows series, the labels they carry. A test including this
 * header gets the DESIGN.md path as HM_DESIGN_MD from
 * tests/CMakeLists.txt.
 */

#ifndef HIERMEANS_TESTS_METRIC_DOCS_H
#define HIERMEANS_TESTS_METRIC_DOCS_H

#include <gtest/gtest.h>
#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/prometheus.h"
#include "src/util/file.h"

#ifndef HM_DESIGN_MD
#error "metric_docs.h needs HM_DESIGN_MD from tests/CMakeLists.txt"
#endif

/** What one served family says about itself. */
struct ServedFamily
{
    std::string type;
    std::string help;
    bool hasSeries = false;
    std::vector<std::string> labels; ///< first-seen order, no `le`.
};

/** The label names of one series key (`name{a="x",b="y"}`). */
inline std::vector<std::string>
labelNames(const std::string &key)
{
    std::vector<std::string> names;
    std::size_t at = key.find('{');
    while (at != std::string::npos && key[at] != '}') {
        const std::size_t equals = key.find('=', at);
        names.push_back(key.substr(at + 1, equals - at - 1));
        std::size_t end = equals + 2; // past the opening quote.
        while (key[end] != '"')
            end += key[end] == '\\' ? 2 : 1;
        at = end + 1; // the ',' or the closing '}'.
    }
    return names;
}

/** One failure per family of @p body whose DESIGN.md row is missing
 *  or disagrees with what is served. */
inline void
expectFamiliesDocumented(const std::string &body)
{
    std::map<std::string, ServedFamily> families;
    std::istringstream lines(body);
    std::string line;
    while (std::getline(lines, line)) {
        std::istringstream fields(line);
        std::string hash, keyword, name;
        fields >> hash >> keyword >> name;
        if (hash == "#" && keyword == "TYPE")
            fields >> families[name].type;
        else if (hash == "#" && keyword == "HELP")
            std::getline(fields >> std::ws, families[name].help);
    }
    ASSERT_FALSE(families.empty()) << "no families in the body";
    for (const std::string &key : hiermeans::obs::seriesKeys(body)) {
        std::string name = key.substr(0, key.find('{'));
        for (const std::string suffix : {"_bucket", "_sum", "_count"})
            if (families.count(name) == 0 && name.size() > suffix.size() &&
                name.compare(name.size() - suffix.size(), suffix.size(),
                             suffix) == 0)
                name.resize(name.size() - suffix.size());
        ASSERT_EQ(families.count(name), 1u) << key;
        ServedFamily &family = families[name];
        family.hasSeries = true;
        for (const std::string &label : labelNames(key))
            if (label != "le" &&
                std::find(family.labels.begin(), family.labels.end(),
                          label) == family.labels.end())
                family.labels.push_back(label);
    }

    const std::string design = hiermeans::util::readFile(HM_DESIGN_MD);
    for (const auto &[name, family] : families) {
        // A family without series shows no labels to check.
        const std::string head = "| `" + name + "` | " + family.type + " | ";
        const std::string tail = " | " + family.help + " |\n";
        std::string labels = family.labels.empty() ? "—" : "";
        for (const std::string &label : family.labels)
            labels += (labels.empty() ? "`" : ", `") + label + "`";
        const std::size_t row = design.find(head);
        const std::size_t end = design.find('\n', row);
        const std::string found =
            row == std::string::npos ? "" : design.substr(row, end - row + 1);
        EXPECT_TRUE(family.hasSeries ? found == head + labels + tail
                                     : found.size() > tail.size() &&
                                           found.compare(
                                               found.size() - tail.size(),
                                               tail.size(), tail) == 0)
            << "DESIGN.md's metric table row for " << name << " is\n  "
            << (found.empty() ? "(missing)\n" : found) << "but /metrics serves\n  "
            << head + labels + tail;
    }
}

#endif // HIERMEANS_TESTS_METRIC_DOCS_H
