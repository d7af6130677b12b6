/**
 * @file
 * Unit tests for the Prometheus text exposition writer, the metric
 * registry and its fixed-bucket histogram, and the checks that
 * `hmctl --check` and smoke_server.sh run against the live
 * `GET /metrics` body (the lexical lint with its one-hot rule, and the
 * declared-series check). The key property is the round trip: every
 * document PrometheusWriter emits must pass lintExposition.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/prometheus.h"
#include "src/obs/registry.h"

namespace hiermeans {
namespace obs {
namespace {

TEST(PrometheusWriterTest, CounterEmitsHeaderThenSample)
{
    PrometheusWriter writer;
    writer.header("hiermeans_server_requests_total",
                  "Requests accepted.", "counter");
    writer.counter("hiermeans_server_requests_total", {}, 42);

    EXPECT_EQ(writer.text(),
              "# HELP hiermeans_server_requests_total "
              "Requests accepted.\n"
              "# TYPE hiermeans_server_requests_total counter\n"
              "hiermeans_server_requests_total 42\n");
}

TEST(PrometheusWriterTest, LabelsRenderInDeclarationOrder)
{
    PrometheusWriter writer;
    writer.header("hiermeans_server_responses_total", "By class.",
                  "counter");
    writer.counter("hiermeans_server_responses_total",
                   {{"class", "2xx"}, {"endpoint", "score"}}, 7);
    EXPECT_NE(writer.text().find(
                  "hiermeans_server_responses_total"
                  "{class=\"2xx\",endpoint=\"score\"} 7\n"),
              std::string::npos);
}

TEST(PrometheusWriterTest, GaugeFormatsSpecialValues)
{
    PrometheusWriter writer;
    writer.header("hiermeans_test_gauge", "g", "gauge");
    writer.gauge("hiermeans_test_gauge", {{"k", "inf"}},
                 std::numeric_limits<double>::infinity());
    writer.gauge("hiermeans_test_gauge", {{"k", "frac"}}, 0.25);
    EXPECT_NE(writer.text().find("{k=\"inf\"} +Inf\n"),
              std::string::npos);
    EXPECT_NE(writer.text().find("{k=\"frac\"} 0.25\n"),
              std::string::npos);
    EXPECT_TRUE(lintExposition(writer.text()).empty());
}

TEST(PrometheusWriterTest, HistogramEmitsCumulativeBucketsSumCount)
{
    PrometheusWriter writer;
    writer.header("hiermeans_server_request_duration_ms", "Latency.",
                  "histogram");
    writer.histogram("hiermeans_server_request_duration_ms",
                     {{"endpoint", "score"}}, {1.0, 5.0}, {3, 9},
                     123.5, 10);

    const std::string &text = writer.text();
    EXPECT_NE(text.find("_bucket{endpoint=\"score\",le=\"1\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("_bucket{endpoint=\"score\",le=\"5\"} 9\n"),
              std::string::npos);
    EXPECT_NE(
        text.find("_bucket{endpoint=\"score\",le=\"+Inf\"} 10\n"),
        std::string::npos);
    EXPECT_NE(
        text.find("_sum{endpoint=\"score\"} 123.5\n"),
        std::string::npos);
    EXPECT_NE(text.find("_count{endpoint=\"score\"} 10\n"),
              std::string::npos);
    EXPECT_TRUE(lintExposition(text).empty());
}

TEST(PrometheusWriterTest, LabelValuesAreEscaped)
{
    EXPECT_EQ(escapeLabelValue("plain"), "plain");
    EXPECT_EQ(escapeLabelValue("a\"b"), "a\\\"b");
    EXPECT_EQ(escapeLabelValue("a\\b"), "a\\\\b");
    EXPECT_EQ(escapeLabelValue("a\nb"), "a\\nb");

    PrometheusWriter writer;
    writer.header("hiermeans_test_total", "t", "counter");
    writer.counter("hiermeans_test_total", {{"path", "a\"b\\c\nd"}},
                   1);
    EXPECT_TRUE(lintExposition(writer.text()).empty());
}

TEST(PrometheusWriterTest, MetricNameValidation)
{
    EXPECT_TRUE(validMetricName("hiermeans_engine_cache_hits_total"));
    EXPECT_TRUE(validMetricName("_leading_underscore"));
    EXPECT_TRUE(validMetricName("ns:subsystem:name"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("9starts_with_digit"));
    EXPECT_FALSE(validMetricName("has-dash"));
    EXPECT_FALSE(validMetricName("has space"));
}

TEST(LintExpositionTest, RoundTripOfAMixedDocumentIsClean)
{
    PrometheusWriter writer;
    writer.header("hiermeans_build_info", "Build metadata.", "gauge");
    writer.gauge("hiermeans_build_info", {{"version", "1.3.0"}}, 1);
    writer.header("hiermeans_server_requests_total", "Requests.",
                  "counter");
    writer.counter("hiermeans_server_requests_total", {}, 0);
    writer.header("hiermeans_engine_pipeline_duration_ms",
                  "Pipeline wall time.", "histogram");
    writer.histogram("hiermeans_engine_pipeline_duration_ms", {},
                     {0.5, 1.0, 2.5}, {0, 1, 2}, 4.25, 3);

    const std::vector<std::string> problems =
        lintExposition(writer.text());
    EXPECT_TRUE(problems.empty())
        << "first problem: " << problems.front();
}

TEST(LintExpositionTest, EmptyDocumentIsRejected)
{
    EXPECT_FALSE(lintExposition("").empty());
}

TEST(LintExpositionTest, MissingTrailingNewlineIsRejected)
{
    const std::string text = "# TYPE m counter\nm 1";
    EXPECT_FALSE(lintExposition(text).empty());
}

TEST(LintExpositionTest, SampleWithoutTypeIsRejected)
{
    EXPECT_FALSE(lintExposition("orphan_metric 1\n").empty());
}

TEST(LintExpositionTest, UnknownTypeIsRejected)
{
    EXPECT_FALSE(
        lintExposition("# TYPE m thermometer\nm 1\n").empty());
}

TEST(LintExpositionTest, MalformedLabelSetIsRejected)
{
    const std::string text =
        "# TYPE m counter\nm{unterminated=\"x} 1\n";
    EXPECT_FALSE(lintExposition(text).empty());
}

TEST(LintExpositionTest, NonNumericValueIsRejected)
{
    EXPECT_FALSE(
        lintExposition("# TYPE m counter\nm banana\n").empty());
}

TEST(LintExpositionTest, HistogramMissingInfBucketIsRejected)
{
    const std::string text =
        "# TYPE h histogram\n"
        "h_bucket{le=\"1\"} 2\n"
        "h_sum 3\n"
        "h_count 2\n";
    const std::vector<std::string> problems = lintExposition(text);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems.front().find("+Inf"), std::string::npos);
}

TEST(LintExpositionTest, HistogramMissingSumOrCountIsRejected)
{
    const std::string text =
        "# TYPE h histogram\n"
        "h_bucket{le=\"+Inf\"} 2\n";
    const std::vector<std::string> problems = lintExposition(text);
    // Both _sum and _count are missing.
    EXPECT_EQ(problems.size(), 2u);
}

TEST(LintExpositionTest, BucketInNonHistogramFamilyIsRejected)
{
    const std::string text =
        "# TYPE g_bucket counter\n"
        "# TYPE g gauge\n"
        "g_bucket{le=\"1\"} 2\n";
    EXPECT_FALSE(lintExposition(text).empty());
}

TEST(LintExpositionTest, TimestampsAndBlankLinesAreLegal)
{
    const std::string text =
        "# free-form comment\n"
        "# TYPE m counter\n"
        "\n"
        "m{a=\"b\"} 1 1712345678901\n";
    EXPECT_TRUE(lintExposition(text).empty());
}

TEST(LintExpositionTest, StateGaugeWithTwoHotSeriesIsRejected)
{
    const std::string text =
        "# TYPE h gauge\n"
        "h{state=\"ok\"} 1\n"
        "h{state=\"degraded\"} 1\n"
        "h{state=\"draining\"} 0\n";
    const std::vector<std::string> problems = lintExposition(text);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems.front().find("one-hot"), std::string::npos)
        << problems.front();
}

TEST(LintExpositionTest, StateGaugeWithNoHotSeriesIsRejected)
{
    const std::string text =
        "# TYPE h gauge\n"
        "h{state=\"ok\"} 0\n"
        "h{state=\"degraded\"} 0\n";
    EXPECT_EQ(lintExposition(text).size(), 1u);
}

TEST(LintExpositionTest, EachStateGroupIsCheckedOnItsOwn)
{
    // Suite a is one-hot; suite b is hot twice; suite c is never hot.
    // Summed together they would pass as 3 hot series over 3 suites.
    const std::string text =
        "# TYPE d gauge\n"
        "d{suite=\"a\",state=\"fresh\"} 1\n"
        "d{suite=\"a\",state=\"stale\"} 0\n"
        "d{suite=\"b\",state=\"fresh\"} 1\n"
        "d{suite=\"b\",state=\"stale\"} 1\n"
        "d{suite=\"c\",state=\"fresh\"} 0\n"
        "d{suite=\"c\",state=\"stale\"} 0\n";
    const std::vector<std::string> problems = lintExposition(text);
    ASSERT_EQ(problems.size(), 2u);
    EXPECT_NE(problems[0].find("suite=\"b\""), std::string::npos)
        << problems[0];
    EXPECT_NE(problems[1].find("suite=\"c\""), std::string::npos)
        << problems[1];
}

TEST(HistogramTest, SampleOnABoundLandsInThatBucket)
{
    Histogram histogram;
    histogram.observe(1.0);  // == the le="1" bound.
    histogram.observe(0.75); // between 0.5 and 1.
    const Histogram::Counts counts = histogram.counts();
    EXPECT_EQ(counts.cumulative[0], 0u); // le="0.5"
    EXPECT_EQ(counts.cumulative[1], 2u); // le="1"
    EXPECT_EQ(counts.count, 2u);
    EXPECT_DOUBLE_EQ(counts.sum, 1.75);
}

TEST(HistogramTest, SampleAboveTheLadderLandsOnlyInInf)
{
    Registry registry;
    Histogram &histogram =
        registry.histogram("hiermeans_test_duration_ms", "Latency.");
    histogram.observe(10000.0);
    histogram.observe(10000.5);
    const Histogram::Counts counts = histogram.counts();
    EXPECT_EQ(counts.cumulative.back(), 1u); // le="10000"
    EXPECT_EQ(counts.count, 2u);

    const std::string text = registry.render();
    EXPECT_NE(text.find("hiermeans_test_duration_ms_bucket{le=\"10000\"} "
                        "1\n"),
              std::string::npos)
        << text;
    // +Inf equals _count.
    EXPECT_NE(text.find("hiermeans_test_duration_ms_bucket{le=\"+Inf\"} "
                        "2\n"),
              std::string::npos);
    EXPECT_NE(text.find("hiermeans_test_duration_ms_count 2\n"),
              std::string::npos);
    EXPECT_TRUE(lintExposition(text).empty());
}

TEST(HistogramTest, ConcurrentRecordsGiveExactTotals)
{
    constexpr int kThreads = 4;
    constexpr int kRecords = 50000;
    Histogram histogram;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&histogram, t] {
            // Thread t records only samples of its own bucket.
            const double sample = Histogram::kBounds[2 * t];
            for (int i = 0; i < kRecords; ++i)
                histogram.observe(sample);
        });
    for (std::thread &thread : threads)
        thread.join();
    const Histogram::Counts counts = histogram.counts();
    EXPECT_EQ(counts.count,
              static_cast<std::uint64_t>(kThreads) * kRecords);
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(counts.cumulative[2 * t],
                  static_cast<std::uint64_t>(t + 1) * kRecords)
            << "bucket le=" << Histogram::kBounds[2 * t];
    double sum = 0.0;
    for (int t = 0; t < kThreads; ++t)
        sum += Histogram::kBounds[2 * t] * kRecords;
    EXPECT_DOUBLE_EQ(counts.sum, sum);
}

TEST(RegistryTest, DeclaredSeriesRenderAtZeroWithOneHeaderEach)
{
    Registry registry;
    registry.counter("hiermeans_test_requests_total", "Requests.");
    std::deque<Counter> &byClass = registry.counter(
        "hiermeans_test_responses_total", "By class.", "class",
        {"2xx", "5xx"});
    byClass[1].inc(3);
    registry.gauge("hiermeans_test_state", "One-hot.", [] {
        return oneHot({"up", "down"}, "up");
    });
    registry.gauge("hiermeans_test_empty", "No series yet.",
                   [] { return std::vector<Sample>{}; });

    EXPECT_EQ(registry.render(),
              "# HELP hiermeans_test_requests_total Requests.\n"
              "# TYPE hiermeans_test_requests_total counter\n"
              "hiermeans_test_requests_total 0\n"
              "# HELP hiermeans_test_responses_total By class.\n"
              "# TYPE hiermeans_test_responses_total counter\n"
              "hiermeans_test_responses_total{class=\"2xx\"} 0\n"
              "hiermeans_test_responses_total{class=\"5xx\"} 3\n"
              "# HELP hiermeans_test_state One-hot.\n"
              "# TYPE hiermeans_test_state gauge\n"
              "hiermeans_test_state{state=\"up\"} 1\n"
              "hiermeans_test_state{state=\"down\"} 0\n"
              "# HELP hiermeans_test_empty No series yet.\n"
              "# TYPE hiermeans_test_empty gauge\n");
    EXPECT_TRUE(lintExposition(registry.render()).empty());
}

TEST(RegistryTest, DeclaringAFamilyTwiceThrows)
{
    Registry registry;
    registry.counter("hiermeans_test_total", "Once.");
    EXPECT_THROW(registry.counter("hiermeans_test_total", "Twice."),
                 std::exception);
}

TEST(MissingSeriesTest, ABodyMissingOneDeclaredSeriesYieldsOneIssue)
{
    Registry registry;
    registry.counter("hiermeans_test_requests_total", "Requests.");
    registry.counter("hiermeans_test_wire_total", "By format.", "format",
                     {"json", "binary"});
    registry.histogram("hiermeans_test_duration_ms", "Latency.");
    const std::string full = registry.render();
    EXPECT_TRUE(missingSeries(registry, full).empty());

    const std::string dropped =
        "hiermeans_test_wire_total{format=\"binary\"} 0\n";
    std::string body = full;
    body.erase(body.find(dropped), dropped.size());
    const std::vector<std::string> issues = missingSeries(registry, body);
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_NE(issues.front().find(
                  "hiermeans_test_wire_total{format=\"binary\"}"),
              std::string::npos)
        << issues.front();
}

} // namespace
} // namespace obs
} // namespace hiermeans
