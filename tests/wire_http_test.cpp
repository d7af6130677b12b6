/**
 * The negotiated wire format end to end over loopback HTTP: a real
 * Server (durable store + drift armed, so every list endpoint is
 * live) driven both raw and through ScoringClient. Covers the
 * JSON-vs-binary bit-identity of score documents on /v1/score and
 * /v1/batch, the 415/406 negotiation failures with their stable
 * envelope codes, malformed binary bodies, binary observe intake,
 * the client's binary-by-default + sticky JSON fallback (via the
 * server.wire.reject fault point), and the shared `?limit=` bound
 * on /v1/traces, /v1/history and /v1/drift.
 */

#include <cstdio>
#include <gtest/gtest.h>
#include <memory>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "src/client/scoring_client.h"
#include "src/server/client.h"
#include "src/server/json.h"
#include "src/server/server.h"
#include "src/server/wire_json.h"
#include "src/util/fault.h"
#include "src/util/file.h"
#include "src/util/str.h"
#include "src/wire/wire.h"

namespace {

using namespace hiermeans;
using Response = server::HttpResponseParser::Response;
using Headers = server::HttpClient::Headers;

/** The `data` value of a /v1 envelope (object form). */
std::string
envelopeData(const std::string &body)
{
    const std::size_t at = body.find("\"data\":");
    const std::size_t end = body.find(",\"error\":", at);
    if (at == std::string::npos || end == std::string::npos)
        return "";
    return body.substr(at + 7, end - (at + 7));
}

/** Blank the per-request fields (timing, cache attribution) so two
 *  independently-served documents can be compared bit-for-bit. */
wire::ScoreDocument
deterministic(wire::ScoreDocument doc)
{
    doc.servedBy.clear();
    doc.wallMillis = 0.0;
    return doc;
}

class WireHttpTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        stem_ = "/tmp/hiermeans_wire_http_" +
                std::to_string(::getpid());
        dataDir_ = stem_ + "_data";
        wipeDataDir();
        scoresPath_ = stem_ + "_scores.csv";
        featuresPath_ = stem_ + "_features.csv";
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

        server::Server::Config config;
        config.port = 0;
        config.engine.threads = 2;
        config.queueDepth = 4;
        config.connectionThreads = 8;
        config.store.dataDir = dataDir_;
        config.store.fsyncEvery = 1;
        server_ = std::make_unique<server::Server>(config);
        server_->start();
    }

    void
    TearDown() override
    {
        fault::reset();
        if (server_ != nullptr)
            server_->stop();
        server_.reset();
        std::remove(scoresPath_.c_str());
        std::remove(featuresPath_.c_str());
        wipeDataDir();
    }

    void
    wipeDataDir()
    {
        if (!util::fileExists(dataDir_))
            return;
        for (const std::string &name : util::listDir(dataDir_))
            util::removeFile(dataDir_ + "/" + name);
        ::rmdir(dataDir_.c_str());
    }

    std::string
    line(const std::string &extra = "") const
    {
        return "scores=" + scoresPath_ + " features=" + featuresPath_ +
               " machine-a=mA machine-b=mB som-steps=150 seed=7" +
               (extra.empty() ? "" : " " + extra);
    }

    server::HttpClient
    client() const
    {
        return server::HttpClient("127.0.0.1", server_->port());
    }

    client::ScoringClient
    scoringClient(bool binary = true) const
    {
        client::ScoringClient::Config config;
        config.host = "127.0.0.1";
        config.port = server_->port();
        config.binaryWire = binary;
        return client::ScoringClient(config);
    }

    std::string stem_;
    std::string dataDir_;
    std::string scoresPath_;
    std::string featuresPath_;
    std::unique_ptr<server::Server> server_;
};

TEST_F(WireHttpTest, BinaryScoreMatchesJsonScoreBitIdentically)
{
    auto c = client();
    const Response viaJson =
        c.roundTrip("POST", "/v1/score", line(), "text/plain");
    ASSERT_EQ(viaJson.status, 200) << viaJson.body;
    const std::string jsonData = envelopeData(viaJson.body);
    ASSERT_FALSE(jsonData.empty());

    const std::string wireRequest = wire::encodeScoreRequest(line());
    const Response viaWire =
        c.roundTrip("POST", "/v1/score", wireRequest, wire::kMediaType,
                    {{"Accept", wire::acceptBoth()}});
    ASSERT_EQ(viaWire.status, 200);
    EXPECT_TRUE(wire::isWireMediaType(
        viaWire.header("content-type", "")));
    EXPECT_FALSE(viaWire.header("x-hiermeans-source", "").empty());
    // Binary moves fewer bytes than JSON, request plus response body.
    EXPECT_LT(wireRequest.size() + viaWire.body.size(),
              line().size() + viaJson.body.size());

    const wire::ScoreDocument doc =
        wire::decodeScoreReport(viaWire.body);
    EXPECT_EQ(server::scoreDocumentJson(
                  deterministic(server::scoreDocumentFromJson(jsonData))),
              server::scoreDocumentJson(deterministic(doc)));
}

TEST_F(WireHttpTest, BinaryBatchStreamMatchesNdjsonLineForLine)
{
    // The middle line parses (key=value) but fails to build — a
    // per-line error, not a whole-document 400.
    const std::vector<std::string> manifest = {
        line(),
        "scores=/no/such.csv features=/no/such.csv "
        "machine-a=mA machine-b=mB",
        line("k=4")};
    const std::string text =
        str::join(manifest, "\n") + "\n";

    auto c = client();
    const Response viaJson = c.roundTrip("POST", "/v1/batch", text,
                                         "text/plain");
    ASSERT_EQ(viaJson.status, 200) << viaJson.body;
    EXPECT_EQ(viaJson.header("content-type", ""),
              "application/x-ndjson");
    std::vector<std::string> ndjson;
    for (const std::string &row : str::split(viaJson.body, '\n'))
        if (!row.empty())
            ndjson.push_back(row);
    ASSERT_EQ(ndjson.size(), manifest.size());

    const std::string wireRequest = wire::encodeBatchManifest(manifest);
    const Response viaWire =
        c.roundTrip("POST", "/v1/batch", wireRequest, wire::kMediaType,
                    {{"Accept", wire::acceptBoth()}});
    ASSERT_EQ(viaWire.status, 200);
    EXPECT_TRUE(wire::isWireMediaType(
        viaWire.header("content-type", "")));
    // Binary moves fewer bytes than NDJSON for the same lines, request
    // plus response body.
    EXPECT_LT(wireRequest.size() + viaWire.body.size(),
              text.size() + viaJson.body.size());

    wire::FrameReader reader(viaWire.body);
    wire::Frame frame;
    std::vector<wire::BatchItem> items;
    while (reader.next(frame))
        items.push_back(wire::decodeBatchItem(frame));
    EXPECT_FALSE(reader.sawCorruption()) << reader.corruption();
    ASSERT_EQ(items.size(), manifest.size());

    for (std::size_t i = 0; i < items.size(); ++i) {
        SCOPED_TRACE("line " + std::to_string(i + 1));
        EXPECT_EQ(items[i].line, i + 1);
        if (items[i].ok) {
            EXPECT_NE(ndjson[i].find("\"ok\":true"),
                      std::string::npos);
            // The NDJSON line's data carries an extra leading
            // `line` field; the parser ignores it.
            const wire::ScoreDocument fromJson =
                server::scoreDocumentFromJson(
                    envelopeData(ndjson[i]));
            EXPECT_EQ(
                server::scoreDocumentJson(deterministic(fromJson)),
                server::scoreDocumentJson(deterministic(items[i].doc)));
        } else {
            EXPECT_EQ(items[i].errorCode, "invalid_manifest");
            EXPECT_NE(ndjson[i].find("invalid_manifest"),
                      std::string::npos);
        }
    }
}

TEST_F(WireHttpTest, BinaryObserveMatchesJsonObserve)
{
    auto c = client();
    ASSERT_EQ(c.roundTrip("POST", "/v1/suites?name=wiresuite", line())
                  .status,
              200);

    wire::Observation obs;
    obs.ratio = 1.25;
    obs.hasPlain = true;
    obs.plainRatio = 1.5;
    obs.id = "wire-obs";
    const Response viaWire = c.roundTrip(
        "POST", "/v1/suites/wiresuite/observe",
        wire::encodeObservation(obs), wire::kMediaType);
    ASSERT_EQ(viaWire.status, 200) << viaWire.body;
    EXPECT_EQ(server::json::findNumber(viaWire.body, "ratio"), 1.25);

    const Response viaJson = c.roundTrip(
        "POST", "/v1/suites/wiresuite/observe",
        server::observationJson(obs), "application/json");
    ASSERT_EQ(viaJson.status, 200) << viaJson.body;
    // Same intake either way: identical normalized ratios, and the
    // history ring deepened by exactly one entry per intake.
    EXPECT_EQ(server::json::findNumber(viaWire.body, "plain_ratio"),
              server::json::findNumber(viaJson.body, "plain_ratio"));
    EXPECT_EQ(server::json::findNumber(viaWire.body, "history"), 1.0);
    EXPECT_EQ(server::json::findNumber(viaJson.body, "history"), 2.0);
}

TEST_F(WireHttpTest, UnsupportedContentTypeIs415WithStableCode)
{
    auto c = client();
    const Response refused = c.roundTrip("POST", "/v1/score", line(),
                                         "application/xml");
    EXPECT_EQ(refused.status, 415);
    EXPECT_NE(refused.body.find("unsupported_media_type"),
              std::string::npos);
    // The refusal names what it would have accepted.
    EXPECT_NE(refused.body.find(wire::kMediaType),
              std::string::npos);
}

TEST_F(WireHttpTest, UnacceptableAcceptIs406WithStableCode)
{
    auto c = client();
    const Response refused =
        c.roundTrip("POST", "/v1/score", line(), "text/plain",
                    {{"Accept", "application/xml"}});
    EXPECT_EQ(refused.status, 406);
    EXPECT_NE(refused.body.find("not_acceptable"), std::string::npos);
    // Error envelopes are always JSON, even on negotiation failures.
    EXPECT_NE(refused.body.find("\"ok\":false"), std::string::npos);
}

TEST_F(WireHttpTest, MalformedBinaryBodiesAreBadRequests)
{
    auto c = client();
    const std::string valid = wire::encodeScoreRequest(line());
    const struct
    {
        const char *what;
        std::string body;
    } cases[] = {
        {"torn tail", valid.substr(0, valid.size() - 3)},
        {"bad magic", "XXXX" + valid.substr(4)},
        {"wrong frame type",
         wire::encodeObservation(wire::Observation{1.0, false, 0.0,
                                                   ""})},
    };
    for (const auto &broken : cases) {
        SCOPED_TRACE(broken.what);
        const Response refused = c.roundTrip(
            "POST", "/v1/score", broken.body, wire::kMediaType);
        EXPECT_EQ(refused.status, 400);
        EXPECT_NE(refused.body.find("bad_request"),
                  std::string::npos);
    }
    std::string corrupt = valid;
    corrupt[wire::kFrameOverhead] ^= 0x10;
    const Response refused = c.roundTrip("POST", "/v1/score", corrupt,
                                         wire::kMediaType);
    EXPECT_EQ(refused.status, 400);
    EXPECT_NE(refused.body.find("CRC"), std::string::npos);
}

TEST_F(WireHttpTest, ScoringClientSpeaksBinaryByDefault)
{
    auto binary = scoringClient();
    const client::Outcome viaWire = binary.score(line(), "t-wire");
    ASSERT_TRUE(viaWire.ok()) << viaWire.error;
    EXPECT_TRUE(viaWire.wireBinary);
    EXPECT_GT(viaWire.responseBodyBytes, 0u);

    auto json = scoringClient(false);
    const client::Outcome viaJson = json.score(line(), "t-json");
    ASSERT_TRUE(viaJson.ok());
    EXPECT_FALSE(viaJson.wireBinary);

    // The client re-renders binary answers into the canonical
    // envelope: both outcomes carry the same document.
    const auto normalize = [](const client::Outcome &outcome) {
        return server::scoreDocumentJson(
            deterministic(server::scoreDocumentFromJson(
                envelopeData(outcome.response.body))));
    };
    EXPECT_EQ(normalize(viaWire), normalize(viaJson));
}

TEST_F(WireHttpTest, ScoringClientFallsBackToJsonStickilyOn415)
{
    auto c = scoringClient();
    fault::configure("server.wire.reject=always");
    const client::Outcome first = c.score(line(), "t-fallback");
    ASSERT_TRUE(first.ok()) << first.error;
    EXPECT_FALSE(first.wireBinary);
    EXPECT_TRUE(c.jsonFallback());

    // Sticky: once downgraded, later requests lead with JSON even
    // after the server stops refusing.
    fault::reset();
    const client::Outcome second = c.score(line(), "t-sticky");
    ASSERT_TRUE(second.ok());
    EXPECT_FALSE(second.wireBinary);
}

TEST_F(WireHttpTest, SharedListLimitBoundIsEnforcedEverywhere)
{
    auto c = client();
    // Arm the list endpoints with real content.
    ASSERT_EQ(c.roundTrip("POST", "/v1/score", line(), "text/plain")
                  .status,
              200);
    for (const char *target :
         {"/v1/traces?limit=0", "/v1/traces?limit=abc",
          "/v1/history?limit=1001", "/v1/history?limit=-3",
          "/v1/drift?limit=99999999999"}) {
        SCOPED_TRACE(target);
        const Response refused = c.roundTrip("GET", target);
        EXPECT_EQ(refused.status, 400);
        EXPECT_NE(refused.body.find("bad_request"),
                  std::string::npos);
        // The bound itself is named in the error.
        EXPECT_NE(refused.body.find("[1, 1000]"), std::string::npos);
    }
    for (const char *target :
         {"/v1/traces?limit=1", "/v1/history?limit=1000",
          "/v1/drift?limit=5", "/v1/traces", "/v1/history"}) {
        SCOPED_TRACE(target);
        EXPECT_EQ(c.roundTrip("GET", target).status, 200);
    }
    // /v1/history honors the cap: ask for one entry after two scores.
    ASSERT_EQ(
        c.roundTrip("POST", "/v1/score", line("k=4"), "text/plain")
            .status,
        200);
    const Response capped =
        c.roundTrip("GET", "/v1/history?limit=1");
    ASSERT_EQ(capped.status, 200);
    EXPECT_EQ(server::json::findNumber(capped.body, "count"), 1.0);
}

TEST_F(WireHttpTest, MetricsExposeWireFamilies)
{
    auto c = client();
    ASSERT_EQ(c.roundTrip("POST", "/v1/score",
                          wire::encodeScoreRequest(line()),
                          wire::kMediaType,
                          {{"Accept", wire::acceptBoth()}})
                  .status,
              200);
    ASSERT_EQ(c.roundTrip("POST", "/v1/score", line(), "text/plain")
                  .status,
              200);
    const Response metrics = c.roundTrip("GET", "/metrics");
    ASSERT_EQ(metrics.status, 200);
    EXPECT_NE(metrics.body.find(
                  "hiermeans_wire_requests_total{format=\"json\"}"),
              std::string::npos);
    EXPECT_NE(metrics.body.find(
                  "hiermeans_wire_requests_total{format=\"binary\"}"),
              std::string::npos);
    EXPECT_NE(metrics.body.find(
                  "hiermeans_wire_supported{version=\"1\"} 1"),
              std::string::npos);
}

} // namespace
