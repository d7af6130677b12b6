/**
 * @file
 * Malformed-HTTP regression corpus: raw bytes nobody well-behaved
 * would send — truncated requests, garbage request lines, bogus or
 * oversized Content-Length, NUL bytes, header floods, pipelined junk —
 * fired at a live Server over raw sockets. The contract: the offender
 * gets a 400-class answer (400 / 413 / 431) or a closed connection,
 * the process never crashes, and the very next client is served
 * normally.
 */

#include <cstdlib>
#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <sys/socket.h>

#include "src/server/client.h"
#include "src/server/server.h"
#include "src/util/net.h"

namespace {

using namespace hiermeans;

class HttpMalformedTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        server::Server::Config config;
        config.port = 0;
        config.engine.threads = 1;
        config.connectionThreads = 4;
        config.maxBodyBytes = 4096;
        server_ = std::make_unique<server::Server>(config);
        server_->start();
    }

    void TearDown() override { server_->stop(); }

    /** Send raw bytes, half-close, and drain whatever comes back. */
    std::string
    fire(const std::string &wire) const
    {
        net::Socket socket =
            net::connectTcp("127.0.0.1", server_->port());
        net::writeAll(socket.fd(), wire);
        ::shutdown(socket.fd(), SHUT_WR);
        std::string reply;
        char buffer[4096];
        while (net::waitReadable(socket.fd(), 5000)) {
            std::size_t n = 0;
            try {
                n = net::readSome(socket.fd(), buffer, sizeof(buffer));
            } catch (const Error &) {
                break; // reset counts as closed.
            }
            if (n == 0)
                break;
            reply.append(buffer, n);
        }
        return reply;
    }

    /** The HTTP status of the @p index-th response in a raw reply
     *  stream, or 0 when there is none. */
    static int
    statusAt(const std::string &reply, std::size_t index = 0)
    {
        std::size_t pos = 0;
        for (std::size_t skipped = 0;; ++skipped) {
            pos = reply.find("HTTP/1.1 ", pos);
            if (pos == std::string::npos)
                return 0;
            if (skipped == index)
                break;
            pos += 9;
        }
        return std::atoi(reply.c_str() + pos + 9);
    }

    /** The server must still serve clean requests after the abuse. */
    void
    expectStillServiceable() const
    {
        server::HttpClient c("127.0.0.1", server_->port());
        EXPECT_EQ(c.roundTrip("GET", "/healthz").status, 200);
    }

    std::unique_ptr<server::Server> server_;
};

TEST_F(HttpMalformedTest, GarbageRequestLineIs400)
{
    EXPECT_EQ(statusAt(fire("GARBAGE\r\n\r\n")), 400);
    expectStillServiceable();
}

TEST_F(HttpMalformedTest, RequestLineMissingVersionIs400)
{
    EXPECT_EQ(statusAt(fire("GET /healthz\r\n\r\n")), 400);
    expectStillServiceable();
}

TEST_F(HttpMalformedTest, NonHttpVersionTokenIs400)
{
    EXPECT_EQ(statusAt(fire("GET /healthz SMTP/1.0\r\n\r\n")), 400);
    expectStillServiceable();
}

TEST_F(HttpMalformedTest, HeaderFieldWithoutColonIs400)
{
    EXPECT_EQ(statusAt(fire("GET /healthz HTTP/1.1\r\n"
                            "this header has no colon\r\n\r\n")),
              400);
    expectStillServiceable();
}

TEST_F(HttpMalformedTest, GarbageContentLengthIs400)
{
    EXPECT_EQ(statusAt(fire("POST /v1/score HTTP/1.1\r\n"
                            "Content-Length: banana\r\n\r\n")),
              400);
    EXPECT_EQ(statusAt(fire("POST /v1/score HTTP/1.1\r\n"
                            "Content-Length: -5\r\n\r\n")),
              400);
    expectStillServiceable();
}

TEST_F(HttpMalformedTest, OversizedContentLengthIs413)
{
    // Declared far past maxBodyBytes; rejected from the header alone,
    // before any body bytes arrive.
    EXPECT_EQ(statusAt(fire("POST /v1/score HTTP/1.1\r\n"
                            "Content-Length: 10000000\r\n\r\n")),
              413);
    expectStillServiceable();
}

TEST_F(HttpMalformedTest, MissingContentLengthFailsCleanly)
{
    // No Content-Length on a POST parses as an empty body; the score
    // handler must reject it as malformed, not crash on it.
    const std::string reply = fire("POST /v1/score HTTP/1.1\r\n\r\n"
                                   "scores=x features=y");
    EXPECT_EQ(statusAt(reply), 400);
    expectStillServiceable();
}

TEST_F(HttpMalformedTest, NulBytesInRequestAre400)
{
    std::string wire = "GET /health";
    wire.push_back('\0');
    wire.push_back('\0');
    wire += " HTTP/1.1\r\nX-Junk: a";
    wire.push_back('\0');
    wire += "b\r\n\r\n";
    const std::string reply = fire(wire);
    // Either rejected outright or answered (the NUL-bearing target is
    // simply an unknown path) — never a crash, never a hang.
    const int status = statusAt(reply);
    EXPECT_TRUE(status == 400 || status == 404) << "status " << status;
    expectStillServiceable();
}

TEST_F(HttpMalformedTest, HeaderFloodIs431)
{
    std::string wire = "GET /healthz HTTP/1.1\r\n";
    for (int i = 0; i < 2000; ++i)
        wire += "X-Flood-" + std::to_string(i) + ": aaaaaaaaaa\r\n";
    wire += "\r\n";
    EXPECT_EQ(statusAt(fire(wire)), 431);
    expectStillServiceable();
}

TEST_F(HttpMalformedTest, EndlessHeadersWithoutTerminatorAre431)
{
    // Never sends the blank line; the parser must give up at its
    // header cap instead of buffering forever.
    std::string wire = "GET /healthz HTTP/1.1\r\n";
    while (wire.size() < 64 * 1024)
        wire += "X-Drip: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
    EXPECT_EQ(statusAt(fire(wire)), 431);
    expectStillServiceable();
}

TEST_F(HttpMalformedTest, OversizedGarbageBlobIsRejected)
{
    const std::string blob(128 * 1024, '\xff');
    const int status = statusAt(fire(blob));
    EXPECT_TRUE(status == 400 || status == 431) << "status " << status;
    expectStillServiceable();
}

TEST_F(HttpMalformedTest, TruncatedRequestThenEofJustCloses)
{
    // Half a request then EOF: nothing to answer; the server drops the
    // connection without wedging a worker.
    EXPECT_EQ(fire("POST /v1/score HTTP/1.1\r\nContent-Le"), "");
    EXPECT_EQ(fire("GET /healthz HT"), "");
    expectStillServiceable();
}

TEST_F(HttpMalformedTest, PipelinedJunkAfterAValidRequest)
{
    // A clean GET followed in the same segment by garbage: the first
    // is answered 200, the junk 400, then the connection closes.
    const std::string reply =
        fire("GET /healthz HTTP/1.1\r\n\r\nTOTAL junk\r\n\r\n");
    EXPECT_EQ(statusAt(reply, 0), 200);
    EXPECT_EQ(statusAt(reply, 1), 400);
    expectStillServiceable();
}

TEST_F(HttpMalformedTest, AbuseBarrageLeavesMetricsCoherent)
{
    fire("GARBAGE\r\n\r\n");
    fire("POST /v1/score HTTP/1.1\r\nContent-Length: zzz\r\n\r\n");
    fire("POST /v1/score HTTP/1.1\r\nContent-Length: 10000000\r\n\r\n");
    const server::ServerMetrics &counters = server_->metrics();
    EXPECT_GE(counters.malformed.value(), 3u);
    expectStillServiceable();
}

} // namespace
