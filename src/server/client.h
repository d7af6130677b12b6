/**
 * @file
 * A small blocking HTTP/1.1 client over the shared codec — the client
 * half of the serving layer, used by `tools/hmload`, the loopback
 * integration tests and perfbench's `hmbench`. One client =
 * one connection, kept alive across round trips and transparently
 * reconnected after the server (or a Connection: close) drops it.
 */

#ifndef HIERMEANS_SERVER_CLIENT_H
#define HIERMEANS_SERVER_CLIENT_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/server/http.h"
#include "src/util/net.h"

namespace hiermeans {
namespace server {

/** Blocking single-connection HTTP client. */
class HttpClient
{
  public:
    /** Client for @p host:@p port; connects on first use. */
    HttpClient(std::string host, std::uint16_t port);

    /**
     * Cap the time roundTrip may spend waiting for response bytes;
     * 0 (the default) waits forever. On expiry the connection is
     * dropped and a NetError(TimedOut) is thrown — the response can
     * no longer be framed, so the connection cannot be reused.
     */
    void setReadTimeoutMillis(int timeout_millis)
    {
        readTimeoutMillis_ = timeout_millis;
    }

    /** Extra request headers for the overload below. */
    using Headers = std::vector<std::pair<std::string, std::string>>;

    /**
     * Send one request and wait for the full response. Reconnects if
     * the connection is closed; throws hiermeans::Error on connect,
     * I/O or response-parse failures.
     */
    HttpResponseParser::Response roundTrip(const std::string &method,
                                           const std::string &target,
                                           const std::string &body = "",
                                           const std::string &content_type =
                                               "text/plain");

    /** roundTrip with extra request headers (e.g. X-Hiermeans-Trace). */
    HttpResponseParser::Response
    roundTrip(const std::string &method, const std::string &target,
              const std::string &body, const std::string &content_type,
              const Headers &headers);

    /** Drop the connection (next roundTrip reconnects). */
    void disconnect();

    bool connected() const { return socket_.valid(); }

  private:
    void ensureConnected();

    std::string host_;
    std::uint16_t port_;
    int readTimeoutMillis_ = 0;
    net::Socket socket_;
    HttpResponseParser parser_;
};

} // namespace server
} // namespace hiermeans

#endif // HIERMEANS_SERVER_CLIENT_H
