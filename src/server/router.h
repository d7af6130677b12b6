/**
 * @file
 * Method+path dispatch for the scoring daemon.
 *
 * Handlers receive a RequestContext — the parsed request plus the
 * request's trace identity — and every synthesized answer (404 on an
 * unknown path, 405 with an `Allow` header on a known path with the
 * wrong method, 500 when a handler throws) is a /v1 envelope carrying
 * the stable error code, so clients never see an ad-hoc text body. A
 * handler bug must never tear down the connection worker.
 *
 * Routing is exact-path for the fixed API surface, plus prefix routes
 * for the one parameterized endpoint (`GET /v1/trace/<id>`); the
 * longest matching prefix wins.
 */

#ifndef HIERMEANS_SERVER_ROUTER_H
#define HIERMEANS_SERVER_ROUTER_H

#include <chrono>
#include <cstddef>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "src/obs/trace.h"
#include "src/server/http.h"
#include "src/wire/wire.h"

namespace hiermeans {
namespace server {

/** Everything a handler needs to answer one request. */
struct RequestContext
{
    const HttpRequest &http;

    /** The request's trace ID ("" when tracing is disarmed and the
     *  client supplied none). Echoed in every envelope. */
    std::string traceId;

    /** Live trace to record spans into (nullptr when not tracing).
     *  Shared so the engine can keep it alive past a request whose
     *  handler gave up on a wedged worker. */
    std::shared_ptr<obs::Trace> trace;

    /** The server.request root span — parent for handler spans. */
    std::size_t rootSpan = obs::kNoParent;

    /**
     * Remaining client budget from X-Hiermeans-Deadline in millis
     * (0 = the client sent none), and when it was read off the wire.
     * remainingMillis() is the budget still left *now*; handlers
     * shed a request whose budget is spent before touching the
     * engine, and forwards hand the remainder downstream.
     */
    double deadlineMillis = 0.0;
    std::chrono::steady_clock::time_point arrived =
        std::chrono::steady_clock::now();

    /**
     * Content negotiation, settled by the transport before dispatch:
     * `binaryBody` is true when the request body is one
     * application/x-hiermeans-wire frame (handlers decode it instead
     * of treating the body as text/JSON), and `accept` is the
     * negotiated response format — Binary only when the Accept
     * header named the wire type explicitly. Unsupported request
     * types (415) and unsatisfiable Accepts (406) never reach a
     * handler.
     */
    bool binaryBody = false;
    wire::ResponseFormat accept = wire::ResponseFormat::Json;

    bool wantsBinary() const
    {
        return accept == wire::ResponseFormat::Binary;
    }

    bool hasDeadline() const { return deadlineMillis > 0.0; }

    /** Budget left right now (may be negative); +inf without one. */
    double remainingMillis() const
    {
        if (!hasDeadline())
            return std::numeric_limits<double>::infinity();
        const double elapsed =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - arrived)
                .count();
        return deadlineMillis - elapsed;
    }
};

/** Wire header carrying the remaining request budget in millis. */
inline constexpr const char *kDeadlineHeader = "X-Hiermeans-Deadline";

/** Routes requests to registered handlers. */
class Router
{
  public:
    using Handler = std::function<HttpResponse(const RequestContext &)>;

    /** Register @p handler for @p method on exact @p path. */
    void add(const std::string &method, const std::string &path,
             Handler handler);

    /**
     * Register @p handler for any path starting with @p prefix (the
     * handler reads the remainder off ctx.http.path()). Exact routes
     * win over prefixes; among prefixes the longest match wins.
     */
    void addPrefix(const std::string &method, const std::string &prefix,
                   Handler handler);

    /**
     * Dispatch @p ctx: the handler's response, or a synthesized
     * envelope 404/405/500. Never throws.
     */
    HttpResponse dispatch(const RequestContext &ctx) const;

  private:
    /** path -> method -> handler. */
    std::map<std::string, std::map<std::string, Handler>> routes_;
    /** prefix -> method -> handler. */
    std::map<std::string, std::map<std::string, Handler>> prefixes_;
};

} // namespace server
} // namespace hiermeans

#endif // HIERMEANS_SERVER_ROUTER_H
