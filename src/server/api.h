/**
 * @file
 * The /v1 API envelope and its stable error-code enum.
 *
 * Every JSON body the daemon serves (and every NDJSON line in a batch
 * response) has one shape:
 *
 *   {"ok":true, "data":{...}, "error":null, "trace_id":"4f2a..."}
 *   {"ok":false,"data":null,
 *    "error":{"code":"overloaded","message":"..."},
 *    "trace_id":null}
 *
 * `trace_id` is the request's trace ID (echoed from `X-Hiermeans-Trace`
 * or generated) when tracing is armed, JSON null otherwise — so bodies
 * stay bit-identical across repeats when tracing is off, which the
 * chaos harness and stale-serving tests rely on.
 *
 * ApiError is the *wire contract*: the code strings are stable, shared
 * verbatim by the server (emitting) and client::ScoringClient
 * (parsing), and may only grow — renaming or renumbering breaks
 * deployed clients.
 */

#ifndef HIERMEANS_SERVER_API_H
#define HIERMEANS_SERVER_API_H

#include <cstddef>
#include <optional>
#include <string>

#include "src/server/http.h"
#include "src/server/router.h"

namespace hiermeans {
namespace server {

/** Stable /v1 error codes (wire contract — append only). */
enum class ApiError
{
    None = 0,         ///< success; error field is null.
    BadRequest,       ///< malformed HTTP or JSON.
    BodyTooLarge,     ///< 413 from the request parser.
    HeadersTooLarge,  ///< 431 from the request parser.
    InvalidManifest,  ///< manifest parsed but failed validation.
    Timeout,          ///< engine deadline exceeded (504).
    WatchdogTimeout,  ///< handler answered for a wedged worker (504).
    Overloaded,       ///< admission gate shed the request (503).
    CircuitOpen,      ///< breaker fast-failed the endpoint (503).
    Draining,         ///< graceful shutdown in progress (503).
    NotFound,         ///< no such endpoint or trace ID (404).
    MethodNotAllowed, ///< known path, wrong method (405).
    ScoringFailed,    ///< pipeline raised a domain error.
    Internal,         ///< unexpected exception (500).
    SuiteUnknown,     ///< no such registered suite (404).
    StoreDisabled,    ///< durable store not mounted (503).
    MeshUnreachable,  ///< shard owner unreachable via the mesh (502).
    DeadlineExpired,  ///< client budget spent before execution (504).
    UnsupportedMediaType, ///< request Content-Type not spoken (415).
    NotAcceptable,    ///< no response format satisfies Accept (406).
    SuiteVersionConflict, ///< re-registration changes a version (409).
};

/** The wire string for @p error, e.g. "circuit_open". */
const char *apiErrorCode(ApiError error);

/** Parse a wire string; unknown strings map to Internal. */
ApiError parseApiErrorCode(const std::string &code);

/** Conventional HTTP status for @p error (200 for None). */
int apiErrorStatus(ApiError error);

/**
 * Success envelope. @p dataJson must be a complete JSON value; an
 * empty @p traceId serializes as null.
 */
std::string okEnvelope(const std::string &dataJson,
                       const std::string &traceId);

/**
 * Error envelope. @p extraErrorJson, when non-empty, is spliced into
 * the error object after code/message (e.g. `"timed_out":true`).
 */
std::string errorEnvelope(ApiError error, const std::string &message,
                          const std::string &traceId,
                          const std::string &extraErrorJson = "");

/** okEnvelope wrapped in a 200 application/json response. */
HttpResponse okResponse(const std::string &dataJson,
                        const std::string &traceId);

/** errorEnvelope wrapped in a response with the conventional status. */
HttpResponse errorResponse(ApiError error, const std::string &message,
                           const std::string &traceId,
                           const std::string &extraErrorJson = "");

/** The shared upper bound for list-endpoint `?limit=` parameters
 *  (/v1/traces, /v1/history, /v1/drift, /v1/suites). */
inline constexpr std::size_t kMaxListLimit = 1000;

/**
 * Parse the bounded `?limit=` query parameter every list endpoint
 * shares: absent sets @p limit to @p fallback; a positive integer
 * within kMaxListLimit sets it verbatim. A malformed, zero or
 * over-bound value returns an engaged bad_request envelope whose
 * message names the bound — the caller answers it as-is.
 */
std::optional<HttpResponse> parseListLimit(const RequestContext &ctx,
                                           std::size_t fallback,
                                           std::size_t &limit);

} // namespace server
} // namespace hiermeans

#endif // HIERMEANS_SERVER_API_H
