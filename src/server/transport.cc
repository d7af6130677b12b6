#include "src/server/transport.h"

#include <chrono>
#include <cstdlib>
#include <optional>
#include <string_view>

#include "src/obs/trace.h"
#include "src/server/api.h"
#include "src/util/error.h"
#include "src/util/fault.h"
#include "src/util/log.h"

namespace hiermeans {
namespace server {

namespace {

double
millisSince(std::chrono::steady_clock::time_point start)
{
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::milli>(elapsed).count();
}

/** Request media types any endpoint can consume ("" = no header,
 *  the parser's default). Anything else is answered 415 before
 *  dispatch. */
bool
supportedMediaType(const std::string &content_type)
{
    const std::string type = wire::mediaType(content_type);
    return type.empty() || type == "text/plain" ||
           type == "application/json" ||
           type == "application/x-ndjson" ||
           type == "application/octet-stream" ||
           // curl's default for --data-binary; the manifest grammar
           // is key=value tokens, so honour the claim as text.
           type == "application/x-www-form-urlencoded" ||
           type == wire::kMediaType;
}

} // namespace

HttpTransport::HttpTransport(Config config, const Router &router,
                             ServerMetrics &metrics)
    : config_(config), router_(router), metrics_(metrics)
{}

HttpTransport::~HttpTransport() { stop(); }

void
HttpTransport::start()
{
    HM_REQUIRE(!running_.load() && !stopping_.load(),
               "HttpTransport::start: already started");
    net::ignoreSigpipe();
    listener_ = net::listenTcp(config_.port);
    port_ = net::localPort(listener_.fd());
    running_.store(true);

    acceptor_ = std::thread([this]() { acceptLoop(); });
    workers_.reserve(config_.connectionThreads);
    for (std::size_t i = 0; i < config_.connectionThreads; ++i)
        workers_.emplace_back([this]() { workerLoop(); });
}

void
HttpTransport::stop()
{
    if (!running_.load())
        return;
    {
        // Under the lock: a worker between its predicate check and
        // its wait would otherwise miss the wake-up and never exit.
        std::lock_guard<std::mutex> lock(pendingMutex_);
        stopping_.store(true);
    }
    pendingCv_.notify_all();
    if (acceptor_.joinable())
        acceptor_.join();
    listener_.close();
    for (std::thread &worker : workers_) {
        if (worker.joinable())
            worker.join();
    }
    workers_.clear();
    running_.store(false);
}

void
HttpTransport::acceptLoop()
{
    // Accepted connections beyond this bound get an immediate 503 —
    // a closed front door beats an unbounded queue of unserved fds.
    const std::size_t pending_limit = config_.connectionThreads * 2 + 16;

    while (!stopping_.load()) {
        if (!net::waitReadable(listener_.fd(), 100))
            continue; // timeout/EINTR: re-check the stop flag.
        net::Socket accepted = net::acceptConnection(listener_.fd());
        if (!accepted.valid())
            continue;
        metrics_.connectionsAccepted.inc();

        std::unique_lock<std::mutex> lock(pendingMutex_);
        if (pending_.size() >= pending_limit) {
            lock.unlock();
            metrics_.connectionsRejected.inc();
            HttpResponse response = errorResponse(
                ApiError::Overloaded,
                "server overloaded, admission queue full", "");
            response.set("Retry-After", "1");
            response.closeConnection = true;
            try {
                net::writeAll(accepted.fd(), response.serialize());
            } catch (const Error &) {
                // The rejected peer vanished first; nothing to do.
            }
            continue;
        }
        pending_.push_back(std::move(accepted));
        lock.unlock();
        pendingCv_.notify_one();
    }
}

void
HttpTransport::workerLoop()
{
    for (;;) {
        net::Socket socket;
        {
            std::unique_lock<std::mutex> lock(pendingMutex_);
            pendingCv_.wait(lock, [this]() {
                return stopping_.load() || !pending_.empty();
            });
            if (pending_.empty()) {
                if (stopping_.load())
                    return;
                continue;
            }
            socket = std::move(pending_.front());
            pending_.pop_front();
        }
        try {
            serveConnection(std::move(socket));
        } catch (const std::exception &) {
            // Peer I/O failures close that connection; the worker and
            // every other connection are unaffected.
            metrics_.connectionsActive.add(-1);
        }
    }
}

void
HttpTransport::serveConnection(net::Socket socket)
{
    metrics_.connectionsActive.add(1);
    HttpRequestParser::Limits limits;
    limits.maxBodyBytes = config_.maxBodyBytes;
    HttpRequestParser parser(limits);

    // Once shutdown begins, a partially-received request gets this
    // long to finish arriving before the connection is closed.
    constexpr double kDrainWindowMillis = 5000.0;
    const auto serve_start = std::chrono::steady_clock::now();

    char buffer[8192];
    bool close = false;
    while (!close) {
        if (stopping_.load()) {
            if (!parser.midRequest())
                break;
            if (millisSince(serve_start) > kDrainWindowMillis)
                break;
        }
        if (!net::waitReadable(socket.fd(), 100))
            continue;
        const std::size_t n =
            net::readSome(socket.fd(), buffer, sizeof(buffer));
        if (n == 0)
            break; // EOF.

        HttpRequestParser::State state =
            parser.feed(std::string_view(buffer, n));
        while (state == HttpRequestParser::State::Ready) {
            const HttpRequest &request = parser.request();
            metrics_.requests.inc();
            const auto started = std::chrono::steady_clock::now();

            // Trace identity: accept the caller's ID when valid;
            // otherwise generate one iff tracing is armed. Disarmed
            // and header-less requests stay on the one-atomic-load
            // fast path with an empty traceId.
            static const std::string kEmpty;
            RequestContext ctx{request, "", nullptr, obs::kNoParent};
            const std::string &supplied =
                request.header("x-hiermeans-trace", kEmpty);
            if (!supplied.empty() && obs::validTraceId(supplied))
                ctx.traceId = supplied;
            // Remaining client budget, if the caller sent one. A
            // malformed value is ignored (no deadline) rather than
            // rejected — the header is advisory, not part of the body
            // contract.
            const std::string &budget =
                request.header("x-hiermeans-deadline", kEmpty);
            if (!budget.empty()) {
                char *end = nullptr;
                const double millis = std::strtod(budget.c_str(), &end);
                if (end != nullptr && *end == '\0' && millis > 0.0)
                    ctx.deadlineMillis = millis;
            }
            if (obs::tracingEnabled()) {
                if (ctx.traceId.empty())
                    ctx.traceId = obs::generateTraceId();
                ctx.trace = obs::Tracer::instance().start(ctx.traceId);
                ctx.rootSpan = ctx.trace->begin("server.request");
            }
            // Content negotiation, settled before dispatch so no
            // handler ever answers a bad Content-Type with a bare
            // 400: unsupported request types get the 415 envelope,
            // unsatisfiable Accepts the 406 envelope, and the
            // negotiated formats ride in the context.
            std::optional<HttpResponse> refused;
            const std::string &content_type =
                request.header("content-type", kEmpty);
            ctx.binaryBody = wire::isWireMediaType(content_type);
            if (!request.body.empty() &&
                !supportedMediaType(content_type)) {
                refused = errorResponse(
                    ApiError::UnsupportedMediaType,
                    "unsupported Content-Type `" + content_type +
                        "` (supported: text/plain, application/json, "
                        "application/x-ndjson, "
                        "application/x-www-form-urlencoded, "
                        "application/octet-stream, " +
                        std::string(wire::kMediaType) + ")",
                    ctx.traceId);
            } else if (ctx.binaryBody &&
                       HM_FAULT("server.wire.reject")) {
                // Deterministic negotiation chaos: pretend this
                // build does not speak the binary format, so client
                // JSON fallback is testable against a real server.
                refused = errorResponse(
                    ApiError::UnsupportedMediaType,
                    "injected: binary wire format refused",
                    ctx.traceId);
            }
            const wire::Negotiated negotiated = wire::negotiateAccept(
                request.header("accept", kEmpty));
            if (!refused && !negotiated.acceptable)
                refused = errorResponse(
                    ApiError::NotAcceptable,
                    "no offered response format satisfies Accept `" +
                        request.header("accept", kEmpty) +
                        "` (offered: application/json, " +
                        std::string(wire::kMediaType) + ")",
                    ctx.traceId);
            ctx.accept = negotiated.format;
            metrics_.wireRequests[ctx.binaryBody || ctx.wantsBinary()]
                .inc();

            // Handlers and the engine submit path record their spans
            // through the thread-local context.
            obs::ScopedTraceContext traceContext(ctx.trace.get(),
                                                 ctx.rootSpan);

            HttpResponse response = refused
                                        ? std::move(*refused)
                                        : router_.dispatch(ctx);
            const Endpoint endpoint = endpointFor(request.path());
            const double elapsed = millisSince(started);
            metrics_.latency[static_cast<std::size_t>(endpoint)].observe(
                elapsed);
            metrics_.onResponse(response.status);
            if (!ctx.traceId.empty())
                response.set("X-Hiermeans-Trace", ctx.traceId);
            if (ctx.trace) {
                ctx.trace->end(ctx.rootSpan);
                obs::Tracer::instance().finish(ctx.trace);
                HM_LOG(Debug)
                    << "trace=" << ctx.traceId << " "
                    << request.method << " " << request.path() << " -> "
                    << response.status << " in " << elapsed << " ms";
            }
            if (stopping_.load() || !request.keepAlive())
                response.closeConnection = true;
            if (HM_FAULT("server.response.write"))
                throw net::NetError(net::NetError::Kind::Reset,
                                    "injected: response write reset");
            net::writeAll(socket.fd(), response.serialize());
            if (response.closeConnection) {
                close = true;
                break;
            }
            state = parser.reset(); // may surface a pipelined request.
        }
        // Reached on a malformed feed *or* when pipelined leftovers
        // turned out to be junk after the valid requests were served:
        // either way the offender gets its 400-class answer before the
        // connection closes.
        if (state == HttpRequestParser::State::Error) {
            metrics_.requests.inc();
            metrics_.malformed.inc();
            ApiError code = ApiError::BadRequest;
            if (parser.errorStatus() == 413)
                code = ApiError::BodyTooLarge;
            else if (parser.errorStatus() == 431)
                code = ApiError::HeadersTooLarge;
            HttpResponse response =
                errorResponse(code, parser.errorMessage(), "");
            response.closeConnection = true;
            metrics_.onResponse(response.status);
            if (HM_FAULT("server.response.write"))
                throw net::NetError(net::NetError::Kind::Reset,
                                    "injected: response write reset");
            net::writeAll(socket.fd(), response.serialize());
            break;
        }
    }
    metrics_.connectionsActive.add(-1);
}

} // namespace server
} // namespace hiermeans
