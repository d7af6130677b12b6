/**
 * @file
 * Serving-layer observability: the connection/request counters and
 * per-endpoint latency histograms every connection worker bumps,
 * declared once in an obs::Registry. `Server::renderPrometheus()`
 * renders that registry (next to the engine's and the server's own
 * gauges) on GET /metrics and in hmserved's shutdown summary.
 */

#ifndef HIERMEANS_SERVER_SERVER_METRICS_H
#define HIERMEANS_SERVER_SERVER_METRICS_H

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/gen/registry.h"
#include "src/obs/registry.h"

namespace hiermeans {
namespace server {

/** The endpoints we attribute latency to. */
enum class Endpoint : std::size_t
{
    Score = 0,
    Batch,
    Metrics,
    Healthz,
    Suites,
    History,
    Mesh, ///< /v1/cluster + /v1/mesh/* (cluster mode only).
    Other,
    Count_ // sentinel
};

/** Endpoint display names ("/v1/score", ...), indexed by Endpoint. */
const std::vector<std::string> &endpointNames();

/** Classify a request path into its latency-attribution endpoint. */
Endpoint endpointFor(const std::string &path);

/** Counters + histograms shared by every connection worker. */
class ServerMetrics
{
  public:
    /** Declares every family below plus the build and wire-version
     *  advertisements. */
    ServerMetrics();

    ServerMetrics(const ServerMetrics &) = delete;
    ServerMetrics &operator=(const ServerMetrics &) = delete;

    const obs::Registry &registry() const { return registry_; }

    /** Count @p status in its class series (2xx / 4xx / 5xx). */
    void onResponse(int status);

  private:
    /** Declared first: every instrument below lives in it. */
    obs::Registry registry_;

  public:
    obs::Counter &connectionsAccepted =
        registry_.counter("hiermeans_server_connections_accepted_total",
                          "TCP connections accepted.");
    obs::Counter &connectionsRejected =
        registry_.counter("hiermeans_server_connections_rejected_total",
                          "Connections shed before any read.");
    obs::Gauge &connectionsActive =
        registry_.gauge("hiermeans_server_connections_active",
                        "Connections currently being served.");
    obs::Counter &requests = registry_.counter(
        "hiermeans_server_requests_total", "HTTP requests received.");
    /** By class: [0] 2xx, [1] 4xx, [2] 5xx. */
    std::deque<obs::Counter> &responses = registry_.counter(
        "hiermeans_server_responses_total",
        "HTTP responses by status class.", "class",
        {"2xx", "4xx", "5xx"});
    obs::Counter &timeouts =
        registry_.counter("hiermeans_server_timeouts_total",
                          "Requests past their deadline (504).");
    obs::Counter &malformed =
        registry_.counter("hiermeans_server_malformed_total",
                          "Malformed requests (400-class).");
    obs::Counter &staleServed =
        registry_.counter("hiermeans_server_stale_served_total",
                          "Cached scores served on degraded paths.");
    obs::Counter &watchdogTrips = registry_.counter(
        "hiermeans_server_watchdog_trips_total",
        "Lines answered 504 by the handler after their worker ran past "
        "deadline plus grace.");
    obs::Counter &breakerFastFails = registry_.counter(
        "hiermeans_server_breaker_fast_fail_total",
        "Requests fast-failed by an open circuit (503).");
    obs::Counter &deadlineExpired = registry_.counter(
        "hiermeans_overload_deadline_expired_total",
        "Requests whose client deadline was spent before admission "
        "(504).");
    obs::Counter &cancelled = registry_.counter(
        "hiermeans_overload_cancelled_total",
        "Admitted requests cancelled mid-pipeline (drain or deadline).");
    obs::Counter &deadlineMisses = registry_.counter(
        "hiermeans_overload_deadline_miss_total",
        "Answers delivered after the client deadline had passed.");
    obs::Counter &drainSheds = registry_.counter(
        "hiermeans_overload_drain_shed_total",
        "Requests refused because the server is draining.");
    /** By negotiated format: [0] json/text, [1] binary wire. */
    std::deque<obs::Counter> &wireRequests = registry_.counter(
        "hiermeans_wire_requests_total",
        "Requests by negotiated wire format.", "format",
        {"json", "binary"});
    /** By gen::familyMetricSlot ("other" last). */
    std::deque<obs::Counter> &genRegistrations = registry_.counter(
        "hiermeans_gen_registrations_total",
        "Generator-tagged suite registrations by family.", "family",
        gen::genMetricLabels());
    /** By Endpoint. */
    std::deque<obs::Histogram> &latency = registry_.histogram(
        "hiermeans_server_request_duration_ms",
        "Request wall time by endpoint (milliseconds).", "endpoint",
        endpointNames());
};

} // namespace server
} // namespace hiermeans

#endif // HIERMEANS_SERVER_SERVER_METRICS_H
