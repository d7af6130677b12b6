#include "src/server/server_metrics.h"

#include "src/util/version.h"
#include "src/wire/wire.h"

namespace hiermeans {
namespace server {

const std::vector<std::string> &
endpointNames()
{
    static const std::vector<std::string> kNames = {
        "/v1/score", "/v1/batch",  "/metrics", "/healthz",
        "/v1/suites", "/v1/history", "/v1/mesh", "(other)"};
    return kNames;
}

Endpoint
endpointFor(const std::string &path)
{
    if (path == "/v1/score")
        return Endpoint::Score;
    if (path == "/v1/batch")
        return Endpoint::Batch;
    if (path == "/metrics")
        return Endpoint::Metrics;
    if (path == "/healthz")
        return Endpoint::Healthz;
    if (path == "/v1/suites")
        return Endpoint::Suites;
    if (path == "/v1/history")
        return Endpoint::History;
    if (path == "/v1/cluster" || path.rfind("/v1/mesh/", 0) == 0)
        return Endpoint::Mesh;
    return Endpoint::Other;
}

ServerMetrics::ServerMetrics()
{
    registry_.gauge("hiermeans_build_info",
                    "Build/version of the serving daemon.", [] {
                        return std::vector<obs::Sample>{
                            {{{"version", util::kVersion}}, 1.0}};
                    });
    registry_.gauge(
        "hiermeans_wire_supported",
        "1 for each binary wire version this build speaks.", [] {
            return std::vector<obs::Sample>{
                {{{"version", std::to_string(wire::kWireVersion)}}, 1.0}};
        });
}

void
ServerMetrics::onResponse(int status)
{
    responses[status >= 500 ? 2 : (status >= 400 ? 1 : 0)].inc();
}

} // namespace server
} // namespace hiermeans
