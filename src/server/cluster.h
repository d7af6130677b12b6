/**
 * @file
 * The seam between the suite-service layer and the mesh subsystem.
 *
 * A single-node daemon runs with no ClusterHooks and every
 * suite-affine request is served locally. In cluster mode (hmserved
 * --mesh-config) the mesh runtime implements this interface and the
 * handlers consult it:
 *
 *   - routeSuite() decides whether the suite named by a request is
 *     owned here; if not, relay() either proxies the request to the
 *     owner (POST bodies) or answers 307 with a Location on the
 *     owner (GETs). Requests already carrying the
 *     X-Hiermeans-Forwarded loop guard are always served locally.
 *   - afterWrite() runs after a local durable commit and ships the
 *     outstanding WAL records to this node's followers before the
 *     response is acknowledged.
 *   - replicaSuite()/replicaHistory() let a surviving node answer
 *     reads for a dead leader's shard from its replica image.
 *   - handleCluster()/handleReplicate() back the two mesh endpoints
 *     (GET /v1/cluster, POST /v1/mesh/replicate).
 *
 * The interface lives in the server library (which knows nothing of
 * the mesh) so the dependency points one way: mesh -> server.
 */

#ifndef HIERMEANS_SERVER_CLUSTER_H
#define HIERMEANS_SERVER_CLUSTER_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/registry.h"
#include "src/server/http.h"
#include "src/server/router.h"
#include "src/store/state.h"

namespace hiermeans {
namespace server {

/** Where a suite-affine request should be served. */
struct ClusterRoute
{
    enum class Action
    {
        Local,   ///< this node serves it (owner, or promoted).
        Forward, ///< proxy to `nodeId` and relay its response.
        Redirect ///< answer 307 with a Location on `nodeId`.
    };

    Action action = Action::Local;
    std::string nodeId; ///< target member (empty for Local).
    std::string host;
    std::uint16_t port = 0;
};

/** Loop-guard header stamped on proxied requests: a request that
 *  already carries it is served locally, never relayed again. */
inline constexpr const char *kForwardedHeader = "X-Hiermeans-Forwarded";

/** Mesh integration points consulted by the suite-service layer.
 *  Implemented by mesh::MeshRuntime; absent on single-node daemons. */
class ClusterHooks
{
  public:
    virtual ~ClusterHooks() = default;

    /** Route decision for a request naming @p suite. @p isWrite
     *  selects proxying over redirecting for non-local routes. */
    virtual ClusterRoute routeSuite(const std::string &suite,
                                    bool isWrite) = 0;

    /** Execute a non-local route: proxy the request (Forward) or
     *  build the 307 answer (Redirect). Never throws — an
     *  unreachable target becomes an error envelope. */
    virtual HttpResponse relay(const RequestContext &ctx,
                               const ClusterRoute &route) = 0;

    /** Ship outstanding local commits to this node's followers and
     *  wait for their durable acks (bounded; an unreachable follower
     *  is marked lagging, not waited for). Called after every local
     *  durable write, before the response is sent. @p budget_millis
     *  is the requester's remaining deadline budget (0 = none): the
     *  per-follower ack wait is capped to it so replication never
     *  outlives the caller's patience. */
    virtual void afterWrite(double budget_millis) = 0;

    /** Background/no-deadline form: replicate with the full RPC
     *  timeout. */
    void afterWrite() { afterWrite(0.0); }

    /** Resolve @p name from the replica images this node holds —
     *  the read path for a dead leader's shard. */
    virtual std::optional<store::SuiteVersion>
    replicaSuite(const std::string &name, std::uint32_t version) = 0;

    /** History of @p suite from the replica images. */
    virtual std::vector<store::HistoryEntry>
    replicaHistory(const std::string &suite) = 0;

    /** GET /v1/cluster: membership, ring and per-node health. */
    virtual HttpResponse handleCluster(const RequestContext &ctx) = 0;

    /** POST /v1/mesh/replicate: apply a leader's shipped records
     *  and answer the durable ack offset. */
    virtual HttpResponse handleReplicate(const RequestContext &ctx) = 0;

    /** The hiermeans_mesh_* families, rendered into /metrics. */
    virtual const obs::Registry &registry() const = 0;
};

} // namespace server
} // namespace hiermeans

#endif // HIERMEANS_SERVER_CLUSTER_H
