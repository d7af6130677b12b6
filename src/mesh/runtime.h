/**
 * @file
 * MeshRuntime: the node-side brain of a hiermeans cluster.
 *
 * One MeshRuntime per `hmserved --mesh-config` process. It implements
 * server::ClusterHooks, which is how the suite-service layer consults
 * it without the server library depending on the mesh:
 *
 *   - *Sharding.* A consistent-hash ring (ring.h) over the static
 *     membership (config.h) assigns every suite name an owner.
 *     routeSuite()/relay() serve owned suites locally, proxy writes
 *     to the owner (stamping the X-Hiermeans-Forwarded loop guard)
 *     and 307-redirect reads.
 *   - *Replication.* This node is the leader of its own StateStore;
 *     its `replicas - 1` ring successors follow it. afterWrite()
 *     ships the committed WAL frames (StateStore::framesSince) to
 *     each follower via POST /v1/mesh/replicate and records the
 *     durable ack offset; a follower too far behind the in-memory
 *     tail is reinstalled from a full snapshot image. The background
 *     thread retries lagging followers and probes peer health.
 *   - *Failover.* When the ring owner of a suite is down, requests
 *     fail over clockwise to the first live replica; a surviving
 *     follower answers reads from its durable mirror of the leader
 *     (a StateStore in `replica_<leader>/`, fed by applyFrames and
 *     installSnapshot) and accepts writes into its own store.
 *
 * Everything here is deterministic given the same membership file:
 * every node computes the same ring, the same owners, and the same
 * follower sets.
 */

#ifndef HIERMEANS_MESH_RUNTIME_H
#define HIERMEANS_MESH_RUNTIME_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/mesh/config.h"
#include "src/mesh/ring.h"
#include "src/server/client.h"
#include "src/server/cluster.h"
#include "src/store/store.h"

namespace hiermeans {
namespace mesh {

/** ClusterHooks implementation wiring ring + replication + relays. */
class MeshRuntime : public server::ClusterHooks
{
  public:
    struct Config
    {
        MeshConfig mesh;

        /** Directory holding replica_<leader>/ mirrors (normally the
         *  node's own store dataDir). */
        std::string dataDir;

        /** Peer RPC read timeout (replication, forwards, probes). */
        int rpcTimeoutMillis = 5000;

        /** Background health-probe + follower-catch-up cadence. */
        int tickMillis = 500;
    };

    explicit MeshRuntime(Config config);
    ~MeshRuntime() override;

    MeshRuntime(const MeshRuntime &) = delete;
    MeshRuntime &operator=(const MeshRuntime &) = delete;

    /**
     * Attach the node's own (already-open) store, open the durable
     * replica mirrors for every leader this node follows, and start
     * the background probe/catch-up thread. @p store may be null
     * (routing still works; replication is off).
     */
    void start(store::StateStore *store);

    /** Join the background thread and close the replica mirrors. */
    void stop();

    /** What open() recovered for each mirror, by leader id (hmserved
     *  prints it beside its own `store recovered:` line). */
    std::map<std::string, store::RecoveryInfo> replicaRecoveries() const;

    const HashRing &ring() const { return ring_; }
    const MeshConfig &meshConfig() const { return config_.mesh; }

    /** Node ids whose stores this node mirrors (ring predecessors). */
    std::vector<std::string> followedLeaders() const;

    /** Node ids mirroring this node's store (ring successors). */
    const std::vector<std::string> &followers() const
    {
        return followers_;
    }

    /**
     * Attach a provider of a drift-summary JSON value; its output is
     * spliced into /v1/cluster as the `drift` field. Set by hmserved
     * (Server::driftSummaryJson) — a std::function keeps the mesh
     * layer free of a drift dependency. Call before start().
     */
    void setDriftSummary(std::function<std::string()> provider)
    {
        driftSummary_ = std::move(provider);
    }

    /**
     * Attach a provider of this node's own health word ("ok" /
     * "draining") for /v1/cluster's self entry. Set by hmserved from
     * Server::draining() so peers planning a failover see the drain
     * before the socket closes. Call before start(); defaults to
     * "ok".
     */
    void setSelfHealth(std::function<std::string()> provider)
    {
        selfHealth_ = std::move(provider);
    }

    // --- server::ClusterHooks ----------------------------------------
    server::ClusterRoute routeSuite(const std::string &suite,
                                    bool isWrite) override;
    server::HttpResponse relay(const server::RequestContext &ctx,
                               const server::ClusterRoute &route) override;
    void afterWrite(double budget_millis) override;
    using server::ClusterHooks::afterWrite;
    std::optional<store::SuiteVersion>
    replicaSuite(const std::string &name, std::uint32_t version) override;
    std::vector<store::HistoryEntry>
    replicaHistory(const std::string &suite) override;
    server::HttpResponse
    handleCluster(const server::RequestContext &ctx) override;
    server::HttpResponse
    handleReplicate(const server::RequestContext &ctx) override;
    const obs::Registry &registry() const override { return registry_; }

  private:
    /** Peer-node state: health, replication offset, one RPC client. */
    struct Peer
    {
        MeshNode node;
        bool follower = false; ///< mirrors this node's store.
        /** 0 = unprobed, 1 = alive, 2 = down. Unprobed routes
         *  optimistically (as alive). */
        std::atomic<int> health{0};
        /** Follower's durable ack of this node's sequence space. */
        std::atomic<std::uint64_t> acked{0};
        std::mutex rpcMutex; ///< serializes `client`.
        std::unique_ptr<server::HttpClient> client;
    };

    Peer *peer(const std::string &nodeId);
    bool peerAlive(const std::string &nodeId);

    /** Ship outstanding frames (or a snapshot image) to @p peer and
     *  record the returned durable ack. Returns false — and marks the
     *  peer down — when the RPC fails. @p budget_millis caps the ack
     *  wait below the RPC timeout (0 = full timeout). */
    bool shipTo(Peer &peer, double budget_millis = 0.0);

    void backgroundLoop();

    Config config_;
    HashRing ring_;
    std::vector<std::string> followers_;
    store::StateStore *store_ = nullptr;
    std::function<std::string()> driftSummary_;
    std::function<std::string()> selfHealth_;

    std::map<std::string, std::unique_ptr<Peer>> peers_;

    /** Open (and recover) the mirror of @p leader's store. Requires
     *  replicaMutex_. */
    store::StateStore &openReplica(const std::string &leader);

    mutable std::mutex replicaMutex_;
    /** One durable mirror per followed leader. */
    std::map<std::string, std::unique_ptr<store::StateStore>> replicas_;

    std::mutex stopMutex_;
    std::condition_variable stopCv_;
    bool stopping_ = false; ///< guarded by stopMutex_.
    bool started_ = false;

    /** Declared before the instruments below, which live in it; the
     *  gauge families (membership, peers, acks, replica sequences)
     *  are declared in the constructor. */
    obs::Registry registry_;
    obs::Counter &forwards_ =
        registry_.counter("hiermeans_mesh_forwards_total",
                          "Requests proxied to their shard owner.");
    obs::Counter &forwardFailures_ = registry_.counter(
        "hiermeans_mesh_forward_failures_total",
        "Proxied requests that failed to reach their target.");
    obs::Counter &redirects_ = registry_.counter(
        "hiermeans_mesh_redirects_total",
        "Requests answered 307 toward their shard owner.");
    obs::Counter &failovers_ =
        registry_.counter("hiermeans_mesh_failovers_total",
                          "Routes that skipped a dead owner clockwise.");
    obs::Counter &replicationBatches_ =
        registry_.counter("hiermeans_mesh_replication_batches_total",
                          "WAL batches shipped to followers.");
    obs::Counter &replicationRecords_ =
        registry_.counter("hiermeans_mesh_replication_records_total",
                          "WAL records shipped to followers.");
    obs::Counter &replicationBytes_ =
        registry_.counter("hiermeans_mesh_replication_bytes_total",
                          "Replication payload bytes shipped.");
    obs::Counter &replicationFailures_ =
        registry_.counter("hiermeans_mesh_replication_failures_total",
                          "Replication ships that failed or were refused.");
    obs::Counter &snapshotInstalls_ = registry_.counter(
        "hiermeans_mesh_snapshot_installs_total",
        "Followers reinstalled from a full snapshot image.");
    obs::Counter &applyBatches_ =
        registry_.counter("hiermeans_mesh_apply_batches_total",
                          "Replication batches applied from leaders.");
    obs::Counter &applyRecords_ =
        registry_.counter("hiermeans_mesh_apply_records_total",
                          "Replication records applied from leaders.");

    /** Last: the probe/catch-up loop uses every member above. */
    std::thread background_;
};

} // namespace mesh
} // namespace hiermeans

#endif // HIERMEANS_MESH_RUNTIME_H
