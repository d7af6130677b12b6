#include "src/mesh/runtime.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <sstream>

#include "src/obs/trace.h"
#include "src/server/api.h"
#include "src/server/json.h"
#include "src/util/error.h"
#include "src/util/log.h"
#include "src/wire/wire.h"

namespace hiermeans {
namespace mesh {

namespace {

const char *
healthName(int health)
{
    switch (health) {
    case 1:
        return "ok";
    case 2:
        return "down";
    default:
        return "unknown";
    }
}

/** The `"acked":N` field of a /v1/mesh/replicate answer (either the
 *  ok data object or the resync hint in an error object); 0 when
 *  absent or malformed. */
std::uint64_t
parseAcked(const std::string &body)
{
    const std::string key = "\"acked\":";
    const std::size_t at = body.find(key);
    if (at == std::string::npos)
        return 0;
    std::uint64_t value = 0;
    for (std::size_t i = at + key.size(); i < body.size(); ++i) {
        const char c = body[i];
        if (c < '0' || c > '9')
            break;
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return value;
}

} // namespace

MeshRuntime::MeshRuntime(Config config)
    : config_(std::move(config)),
      ring_(config_.mesh.nodeIds(), config_.mesh.vnodes)
{
    registry_.gauge("hiermeans_mesh_nodes", "Configured mesh members.",
                    [this] {
                        return obs::scalar(config_.mesh.nodes.size());
                    });
    registry_.gauge("hiermeans_mesh_peers_alive",
                    "Members not currently marked down (self included).",
                    [this] {
                        std::size_t alive = 1; // self.
                        for (const auto &[id, entry] : peers_) {
                            (void)id;
                            if (entry->health.load() != 2)
                                ++alive;
                        }
                        return obs::scalar(alive);
                    });
    registry_.gauge("hiermeans_mesh_follower_acked_sequence",
                    "Durable ack offset per follower of this node.", [this] {
                        std::vector<obs::Sample> samples;
                        for (const auto &[id, entry] : peers_)
                            if (entry->follower)
                                samples.push_back(
                                    {{{"node", id}},
                                     static_cast<double>(
                                         entry->acked.load())});
                        return samples;
                    });
    registry_.gauge("hiermeans_mesh_replica_sequence",
                    "Durable sequence per mirrored leader.", [this] {
                        std::vector<obs::Sample> samples;
                        std::lock_guard<std::mutex> lock(replicaMutex_);
                        for (const auto &[leader, replica] : replicas_)
                            samples.push_back(
                                {{{"leader", leader}},
                                 static_cast<double>(
                                     replica->lastSequence())});
                        return samples;
                    });

    followers_ =
        ring_.successorsOf(config_.mesh.selfId, config_.mesh.replicas - 1);
    for (const MeshNode &node : config_.mesh.nodes) {
        if (node.id == config_.mesh.selfId)
            continue;
        auto peer = std::make_unique<Peer>();
        peer->node = node;
        peer->follower = std::find(followers_.begin(), followers_.end(),
                                   node.id) != followers_.end();
        peers_.emplace(node.id, std::move(peer));
    }
}

MeshRuntime::~MeshRuntime() { stop(); }

std::vector<std::string>
MeshRuntime::followedLeaders() const
{
    std::vector<std::string> leaders;
    for (const std::string &id : ring_.nodes()) {
        if (id == config_.mesh.selfId)
            continue;
        const std::vector<std::string> successors =
            ring_.successorsOf(id, config_.mesh.replicas - 1);
        if (std::find(successors.begin(), successors.end(),
                      config_.mesh.selfId) != successors.end())
            leaders.push_back(id);
    }
    return leaders;
}

void
MeshRuntime::start(store::StateStore *store)
{
    HM_REQUIRE(!started_, "MeshRuntime::start: already started");
    started_ = true;
    store_ = store;
    // Open the durable mirrors up front so a freshly-restarted node
    // can answer promoted reads before any replication arrives.
    if (!config_.dataDir.empty()) {
        std::lock_guard<std::mutex> lock(replicaMutex_);
        for (const std::string &leader : followedLeaders())
            openReplica(leader);
    }
    background_ = std::thread([this]() { backgroundLoop(); });
}

store::StateStore &
MeshRuntime::openReplica(const std::string &leader)
{
    store::StateStore::Config config;
    config.dataDir = config_.dataDir + "/replica_" + leader;
    config.replicationTail = 0; // a mirror ships nothing onward.
    auto replica = std::make_unique<store::StateStore>(config);
    replica->open();
    return *replicas_.emplace(leader, std::move(replica)).first->second;
}

std::map<std::string, store::RecoveryInfo>
MeshRuntime::replicaRecoveries() const
{
    std::lock_guard<std::mutex> lock(replicaMutex_);
    std::map<std::string, store::RecoveryInfo> recoveries;
    for (const auto &[leader, replica] : replicas_)
        recoveries.emplace(leader, replica->recovery());
    return recoveries;
}

void
MeshRuntime::stop()
{
    {
        std::lock_guard<std::mutex> lock(stopMutex_);
        if (!started_ || stopping_)
            return;
        stopping_ = true;
    }
    stopCv_.notify_all();
    if (background_.joinable())
        background_.join();
    std::lock_guard<std::mutex> lock(replicaMutex_);
    for (auto &[leader, replica] : replicas_) {
        try {
            replica->close();
        } catch (const Error &e) {
            // The WAL still holds every acked record.
            HM_LOG(Warn) << "mesh: replica of `" << leader
                         << "` closed without a final snapshot: "
                         << e.what();
        }
    }
}

MeshRuntime::Peer *
MeshRuntime::peer(const std::string &nodeId)
{
    const auto found = peers_.find(nodeId);
    return found == peers_.end() ? nullptr : found->second.get();
}

bool
MeshRuntime::peerAlive(const std::string &nodeId)
{
    const Peer *found = peer(nodeId);
    // Unprobed peers route optimistically; the first failed relay or
    // probe marks them down.
    return found != nullptr && found->health.load() != 2;
}

server::ClusterRoute
MeshRuntime::routeSuite(const std::string &suite, bool isWrite)
{
    // Preference order: the ring owner, then the nodes that actually
    // mirror its store. Replication is node-level (a leader ships its
    // whole WAL to its ring successors), so the per-key clockwise
    // walk of replicasFor may name nodes holding no copy — failover
    // must follow successorsOf(owner) instead. Everyone else comes
    // last: they hold no mirror, but can still accept writes when
    // the whole replica set is gone.
    const std::string &owner = ring_.ownerOf(suite);
    std::vector<std::string> order{owner};
    if (config_.mesh.replicas > 1) {
        for (std::string &id :
             ring_.successorsOf(owner, config_.mesh.replicas - 1))
            order.push_back(std::move(id));
    }
    for (const std::string &id : ring_.nodes()) {
        if (std::find(order.begin(), order.end(), id) == order.end())
            order.push_back(id);
    }
    for (const std::string &id : order) {
        if (id == config_.mesh.selfId)
            return server::ClusterRoute{}; // Local (owner or promoted).
        if (!peerAlive(id))
            continue; // dead: fail over clockwise.
        if (id != order.front())
            failovers_.inc();
        server::ClusterRoute route;
        route.action = isWrite ? server::ClusterRoute::Action::Forward
                               : server::ClusterRoute::Action::Redirect;
        route.nodeId = id;
        route.host = config_.mesh.node(id).host;
        route.port = config_.mesh.node(id).port;
        return route;
    }
    // Every preferred peer is down: serve locally, best effort.
    return server::ClusterRoute{};
}

server::HttpResponse
MeshRuntime::relay(const server::RequestContext &ctx,
                   const server::ClusterRoute &route)
{
    if (route.action == server::ClusterRoute::Action::Redirect) {
        redirects_.inc();
        server::HttpResponse response;
        response.status = 307;
        response.set("Location", "http://" + route.host + ":" +
                                     std::to_string(route.port) +
                                     ctx.http.target);
        response.set("X-Hiermeans-Routed-To", route.nodeId);
        return response;
    }

    forwards_.inc();
    obs::ScopedSpan span("mesh.forward");
    static const std::string kDefaultType = "application/json";
    static const std::string kEmpty;
    server::HttpClient::Headers headers{
        {server::kForwardedHeader, config_.mesh.selfId}};
    if (!ctx.traceId.empty())
        headers.push_back({"X-Hiermeans-Trace", ctx.traceId});
    // Forward the negotiated response format too: a client that asked
    // the router for binary gets binary from the shard owner.
    const std::string &accept = ctx.http.header("accept", kEmpty);
    if (!accept.empty())
        headers.push_back({"Accept", accept});
    // Hand the remaining budget downstream and cap our own wait to
    // it — the forwarded hop must not out-wait the client.
    double wait = config_.rpcTimeoutMillis;
    if (ctx.hasDeadline()) {
        const double remaining = ctx.remainingMillis();
        if (remaining <= 0.0) {
            forwardFailures_.inc();
            return server::errorResponse(
                server::ApiError::DeadlineExpired,
                "mesh: client deadline spent before forward",
                ctx.traceId, "\"timed_out\":true");
        }
        headers.push_back({server::kDeadlineHeader,
                           server::json::number(remaining)});
        if (remaining < wait)
            wait = remaining;
    }
    try {
        // One connection per relay: forwards never contend with the
        // replication client for a peer.
        server::HttpClient client(route.host, route.port);
        client.setReadTimeoutMillis(wait);
        const server::HttpResponseParser::Response relayed =
            client.roundTrip(
                ctx.http.method, ctx.http.target, ctx.http.body,
                ctx.http.header("content-type", kDefaultType), headers);
        server::HttpResponse response;
        response.status = relayed.status;
        response.set("Content-Type",
                     relayed.header("content-type", kDefaultType));
        response.set("X-Hiermeans-Routed-To", route.nodeId);
        response.body = relayed.body;
        return response;
    } catch (const std::exception &e) {
        forwardFailures_.inc();
        if (Peer *target = peer(route.nodeId))
            target->health.store(2);
        return server::errorResponse(
            server::ApiError::MeshUnreachable,
            "mesh: forward to `" + route.nodeId + "` failed: " +
                e.what(),
            ctx.traceId);
    }
}

bool
MeshRuntime::shipTo(Peer &target, double budget_millis)
{
    if (store_ == nullptr)
        return true;
    std::lock_guard<std::mutex> lock(target.rpcMutex);

    std::string body;
    const char *mode = "tail";
    std::size_t records = 0;
    {
        const std::optional<store::ReplicationBatch> batch =
            store_->framesSince(target.acked.load());
        if (batch.has_value()) {
            if (batch->records == 0)
                return true; // caught up: nothing to ship.
            body = batch->frames;
            records = batch->records;
        } else {
            // The tail no longer reaches back to the follower's ack:
            // reinstall it from a full snapshot image.
            body = store_->snapshotImage();
            mode = "snapshot";
            snapshotInstalls_.inc();
        }
    }

    if (target.client == nullptr) {
        target.client = std::make_unique<server::HttpClient>(
            target.node.host, target.node.port);
    }
    // The ack wait honors the requester's remaining deadline: a
    // caller with 200 ms left must not block 5 s on a slow follower.
    double wait = config_.rpcTimeoutMillis;
    if (budget_millis > 0.0 && budget_millis < wait)
        wait = budget_millis;
    target.client->setReadTimeoutMillis(wait);
    const std::string path = "/v1/mesh/replicate?leader=" +
                             config_.mesh.selfId + "&mode=" + mode;
    try {
        const server::HttpResponseParser::Response answer =
            target.client->roundTrip("POST", path, body,
                                     "application/octet-stream");
        if (answer.status != 200) {
            // The follower refused (e.g. a sequence gap after it lost
            // its disk). Its answer carries the true durable offset;
            // adopt it so the next ship resyncs from there.
            replicationFailures_.inc();
            target.acked.store(parseAcked(answer.body));
            return false;
        }
        target.acked.store(parseAcked(answer.body));
        target.health.store(1);
        replicationBatches_.inc();
        replicationRecords_.inc(records);
        replicationBytes_.inc(body.size());
        return true;
    } catch (const std::exception &) {
        replicationFailures_.inc();
        target.health.store(2);
        target.client->disconnect();
        return false;
    }
}

void
MeshRuntime::afterWrite(double budget_millis)
{
    if (store_ == nullptr)
        return;
    obs::ScopedSpan span("mesh.replicate");
    // Synchronous best-effort: an alive follower holds the record
    // durably before the client sees the ack; a dead one is marked
    // down and caught up by the background thread when it returns.
    for (const std::string &id : followers_) {
        Peer *target = peer(id);
        if (target != nullptr && target->health.load() != 2)
            shipTo(*target, budget_millis);
    }
}

std::optional<store::SuiteVersion>
MeshRuntime::replicaSuite(const std::string &name, std::uint32_t version)
{
    std::lock_guard<std::mutex> lock(replicaMutex_);
    for (const auto &[leader, replica] : replicas_) {
        (void)leader;
        std::optional<store::SuiteVersion> found =
            replica->resolveSuite(name, version);
        if (found.has_value())
            return found;
    }
    return std::nullopt;
}

std::vector<store::HistoryEntry>
MeshRuntime::replicaHistory(const std::string &suite)
{
    std::lock_guard<std::mutex> lock(replicaMutex_);
    for (const auto &[leader, replica] : replicas_) {
        (void)leader;
        if (replica->resolveSuite(suite, 0).has_value())
            return replica->history(suite);
    }
    return {};
}

server::HttpResponse
MeshRuntime::handleCluster(const server::RequestContext &ctx)
{
    std::ostringstream data;
    data << "{\"self\":" << server::json::quote(config_.mesh.selfId)
         << ",\"replicas\":" << config_.mesh.replicas
         << ",\"vnodes\":" << config_.mesh.vnodes
         << ",\"points\":" << ring_.points() << ",\"store_sequence\":"
         << (store_ != nullptr ? store_->lastSequence() : 0)
         << ",\"nodes\":[";
    bool first = true;
    for (const MeshNode &node : config_.mesh.nodes) {
        if (!first)
            data << ",";
        first = false;
        data << "{\"id\":" << server::json::quote(node.id)
             << ",\"host\":" << server::json::quote(node.host)
             << ",\"port\":" << node.port;
        if (node.id == config_.mesh.selfId) {
            data << ",\"self\":true,\"health\":"
                 << server::json::quote(selfHealth_ ? selfHealth_()
                                                    : "ok")
                 << ",\"follower\":false,\"acked\":0}";
            continue;
        }
        const Peer *entry = peers_.at(node.id).get();
        data << ",\"self\":false,\"health\":\""
             << healthName(entry->health.load()) << "\""
             << ",\"follower\":"
             << (entry->follower ? "true" : "false")
             << ",\"acked\":" << entry->acked.load() << "}";
    }
    data << "],\"follows\":[";
    {
        std::lock_guard<std::mutex> lock(replicaMutex_);
        bool first_replica = true;
        for (const auto &[leader, replica] : replicas_) {
            if (!first_replica)
                data << ",";
            first_replica = false;
            data << "{\"leader\":" << server::json::quote(leader)
                 << ",\"sequence\":" << replica->lastSequence() << "}";
        }
    }
    data << "]";
    // Advertise the binary wire formats this build speaks, so
    // `hmctl --check` can lint version agreement across a mesh.
    data << ",\"wire\":{\"version\":"
         << static_cast<unsigned>(wire::kWireVersion)
         << ",\"formats\":[\"json\",\"binary\"]}";
    if (driftSummary_)
        data << ",\"drift\":" << driftSummary_();
    data << "}";
    return server::okResponse(data.str(), ctx.traceId);
}

server::HttpResponse
MeshRuntime::handleReplicate(const server::RequestContext &ctx)
{
    const std::string leader = ctx.http.queryParam("leader", "");
    const std::string mode = ctx.http.queryParam("mode", "tail");
    if (leader.empty() || leader == config_.mesh.selfId)
        return server::errorResponse(
            server::ApiError::BadRequest,
            "replicate: `leader` must name another mesh member",
            ctx.traceId);
    bool member = false;
    for (const MeshNode &node : config_.mesh.nodes)
        member = member || node.id == leader;
    if (!member)
        return server::errorResponse(
            server::ApiError::BadRequest,
            "replicate: unknown leader `" + leader + "`", ctx.traceId);
    if (mode != "tail" && mode != "snapshot")
        return server::errorResponse(
            server::ApiError::BadRequest,
            "replicate: mode is `tail` or `snapshot`, got `" + mode +
                "`",
            ctx.traceId);
    if (config_.dataDir.empty())
        return server::errorResponse(
            server::ApiError::StoreDisabled,
            "replicate: this node has no data directory", ctx.traceId);

    store::StateStore *replica = nullptr;
    {
        std::lock_guard<std::mutex> lock(replicaMutex_);
        const auto found = replicas_.find(leader);
        // A leader we did not expect (ring drift is impossible with a
        // shared config, but a lazily-created mirror is harmless and
        // keeps the protocol robust).
        replica = found != replicas_.end() ? found->second.get()
                                           : &openReplica(leader);
    }

    obs::ScopedSpan span("mesh.replicate.apply");
    const std::uint64_t before = replica->lastSequence();
    try {
        const std::uint64_t acked =
            mode == "snapshot"
                ? replica->installSnapshot(ctx.http.body)
                : replica->applyFrames(ctx.http.body);
        applyBatches_.inc();
        if (acked > before)
            applyRecords_.inc(acked - before);
        std::ostringstream data;
        data << "{\"leader\":" << server::json::quote(leader)
             << ",\"mode\":\"" << mode << "\",\"acked\":" << acked
             << "}";
        return server::okResponse(data.str(), ctx.traceId);
    } catch (const Error &e) {
        // Carry the durable offset so the leader resyncs from truth.
        return server::errorResponse(
            server::ApiError::BadRequest, e.what(), ctx.traceId,
            "\"acked\":" + std::to_string(replica->lastSequence()));
    }
}

void
MeshRuntime::backgroundLoop()
{
    const auto tick = std::chrono::milliseconds(
        config_.tickMillis > 0 ? config_.tickMillis : 500);
    const auto stopped = [this] {
        std::lock_guard<std::mutex> lock(stopMutex_);
        return stopping_;
    };
    for (;;) {
        for (auto &[id, entry] : peers_) {
            (void)id;
            if (stopped())
                return;
            // Liveness probe (also how a down peer is noticed coming
            // back: routing and replication both consult `health`).
            {
                std::lock_guard<std::mutex> lock(entry->rpcMutex);
                if (entry->client == nullptr) {
                    entry->client =
                        std::make_unique<server::HttpClient>(
                            entry->node.host, entry->node.port);
                    entry->client->setReadTimeoutMillis(
                        config_.rpcTimeoutMillis);
                }
                try {
                    entry->client->roundTrip("GET", "/healthz");
                    entry->health.store(1);
                } catch (const std::exception &) {
                    entry->health.store(2);
                    entry->client->disconnect();
                }
            }
            // Catch-up: a follower that is alive but behind gets the
            // outstanding tail (or a snapshot) outside the write path.
            if (entry->follower && entry->health.load() == 1 &&
                store_ != nullptr &&
                entry->acked.load() < store_->lastSequence())
                shipTo(*entry);
        }
        // stop() sets the flag and notifies, so it never waits a tick.
        const auto next = std::chrono::steady_clock::now() + tick;
        std::unique_lock<std::mutex> lock(stopMutex_);
        if (stopCv_.wait_until(lock, next, [this] { return stopping_; }))
            return;
    }
}

} // namespace mesh
} // namespace hiermeans
