/**
 * Three-node loopback cluster, end to end: suites registered through
 * any node land on their ring owner and are readable from every node
 * (writes forwarded, reads 307-redirected and followed by the
 * ClusterClient), /v1/cluster reports membership + health, the
 * follower topology is symmetric, and killing a shard's leader loses
 * no acknowledged write and duplicates none — the promoted follower
 * answers from its durable replica mirror.
 */

#include <cerrno>
#include <gtest/gtest.h>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "src/client/cluster_client.h"
#include "src/mesh/runtime.h"
#include "src/obs/prometheus.h"
#include "src/server/client.h"
#include "src/server/json.h"
#include "src/server/server.h"
#include "src/util/file.h"
#include "src/util/net.h"
#include "tests/metric_docs.h"

namespace {

using namespace hiermeans;
using Response = server::HttpResponseParser::Response;

class MeshClusterTest : public ::testing::Test
{
  protected:
    static constexpr int kNodes = 3;

    void
    SetUp() override
    {
        stem_ = "/tmp/hiermeans_mesh_cluster_" +
                std::to_string(::getpid());
        // Deterministic per-process ports below the kernel's ephemeral
        // range (32768 and up), where the port-0 listeners and client
        // sockets of concurrently running tests land. Parallel ctest
        // shards get distinct pids, so distinct ports.
        base_ = 21000 +
                static_cast<std::uint16_t>((::getpid() * 13) % 11000);
        scoresPath_ = stem_ + "_scores.csv";
        featuresPath_ = stem_ + "_features.csv";
        util::writeFile(scoresPath_, "workload,mA,mB\n"
                                     "w0,1.0,2.0\n"
                                     "w1,2.0,1.0\n"
                                     "w2,1.5,1.5\n"
                                     "w3,3.0,1.0\n"
                                     "w4,1.0,3.0\n"
                                     "w5,2.5,2.5\n");
        util::writeFile(featuresPath_, "workload,f0,f1,f2\n"
                                       "w0,0.1,1.0,-0.5\n"
                                       "w1,0.9,-1.0,0.5\n"
                                       "w2,0.2,0.8,-0.4\n"
                                       "w3,0.8,-0.9,0.6\n"
                                       "w4,-0.7,0.1,1.2\n"
                                       "w5,-0.6,0.2,1.1\n");
        startCluster();
        waitForHealthyMesh();
    }

    /**
     * Start every node; a port some other process still holds moves
     * the whole cluster to the next block of ports.
     */
    void
    startCluster()
    {
        for (int attempt = 0;; ++attempt) {
            try {
                for (int i = 0; i < kNodes; ++i)
                    startNode(i);
                return;
            } catch (const net::NetError &) {
                for (int i = 0; i < kNodes; ++i) {
                    stopNode(i);
                    wipeTree(dataDir(i));
                }
                if (attempt == 4)
                    throw;
                base_ = static_cast<std::uint16_t>(base_ + kNodes);
            }
        }
    }

    /**
     * The first probe of a starting node can run before its peers
     * listen, marking them down until the next tick revives them —
     * routing assertions need every node to see every peer as ok.
     */
    void
    waitForHealthyMesh()
    {
        for (int attempt = 0; attempt < 100; ++attempt) {
            bool converged = true;
            for (int i = 0; i < kNodes && converged; ++i) {
                server::HttpClient probe("127.0.0.1", portOf(i));
                probe.setReadTimeoutMillis(2000);
                const Response seen =
                    probe.roundTrip("GET", "/v1/cluster");
                converged =
                    seen.status == 200 &&
                    seen.body.find("\"health\":\"down\"") ==
                        std::string::npos &&
                    seen.body.find("\"health\":\"unknown\"") ==
                        std::string::npos;
            }
            if (converged)
                return;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
        FAIL() << "mesh never converged to all-healthy";
    }

    void
    TearDown() override
    {
        for (int i = 0; i < kNodes; ++i)
            stopNode(i);
        std::remove(scoresPath_.c_str());
        std::remove(featuresPath_.c_str());
        for (int i = 0; i < kNodes; ++i)
            wipeTree(dataDir(i));
    }

    static std::string
    idOf(int index)
    {
        return std::string(1, static_cast<char>('a' + index));
    }

    std::string
    dataDir(int index) const
    {
        return stem_ + "_" + idOf(index);
    }

    std::uint16_t
    portOf(int index) const
    {
        return static_cast<std::uint16_t>(base_ + index);
    }

    std::string
    meshText(int index) const
    {
        std::string text = "self = " + idOf(index) +
                           "\nreplicas = 2\nvnodes = 32\n";
        for (int i = 0; i < kNodes; ++i)
            text += "node " + idOf(i) + " 127.0.0.1:" +
                    std::to_string(portOf(i)) + "\n";
        return text;
    }

    void
    startNode(int index)
    {
        mesh::MeshRuntime::Config mesh_config;
        mesh_config.mesh = mesh::parseMeshConfig(meshText(index));
        mesh_config.dataDir = dataDir(index);
        mesh_config.rpcTimeoutMillis = 2000;
        mesh_config.tickMillis = 100; // fast probes for the kill test.
        runtimes_[index] =
            std::make_unique<mesh::MeshRuntime>(mesh_config);

        server::Server::Config config;
        config.port = portOf(index);
        config.engine.threads = 2;
        config.queueDepth = 4;
        config.connectionThreads = 8;
        config.store.dataDir = dataDir(index);
        config.store.snapshotEvery = 0;
        config.cluster = runtimes_[index].get();
        servers_[index] = std::make_unique<server::Server>(config);
        servers_[index]->start();
        runtimes_[index]->start(servers_[index]->store());
    }

    void
    stopNode(int index)
    {
        if (servers_[index] != nullptr)
            servers_[index]->stop();
        if (runtimes_[index] != nullptr)
            runtimes_[index]->stop();
        servers_[index].reset();
        runtimes_[index].reset();
    }

    static void
    wipeTree(const std::string &dir)
    {
        if (!util::fileExists(dir))
            return;
        for (const std::string &name : util::listDir(dir)) {
            const std::string path = dir + "/" + name;
            if (::rmdir(path.c_str()) == 0)
                continue;
            if (errno == ENOTEMPTY || errno == EEXIST) {
                // A replica_<leader> subdirectory: empty it first.
                for (const std::string &inner : util::listDir(path))
                    util::removeFile(path + "/" + inner);
                ::rmdir(path.c_str());
            } else {
                util::removeFile(path);
            }
        }
        ::rmdir(dir.c_str());
    }

    std::string
    manifestLine(const std::string &extra = "") const
    {
        return "scores=" + scoresPath_ + " features=" + featuresPath_ +
               " machine-a=mA machine-b=mB som-steps=150" +
               (extra.empty() ? "" : " " + extra);
    }

    /** Redirect-following client pinned to one node. */
    client::ClusterClient
    clientFor(int index) const
    {
        client::ClusterClient::Config config;
        config.targets = {
            client::ClusterTarget{"127.0.0.1", portOf(index)}};
        config.readTimeoutMillis = 10000;
        return client::ClusterClient(config);
    }

    int
    indexOfNode(const std::string &id) const
    {
        return id[0] - 'a';
    }

    std::string stem_;
    std::uint16_t base_ = 0;
    std::string scoresPath_;
    std::string featuresPath_;
    std::unique_ptr<mesh::MeshRuntime> runtimes_[kNodes];
    std::unique_ptr<server::Server> servers_[kNodes];
};

TEST_F(MeshClusterTest, ClusterEndpointReportsMembership)
{
    for (int i = 0; i < kNodes; ++i) {
        auto c = clientFor(i);
        const client::Outcome outcome = c.cluster();
        ASSERT_TRUE(outcome.ok()) << outcome.error;
        const std::string &body = outcome.response.body;
        EXPECT_EQ(server::json::findString(body, "self"), idOf(i));
        EXPECT_EQ(server::json::findNumber(body, "replicas"), 2.0);
        for (int n = 0; n < kNodes; ++n)
            EXPECT_NE(body.find("\"id\":\"" + idOf(n) + "\""),
                      std::string::npos);
    }
}

TEST_F(MeshClusterTest, MetricsCarryEveryMeshFamilyAndLintClean)
{
    static const char *const kMeshFamilies[] = {
        "hiermeans_mesh_nodes",
        "hiermeans_mesh_peers_alive",
        "hiermeans_mesh_forwards_total",
        "hiermeans_mesh_forward_failures_total",
        "hiermeans_mesh_redirects_total",
        "hiermeans_mesh_failovers_total",
        "hiermeans_mesh_replication_batches_total",
        "hiermeans_mesh_replication_records_total",
        "hiermeans_mesh_replication_bytes_total",
        "hiermeans_mesh_replication_failures_total",
        "hiermeans_mesh_snapshot_installs_total",
        "hiermeans_mesh_apply_batches_total",
        "hiermeans_mesh_apply_records_total",
        "hiermeans_mesh_follower_acked_sequence",
        "hiermeans_mesh_replica_sequence"};
    for (int i = 0; i < kNodes; ++i) {
        server::HttpClient c("127.0.0.1", portOf(i));
        const Response metrics = c.roundTrip("GET", "/metrics");
        ASSERT_EQ(metrics.status, 200);
        for (const char *family : kMeshFamilies)
            EXPECT_NE(metrics.body.find(std::string("# TYPE ") + family +
                                        " "),
                      std::string::npos)
                << "node " << idOf(i) << " lacks " << family;
        // Three configured members, all alive once the mesh converged.
        EXPECT_NE(metrics.body.find("hiermeans_mesh_nodes 3\n"),
                  std::string::npos);
        EXPECT_NE(metrics.body.find("hiermeans_mesh_peers_alive 3\n"),
                  std::string::npos);
        for (const std::string &issue : obs::lintExposition(metrics.body))
            ADD_FAILURE() << "node " << idOf(i)
                          << " exposition lint: " << issue;
        expectFamiliesDocumented(metrics.body);
    }
}

TEST_F(MeshClusterTest, FollowerTopologyIsSymmetric)
{
    // Y follows X  <=>  X lists Y as follower; every node computes
    // the same deterministic topology.
    for (int x = 0; x < kNodes; ++x) {
        for (const std::string &follower :
             runtimes_[x]->followers()) {
            const int y = indexOfNode(follower);
            const std::vector<std::string> leaders =
                runtimes_[y]->followedLeaders();
            EXPECT_NE(std::find(leaders.begin(), leaders.end(),
                                idOf(x)),
                      leaders.end())
                << idOf(y) << " should follow " << idOf(x);
        }
        EXPECT_EQ(runtimes_[x]->followers().size(), 1u)
            << "replicas=2 means one follower per leader";
    }
}

TEST_F(MeshClusterTest, SuiteRegisteredAnywhereReadableEverywhere)
{
    // Register through node a regardless of who owns the suite: the
    // write is forwarded to the ring owner.
    auto registrar = clientFor(0);
    const client::Outcome registered = registrar.request(
        "POST", "/v1/suites?name=everywhere",
        manifestLine("seed=5"));
    ASSERT_TRUE(registered.ok()) << registered.response.body;

    // Score it once so the history has an entry.
    const client::Outcome scored =
        registrar.score("suite=everywhere id=seen-run seed=5");
    ASSERT_TRUE(scored.ok()) << scored.response.body;

    // Every node can expand + read it (forwarded or redirected).
    for (int i = 0; i < kNodes; ++i) {
        auto c = clientFor(i);
        const client::Outcome history =
            c.request("GET", "/v1/history?suite=everywhere");
        ASSERT_TRUE(history.ok())
            << "node " << idOf(i) << ": " << history.response.body;
        EXPECT_NE(history.response.body.find("seen-run"),
                  std::string::npos)
            << "node " << idOf(i);
        const client::Outcome rescored = c.score(
            "suite=everywhere id=node-" + idOf(i) + " seed=6");
        EXPECT_TRUE(rescored.ok())
            << "node " << idOf(i) << ": " << rescored.response.body;
    }
}

TEST_F(MeshClusterTest, MisroutedRequestsForwardWritesRedirectReads)
{
    auto registrar = clientFor(0);
    ASSERT_TRUE(registrar
                    .request("POST", "/v1/suites?name=routed",
                             manifestLine("seed=9"))
                    .ok());
    const std::string owner =
        runtimes_[0]->ring().ownerOf("routed");
    const int other = (indexOfNode(owner) + 1) % kNodes;

    // Raw client (no redirect following): a write through the wrong
    // node is forwarded and answers 200 with the router's stamp; a
    // read answers 307 with the owner in Location.
    server::HttpClient raw("127.0.0.1", portOf(other));
    const Response written = raw.roundTrip(
        "POST", "/v1/score", "suite=routed id=misrouted seed=9");
    ASSERT_EQ(written.status, 200) << written.body;
    EXPECT_EQ(written.header("x-hiermeans-routed-to", ""), owner);

    const Response read =
        raw.roundTrip("GET", "/v1/history?suite=routed");
    ASSERT_EQ(read.status, 307);
    const std::string location = read.header("location", "");
    EXPECT_NE(location.find(std::to_string(
                  portOf(indexOfNode(owner)))),
              std::string::npos)
        << location;
}

TEST_F(MeshClusterTest, LeaderKillLosesNoAcknowledgedWrite)
{
    auto registrar = clientFor(0);
    ASSERT_TRUE(registrar
                    .request("POST", "/v1/suites?name=durable",
                             manifestLine("seed=21"))
                    .ok());
    const client::Outcome acked =
        registrar.score("suite=durable id=pre-kill seed=21");
    ASSERT_TRUE(acked.ok()) << acked.response.body;

    // Give the synchronous afterWrite ship a moment, then drop the
    // shard owner.
    const std::string owner =
        runtimes_[0]->ring().ownerOf("durable");
    const int ownerIndex = indexOfNode(owner);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    stopNode(ownerIndex);
    // Let the 100ms health probes mark the owner down.
    std::this_thread::sleep_for(std::chrono::milliseconds(600));

    const int survivor = (ownerIndex + 1) % kNodes;
    auto c = clientFor(survivor);
    const client::Outcome after =
        c.score("suite=durable id=post-kill seed=22");
    ASSERT_TRUE(after.ok()) << after.response.body;

    const client::Outcome history =
        c.request("GET", "/v1/history?suite=durable");
    ASSERT_TRUE(history.ok()) << history.response.body;
    const std::string &body = history.response.body;
    EXPECT_NE(body.find("pre-kill"), std::string::npos)
        << "acknowledged write lost: " << body;
    EXPECT_NE(body.find("post-kill"), std::string::npos);
    // No duplicates: each id appears exactly once.
    for (const char *id : {"pre-kill", "post-kill"}) {
        const std::size_t first = body.find(id);
        EXPECT_EQ(body.find(id, first + 1), std::string::npos)
            << id << " duplicated: " << body;
    }
}

} // namespace
