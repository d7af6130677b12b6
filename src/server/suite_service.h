/**
 * @file
 * The suite-service layer, split out of Server: everything between
 * the HTTP handlers and the durable store.
 *
 * Owns the StateStore lifecycle (mount, recovery, warm start, final
 * snapshot), the `suite=<name>[@version]` reference expansion used
 * by /v1/score and /v1/batch, the suite-registry and history
 * endpoints, and score persistence. The scoring handlers stay in
 * Server (they orchestrate admission/breaker/engine); they call in
 * here for anything suite- or store-shaped.
 *
 * Cluster mode: when ClusterHooks are attached (hmserved
 * --mesh-config), every suite-affine operation first consults
 * routeSuite() — a suite owned by another node is proxied or
 * 307-redirected there instead of served locally; local durable
 * writes are followed by afterWrite() (replication shipping); and
 * suite reads fall back to replica images, which is how a promoted
 * follower answers for a dead leader's shard. Requests carrying the
 * X-Hiermeans-Forwarded loop guard always serve locally. Without
 * hooks every decision degenerates to "serve it here" — the
 * single-node behavior, bit-for-bit.
 */

#ifndef HIERMEANS_SERVER_SUITE_SERVICE_H
#define HIERMEANS_SERVER_SUITE_SERVICE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/engine/engine.h"
#include "src/server/cluster.h"
#include "src/server/http.h"
#include "src/server/router.h"
#include "src/server/server_metrics.h"
#include "src/store/store.h"

namespace hiermeans {
namespace server {

/** Logical manifest lines of @p text: comments stripped, blanks
 *  skipped, surrounding whitespace trimmed. */
std::vector<std::string> manifestLogicalLines(const std::string &text);

/** Store-backed suite registry, reference expansion and history. */
class SuiteService
{
  public:
    explicit SuiteService(ServerMetrics &metrics);

    /** Mount + recover the durable store; a no-op returning a
     *  default RecoveryInfo when config.dataDir is empty. */
    store::RecoveryInfo open(const store::StateStore::Config &config);

    /** Final snapshot + WAL close; throws on snapshot failure. */
    void close();

    /** The durable store; nullptr when persistence is off. */
    store::StateStore *store() { return store_.get(); }
    const store::StateStore *store() const { return store_.get(); }

    const store::RecoveryInfo &recovery() const { return recovery_; }

    /** Attach (or detach, nullptr) the mesh integration. */
    void setCluster(ClusterHooks *cluster) { cluster_ = cluster; }
    ClusterHooks *cluster() const { return cluster_; }

    /** Load every persisted full report into @p engine's result
     *  cache (boot-time warm start). Returns entries repopulated. */
    std::size_t warmStart(engine::ScoringEngine &engine);

    /**
     * A request body after suite-reference expansion. When
     * `response` is set the caller answers it verbatim (a 4xx, or a
     * relayed/redirected answer from another mesh node) and ignores
     * the rest; otherwise `text` is the manifest text to parse and
     * suite/suiteVersion name what was referenced ("" / 0 = ad-hoc).
     */
    struct Expansion
    {
        std::optional<HttpResponse> response;
        std::string text;
        std::string suite;
        std::uint32_t suiteVersion = 0;
    };

    /** Expand a /v1/score or /v1/batch body. @p body is the request
     *  body already decoded to manifest text — the handlers settle
     *  the wire format before expansion, so this layer is
     *  codec-agnostic. */
    Expansion expand(const RequestContext &ctx, const std::string &body);

    HttpResponse handleSuiteRegister(const RequestContext &ctx);
    HttpResponse handleSuiteList(const RequestContext &ctx);
    HttpResponse handleHistory(const RequestContext &ctx);
    HttpResponse handleSnapshot(const RequestContext &ctx);

    /**
     * POST /v1/suites/<name>/observe: append one externally-measured
     * observation (`{"ratio":r[,"plain_ratio":p][,"id":"..."]}`) to
     * @p suite's history ring without re-registering or re-scoring —
     * the streaming feed the drift monitor folds in. Unlike score
     * persistence this write IS the request, so a WAL failure answers
     * 500 instead of being swallowed.
     */
    HttpResponse handleObserve(const RequestContext &ctx,
                               const std::string &suite);

    /** The routing decision for @p suite (public face of routeFor,
     *  for handlers living outside this service). */
    ClusterRoute route(const RequestContext &ctx,
                       const std::string &suite, bool isWrite) const
    {
        return routeFor(ctx, suite, isWrite);
    }

    /** Persist one pipeline-executed score (then replicate, in
     *  cluster mode); no-op without a store. WAL failures are
     *  counted by the store, never propagated. @p budget_millis is
     *  the client's remaining deadline budget (0 = none), forwarded
     *  so replication ack waits stay inside it. */
    void persistScore(const engine::ScoreResult &result,
                      const std::string &suite,
                      std::uint32_t suiteVersion,
                      double budget_millis = 0.0);

  private:
    /** The routing decision for @p suite, honoring the loop guard
     *  (a forwarded request always routes Local). Local when no
     *  cluster hooks are attached. */
    ClusterRoute routeFor(const RequestContext &ctx,
                          const std::string &suite, bool isWrite) const;

    /** Resolve @p name from the local store, then (cluster mode)
     *  from replica images. */
    std::optional<store::SuiteVersion>
    resolveAnywhere(const std::string &name, std::uint32_t version) const;

    ServerMetrics &metrics_;
    std::unique_ptr<store::StateStore> store_;
    store::RecoveryInfo recovery_;
    ClusterHooks *cluster_ = nullptr;
};

} // namespace server
} // namespace hiermeans

#endif // HIERMEANS_SERVER_SUITE_SERVICE_H
