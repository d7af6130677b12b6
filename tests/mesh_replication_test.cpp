/**
 * WAL-shipping replication between a leader StateStore and a follower
 * mirror (a StateStore fed by applyFrames/installSnapshot): tail
 * batches apply and ack durably, duplicate delivery is idempotent, a
 * sequence gap is refused (the leader must resync instead of leaving
 * a hole), catch-up past the in-memory tail goes through a snapshot
 * image, a failed install changes nothing, the mirror compacts like
 * the node's own store, and it survives reopen — including a mirror
 * directory in the older WAL-only install layout — with a state
 * bit-identical to the leader's.
 */

#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <unistd.h>

#include "src/store/store.h"
#include "src/util/error.h"
#include "src/util/fault.h"
#include "src/util/file.h"

namespace {

using namespace hiermeans;

class MeshReplicationTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        stem_ = "/tmp/hiermeans_mesh_replication_" +
                std::to_string(::getpid());
        leaderDir_ = stem_ + "_leader";
        replicaDir_ = stem_ + "_replica";
        wipe(leaderDir_);
        wipe(replicaDir_);
    }

    void
    TearDown() override
    {
        fault::reset();
        wipe(leaderDir_);
        wipe(replicaDir_);
    }

    static void
    wipe(const std::string &dir)
    {
        if (!util::fileExists(dir))
            return;
        for (const std::string &name : util::listDir(dir))
            util::removeFile(dir + "/" + name);
        ::rmdir(dir.c_str());
    }

    std::unique_ptr<store::StateStore>
    openLeader(std::size_t replicationTail = 1024)
    {
        store::StateStore::Config config;
        config.dataDir = leaderDir_;
        config.snapshotEvery = 0;
        config.replicationTail = replicationTail;
        auto leader = std::make_unique<store::StateStore>(config);
        leader->open();
        return leader;
    }

    std::unique_ptr<store::StateStore>
    openReplica()
    {
        store::StateStore::Config config;
        config.dataDir = replicaDir_;
        config.replicationTail = 0;
        auto replica = std::make_unique<store::StateStore>(config);
        replica->open();
        return replica;
    }

    /** The leader registers `zeta` (seq 1), scores it five times
     *  (seq 2..6) and registers `alpha` (seq 7): its snapshot body,
     *  ordered by suite name, is then out of sequence order. */
    static void
    writeOutOfOrderState(store::StateStore &leader)
    {
        leader.registerSuite("zeta", "scores=s.csv features=f.csv "
                                     "machine-a=mA machine-b=mB");
        for (int i = 0; i < 5; ++i)
            leader.recordScore(score("z-" + std::to_string(i), "zeta"));
        leader.registerSuite("alpha", "scores=s.csv features=f.csv "
                                      "machine-a=mA machine-b=mB");
    }

    static store::ScoreRecord
    score(const std::string &id, const std::string &suite = "")
    {
        store::ScoreRecord record;
        record.suite = suite;
        record.id = id;
        record.fingerprint = 0xfeedULL;
        record.recommendedK = 2;
        record.ratio = 1.25;
        record.plainRatio = 1.5;
        record.wallMillis = 3.0;
        return record;
    }

    std::string stem_;
    std::string leaderDir_;
    std::string replicaDir_;
};

TEST_F(MeshReplicationTest, TailBatchAppliesAndAcksDurably)
{
    auto leader = openLeader();
    leader->registerSuite("nightly", "scores=s.csv features=f.csv "
                                     "machine-a=mA machine-b=mB");
    leader->recordScore(score("run-1", "nightly"));
    leader->recordScore(score("run-2"));
    ASSERT_EQ(leader->lastSequence(), 3u);

    const auto batch = leader->framesSince(0);
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->records, 3u);
    EXPECT_EQ(batch->lastSequence, 3u);

    auto replica = openReplica();
    EXPECT_EQ(replica->applyFrames(batch->frames), 3u);
    EXPECT_EQ(replica->lastSequence(), 3u);
    EXPECT_TRUE(replica->resolveSuite("nightly").has_value());
    EXPECT_EQ(replica->history("nightly").size(), 1u);
    // Same committed state, bit for bit.
    EXPECT_EQ(replica->encodeStateBody(), leader->encodeStateBody());
}

TEST_F(MeshReplicationTest, CaughtUpFollowerGetsAnEmptyBatch)
{
    auto leader = openLeader();
    leader->recordScore(score("run-1"));
    const auto batch = leader->framesSince(leader->lastSequence());
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->records, 0u);
    EXPECT_TRUE(batch->frames.empty());
    EXPECT_EQ(batch->lastSequence, leader->lastSequence());
}

TEST_F(MeshReplicationTest, DuplicateDeliveryIsIdempotent)
{
    auto leader = openLeader();
    leader->registerSuite("nightly", "scores=s.csv features=f.csv "
                                     "machine-a=mA machine-b=mB");
    leader->recordScore(score("run-1", "nightly"));
    const auto batch = leader->framesSince(0);
    ASSERT_TRUE(batch.has_value());

    auto replica = openReplica();
    EXPECT_EQ(replica->applyFrames(batch->frames), 2u);
    // The leader retries an unacked batch: same frames again.
    EXPECT_EQ(replica->applyFrames(batch->frames), 2u);
    EXPECT_EQ(replica->history("nightly").size(), 1u)
        << "duplicate delivery must not duplicate history";
}

TEST_F(MeshReplicationTest, SequenceGapIsRefused)
{
    auto leader = openLeader();
    leader->recordScore(score("run-1"));
    leader->recordScore(score("run-2"));
    leader->recordScore(score("run-3"));
    // A leader shipping from a stale ack (this replica lost its
    // disk): frames start at 3, the replica is empty.
    const auto gap = leader->framesSince(2);
    ASSERT_TRUE(gap.has_value());
    auto replica = openReplica();
    EXPECT_THROW(replica->applyFrames(gap->frames), Error);
    EXPECT_EQ(replica->lastSequence(), 0u) << "no partial apply";
    // Resync from the true offset succeeds.
    const auto full = leader->framesSince(0);
    ASSERT_TRUE(full.has_value());
    EXPECT_EQ(replica->applyFrames(full->frames), 3u);
}

TEST_F(MeshReplicationTest, CatchUpPastTailUsesSnapshotImage)
{
    auto leader = openLeader(/*replicationTail=*/2);
    leader->registerSuite("nightly", "scores=s.csv features=f.csv "
                                     "machine-a=mA machine-b=mB");
    for (int i = 0; i < 5; ++i)
        leader->recordScore(score("run-" + std::to_string(i),
                                  "nightly"));
    // The tail only holds the newest 2 frames: a from-zero follower
    // cannot be served frames.
    EXPECT_FALSE(leader->framesSince(0).has_value());

    auto replica = openReplica();
    const std::string image = leader->snapshotImage();
    EXPECT_EQ(replica->installSnapshot(image), leader->lastSequence());
    EXPECT_EQ(replica->encodeStateBody(), leader->encodeStateBody());

    // And the tail continues from the install point.
    leader->recordScore(score("run-after", "nightly"));
    const auto tail = leader->framesSince(replica->lastSequence());
    ASSERT_TRUE(tail.has_value());
    EXPECT_EQ(tail->records, 1u);
    EXPECT_EQ(replica->applyFrames(tail->frames),
              leader->lastSequence());
}

TEST_F(MeshReplicationTest, ReplicaSurvivesReopen)
{
    auto leader = openLeader();
    leader->registerSuite("nightly", "scores=s.csv features=f.csv "
                                     "machine-a=mA machine-b=mB");
    leader->recordScore(score("run-1", "nightly"));
    const auto batch = leader->framesSince(0);
    ASSERT_TRUE(batch.has_value());

    auto replica = openReplica();
    replica->applyFrames(batch->frames);
    const std::string before = replica->encodeStateBody();
    replica->close();
    replica.reset();

    auto reopened = openReplica();
    EXPECT_EQ(reopened->lastSequence(), 2u);
    EXPECT_EQ(reopened->encodeStateBody(), before);
    EXPECT_TRUE(reopened->resolveSuite("nightly").has_value());
}

TEST_F(MeshReplicationTest, SnapshotInstallSurvivesReopen)
{
    auto leader = openLeader(/*replicationTail=*/1);
    leader->registerSuite("nightly", "scores=s.csv features=f.csv "
                                     "machine-a=mA machine-b=mB");
    leader->recordScore(score("run-1", "nightly"));

    auto replica = openReplica();
    replica->installSnapshot(leader->snapshotImage());
    const std::uint64_t acked = replica->lastSequence();
    replica->close();
    replica.reset();

    auto reopened = openReplica();
    EXPECT_EQ(reopened->lastSequence(), acked);
    EXPECT_EQ(reopened->encodeStateBody(), leader->encodeStateBody());
}

TEST_F(MeshReplicationTest, ReopenAfterOutOfOrderInstallKeepsEveryRecord)
{
    auto leader = openLeader();
    writeOutOfOrderState(*leader);
    ASSERT_EQ(leader->lastSequence(), 7u);

    auto replica = openReplica();
    EXPECT_EQ(replica->installSnapshot(leader->snapshotImage()), 7u);
    EXPECT_EQ(replica->encodeStateBody(), leader->encodeStateBody());
    replica->close();
    replica.reset();

    auto reopened = openReplica();
    EXPECT_EQ(reopened->lastSequence(), 7u);
    EXPECT_TRUE(reopened->resolveSuite("zeta").has_value());
    EXPECT_EQ(reopened->history("zeta").size(), 5u);
    EXPECT_EQ(reopened->encodeStateBody(), leader->encodeStateBody());
}

TEST_F(MeshReplicationTest, FailedInstallLeavesThePreviousImage)
{
    auto leader = openLeader();
    leader->registerSuite("nightly", "scores=s.csv features=f.csv "
                                     "machine-a=mA machine-b=mB");
    leader->recordScore(score("run-1", "nightly"));
    auto replica = openReplica();
    const auto batch = leader->framesSince(0);
    ASSERT_TRUE(batch.has_value());
    ASSERT_EQ(replica->applyFrames(batch->frames), 2u);
    const std::string before = replica->encodeStateBody();

    for (int i = 0; i < 3; ++i)
        leader->recordScore(score("run-more-" + std::to_string(i),
                                  "nightly"));
    fault::configure("store.snapshot.write=once");
    EXPECT_THROW(replica->installSnapshot(leader->snapshotImage()),
                 Error);
    fault::reset();
    EXPECT_EQ(replica->lastSequence(), 2u);
    EXPECT_EQ(replica->encodeStateBody(), before);

    // Drop the mirror without its close() snapshot: recovery reads
    // only what the failed install left on disk.
    fault::configure("store.snapshot.write=always");
    replica.reset();
    fault::reset();
    auto reopened = openReplica();
    EXPECT_EQ(reopened->lastSequence(), 2u);
    EXPECT_EQ(reopened->encodeStateBody(), before);
}

TEST_F(MeshReplicationTest, MirrorCompactsLikeTheNodeStore)
{
    auto leader = openLeader();
    leader->registerSuite("nightly", "scores=s.csv features=f.csv "
                                     "machine-a=mA machine-b=mB");
    auto replica = openReplica();
    ASSERT_EQ(replica->config().snapshotEvery, 256u);
    for (int i = 1; i < 600; ++i) {
        leader->recordScore(score("run-" + std::to_string(i), "nightly"));
        if (i % 40 == 0 || i == 599) {
            const auto batch = leader->framesSince(replica->lastSequence());
            ASSERT_TRUE(batch.has_value());
            ASSERT_EQ(replica->applyFrames(batch->frames),
                      leader->lastSequence());
        }
    }
    ASSERT_EQ(replica->lastSequence(), 600u);

    EXPECT_EQ(store::listSnapshots(replicaDir_).size(), 1u);
    std::size_t walRecords = 0;
    store::replayWal(replicaDir_ + "/wal.log",
                     [&](const store::Record &) { ++walRecords; });
    EXPECT_LT(walRecords, 256u);

    replica->close();
    replica.reset();
    auto reopened = openReplica();
    EXPECT_EQ(reopened->lastSequence(), 600u);
    EXPECT_EQ(reopened->encodeStateBody(), leader->encodeStateBody());
}

TEST_F(MeshReplicationTest, OpensTheWalOnlyInstallLayout)
{
    // Older mirrors kept an installed image in their WAL: the
    // SnapshotHeader frame, the image body, then the shipped tail.
    auto leader = openLeader();
    writeOutOfOrderState(*leader);
    const std::string image = leader->snapshotImage();
    const std::uint64_t installed = leader->lastSequence();
    leader->recordScore(score("tail-1", "zeta"));
    leader->recordScore(score("tail-2", "alpha"));
    const auto tail = leader->framesSince(installed);
    ASSERT_TRUE(tail.has_value());
    ASSERT_EQ(tail->records, 2u);

    util::ensureDir(replicaDir_);
    {
        store::WalWriter wal(replicaDir_ + "/wal.log", {});
        for (const std::string &frames : {image, tail->frames}) {
            store::FrameReader reader(frames);
            store::Record record;
            while (reader.next(record))
                wal.append(record.type, record.payload);
            ASSERT_FALSE(reader.sawCorruption());
        }
    }

    auto replica = openReplica();
    EXPECT_EQ(replica->lastSequence(), leader->lastSequence());
    EXPECT_EQ(replica->history("zeta").size(), 6u);
    EXPECT_EQ(replica->encodeStateBody(), leader->encodeStateBody());
}

} // namespace
