/**
 * @file
 * StateStore: the crash-safe durable store mounted by `hmserved
 * --data-dir`. One directory holds:
 *
 *   wal.log            append-only framed records (wal.h)
 *   snapshot.<seq>     whole-state captures (snapshot.h)
 *
 * Write path: every mutation is encoded as a typed record, appended
 * to the WAL (fsync per cadence), and only then applied to the
 * in-memory StoreState — so the in-memory image never runs ahead of
 * what the disk can reconstruct. Every `snapshotEvery` records the
 * store writes a fresh snapshot, truncates the WAL, and deletes older
 * snapshot generations (compaction).
 *
 * Recovery (open()): load the newest valid snapshot, replay the WAL
 * tail through the same apply() path (the sequence baseline makes an
 * overlapping tail idempotent), CRC-detect any torn final record and
 * truncate it away. The outcome — clean, truncated tail, snapshot
 * fallback — is kept for /metrics.
 *
 * Mirrors: a mesh follower keeps each leader's store as a StateStore
 * of its own (`<dataDir>/replica_<leader>/`). Its records are stamped
 * by the leader, not here: applyFrames appends and applies shipped
 * records through the same commit path, and installSnapshot replaces
 * the whole image with a leader snapshot. Both return the durable
 * sequence a follower acks, and a mirror snapshots, compacts and
 * recovers exactly like a node's own store.
 *
 * Failure policy: suite registration and config changes throw when
 * the WAL rejects them (the caller's request *is* the persistence).
 * Score recording is best-effort — the score was already computed
 * and served, so a WAL failure is counted and reported, never
 * propagated into the response.
 */

#ifndef HIERMEANS_STORE_STORE_H
#define HIERMEANS_STORE_STORE_H

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/store/snapshot.h"
#include "src/store/state.h"
#include "src/store/wal.h"

namespace hiermeans {
namespace store {

/** How recovery went; one-hot in the /metrics exposition. */
enum class RecoveryOutcome
{
    CleanStart = 0,    ///< empty data dir, nothing to recover.
    Clean,             ///< snapshot and/or WAL replayed with no damage.
    TruncatedTail,     ///< a torn WAL tail was detected and cut.
    SnapshotFallback,  ///< >=1 corrupt snapshot skipped during load.
    Count_
};

const char *recoveryOutcomeName(RecoveryOutcome outcome);

/** Everything open() learned while rebuilding the state. */
struct RecoveryInfo
{
    RecoveryOutcome outcome = RecoveryOutcome::CleanStart;
    bool snapshotLoaded = false;
    std::string snapshotFile;
    std::size_t snapshotRecords = 0;    ///< records applied from it.
    std::size_t snapshotsRejected = 0;  ///< corrupt files skipped.
    std::size_t walRecords = 0;         ///< frames decoded from WAL.
    std::size_t walApplied = 0;         ///< survived the baseline guard.
    bool walTorn = false;
    std::string tornReason;
    std::size_t walBytesDiscarded = 0;  ///< torn tail cut by truncate.
    std::uint64_t lastSequence = 0;     ///< state after recovery.
};

/** The boot-line summary of @p info: `outcome=<name> seq=N
 *  snapshot_records=N wal_applied=N discarded_bytes=N`. */
std::string describeRecovery(const RecoveryInfo &info);

/** Point-in-time store counters for the /metrics exposition. */
struct StoreMetrics
{
    // WAL (cumulative since open()).
    std::uint64_t walRecords = 0;
    std::uint64_t walBytes = 0;
    std::uint64_t walFsyncs = 0;
    std::uint64_t walAppendFailures = 0;
    std::uint64_t walSizeBytes = 0; ///< current file size (gauge).
    // Snapshots.
    std::uint64_t snapshotsWritten = 0;
    std::uint64_t snapshotFailures = 0;
    double sinceSnapshotSeconds = 0.0; ///< steady-clock age (gauge).
    // Recovery (fixed after open()).
    RecoveryOutcome recoveryOutcome = RecoveryOutcome::CleanStart;
    std::uint64_t recoveredRecords = 0; ///< snapshot + WAL applied.
    std::uint64_t recoveryDiscardedBytes = 0;
    // State gauges.
    std::uint64_t lastSequence = 0;
    std::uint64_t suiteCount = 0;
    std::uint64_t historyEntries = 0; ///< across every ring.
    std::uint64_t resultCount = 0;    ///< warm-startable reports.
};

/** A run of committed records in wire (framed) form, ready to ship
 *  to a replication follower. */
struct ReplicationBatch
{
    std::uint64_t lastSequence = 0; ///< sequence of the last frame.
    std::size_t records = 0;        ///< frames in the batch.
    std::string frames;             ///< concatenated framed records.
};

/**
 * The durable store facade. Thread-safe: one mutex serializes every
 * mutation and read (operations are in-memory map walks plus one
 * file append; contention is not the bottleneck of a scoring
 * pipeline that trains SOMs).
 */
class StateStore
{
  public:
    struct Config
    {
        std::string dataDir;
        /** fsync the WAL after every Nth record; 0 = never. */
        std::size_t fsyncEvery = 1;
        /** Snapshot + compact every Nth applied record; 0 = only on
         *  explicit snapshotNow()/close(). */
        std::size_t snapshotEvery = 256;
        /** Committed records kept in memory (framed) for replication
         *  shipping; followers further behind than this catch up
         *  from snapshotImage(). 0 disables the tail. */
        std::size_t replicationTail = 1024;
        StoreLimits limits;
    };

    explicit StateStore(Config config);
    ~StateStore();

    StateStore(const StateStore &) = delete;
    StateStore &operator=(const StateStore &) = delete;

    /**
     * Create the data dir when absent, recover state (snapshot + WAL
     * tail), truncate any torn tail, and open the WAL for appending.
     * Must be called exactly once, before any other method.
     */
    RecoveryInfo open();

    /** True once open() has succeeded. */
    bool isOpen() const;

    /**
     * Take a final snapshot (when anything changed since the last
     * one) and close the WAL. Safe to call twice; the destructor
     * calls it with failures swallowed.
     */
    void close();

    // --- mutations ---------------------------------------------------

    /**
     * Register @p manifest under @p name as the next version (1 for
     * a new name). Returns the stored version. Throws on WAL failure
     * — an unpersisted registration must not be acknowledged.
     */
    SuiteVersion registerSuite(const std::string &name,
                               const std::string &manifest);

    /** Outcome of a versioned registration attempt. */
    struct RegisterOutcome
    {
        SuiteVersion version;
        /** True when a new version was appended to the WAL. */
        bool created = false;
        /** True when the requested version exists with a *different*
         *  manifest (or was compacted away) — never overwritten. */
        bool conflict = false;
        /** True when the requested version would leave a gap
         *  (> latest + 1). */
        bool gap = false;
    };

    /**
     * Register @p manifest under @p name at @p requested_version:
     * 0 or latest+1 appends the next version (created=true); an
     * existing version with a byte-identical manifest is an
     * idempotent no-op (created=false, the stored version returned);
     * an existing version with a different payload — or one already
     * compacted out of the retained window — is a conflict and the
     * store is left untouched; a version past latest+1 is a gap.
     * All outcomes are decided under the store mutex.
     */
    RegisterOutcome registerSuiteVersion(const std::string &name,
                                         const std::string &manifest,
                                         std::uint64_t requested_version);

    /**
     * Persist one executed score (record.sequence is assigned here).
     * Returns false — and counts the failure — when the WAL append
     * fails; the caller serves the response regardless.
     */
    bool recordScore(ScoreRecord record);

    /** Persist a store-level setting change (see StoreLimits keys).
     *  Throws on a bad key/value or WAL failure. */
    void changeConfig(const std::string &key, const std::string &value);

    /**
     * Persist one suite's drift-monitor state (record.sequence is
     * assigned here; latest record per suite wins on replay). Best
     * effort like recordScore: returns false — and counts the
     * failure — when the WAL append fails; the monitor keeps its
     * in-memory state regardless.
     */
    bool recordDriftState(DriftStateRecord record);

    /**
     * Mirror write (tail mode): append + apply a run of framed records
     * a leader shipped, already stamped with the leader's sequences.
     * Frames at or below lastSequence() are skipped (duplicate
     * delivery); the rest go through the normal commit path, snapshot
     * cadence included, and one fsync precedes the return. Returns
     * the new durable lastSequence — the ack offset. Throws
     * InvalidArgument on a corrupt frame, a sequence gap, or a
     * SnapshotHeader (images go through installSnapshot).
     */
    std::uint64_t applyFrames(std::string_view frames);

    /**
     * Mirror write (catch-up): replace the whole state with a leader's
     * snapshotImage(). The image is decoded, written as this store's
     * newest snapshot (atomic replace), the WAL is reset and older
     * snapshots removed — only then does the new state swap in, so a
     * failure leaves the previous image and offset in place. Returns
     * the new lastSequence.
     */
    std::uint64_t installSnapshot(std::string_view image);

    /**
     * Write a snapshot now, truncate the WAL, and delete older
     * snapshot generations. Returns the sequence it captured.
     * Throws when the snapshot cannot be written (the WAL is left
     * untouched — nothing is lost).
     */
    std::uint64_t snapshotNow();

    // --- reads (copies; safe to use without further locking) ---------

    std::vector<HistoryEntry> history(const std::string &suite) const;

    std::vector<Suite> suites() const;

    /** Manifest of @p name at @p version (0 = newest). */
    std::optional<SuiteVersion> resolveSuite(const std::string &name,
                                             std::uint32_t version = 0) const;

    /** Every retained full score record (warm-start feed). */
    std::vector<ScoreRecord> scoreRecords() const;

    /** Latest persisted drift state per suite (warm-start feed for
     *  the drift monitor). */
    std::vector<DriftStateRecord> driftStates() const;

    /** Latest drift state of @p suite; nullopt when never recorded. */
    std::optional<DriftStateRecord>
    driftState(const std::string &suite) const;

    std::uint64_t lastSequence() const;

    /** Canonical byte image of the whole state (StoreState::
     *  encodeSnapshotBody): equal states produce equal bytes, which
     *  is how the crash-recovery tests and the chaos harness check
     *  that a recovered store matches the pre-crash committed one. */
    std::string encodeStateBody() const;

    /**
     * Framed records with sequence > @p afterSequence, oldest first
     * (a leader's delta for a follower acked through
     * @p afterSequence). Empty batch when the follower is caught
     * up; nullopt when the in-memory tail no longer reaches back to
     * @p afterSequence — the follower must reinstall from
     * snapshotImage() instead.
     */
    std::optional<ReplicationBatch>
    framesSince(std::uint64_t afterSequence) const;

    /** A complete snapshot image — SnapshotHeader frame + canonical
     *  state body, byte-identical to a snapshot file — for follower
     *  catch-up past the replication tail. */
    std::string snapshotImage() const;

    StoreMetrics metrics() const;

    const Config &config() const { return config_; }

    const RecoveryInfo &recovery() const { return recovery_; }

  private:
    /** Append @p payload (already stamped with nextSequence(), here
     *  or by the leader of a mirror) to the WAL, then apply it.
     *  Requires mutex_. Throws on WAL failure — the state is
     *  untouched then. */
    void commit(RecordType type, const std::string &payload);

    /** Auto-snapshot when the cadence says so. Requires mutex_.
     *  Failures are counted, never thrown (the record is in the WAL;
     *  durability does not depend on the snapshot). */
    void maybeSnapshot();

    /** snapshotNow() body. Requires mutex_. */
    std::uint64_t snapshotLocked();

    /** Write @p state as the newest snapshot, reset the WAL and drop
     *  older generations. Requires mutex_. Throws when the snapshot
     *  cannot be written — the WAL is untouched then. */
    void compactTo(const StoreState &state);

    /** One tail entry: a committed record, already framed. */
    struct TailFrame
    {
        std::uint64_t sequence = 0;
        std::string framed;
    };

    Config config_;
    mutable std::mutex mutex_;
    StoreState state_;
    std::unique_ptr<WalWriter> wal_;
    /** Recent commits, contiguous ascending sequence (framesSince). */
    std::deque<TailFrame> tail_;
    RecoveryInfo recovery_;
    std::uint64_t snapshotsWritten_ = 0;
    std::uint64_t snapshotFailures_ = 0;
    std::size_t sinceSnapshot_ = 0; ///< records since last snapshot.
    std::uint64_t lastSnapshotSequence_ = 0;
    /** steady-clock time of the last snapshot (or open()). */
    std::chrono::steady_clock::time_point snapshotTime_;
};

} // namespace store
} // namespace hiermeans

#endif // HIERMEANS_STORE_STORE_H
