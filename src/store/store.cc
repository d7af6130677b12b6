#include "src/store/store.h"

#include <exception>

#include "src/util/error.h"
#include "src/util/file.h"

namespace hiermeans {
namespace store {

const char *
recoveryOutcomeName(RecoveryOutcome outcome)
{
    switch (outcome) {
    case RecoveryOutcome::CleanStart:
        return "clean_start";
    case RecoveryOutcome::Clean:
        return "clean";
    case RecoveryOutcome::TruncatedTail:
        return "truncated_tail";
    case RecoveryOutcome::SnapshotFallback:
        return "snapshot_fallback";
    case RecoveryOutcome::Count_:
        break;
    }
    return "unknown";
}

std::string
describeRecovery(const RecoveryInfo &info)
{
    return std::string("outcome=") + recoveryOutcomeName(info.outcome) +
           " seq=" + std::to_string(info.lastSequence) +
           " snapshot_records=" + std::to_string(info.snapshotRecords) +
           " wal_applied=" + std::to_string(info.walApplied) +
           " discarded_bytes=" + std::to_string(info.walBytesDiscarded);
}

StateStore::StateStore(Config config)
    : config_(std::move(config)), state_(config_.limits)
{
    HM_REQUIRE(!config_.dataDir.empty(),
               "StateStore: dataDir must not be empty");
}

StateStore::~StateStore()
{
    try {
        close();
    } catch (const std::exception &) {
        // Destructor close is best-effort; the WAL already holds
        // everything a restart needs.
    }
}

RecoveryInfo
StateStore::open()
{
    std::lock_guard<std::mutex> lock(mutex_);
    HM_REQUIRE(wal_ == nullptr, "StateStore::open called twice");
    util::ensureDir(config_.dataDir);

    // 1. Newest valid snapshot (falling back past corrupt ones).
    const SnapshotLoad snapshot =
        loadLatestSnapshot(config_.dataDir, state_);
    recovery_.snapshotLoaded = snapshot.loaded;
    recovery_.snapshotFile = snapshot.file;
    recovery_.snapshotRecords = snapshot.records;
    recovery_.snapshotsRejected = snapshot.rejected.size();
    if (!snapshot.loaded)
        state_ = StoreState(config_.limits);

    // 2. WAL tail through the same apply() path; the baseline set by
    //    the snapshot makes an overlapping tail idempotent. A header
    //    frame is an install point of a mirror written by an older
    //    release, which kept the installed image in its WAL: it
    //    starts a fresh state, and its sequence becomes the baseline
    //    once the image body and the tail after it have applied.
    const std::string wal_path = config_.dataDir + "/wal.log";
    std::optional<std::uint64_t> install_point;
    const ReplayResult replay =
        replayWal(wal_path, [&](const Record &record) {
            if (record.type == RecordType::SnapshotHeader) {
                const SnapshotHeader header =
                    decodeSnapshotHeader(record.payload);
                state_ = StoreState(header.limits);
                install_point = header.lastSequence;
                return;
            }
            if (state_.apply(record))
                ++recovery_.walApplied;
        });
    if (install_point.has_value())
        state_.setBaseline(*install_point);
    recovery_.walRecords = replay.records;
    recovery_.walTorn = replay.torn;
    recovery_.tornReason = replay.reason;

    // 3. A torn tail is cut before the writer reopens the file.
    if (replay.torn) {
        recovery_.walBytesDiscarded =
            replay.totalBytes - replay.validBytes;
        truncateWalTail(wal_path, replay.validBytes);
    }

    recovery_.lastSequence = state_.lastSequence();
    const bool touched_disk = snapshot.loaded || replay.totalBytes > 0 ||
                              !snapshot.rejected.empty();
    if (replay.torn)
        recovery_.outcome = RecoveryOutcome::TruncatedTail;
    else if (!snapshot.rejected.empty())
        recovery_.outcome = RecoveryOutcome::SnapshotFallback;
    else if (touched_disk)
        recovery_.outcome = RecoveryOutcome::Clean;
    else
        recovery_.outcome = RecoveryOutcome::CleanStart;

    wal_ = std::make_unique<WalWriter>(
        wal_path, WalWriter::Config{config_.fsyncEvery});
    lastSnapshotSequence_ = snapshot.loaded ? snapshot.lastSequence : 0;
    snapshotTime_ = std::chrono::steady_clock::now();
    return recovery_;
}

bool
StateStore::isOpen() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return wal_ != nullptr;
}

void
StateStore::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (wal_ == nullptr)
        return;
    if (state_.lastSequence() > lastSnapshotSequence_)
        snapshotLocked();
    wal_.reset();
}

void
StateStore::commit(RecordType type, const std::string &payload)
{
    HM_REQUIRE(wal_ != nullptr, "StateStore used before open()");
    wal_->append(type, payload);
    const bool applied = state_.apply(Record{type, payload});
    HM_ASSERT(applied, "freshly stamped record below baseline");
    ++sinceSnapshot_;
    if (config_.replicationTail > 0) {
        tail_.push_back(
            {state_.lastSequence(), frameRecord(type, payload)});
        while (tail_.size() > config_.replicationTail)
            tail_.pop_front();
    }
}

SuiteVersion
StateStore::registerSuite(const std::string &name,
                          const std::string &manifest)
{
    HM_REQUIRE(!name.empty(), "suite name must not be empty");
    HM_REQUIRE(!manifest.empty(),
               "suite `" << name << "`: manifest must not be empty");
    std::lock_guard<std::mutex> lock(mutex_);
    SuiteVersion version;
    version.sequence = state_.nextSequence();
    version.version = state_.latestVersion(name) + 1;
    version.manifest = manifest;
    commit(RecordType::SuiteRegistered,
           encodeSuiteRegistered(name, version));
    maybeSnapshot();
    return version;
}

StateStore::RegisterOutcome
StateStore::registerSuiteVersion(const std::string &name,
                                 const std::string &manifest,
                                 std::uint64_t requested_version)
{
    HM_REQUIRE(!name.empty(), "suite name must not be empty");
    HM_REQUIRE(!manifest.empty(),
               "suite `" << name << "`: manifest must not be empty");
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t latest = state_.latestVersion(name);
    RegisterOutcome outcome;
    if (requested_version != 0 && requested_version <= latest) {
        const SuiteVersion *existing =
            state_.findSuite(name, requested_version);
        if (existing != nullptr && existing->manifest == manifest) {
            outcome.version = *existing; // idempotent replay, no WAL write.
            return outcome;
        }
        // Different payload — or a version compacted out of the
        // retained window, which we can no longer prove identical.
        outcome.conflict = true;
        return outcome;
    }
    if (requested_version > latest + 1) {
        outcome.gap = true;
        outcome.version.version = latest; // reported in the error.
        return outcome;
    }
    outcome.version.sequence = state_.nextSequence();
    outcome.version.version = latest + 1;
    outcome.version.manifest = manifest;
    commit(RecordType::SuiteRegistered,
           encodeSuiteRegistered(name, outcome.version));
    maybeSnapshot();
    outcome.created = true;
    return outcome;
}

bool
StateStore::recordScore(ScoreRecord record)
{
    std::lock_guard<std::mutex> lock(mutex_);
    record.sequence = state_.nextSequence();
    try {
        commit(RecordType::ScoreRecorded, encodeScoreRecorded(record));
    } catch (const Error &) {
        return false; // counted by the WAL writer; response unaffected.
    }
    maybeSnapshot();
    return true;
}

bool
StateStore::recordDriftState(DriftStateRecord record)
{
    HM_REQUIRE(!record.suite.empty(),
               "recordDriftState: suite must not be empty");
    std::lock_guard<std::mutex> lock(mutex_);
    record.sequence = state_.nextSequence();
    try {
        commit(RecordType::DriftUpdated, encodeDriftUpdated(record));
    } catch (const Error &) {
        return false; // counted by the WAL writer; monitor unaffected.
    }
    maybeSnapshot();
    return true;
}

void
StateStore::changeConfig(const std::string &key, const std::string &value)
{
    // Reject bad changes before they become durable: a record that
    // cannot apply would otherwise replay its throw at every boot.
    validateConfigChange(key, value);
    std::lock_guard<std::mutex> lock(mutex_);
    ConfigChange change;
    change.sequence = state_.nextSequence();
    change.key = key;
    change.value = value;
    commit(RecordType::ConfigChanged, encodeConfigChanged(change));
    maybeSnapshot();
}

std::uint64_t
StateStore::applyFrames(std::string_view frames)
{
    std::lock_guard<std::mutex> lock(mutex_);
    HM_REQUIRE(wal_ != nullptr, "StateStore used before open()");
    FrameReader reader(frames);
    Record record;
    while (reader.next(record)) {
        HM_REQUIRE(record.type != RecordType::SnapshotHeader,
                   "applyFrames: snapshot images go through "
                   "installSnapshot");
        const std::uint64_t sequence =
            BinaryReader(record.payload).u64();
        if (sequence <= state_.lastSequence())
            continue; // duplicate delivery (leader retry).
        // A gap means the leader shipped from a stale ack (e.g. this
        // mirror lost its disk): refuse, so the leader resyncs from
        // the acked offset in the error answer instead of leaving a
        // hole in the mirror.
        HM_REQUIRE(sequence == state_.lastSequence() + 1,
                   "applyFrames: sequence gap: have "
                       << state_.lastSequence() << ", got " << sequence);
        commit(record.type, record.payload);
        maybeSnapshot();
    }
    HM_REQUIRE(!reader.sawCorruption(),
               "applyFrames: corrupt frame: " << reader.corruption());
    // The ack offset must name durable state.
    wal_->sync();
    return state_.lastSequence();
}

std::uint64_t
StateStore::installSnapshot(std::string_view image)
{
    std::lock_guard<std::mutex> lock(mutex_);
    HM_REQUIRE(wal_ != nullptr, "StateStore used before open()");
    StoreState installed;
    decodeSnapshot(image, installed);
    // On disk first: a failed write leaves the previous image, WAL
    // and offset in place.
    compactTo(installed);
    state_ = std::move(installed);
    tail_.clear();
    return state_.lastSequence();
}

std::uint64_t
StateStore::snapshotNow()
{
    std::lock_guard<std::mutex> lock(mutex_);
    HM_REQUIRE(wal_ != nullptr, "StateStore used before open()");
    return snapshotLocked();
}

std::uint64_t
StateStore::snapshotLocked()
{
    compactTo(state_);
    return state_.lastSequence();
}

void
StateStore::compactTo(const StoreState &state)
{
    const std::string name = writeSnapshot(config_.dataDir, state);
    // The snapshot is durable; the log it covers is now redundant.
    if (wal_ != nullptr)
        wal_->reset();
    removeOldSnapshots(config_.dataDir, name);
    ++snapshotsWritten_;
    sinceSnapshot_ = 0;
    lastSnapshotSequence_ = state.lastSequence();
    snapshotTime_ = std::chrono::steady_clock::now();
}

void
StateStore::maybeSnapshot()
{
    if (config_.snapshotEvery == 0 ||
        sinceSnapshot_ < config_.snapshotEvery)
        return;
    try {
        snapshotLocked();
    } catch (const Error &) {
        ++snapshotFailures_;
        sinceSnapshot_ = 0; // back off a full cadence before retrying.
    }
}

std::vector<HistoryEntry>
StateStore::history(const std::string &suite) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return state_.history(suite);
}

std::vector<Suite>
StateStore::suites() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Suite> copies;
    copies.reserve(state_.suites().size());
    for (const auto &[name, suite] : state_.suites())
        copies.push_back(suite);
    return copies;
}

std::optional<SuiteVersion>
StateStore::resolveSuite(const std::string &name,
                         std::uint32_t version) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const SuiteVersion *found = state_.findSuite(name, version);
    if (found == nullptr)
        return std::nullopt;
    return *found;
}

std::vector<ScoreRecord>
StateStore::scoreRecords() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ScoreRecord> copies;
    copies.reserve(state_.resultCount());
    for (const ScoreRecord *record : state_.results())
        copies.push_back(*record);
    return copies;
}

std::vector<DriftStateRecord>
StateStore::driftStates() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<DriftStateRecord> copies;
    copies.reserve(state_.driftStates().size());
    for (const auto &[suite, record] : state_.driftStates())
        copies.push_back(record);
    return copies;
}

std::optional<DriftStateRecord>
StateStore::driftState(const std::string &suite) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const DriftStateRecord *found = state_.driftState(suite);
    if (found == nullptr)
        return std::nullopt;
    return *found;
}

std::uint64_t
StateStore::lastSequence() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return state_.lastSequence();
}

std::string
StateStore::encodeStateBody() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return state_.encodeSnapshotBody();
}

std::optional<ReplicationBatch>
StateStore::framesSince(std::uint64_t afterSequence) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ReplicationBatch batch;
    batch.lastSequence = state_.lastSequence();
    if (afterSequence >= state_.lastSequence())
        return batch; // caught up; nothing to ship.
    // Commit sequences are contiguous, so the tail covers the delta
    // exactly when its oldest frame starts at afterSequence + 1 or
    // earlier.
    if (tail_.empty() || tail_.front().sequence > afterSequence + 1)
        return std::nullopt; // compacted away: snapshot catch-up.
    for (const TailFrame &frame : tail_) {
        if (frame.sequence <= afterSequence)
            continue;
        batch.frames += frame.framed;
        ++batch.records;
    }
    batch.lastSequence = tail_.back().sequence;
    return batch;
}

std::string
StateStore::snapshotImage() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return frameRecord(RecordType::SnapshotHeader,
                       encodeSnapshotHeader(state_.lastSequence(),
                                            state_.limits())) +
           state_.encodeSnapshotBody();
}

StoreMetrics
StateStore::metrics() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    StoreMetrics m;
    if (wal_ != nullptr) {
        const WalWriter::Counters &wal = wal_->counters();
        m.walRecords = wal.records;
        m.walBytes = wal.bytes;
        m.walFsyncs = wal.fsyncs;
        m.walAppendFailures = wal.appendFailures;
        m.walSizeBytes = wal_->sizeBytes();
    }
    m.snapshotsWritten = snapshotsWritten_;
    m.snapshotFailures = snapshotFailures_;
    m.sinceSnapshotSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      snapshotTime_)
            .count();
    m.recoveryOutcome = recovery_.outcome;
    m.recoveredRecords =
        recovery_.snapshotRecords + recovery_.walApplied;
    m.recoveryDiscardedBytes = recovery_.walBytesDiscarded;
    m.lastSequence = state_.lastSequence();
    m.suiteCount = state_.suites().size();
    std::uint64_t history_total = 0;
    for (const auto &[suite, size] : state_.historySizes())
        history_total += size;
    m.historyEntries = history_total;
    m.resultCount = state_.resultCount();
    return m;
}

} // namespace store
} // namespace hiermeans
