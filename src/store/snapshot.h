/**
 * @file
 * Snapshot files: a whole StoreState captured as one record stream so
 * recovery can skip replaying the full WAL history.
 *
 * A snapshot file is a SnapshotHeader frame (format version, last
 * sequence, limits) followed by the state's canonical body
 * (StoreState::encodeSnapshotBody). Files are named
 * `snapshot.<sequence>` with the sequence zero-padded so
 * lexicographic order is recovery order, and written through
 * util::writeFileAtomic — a crash mid-snapshot leaves only the old
 * files. Loading walks newest to oldest and falls back past any file
 * that fails its header, CRC, or decode checks, so one bad snapshot
 * degrades recovery, never prevents it.
 */

#ifndef HIERMEANS_STORE_SNAPSHOT_H
#define HIERMEANS_STORE_SNAPSHOT_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/store/state.h"

namespace hiermeans {
namespace store {

/** File name for the snapshot at @p sequence (zero-padded, so the
 *  sorted directory listing is oldest-first). */
std::string snapshotFileName(std::uint64_t sequence);

/** Snapshot file names in @p dir, oldest first. */
std::vector<std::string> listSnapshots(const std::string &dir);

/**
 * Write @p state as `snapshot.<lastSequence>` in @p dir (atomic
 * replace, fsync'd). Returns the file name. Fault point:
 * store.snapshot.write.
 */
std::string writeSnapshot(const std::string &dir, const StoreState &state);

/**
 * Decode a snapshot image — a SnapshotHeader frame followed by the
 * canonical body, i.e. the bytes of a snapshot file — into @p state:
 * the header's limits replace the state's, the body is applied record
 * by record, and the baseline is set to the header's last sequence.
 * Returns the number of body records applied. Throws InvalidArgument
 * (leaving @p state untouched) when the image is torn, fails a CRC
 * or does not decode.
 */
std::size_t decodeSnapshot(std::string_view image, StoreState &state);

/** What loadLatestSnapshot did. */
struct SnapshotLoad
{
    bool loaded = false;
    std::string file;                  ///< the snapshot that loaded.
    std::uint64_t lastSequence = 0;    ///< its header sequence.
    std::size_t records = 0;           ///< body records applied.
    std::vector<std::string> rejected; ///< corrupt files skipped.
};

/**
 * Load the newest valid snapshot in @p dir into @p state through
 * decodeSnapshot; its baseline makes a WAL tail overlapping the
 * snapshot double-apply nothing. Corrupt snapshots are skipped
 * (recorded in `rejected`), falling back to the next-newest.
 */
SnapshotLoad loadLatestSnapshot(const std::string &dir, StoreState &state);

/**
 * Delete every snapshot in @p dir other than @p keepFile. Called
 * after a new snapshot commits; the old generations are redundant.
 * Returns how many files were removed.
 */
std::size_t removeOldSnapshots(const std::string &dir,
                               const std::string &keepFile);

} // namespace store
} // namespace hiermeans

#endif // HIERMEANS_STORE_SNAPSHOT_H
