#include "src/store/snapshot.h"

#include "src/util/error.h"
#include "src/util/fault.h"
#include "src/util/file.h"

namespace hiermeans {
namespace store {

namespace {

constexpr const char kPrefix[] = "snapshot.";
constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
constexpr std::size_t kSequenceDigits = 12;

bool
isSnapshotName(const std::string &name)
{
    if (name.size() != kPrefixLen + kSequenceDigits ||
        name.compare(0, kPrefixLen, kPrefix) != 0)
        return false;
    for (std::size_t i = kPrefixLen; i < name.size(); ++i) {
        if (name[i] < '0' || name[i] > '9')
            return false;
    }
    return true;
}

} // namespace

std::size_t
decodeSnapshot(std::string_view image, StoreState &state)
{
    FrameReader frames(image);
    Record record;
    HM_REQUIRE(frames.next(record) &&
                   record.type == RecordType::SnapshotHeader,
               "snapshot image must start with a SnapshotHeader frame");
    const SnapshotHeader header = decodeSnapshotHeader(record.payload);
    StoreState decoded(header.limits);
    std::size_t records = 0;
    while (frames.next(record)) {
        decoded.apply(record);
        ++records;
    }
    HM_REQUIRE(!frames.sawCorruption(),
               "snapshot image: corrupt frame: " << frames.corruption());
    decoded.setBaseline(header.lastSequence);
    state = std::move(decoded);
    return records;
}

std::string
snapshotFileName(std::uint64_t sequence)
{
    std::string digits = std::to_string(sequence);
    HM_REQUIRE(digits.size() <= kSequenceDigits,
               "snapshot sequence " << sequence << " too large");
    return std::string(kPrefix) +
           std::string(kSequenceDigits - digits.size(), '0') + digits;
}

std::vector<std::string>
listSnapshots(const std::string &dir)
{
    std::vector<std::string> names;
    for (const std::string &name : util::listDir(dir)) {
        if (isSnapshotName(name))
            names.push_back(name);
    }
    return names; // listDir sorts; padding makes that oldest-first.
}

std::string
writeSnapshot(const std::string &dir, const StoreState &state)
{
    HM_REQUIRE(!HM_FAULT("store.snapshot.write"),
               "snapshot write to `" << dir << "` failed (injected)");
    const std::string name = snapshotFileName(state.lastSequence());
    std::string content =
        frameRecord(RecordType::SnapshotHeader,
                    encodeSnapshotHeader(state.lastSequence(),
                                         state.limits()));
    content += state.encodeSnapshotBody();
    util::writeFileAtomic(dir + "/" + name, content, /*sync=*/true);
    return name;
}

SnapshotLoad
loadLatestSnapshot(const std::string &dir, StoreState &state)
{
    SnapshotLoad load;
    std::vector<std::string> names = listSnapshots(dir);
    for (auto it = names.rbegin(); it != names.rend(); ++it) {
        try {
            load.records =
                decodeSnapshot(util::readFile(dir + "/" + *it), state);
        } catch (const Error &) {
            load.rejected.push_back(*it);
            continue;
        }
        load.loaded = true;
        load.file = *it;
        load.lastSequence = state.baseline();
        return load;
    }
    return load;
}

std::size_t
removeOldSnapshots(const std::string &dir, const std::string &keepFile)
{
    std::size_t removed = 0;
    for (const std::string &name : listSnapshots(dir)) {
        if (name == keepFile)
            continue;
        util::removeFile(dir + "/" + name);
        ++removed;
    }
    return removed;
}

} // namespace store
} // namespace hiermeans
