/**
 * @file
 * `rnr-ckpt-v1` snapshot codec: a versioned, checksummed container of
 * named sections, each an exact-u64 archive (ckpt/serde.h).
 *
 * The snapshots written are *input snapshots* (window 0, full_key
 * empty, Input section only): the serialized generated workload input
 * (CSR graph / matrix), keyed by ckpt::inputSnapshotKey().  This is
 * the checkpoint-fork sweep's unit of sharing: the warm-up (input
 * generation) runs once, every other config on the same input forks
 * the snapshot instead.  The header's full_key and window fields stay
 * in the format so files written with them still parse and inspect.
 *
 * Wire layout (all integers 8 LE bytes, strings length-prefixed):
 *
 *   "RNRCKPT1"                magic, 8 raw bytes
 *   u64  version = 1
 *   str  workload_key
 *   str  full_key             empty = input-only snapshot
 *   u64  window               completed iterations at capture
 *   u64  section_count
 *   section_count x { u64 id, u64 byte_len, payload }
 *   u64  checksum             FNV-1a64 of every preceding byte
 *
 * Readers validate magic, version and checksum before touching any
 * payload; every failure is a typed CkptIoStatus, never a crash —
 * CheckpointStore (ckpt/ckpt_store.h) quarantines on any of them.
 */
#ifndef RNR_CKPT_CHECKPOINT_H
#define RNR_CKPT_CHECKPOINT_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/serde.h"

namespace rnr {
namespace ckpt {

/** X-macro over the section registry: X(name, id, retired).  Ids are
 *  wire ABI — append only, and a retired id is never reused: it keeps
 *  its name so older files still inspect, but nothing writes it.
 *  toString(), sectionRetired() and the SnapshotCoversEverySection test
 *  iterate this list, so adding a section updates the enum, the names
 *  and the coverage assertion in one edit. */
#define RNR_CKPT_SECTIONS(X)                                                  \
    X(Meta, 1, true)        /* whole-machine snapshot metadata        */      \
    X(Input, 2, false)      /* generated workload input (CSR arrays)  */      \
    X(Workload, 3, true)    /* workload-held replay state (never used) */     \
    X(System, 4, true)      /* whole-machine cores/caches/TLBs/DRAM   */      \
    X(Prefetchers, 5, true) /* whole-machine prefetcher state         */      \
    X(Harness, 6, true)     /* whole-machine IterStats booked so far  */

enum class SectionId : std::uint64_t {
#define RNR_CKPT_SECTION_ENUM(name, id, retired) name = id,
    RNR_CKPT_SECTIONS(RNR_CKPT_SECTION_ENUM)
#undef RNR_CKPT_SECTION_ENUM
};

/** "Meta", "Input", ... (registry spelling); "?" when unknown. */
const char *toString(SectionId id);

/** True for an id that nothing writes any more (kept for old files). */
bool sectionRetired(SectionId id);

/** Every registered section id, in X-macro order. */
const std::vector<SectionId> &allSectionIds();

inline constexpr char kCkptMagic[8] = {'R', 'N', 'R', 'C',
                                       'K', 'P', 'T', '1'};
inline constexpr std::uint64_t kCkptVersion = 1;

/** Identity of a snapshot (who it belongs to, when it was taken). */
struct SnapshotHeader {
    std::string workload_key; ///< Store key (ckpt::inputSnapshotKey()).
    std::string full_key;     ///< key(); empty = input-only snapshot.
    std::uint64_t window = 0; ///< Completed iterations at capture.
};

/** One section's place in a parsed snapshot. */
struct SectionInfo {
    std::uint64_t id = 0;
    std::uint64_t bytes = 0;
};

/** Everything `trace_tools ckpt inspect` prints about a snapshot. */
struct SnapshotInfo {
    SnapshotHeader header;
    std::vector<SectionInfo> sections;
    std::uint64_t total_bytes = 0;
    std::uint64_t checksum = 0;
};

/**
 * Assembles a snapshot: open sections one at a time, write fields into
 * the returned Ser, then finish() to get the checksummed blob.
 *
 *     SnapshotWriter w({wkey, "", 0});
 *     graph.visitState(w.section(SectionId::Input));
 *     std::vector<std::uint8_t> blob = w.finish();
 */
class SnapshotWriter
{
  public:
    explicit SnapshotWriter(SnapshotHeader header)
        : header_(std::move(header))
    {
    }

    /** Begins section @p id (closing any open one) and returns the
     *  archive its fields go into.  Each id may be opened once. */
    Ser &section(SectionId id);

    /** Closes the open section and returns the full checksummed blob.
     *  The writer is spent afterwards. */
    std::vector<std::uint8_t> finish();

  private:
    void closeSection();

    SnapshotHeader header_;
    std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>>
        sections_;
    Ser cur_;
    bool open_ = false;
    std::uint64_t cur_id_ = 0;
};

/**
 * Parses and validates a snapshot blob (magic, version, checksum,
 * section table), then hands out per-section Deser views.  The blob
 * must outlive the reader and its Desers (views, not copies).
 */
class SnapshotReader
{
  public:
    /** Validates the container; any failure is typed and the reader
     *  stays unusable.  Checks everything up front so a later
     *  section() cannot fail structurally. */
    CkptIoResult parse(const std::vector<std::uint8_t> &blob);

    const SnapshotHeader &header() const { return header_; }
    const std::vector<SectionInfo> &sections() const { return sections_; }
    std::uint64_t checksum() const { return checksum_; }

    bool hasSection(SectionId id) const;

    /** Bounds-checked archive over @p id's payload; an absent section
     *  yields an empty archive (first read latches Truncated). */
    Deser section(SectionId id) const;

  private:
    SnapshotHeader header_;
    std::vector<SectionInfo> sections_;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> offsets_;
    const std::uint8_t *data_ = nullptr;
    std::uint64_t checksum_ = 0;
};

/** Parses just the container metadata (header, section table, sizes)
 *  of @p path — the `trace_tools ckpt inspect` backend. */
CkptIoResult inspectSnapshotFile(const std::string &path,
                                 SnapshotInfo &out);

/** Publishes @p blob at @p path with the store discipline: write to a
 *  process-unique temp file in the same directory, fsync, rename. */
CkptIoResult writeSnapshotFile(const std::string &path,
                               const std::vector<std::uint8_t> &blob);

/** Reads the whole file; open/short-read failures are typed. */
CkptIoResult readSnapshotFile(const std::string &path,
                              std::vector<std::uint8_t> &out);

} // namespace ckpt
} // namespace rnr

#endif // RNR_CKPT_CHECKPOINT_H
