/**
 * @file
 * One key -> entry store: the machinery the result cache, the trace
 * store and the input-snapshot store share.
 *
 * An entry lives under root() at a name derived from its key:
 *
 *   <hash16><suffix>         file entry: one checksummed blob
 *   <hash16>/manifest        directory entry: the manifest blob, next
 *   <hash16>/...             to files the owner wrote (trace files)
 *   <hash16>.lock            advisory flock while an owner produces
 *   .tmp.<hash16>.<pid>      an owner's entry until it is published
 *
 * <hash16> is 16 hex digits of FNV-1a64 over "<epoch>|<key>".  The
 * epoch (kModelEpoch, generated from tests/data/golden/golden.json)
 * moves whenever a committed result does, so entries a different model
 * wrote are never looked up again.
 *
 * Blob layout (integers 8 bytes little-endian):
 *
 *   "RNRBLOB1"      magic
 *   u64 checksum    FNV-1a64 of every byte after this field
 *   u64 key_len     then the key, "<epoch>|<key>"
 *   u64 payload_len then the payload
 *
 * Discipline:
 *  - single-flight: acquire() makes one caller the Owner of a missing
 *    key; the others, threads of this process (a condition variable)
 *    and processes sharing root() (a flock), wait until it publishes
 *    (then Hit) or abandons (then one of them owns it).  A killed
 *    owner's flock dies with it.  Where flock is unsupported, each
 *    process produces for itself;
 *  - atomic publish: a file entry is written to a temp file, fsynced
 *    and renamed into place; a directory entry is renamed into place
 *    whole, so readers never see a torn entry;
 *  - a blob that fails to parse, or whose payload the caller rejects,
 *    is quarantined (removed) with one `rnr: warning:` line and reads
 *    as a miss; a blob of another key (a hash collision) is a plain
 *    miss that leaves that entry in place;
 *  - gc() removes corrupt entries, temp leftovers and entries of
 *    another epoch, then evicts the oldest until the store fits a cap.
 */
#ifndef RNR_HARNESS_BLOB_STORE_H
#define RNR_HARNESS_BLOB_STORE_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "ckpt/serde.h"

namespace rnr {

class BlobStore
{
  public:
    enum class Acquire {
        Hit,   ///< The entry is there; the caller's hit() took it.
        Owner, ///< Caller must produce it, then publish or abandon.
    };

    /** Where a parsed blob's parts sit. */
    struct Header {
        std::string key;           ///< "<epoch>|<key>"
        std::uint64_t checksum = 0;
        std::size_t payload_at = 0; ///< Offset of the first payload byte.
        std::size_t payload_len = 0;
    };

    /** Why a payload is unusable; empty when it is sound. */
    using Validate = std::function<std::string(const std::uint8_t *payload,
                                               std::size_t len)>;

    /**
     * @p component prefixes warnings ("ckpt", "tracestore", "cache");
     * @p root and @p enabled are read on every call, so tests can
     * repoint them through the environment.  A disabled store keeps
     * only its in-process single-flight.  @p suffix names file
     * entries; an empty one makes this a directory-entry store.
     */
    BlobStore(const char *component, std::string (*root)(),
              bool (*enabled)(), const char *suffix);

    std::string root() const { return root_(); }

    /** Entry path of @p key: a file, or a directory for a dir store. */
    std::string entryPath(const std::string &key) const;

    /** Where an owner builds @p key's entry before publishing it. */
    std::string tempPath(const std::string &key) const;

    /**
     * Reads @p key's blob (a directory entry's manifest) into @p blob.
     * False on a miss: no entry, another key's entry, or a corrupt one,
     * which is quarantined.  @p validate may reject the payload, which
     * also quarantines the entry.  Thread-safe without the store lock.
     */
    bool read(const std::string &key, std::vector<std::uint8_t> &blob,
              Header &header, const Validate &validate = {});

    /**
     * Single-flight acquisition of @p key.  @p hit is called under the
     * store lock and returns true when the entry is there (having taken
     * what it needs, usually through read()); otherwise the first
     * caller becomes the Owner and everyone else waits for it.
     */
    Acquire acquire(const std::string &key, const std::function<bool()> &hit);

    /** Installs the owner's file entry (a blob built by encode() or
     *  begin()/seal()) and releases ownership.  False on I/O failure,
     *  with one warning. */
    bool publish(const std::string &key,
                 const std::vector<std::uint8_t> &blob);

    /** Writes the manifest blob of @p payload into the owner's temp
     *  directory, renames that directory into place and releases
     *  ownership.  An existing entry of the same key wins; one of
     *  another key is replaced.  False on I/O failure (the temp
     *  directory is removed). */
    bool publishDir(const std::string &key, const std::string &payload);

    /** Owner abort: releases ownership so a waiter can produce. */
    void abandon(const std::string &key);

    /** Quarantines @p key's entry (corrupt at a deeper layer, e.g. a
     *  payload that decodes badly later). */
    void remove(const std::string &key);

    /** Entries quarantined by read() or remove() (monotonic). */
    std::uint64_t quarantines() const { return quarantines_.load(); }

    /** Bytes of the file, or of the files in the directory, at @p entry. */
    static std::uint64_t entryBytes(const std::string &entry);

    /** Every entry path under root(), sorted (temp and lock files
     *  excluded). */
    std::vector<std::string> entryPaths() const;

    struct GcResult {
        std::size_t corrupt = 0; ///< Entries that failed to parse.
        std::size_t stale = 0;   ///< Temp leftovers, other-epoch entries.
        std::size_t evicted = 0; ///< Oldest entries removed for the cap.
        std::uint64_t kept_bytes = 0;
    };

    /** Removes corrupt and stale entries, then evicts the oldest until
     *  the store holds at most @p max_bytes (0 = no cap). */
    GcResult gc(std::uint64_t max_bytes);

    /** Drops in-flight state and counters (tests). */
    void resetForTest();

    // -- blob encoding --

    /** The model epoch every key is filed under. */
    static std::string epoch();

    /** Files keys under @p e instead (tests of epoch isolation). */
    static void setEpochForTest(const std::string &e);

    /** "<epoch>|<key>". */
    static std::string epochKey(const std::string &key);

    /** 16 hex digits of FNV-1a64 over epochKey(@p key). */
    static std::string hashName(const std::string &key);

    /** A blob's header for @p key, with the length and checksum left
     *  for seal(): append the payload, then seal. */
    static std::vector<std::uint8_t> begin(const std::string &key);

    /** Fills in the payload length and checksum of a begin() blob. */
    static void seal(std::vector<std::uint8_t> &blob);

    /** begin(), @p payload, seal(). */
    static std::vector<std::uint8_t> encode(const std::string &key,
                                            const void *payload,
                                            std::size_t len);

    /** Validates @p blob (magic, checksum, lengths); failures typed. */
    static ckpt::CkptIoResult parse(const std::uint8_t *data,
                                    std::size_t len, Header &out);

    /** Reads the file at @p path and parses it. */
    static ckpt::CkptIoResult readFile(const std::string &path,
                                       std::vector<std::uint8_t> &blob,
                                       Header &out);

  private:
    /** The file holding @p key's blob. */
    std::string blobPath(const std::string &key) const;
    std::string lockPath(const std::string &key) const;
    void release(const std::string &key);
    void quarantine(const std::string &entry, const std::string &why);

    const char *component_;
    std::string (*root_)();
    bool (*enabled_)();
    std::string suffix_;

    std::mutex mu_;
    std::condition_variable cv_;
    /** Keys owned by a thread of this process, with the fd of the
     *  flock held for each (-1: none). */
    std::map<std::string, int> owned_;
    std::atomic<std::uint64_t> quarantines_{0};
};

} // namespace rnr

#endif // RNR_HARNESS_BLOB_STORE_H
