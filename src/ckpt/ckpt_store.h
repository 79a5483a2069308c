/**
 * @file
 * On-disk snapshot store shared by all benches and processes.
 *
 * CheckpointStore gives rnr-ckpt-v1 snapshots (ckpt/checkpoint.h) the
 * same lifecycle TraceStore gives traces: keyed, persistent, shared and
 * safe.  The checkpoint-fork sweep leans on it — the shared warm-up of
 * a sweep runs once, publishes an input snapshot, and every other
 * config on the same input forks the snapshot instead of regenerating,
 * in-process and across processes that share one store directory.
 *
 * Keying — the caller passes whatever key string identifies the
 * snapshot together with a window (the input fork passes
 * ckpt::inputSnapshotKey() and window 0).  Files are content-addressed
 * by an FNV-1a64 hash of the key; the snapshot header stores the key
 * so a hash collision reads as a miss, never as wrong data.
 *
 * Layout under rootPath() ($RNR_CKPT_DIR, default "rnr_ckpt"):
 *   <hash16>.w<window>.ckpt   one rnr-ckpt-v1 blob
 *   <hash16>.w<window>.lock   advisory flock while producing
 *
 * Discipline (mirrors tracestore/trace_store.h):
 *  - single-flight production: concurrent experiments needing the same
 *    snapshot block on one producer — within a process via a condition
 *    variable, across processes (bench binaries sharing one store
 *    directory) via an advisory flock — so N of them warm up a shared
 *    workload once, not N times;
 *  - atomic publish: blobs are written to a process-unique temp file
 *    and renamed into place (ckpt::writeSnapshotFile), so readers
 *    never observe a torn snapshot;
 *  - corrupt-entry tolerance: a snapshot that fails validation
 *    (magic/version/checksum/sections) is quarantined (removed) and
 *    re-produced, never fatal.
 *
 * Environment:
 *   RNR_CKPT=0           disable the store (every config warms up)
 *   RNR_CKPT_DIR=<path>  move the snapshots (default "rnr_ckpt")
 */
#ifndef RNR_CKPT_CKPT_STORE_H
#define RNR_CKPT_CKPT_STORE_H

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "harness/file_lock.h"

namespace rnr {
namespace ckpt {

/** Process-wide, thread-safe snapshot store. */
class CheckpointStore
{
  public:
    /** The process-wide instance used by the runner. */
    static CheckpointStore &instance();

    /** False iff $RNR_CKPT is exactly "0". */
    static bool enabled();

    /** Snapshot directory ($RNR_CKPT_DIR or "rnr_ckpt"). */
    static std::string rootPath();

    /** Snapshot file path for (@p key, @p window) under rootPath(). */
    static std::string snapshotPath(const std::string &key,
                                    std::uint64_t window);

    enum class Acquire {
        Hit,   ///< @p blob filled with a validated snapshot.
        Owner, ///< Caller must produce, then publish() or abandon().
    };

    /**
     * Single-flight snapshot acquisition for (@p key, @p window).  A
     * valid snapshot returns Hit with the blob.  Otherwise the first
     * caller becomes the Owner (and must produce the snapshot);
     * concurrent callers — threads of this process and other processes
     * sharing the store alike — block until the owner publishes (then
     * Hit) or abandons (then one waiter is promoted to Owner).  A
     * corrupt snapshot found here is quarantined and treated as a
     * miss; a header whose key differs (hash collision) is a plain
     * miss for the caller and leaves the other key's snapshot intact.
     */
    Acquire acquire(const std::string &key, std::uint64_t window,
                    std::vector<std::uint8_t> &blob);

    /** Installs the owner's snapshot atomically and wakes waiters.
     *  False on I/O failure (ownership is released either way). */
    bool publish(const std::string &key, std::uint64_t window,
                 const std::vector<std::uint8_t> &blob);

    /** Owner abort: releases ownership so a waiter can produce. */
    void abandon(const std::string &key, std::uint64_t window);

    /** Quarantines the (@p key, @p window) snapshot (corrupt at a
     *  deeper layer than the container, e.g. a section that fails to
     *  decode): the file is removed and the counter bumped. */
    void invalidate(const std::string &key, std::uint64_t window);

    // -- observability (monotonic per process) --
    std::uint64_t warmups() const;     ///< Snapshots produced natively.
    std::uint64_t forks() const;       ///< Runs served from a snapshot.
    std::uint64_t saves() const;       ///< Snapshots published.
    std::uint64_t quarantines() const; ///< Corrupt snapshots removed.

    /** Warm-up/fork accounting hooks for the runner (the store cannot
     *  see an in-process memo hit, so the runner reports both). */
    void noteWarmup();
    void noteFork();

    /** Resets counters and in-flight state (tests that repoint
     *  $RNR_CKPT_DIR mid-process). */
    void resetForTest();

  private:
    CheckpointStore() = default;

    /** Reads + validates the snapshot; false = miss (with quarantine
     *  on corruption).  Caller holds mu_. */
    bool openSnapshotLocked(const std::string &key, std::uint64_t window,
                            std::vector<std::uint8_t> &blob);
    void releaseOwnership(const std::string &slot);

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::set<std::string> inflight_; ///< "<hash16>.w<window>" slots.
    /** Cross-process production locks held by this process. */
    std::map<std::string, std::unique_ptr<FileLock>> locks_;
    std::uint64_t warmups_ = 0;
    std::uint64_t forks_ = 0;
    std::uint64_t saves_ = 0;
    std::uint64_t quarantines_ = 0;
};

/** File-name stem for @p key: 16 hex digits of FNV-1a64. */
std::string ckptHashName(const std::string &key);

} // namespace ckpt
} // namespace rnr

#endif // RNR_CKPT_CKPT_STORE_H
