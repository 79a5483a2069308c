/**
 * @file
 * The input-snapshot store's settings and accounting.
 *
 * Snapshots are file entries of a BlobStore (harness/blob_store.h)
 * under rootPath(): `<hash16>.ckpt`, one blob per input, whose payload
 * ckpt/input_fork.h encodes.  The checkpoint-fork sweep leans on it:
 * the first config on an input generates it and publishes a snapshot,
 * and every other config, in this process or another sharing the
 * directory, forks the snapshot instead of regenerating.
 *
 * Environment:
 *   RNR_CKPT=0           disable the store (every config warms up)
 *   RNR_CKPT_DIR=<path>  move the snapshots (default "rnr_ckpt")
 */
#ifndef RNR_CKPT_CKPT_STORE_H
#define RNR_CKPT_CKPT_STORE_H

#include <atomic>
#include <cstdint>
#include <string>

#include "harness/blob_store.h"

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

    /** The snapshot entries. */
    BlobStore &blobs() { return blobs_; }

    // -- accounting (monotonic per process) --
    std::uint64_t warmups() const { return warmups_.load(); } ///< Generated.
    std::uint64_t forks() const { return forks_.load(); } ///< Forked.
    void noteWarmup() { ++warmups_; }
    void noteFork() { ++forks_; }

    /** Resets counters and in-flight state (tests that repoint
     *  $RNR_CKPT_DIR mid-process). */
    void resetForTest();

  private:
    CheckpointStore();

    BlobStore blobs_;
    std::atomic<std::uint64_t> warmups_{0};
    std::atomic<std::uint64_t> forks_{0};
};

} // namespace ckpt
} // namespace rnr

#endif // RNR_CKPT_CKPT_STORE_H
