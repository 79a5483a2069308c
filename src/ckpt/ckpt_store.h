/**
 * @file
 * Input-build accounting: how many inputs this process built and how
 * many the in-process memo (ckpt/input_fork.h) served instead.
 */
#ifndef RNR_CHECKPOINT_STORE_H
#define RNR_CHECKPOINT_STORE_H

#include <atomic>
#include <cstdint>

namespace rnr {
namespace ckpt {

/** Process-wide, thread-safe input counters. */
class CheckpointStore
{
  public:
    static CheckpointStore &
    instance()
    {
        static CheckpointStore store;
        return store;
    }

    // -- accounting (monotonic per process) --
    std::uint64_t warmups() const { return warmups_.load(); } ///< Built.
    std::uint64_t forks() const { return forks_.load(); } ///< Memo hits.
    void noteWarmup() { ++warmups_; }
    void noteFork() { ++forks_; }

  private:
    CheckpointStore() = default;

    std::atomic<std::uint64_t> warmups_{0};
    std::atomic<std::uint64_t> forks_{0};
};

} // namespace ckpt
} // namespace rnr

#endif // RNR_CHECKPOINT_STORE_H
