/**
 * @file
 * Multi-stream sequential prefetcher with run-ahead distance — the
 * "L2 stream prefetcher" of commercial cores the paper integrates RnR
 * with (Section V-D, refs [21][30][51]).
 *
 * Tracks a small table of active streams; once a stream sees two
 * sequential blocks it runs a cursor up to `distance` blocks ahead of
 * the demand stream.  Unlike plain next-line, the lookahead is deep
 * enough to cover DRAM latency for dense streams (edge lists, CSR
 * arrays), which is what makes RnR-Combined more than the sum of its
 * parts on stream-heavy kernels.
 */
#ifndef RNR_PREFETCH_STREAM_H
#define RNR_PREFETCH_STREAM_H

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.h"

namespace rnr {

class StreamPrefetcher : public Prefetcher
{
  public:
    /**
     * @param streams concurrent stream trackers.
     * @param distance run-ahead depth in blocks.
     * @param skip_target_struct ignore accesses in RnR target regions
     *        (Section V-D: train only outside the record/replay range).
     */
    explicit StreamPrefetcher(unsigned streams = 16,
                              unsigned distance = 32,
                              bool skip_target_struct = false);

    void onAccess(const L2AccessInfo &info) override;
    std::string name() const override { return "stream"; }

  private:
    struct Stream {
        Addr last_block = 0;
        Addr cursor = 0;    ///< Next block to prefetch.
        int confidence = 0;
        std::uint64_t lru = 0;
        bool valid = false;
    };

    Stream *findStream(Addr block);
    Stream &allocStream(Addr block);

    std::vector<Stream> streams_;
    unsigned distance_;
    bool skip_target_;
    std::uint64_t lru_clock_ = 0;
};

} // namespace rnr

#endif // RNR_PREFETCH_STREAM_H
