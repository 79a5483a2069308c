/**
 * @file
 * On-disk trace corpus shared by all benches and processes.
 *
 * The paper's methodology is "capture a PIN trace once, replay it
 * across many configurations".  The harness used to re-execute the
 * workload natively for *every* sweep cell even though the 6+
 * prefetcher configs of one figure row all consume the identical
 * trace.  TraceStore gives the trace corpus the same lifecycle the
 * result cache gives counters: keyed, persistent, shared, and safe.
 *
 * Keying — entries are keyed by ExperimentConfig::workloadKey(), the
 * workload half of the experiment key (app, input, window, iterations,
 * cores).  Prefetcher kind, replay-control mode and ideal_llc are
 * excluded: they change the simulation, never the emitted trace.  Entry
 * directories are content-addressed by an FNV-1a hash of the key; the
 * manifest stores the full key so a hash collision reads as a miss, not
 * as wrong data.
 *
 * Layout under rootPath() ($RNR_TRACE_DIR, default "rnr_traces"):
 *   <hash16>/manifest          text, see trace_store.cc
 *   <hash16>/it<I>.c<C>.rnrt   one v2 trace per (iteration, core)
 *
 * Discipline (mirrors harness/result_cache.h):
 *  - single-flight capture: concurrent experiments sharing a workload
 *    key block on one capture instead of each re-executing — within a
 *    process via a condition variable, and across processes (bench
 *    binaries sharing one corpus directory) via an advisory flock on
 *    "<root>/<hash16>.lock" (harness/file_lock.h), so N of them
 *    capture a shared workload once, not N times;
 *  - atomic publish: captures write to a process-unique temp directory
 *    renamed into place, so readers never observe a torn entry and
 *    concurrent processes race benignly (first publisher wins);
 *  - corrupt-entry tolerance: a manifest/trace that fails validation is
 *    quarantined (removed) and recaptured, never fatal;
 *  - size cap: $RNR_TRACE_CAP_MB evicts oldest-published entries after
 *    each publish (never the entry just written).
 *
 * Environment:
 *   RNR_TRACE_STORE=0     disable the store (each cell streams its
 *                         iterations through in-memory segments)
 *   RNR_TRACE_DIR=<path>  move the corpus (default "rnr_traces")
 *   RNR_TRACE_CAP_MB=<n>  evict oldest entries beyond n MiB (0 = off)
 */
#ifndef RNR_TRACESTORE_TRACE_STORE_H
#define RNR_TRACESTORE_TRACE_STORE_H

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "harness/file_lock.h"
#include "trace/trace_buffer.h"
#include "trace/trace_io.h"
#include "tracestore/trace_writer.h"

namespace rnr {

/** Process-wide, thread-safe trace corpus. */
class TraceStore
{
  public:
    /** The process-wide instance used by the runner. */
    static TraceStore &instance();

    /** False iff $RNR_TRACE_STORE is exactly "0". */
    static bool enabled();

    /** Corpus directory ($RNR_TRACE_DIR or "rnr_traces"). */
    static std::string rootPath();

    /** Eviction threshold in bytes ($RNR_TRACE_CAP_MB); 0 = no cap. */
    static std::uint64_t capBytes();

    /** One validated corpus entry. */
    struct Entry {
        std::string dir;  ///< Absolute-or-relative entry directory.
        std::string key;  ///< Full workload key (from the manifest).
        unsigned iterations = 0;
        unsigned cores = 0;
        std::uint64_t records = 0;
        std::uint64_t raw_bytes = 0;    ///< In-memory record bytes.
        std::uint64_t stored_bytes = 0; ///< Compressed on-disk bytes.
        std::uint64_t input_bytes = 0;
        std::uint64_t target_bytes = 0;

        /** Path of the (iteration, core) trace file. */
        std::string tracePath(unsigned iter, unsigned core) const;
    };

    enum class Acquire {
        Hit,   ///< @p out filled; replay from the corpus.
        Owner, ///< Caller must capture (beginCapture) then publish/abort.
    };

    /**
     * Single-flight entry acquisition for @p wkey.  A valid entry
     * returns Hit immediately.  Otherwise the first caller becomes the
     * Owner (and must capture); concurrent callers block until the
     * owner publishes (then Hit) or aborts (then one waiter is
     * promoted to Owner).  A corrupt entry found here is quarantined
     * and treated as a miss.
     */
    Acquire acquire(const std::string &wkey, Entry &out);

    /**
     * In-progress capture for a workload key this caller owns (via
     * acquire() returning Owner).  Trace files are encoded into a
     * temp directory while iterations are emitted: open() points a
     * TraceFileWriter at an (iteration, core) file, close() finishes
     * it and books its records.  publish() writes the manifest,
     * renames the directory into place, logs the raw-vs-compressed
     * ratio, applies the size cap and wakes waiters.  Destruction
     * without publish() aborts: the temp directory is removed and
     * ownership released so a waiter can recapture.
     */
    class Capture
    {
      public:
        Capture(Capture &&other) noexcept;
        Capture &operator=(Capture &&) = delete;
        ~Capture();

        /** Opens @p w on the (iter, core) trace file of this entry. */
        TraceIoResult open(unsigned iter, unsigned core,
                           TraceFileWriter &w);

        /** Closes @p w (opened by open()) and books its records into
         *  the manifest; returns the file's first write error. */
        TraceIoResult close(TraceFileWriter &w);

        /** Where the (iter, core) trace file is written until
         *  publish(): readable once close() has returned Ok. */
        std::string tracePath(unsigned iter, unsigned core) const;

        /** Encodes @p buf as the (iter, core) trace of this entry
         *  (open(), one write, close()). */
        TraceIoResult add(unsigned iter, unsigned core,
                          const TraceBuffer &buf);

        /** Finalises and installs the entry; returns false on I/O
         *  failure (the capture is aborted, waiters are released). */
        bool publish(std::uint64_t input_bytes,
                     std::uint64_t target_bytes);

      private:
        friend class TraceStore;
        Capture(TraceStore *store, std::string wkey, unsigned iterations,
                unsigned cores);

        TraceStore *store_;
        std::string wkey_;
        std::string tmp_dir_;
        unsigned iterations_;
        unsigned cores_;
        std::uint64_t records_ = 0;
        std::uint64_t raw_bytes_ = 0;
        bool open_ = false;
        bool done_ = false;
    };

    /** Starts the capture this caller owns (after Acquire::Owner). */
    Capture beginCapture(const std::string &wkey, unsigned iterations,
                         unsigned cores);

    /** Quarantines @p wkey's entry (corrupt mid-replay): the directory
     *  is removed and the corrupt counter bumped. */
    void invalidate(const std::string &wkey);

    /** All currently valid entries (corpus report / trace_tools). */
    std::vector<Entry> listEntries();

    // -- observability (monotonic per process) --
    std::uint64_t captures() const;        ///< Entries captured+published.
    std::uint64_t hits() const;            ///< acquire() served from disk.
    std::uint64_t corruptEntries() const;  ///< Quarantined entries.
    std::uint64_t evictions() const;       ///< Entries removed by the cap.

    /** Resets counters and in-flight state (tests that repoint
     *  $RNR_TRACE_DIR mid-process). */
    void resetForTest();

  private:
    TraceStore() = default;

    /** Validates and loads the entry for @p wkey; false = miss. */
    bool openEntry(const std::string &wkey, Entry &out);
    void releaseOwnership(const std::string &wkey);
    void applyCapLocked(const std::string &keep_dir);

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::set<std::string> inflight_; ///< Workload keys being captured.
    /** Cross-process capture locks held by this process's captures. */
    std::map<std::string, std::unique_ptr<FileLock>> locks_;
    std::uint64_t captures_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t corrupt_ = 0;
    std::uint64_t evictions_ = 0;
};

/** Directory name for @p wkey: 16 hex digits of FNV-1a64. */
std::string traceStoreHashName(const std::string &wkey);

} // namespace rnr

#endif // RNR_TRACESTORE_TRACE_STORE_H
