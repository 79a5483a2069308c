/**
 * @file
 * Thread-safe experiment result cache (in-process memo + file persistence).
 *
 * The cache has two layers, both keyed by ExperimentConfig::key():
 *
 *  1. an in-process memo (mutex-guarded map) that makes repeated
 *     runExperiment() calls within one binary free, and
 *  2. an optional on-disk store, one blob per key (harness/blob_store.h)
 *     under a directory shared by every bench binary run from the same
 *     working directory.  A blob's payload is the result's value line
 *     (see docs/HARNESS.md for the field order).
 *
 * A blob is checksummed and filed under the model epoch, so a flipped
 * digit or a result another model wrote is a miss, never a wrong
 * number.  acquire() is single-flight across threads and, through the
 * store's flock, across processes; with persistence off the in-process
 * part still holds.
 *
 * Environment:
 *   RNR_CACHE=0            disable file persistence (memo still active)
 *   RNR_CACHE_FILE=<path>  move the store directory (default
 *                          "rnr_results.cache")
 */
#ifndef RNR_HARNESS_RESULT_CACHE_H
#define RNR_HARNESS_RESULT_CACHE_H

#include <map>
#include <mutex>
#include <string>

#include "harness/blob_store.h"
#include "harness/experiment.h"

namespace rnr {

/** Process-wide, thread-safe two-layer result cache. */
class ResultCache
{
  public:
    /** The process-wide instance used by runExperiment(). */
    static ResultCache &instance();

    /**
     * Looks @p cfg up in the memo, then on disk.  On a hit fills @p out
     * (with out.config = cfg) and returns true.  A value holding other
     * than cfg.iterations iterations is a miss.
     */
    bool lookup(const ExperimentConfig &cfg, ExperimentResult &out);

    /** lookup() made single-flight: on Owner the caller simulates
     *  @p cfg, then store()s or abandon()s its key. */
    BlobStore::Acquire acquire(const ExperimentConfig &cfg,
                               ExperimentResult &out);

    /** Memoises @p r, persists it if enabled, releases the key. */
    void store(const std::string &key, const ExperimentResult &r);

    /** Owner abort: lets a waiter simulate the key. */
    void abandon(const std::string &key) { blobs_.abandon(key); }

    /** Stored results dropped because they failed to parse. */
    std::uint64_t corruptEntries() const { return blobs_.quarantines(); }

    /** The results on disk. */
    BlobStore &blobs() { return blobs_; }

    /** Drops the memo and in-flight state; the next lookup re-reads
     *  $RNR_CACHE / $RNR_CACHE_FILE.  Tests only. */
    void clearForTest();

    // -- serialisation (exposed for tests and the JSON exporter) --

    /** A result's value: space-separated decimal fields. */
    static std::string serialize(const ExperimentResult &r);

    /** Parses a value; returns false (partial @p r) on corruption,
     *  including tokens left after the declared iteration count. */
    static bool deserialize(const std::string &value, ExperimentResult &r);

    /** Store directory ($RNR_CACHE_FILE or rnr_results.cache). */
    static std::string filePath();

    /** False iff $RNR_CACHE is exactly "0". */
    static bool persistenceEnabled();

  private:
    ResultCache();

    mutable std::mutex mu_;
    std::map<std::string, ExperimentResult> memo_;
    BlobStore blobs_;
};

} // namespace rnr

#endif // RNR_HARNESS_RESULT_CACHE_H
