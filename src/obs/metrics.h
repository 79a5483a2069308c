/**
 * @file
 * Process-wide metrics registry: named counters, gauges and log2
 * histograms with lock-cheap bump paths and one JSON exposition.
 *
 * This is plumbing observability, distinct from src/harness/metrics.h
 * (which computes the *paper's* figures-of-merit: speedup, coverage,
 * accuracy).  Call sites look a metric up once and keep the pointer —
 * the registry never deletes a metric, so pointers stay valid for the
 * process lifetime and the bump itself is one relaxed atomic add:
 *
 *   static obs::Counter *hits =
 *       obs::MetricsRegistry::instance().counter("rnr_cache_hits_total");
 *   if (hits)
 *       hits->add();
 *
 * The null check is the "free when off" gate shared with event tracing:
 * RNR_METRICS=0 makes every lookup return nullptr, so disabled call
 * sites cost one predictable branch (gated with the same micro_hotpath
 * A/B the tracing and telemetry layers use).
 *
 * metricsJson() renders the registry as rnr-metrics-v1 JSON
 * (docs/HARNESS.md §15 lists every metric name).
 *
 * Naming follows Prometheus convention: `rnr_` prefix, `_total` suffix
 * on counters, base-unit suffix on histograms (`_us`).
 */
#ifndef RNR_OBS_METRICS_H
#define RNR_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/log2_hist.h"

namespace rnr {
namespace obs {

/** Monotonically increasing u64; bump is one relaxed atomic add. */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    friend class MetricsRegistry;
    std::atomic<std::uint64_t> v_{0};
};

/** Signed instantaneous value (queue depth, in-flight cells). */
class Gauge
{
  public:
    void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
    void add(std::int64_t d)
    {
        v_.fetch_add(d, std::memory_order_relaxed);
    }
    void sub(std::int64_t d)
    {
        v_.fetch_sub(d, std::memory_order_relaxed);
    }
    std::int64_t value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    friend class MetricsRegistry;
    std::atomic<std::int64_t> v_{0};
};

/**
 * Log2-bucketed histogram of u64 observations — the exact bucketing the
 * telemetry layer's latency histograms use, because both are the shared
 * core in sim/log2_hist.h.  This façade is the concurrent instantiation
 * (relaxed-atomic cells; observe() is two relaxed adds plus one bucket
 * add) plus this layer's method names.
 */
class Histogram : public BasicLog2Histogram<std::atomic<std::uint64_t>>
{
  public:
    void observe(std::uint64_t v) { record(v); }

    std::uint64_t bucketCount(unsigned i) const { return bucket(i); }

    /** Bucket for @p v: 0 for 0, otherwise bit_width(v). */
    static unsigned bucketIndex(std::uint64_t v)
    {
        return log2b::index(v);
    }

    /** Inclusive upper edge of bucket @p i (0, 1, 3, 7, ...). */
    static std::uint64_t bucketUpperBound(unsigned i)
    {
        return log2b::high(i);
    }
};

/** Point-in-time copy of every registered metric. */
struct MetricsSnapshot {
    struct Hist {
        std::string name;
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        /** (inclusive upper bound, non-cumulative count) per bucket,
         *  truncated after the last non-empty bucket. */
        std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
    };
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    std::vector<Hist> histograms;
};

/**
 * The process-wide registry.  Lookup takes a mutex (do it once, keep
 * the pointer); bumps through the returned pointers are lock-free.
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    /** False iff $RNR_METRICS is exactly "0" (checked once). */
    static bool enabled();

    /** Named metric, created on first use; nullptr when disabled. */
    Counter *counter(const std::string &name);
    Gauge *gauge(const std::string &name);
    Histogram *histogram(const std::string &name);

    /** Name-sorted copy; safe while other threads keep bumping. */
    MetricsSnapshot snapshot() const;

    /**
     * Zeroes every registered value (pointers stay valid).  Tests that
     * assert exact totals call this first; production never needs to.
     */
    void resetForTest();

  private:
    MetricsRegistry() = default;

    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/** The registry as an rnr-metrics-v1 JSON object (one line, no \n). */
std::string metricsJson();

} // namespace obs
} // namespace rnr

#endif // RNR_OBS_METRICS_H
