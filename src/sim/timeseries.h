/**
 * @file
 * Time-series telemetry: periodic counter sampling into fixed-capacity
 * auto-downsampling series, plus power-of-two latency histograms
 * (sim/log2_hist.h).
 *
 * Where the event-tracing layer (sim/trace_event.h) answers "what
 * happened at tick T" at per-event granularity — too heavy to keep on
 * for every sweep cell — this layer answers "how did X evolve over the
 * run" at a fixed sampling period, cheap enough to enable per cell.
 * The sampled signals are the paper's time-varying quantities: window-
 * by-window pace control N_pace, metadata buffer fill, MSHR/DRAM queue
 * occupancy, and the latency distributions behind the Fig 11
 * timeliness story.
 *
 * Design constraints, matching trace_event.h:
 *
 *  1. **Observation only.**  Probes are read, never written; a sampled
 *     run produces bit-identical IterStats to an unsampled run (pinned
 *     by tests/harness/explain_test.cc).
 *  2. **Free when off.**  Components hold the probe bus (sim/probes.h),
 *     whose telemetry pointer is null unless sampling was requested
 *     (RNR_OBS=telemetry or a caller-owned sampler); the hot-path cost
 *     of disabled sampling is one predictable null-pointer branch per
 *     hook (A/B in BENCH_telemetry.json).
 *  3. **Bounded when on.**  Each series holds at most `capacity`
 *     points.  When a series fills up it halves its resolution,
 *     Perfetto-style: every other retained point is dropped and the
 *     decimation factor doubles, so a series always spans the whole
 *     run at the best resolution that fits.  Probes are only invoked
 *     at sample time — their cost is off the hot path entirely.
 *  4. **Single-writer.**  A sampler belongs to one System and needs no
 *     atomics (the sweep parallelises at whole-simulation granularity).
 *
 * See docs/HARNESS.md section 11 for the full pipeline walkthrough.
 */
#ifndef RNR_SIM_TIMESERIES_H
#define RNR_SIM_TIMESERIES_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/log2_hist.h"
#include "sim/types.h"

namespace rnr {

/** One sampled point: (core-cycle timestamp, value). */
struct TelemetrySample {
    Tick tick = 0;
    std::uint64_t value = 0;
};

/**
 * Fixed-capacity series with Perfetto-style auto-downsampling.
 *
 * push() keeps every `keepEvery()`-th offered sample (initially every
 * one).  When the buffer reaches capacity, compact() drops every other
 * retained point and doubles the decimation factor, so the memory
 * bound holds while the series keeps covering the entire run.  The
 * retained points stay aligned: a sample survives iff its offer index
 * is a multiple of the final decimation factor.
 */
class TimeSeries
{
  public:
    static constexpr std::size_t kDefaultCapacity = 512;

    explicit TimeSeries(std::size_t capacity = kDefaultCapacity)
        : capacity_(capacity >= 2 ? capacity : 2)
    {
    }

    /** Offers one sample; retained when aligned to the decimation. */
    void
    push(Tick tick, std::uint64_t value)
    {
        const std::uint64_t index = offered_++;
        if (index % keep_every_ != 0)
            return;
        if (pts_.size() == capacity_)
            compact();
        if (index % keep_every_ == 0)
            pts_.push_back({tick, value});
    }

    const std::vector<TelemetrySample> &points() const { return pts_; }
    std::size_t capacity() const { return capacity_; }
    /** Samples offered to push() (retained or not). */
    std::uint64_t offered() const { return offered_; }
    /** Current decimation factor: one point per keepEvery() offers. */
    std::uint64_t keepEvery() const { return keep_every_; }

  private:
    /** Halves resolution: keeps even-positioned points, doubles the
     *  decimation factor.  Even positions are the ones aligned to the
     *  doubled factor, so future pushes stay on the same grid. */
    void
    compact()
    {
        std::size_t out = 0;
        for (std::size_t i = 0; i < pts_.size(); i += 2)
            pts_[out++] = pts_[i];
        pts_.resize(out);
        keep_every_ *= 2;
    }

    std::size_t capacity_;
    std::uint64_t keep_every_ = 1;
    std::uint64_t offered_ = 0;
    std::vector<TelemetrySample> pts_;
};

/** Detached copy of one series, as carried by ExperimentResult. */
struct TelemetrySeriesBlob {
    std::string name;
    std::uint64_t keep_every = 1; ///< Final decimation factor.
    std::vector<TelemetrySample> points;
};

/** Detached copy of one histogram. */
struct TelemetryHistogramBlob {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    /** (log2 bucket index, count) for non-empty buckets only. */
    std::vector<std::pair<unsigned, std::uint64_t>> buckets;
};

/** Everything a sampled run produced, detached from the sampler so it
 *  can ride on ExperimentResult past the simulation's lifetime. */
struct TelemetryBlob {
    Tick sample_cycles = 0;
    std::uint64_t samples_taken = 0;
    std::vector<TelemetrySeriesBlob> series;
    std::vector<TelemetryHistogramBlob> histograms;

    const TelemetrySeriesBlob *findSeries(const std::string &name) const;
    const TelemetryHistogramBlob *
    findHistogram(const std::string &name) const;
};

/** Default sampling period when none is given. */
constexpr Tick kDefaultSampleCycles = 8192;

/**
 * The per-simulation telemetry sink.  Owned by whoever runs the
 * simulation (the runner, `trace_tools explain`, a test); components
 * receive it on the probe bus via System::attach() and register their
 * probes/histograms at attach time, so the harness never needs
 * per-component wiring knowledge.
 *
 * Sampling is driven from CoreModel::stepRun(): every core offers its
 * local clock through maybeSample(), and the sampler fires once the
 * clock passes the next sample point.  Cores are interleaved in local-
 * time order by System::drive(), so the offered clocks are near-
 * monotonic and one sampler serves the whole machine.
 */
class TelemetrySampler
{
  public:
    using Probe = std::function<std::uint64_t()>;

    /** @param sample_cycles period in core cycles; 0 = the default.
     *  @param series_capacity points per series before downsampling. */
    explicit TelemetrySampler(
        Tick sample_cycles = 0,
        std::size_t series_capacity = TimeSeries::kDefaultCapacity);

    Tick sampleCycles() const { return period_; }
    std::uint64_t samplesTaken() const { return samples_; }

    /** Registers a level/cumulative probe, sampled verbatim. */
    TimeSeries &addSeries(std::string name, Probe probe);
    /** Registers a cumulative probe sampled as a scaled per-cycle rate:
     *  value = delta(probe) * scale / delta(tick).  scale=1000 turns a
     *  retired-instruction counter into a milli-IPC series. */
    TimeSeries &addRate(std::string name, Probe probe,
                        std::uint64_t scale = 1000);
    /** Registers @p c's running value (sim/counter.h handle). */
    template <typename CounterT>
    TimeSeries &
    addCounter(std::string name, const CounterT &c)
    {
        return addSeries(std::move(name),
                         [&c] { return c.value(); });
    }

    /** Create-or-get; references stay valid for the sampler's life. */
    Log2Histogram &histogram(const std::string &name);

    /** The hot-path gate: one comparison when it is not yet time. */
    void
    maybeSample(Tick now)
    {
        if (now < next_)
            return;
        sample(now);
    }

    /** Snapshots every registered source at @p now (forced; a no-op
     *  once detached). */
    void sample(Tick now);

    std::size_t seriesCount() const { return sources_.size(); }
    const TimeSeries *findSeries(const std::string &name) const;

    /** Detaches everything sampled so far into a blob. */
    TelemetryBlob harvest() const;

    /** Drops every series, histogram and sample (Probes::reset()); the
     *  period and series capacity stay. */
    void reset();

    /** Forgets every registered probe but keeps what was sampled, so
     *  that nothing reaches into a System about to be destroyed;
     *  sample() then records nothing more. */
    void detach();

  private:
    struct Source {
        std::string name;
        Probe probe;
        bool rate = false;
        std::uint64_t scale = 1;
        std::uint64_t last_value = 0;
        Tick last_tick = 0;
        TimeSeries series;
    };

    Tick period_;
    Tick next_ = 0;
    std::uint64_t samples_ = 0;
    std::size_t series_capacity_;
    /** Deque so addSeries() references stay valid across registrations. */
    std::deque<Source> sources_;
    /** Node-based so histogram() references survive later inserts. */
    std::map<std::string, Log2Histogram> histograms_;
};

} // namespace rnr

#endif // RNR_SIM_TIMESERIES_H
