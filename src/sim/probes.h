/**
 * @file
 * The probe bus: the one way an instrument reaches the model.
 *
 * A Probes value names the instruments one simulation carries, all
 * caller-owned and any of them null: events into @c trace
 * (sim/trace_event.h), periodic counter samples into @c telemetry
 * (sim/timeseries.h), prefetch-quality attribution into @c attrib
 * (sim/attrib.h).  System::attach() hands it down the machine; each
 * component (MemorySystem, CoreModel, Cache, Mshr, Dram,
 * ReplayController) keeps the copy it was given and tests the one
 * pointer its hook needs, so an instrument that is off costs one
 * predictable null branch per hook.  Prefetchers get theirs through
 * Prefetcher::setTrace/setTelemetry/setAttrib, called only by
 * MemorySystem::attach() and setPrefetcher().  None of the instruments
 * changes a counter.
 */
#ifndef RNR_SIM_PROBES_H
#define RNR_SIM_PROBES_H

namespace rnr {

class AttribCollector;
class TelemetrySampler;
class TraceCollector;

/** The instruments one simulation carries (null = off). */
struct Probes {
    TraceCollector *trace = nullptr;
    TelemetrySampler *telemetry = nullptr;
    AttribCollector *attrib = nullptr;

    /**
     * Empties every instrument given, so that what they hold next comes
     * from the next attach alone: a rerun after a failed attempt, or an
     * instrument reused for another run, keeps none of the earlier
     * one's events, series or tables.  Call it while no System holds
     * these probes.
     */
    void reset() const;
};

} // namespace rnr

#endif // RNR_SIM_PROBES_H
