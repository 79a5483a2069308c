/**
 * @file
 * The probe bus: the one way an instrument reaches the model.
 *
 * A Probes value names the instruments one simulation carries, both
 * caller-owned and either of them null: periodic counter samples into
 * @c telemetry (sim/timeseries.h), and prefetch-quality attribution
 * with RnR's per-window replay table into @c attrib (sim/attrib.h).
 * System::attach() hands it down the machine; each component
 * (MemorySystem, CoreModel, Cache, ReplayController) keeps the copy it
 * was given and tests the one pointer its hook needs, so an instrument
 * that is off costs one predictable null branch per hook.  Prefetchers
 * get theirs through Prefetcher::setTelemetry/setAttrib, called only
 * by MemorySystem::attach() and setPrefetcher().  None of the
 * instruments changes a counter.
 */
#ifndef RNR_SIM_PROBES_H
#define RNR_SIM_PROBES_H

namespace rnr {

class AttribCollector;
class TelemetrySampler;

/** The instruments one simulation carries (null = off). */
struct Probes {
    TelemetrySampler *telemetry = nullptr;
    AttribCollector *attrib = nullptr;

    /**
     * Empties every instrument given, so that what they hold next comes
     * from the next attach alone: a rerun after a failed attempt, or an
     * instrument reused for another run, keeps none of the earlier
     * one's series or tables.  Call it while no System holds
     * these probes.
     */
    void reset() const;
};

} // namespace rnr

#endif // RNR_SIM_PROBES_H
