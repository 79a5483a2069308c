#include "sim/probes.h"

#include "sim/attrib.h"
#include "sim/timeseries.h"
#include "sim/trace_event.h"

namespace rnr {

void
Probes::reset() const
{
    if (trace)
        trace->reset();
    if (telemetry)
        telemetry->reset();
    if (attrib)
        attrib->reset();
}

} // namespace rnr
