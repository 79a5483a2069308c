#include "sim/probes.h"

#include "sim/attrib.h"
#include "sim/timeseries.h"

namespace rnr {

void
Probes::reset() const
{
    if (telemetry)
        telemetry->reset();
    if (attrib)
        attrib->reset();
}

} // namespace rnr
