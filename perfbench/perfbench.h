/**
 * @file
 * Shared pieces of the perfbench binary: the cell spelling, the JSON
 * lines it prints, and host clocks.
 *
 * A cell is spelled "app:input:prefetcher:control:ideal", for example
 * "pagerank:amazon:stems:window+pace:0".  For the tracefile app the input
 * is the per-core trace prefix, relative to the working directory.
 */
#ifndef PERFBENCH_PERFBENCH_H
#define PERFBENCH_PERFBENCH_H

#include <string>
#include <vector>

#include "harness/experiment.h"

namespace perfbench {

/** Parses a cell spelling; throws std::invalid_argument on a bad one. */
rnr::ExperimentConfig parseCell(const std::string &spec);

/** Quotes @p s as a JSON string (the strings printed here need no more). */
std::string quote(const std::string &s);

/** The "stats" object of a cell line: every RNR_ITER_STAT_FIELDS field
 *  as a per-iteration array, plus the RnR table bytes. */
std::string countersJson(const rnr::ExperimentResult &r);

/** Host seconds on the monotonic clock. */
double now();

/** CPU seconds (user + system, all threads) this process has used. */
double cpuNow();

/** VmHWM of this process in MiB (0 when /proc is unavailable). */
double peakRssMib();

/** `perfbench traced <cell>...`: the per-layer pipeline (traced.cc). */
int tracedMain(const std::vector<std::string> &args);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_H
