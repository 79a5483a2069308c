/**
 * @file
 * ChampSim trace importer.
 *
 * ChampSim distributes instruction traces as flat streams of packed
 * 64-byte `trace_instr_format` records (ip, branch flags, register ids,
 * two destination-memory and four source-memory addresses).  This
 * importer converts such a stream into our TraceRecord form so a real
 * captured trace becomes a runnable workload: `trace_tools convert`
 * writes the result as a v2 file, and workloads/trace_replay.h feeds it
 * to the simulator like any in-process workload.
 *
 * Mapping per instruction:
 *  - every nonzero source_memory slot becomes a Load record;
 *  - every nonzero destination_memory slot becomes a Store record;
 *  - `pc` is the 64-bit ip folded to 32 bits (hi ^ lo) — it only needs
 *    to identify the access site, mirroring the in-process workloads;
 *  - instructions with no memory operands accumulate into the next
 *    record's `gap`, exactly how workloads charge untraced work.
 *
 * ChampSim traces carry no RnR API calls, so the import emits none;
 * replay-side control (window sizing, start/replay) is injected by the
 * TraceFileWorkload wrapper instead.
 */
#ifndef RNR_TRACESTORE_CHAMPSIM_IMPORT_H
#define RNR_TRACESTORE_CHAMPSIM_IMPORT_H

#include <cstdint>
#include <string>

#include "trace/trace_buffer.h"
#include "trace/trace_io.h"

namespace rnr {

/** Size of one packed ChampSim instruction record. */
constexpr std::size_t kChampSimRecordBytes = 64;

/** Import summary (what `trace_tools convert` reports). */
struct ChampSimImportStats {
    std::uint64_t instructions = 0; ///< ChampSim records consumed.
    std::uint64_t loads = 0;        ///< Source-memory operands emitted.
    std::uint64_t stores = 0;       ///< Destination-memory operands.
    std::uint64_t memless = 0;      ///< Instructions folded into gaps.
};

/**
 * Appends the ChampSim trace at @p path to @p buf.  Fails with
 * Truncated when the file size is not a multiple of the 64-byte record
 * (a torn download or a compressed file that was not unpacked).
 */
TraceIoResult importChampSimTrace(const std::string &path, TraceBuffer &buf,
                                  ChampSimImportStats *stats = nullptr);

} // namespace rnr

#endif // RNR_TRACESTORE_CHAMPSIM_IMPORT_H
