#include "workloads/trace_replay.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <system_error>

namespace rnr {

namespace {

bool
fileExists(const std::string &path)
{
    std::error_code ec;
    return std::filesystem::is_regular_file(path, ec);
}

std::string
perCorePath(const std::string &prefix, unsigned core)
{
    return prefix + ".c" + std::to_string(core) + ".rnrt";
}

/** Most RnR control records emit() adds around a file in one
 *  iteration: init, AddrBase.set, WindowSize.set, enable and start on
 *  iteration 0, then disable, end-state and RnR.end on the last. */
constexpr std::size_t kMaxControlRecords = 8;

} // namespace

unsigned
TraceFileWorkload::detectCores(const std::string &input)
{
    if (fileExists(input))
        return 1;
    unsigned n = 0;
    while (fileExists(perCorePath(input, n)))
        ++n;
    return n;
}

TraceFileWorkload::TraceFileWorkload(std::string input, WorkloadOptions opts)
    : Workload(opts), input_(std::move(input))
{
    single_file_ = fileExists(input_);
    if (single_file_ && opts_.cores != 1)
        throw std::runtime_error(input_ +
                                 " is a single trace file; run it with "
                                 "1 core or provide per-core files");

    Addr min_addr = 0, max_addr = 0;
    bool have_mem = false;
    for (unsigned c = 0; c < opts_.cores; ++c) {
        TraceFileStats stats;
        const std::string path = corePath(c);
        if (TraceIoResult r = readTraceFileV2Stats(path, stats); !r)
            throw std::runtime_error(path + ": " + r.message());
        // The footer sizes a drained buffer; the file's bytes cap it, so
        // a footer that lies cannot drive the allocation.
        records_hint_.push_back(
            std::min(stats.records,
                     traceFileSizeBytes(path) / kMinEncodedRecordBytes) +
            kMaxControlRecords);
        if (stats.loads + stats.stores > 0) {
            if (!have_mem || stats.min_addr < min_addr)
                min_addr = stats.min_addr;
            if (!have_mem || stats.max_addr > max_addr)
                max_addr = stats.max_addr;
            have_mem = true;
        }
    }
    if (!have_mem)
        throw std::runtime_error(input_ + ": trace has no memory records");
    base_addr_ = min_addr;
    // Span covers through the last accessed byte's cache block.
    span_bytes_ = max_addr - min_addr + 64;
}

std::string
TraceFileWorkload::corePath(unsigned core) const
{
    return single_file_ ? input_ : perCorePath(input_, core);
}

void
TraceFileWorkload::emitPrologue(unsigned core, unsigned iter)
{
    RnrRuntime &rt = *runtimes_[core];
    if (iter == 0) {
        rt.init(span_bytes_);
        rt.addrBaseSet(base_addr_, span_bytes_);
        if (opts_.window_size)
            rt.windowSizeSet(opts_.window_size);
        rt.addrEnable(base_addr_);
        rt.start();
    } else {
        rt.replay();
    }
}

void
TraceFileWorkload::emitEpilogue(unsigned core, bool is_last)
{
    RnrRuntime &rt = *runtimes_[core];
    if (is_last) {
        rt.addrDisable(base_addr_);
        rt.endState();
        rt.end();
    }
}

std::vector<TraceFileStream>
TraceFileWorkload::openIteration(unsigned iter, bool is_last)
{
    std::vector<TraceFileStream> streams(opts_.cores);
    for (unsigned c = 0; c < opts_.cores; ++c) {
        TraceFileStream &s = streams[c];
        Tracer &t = *tracers_[c];
        t.retarget(&s.prologue_);
        emitPrologue(c, iter);
        t.retarget(&s.epilogue_);
        emitEpilogue(c, is_last);
        // The streams are the caller's: the tracer must not keep
        // pointing into them.
        t.retarget(nullptr);
        if (TraceIoResult r = s.reader_.open(corePath(c)); !r)
            throw std::runtime_error(corePath(c) + ": " + r.message());
    }
    return streams;
}

void
TraceFileWorkload::emit(unsigned iter, bool is_last)
{
    for (unsigned c = 0; c < opts_.cores; ++c) {
        emitPrologue(c, iter);
        StreamingTraceReader reader;
        if (TraceIoResult r = reader.open(corePath(c)); !r)
            throw std::runtime_error(corePath(c) + ": " + r.message());
        std::size_t n = 0;
        while (const TraceRecord *run = reader.takeBlock(n))
            tracers_[c]->write(run, n);
        if (reader.error())
            throw std::runtime_error(reader.errorResult().message());
        emitEpilogue(c, is_last);
    }
}

void
TraceFileStream::advance()
{
    ++part_;
    buffer_ = BufferSource(part_ == kPrologue   ? &prologue_
                           : part_ == kEpilogue ? &epilogue_
                                                : nullptr);
}

bool
TraceFileStream::done()
{
    for (; part_ != kEnd; advance())
        if (!part().done())
            return false;
    return true;
}

TraceRecord
TraceFileStream::take()
{
    return part().take();
}

const TraceRecord *
TraceFileStream::takeBlock(std::size_t &n)
{
    for (; part_ != kEnd; advance())
        if (const TraceRecord *run = part().takeBlock(n))
            return run;
    n = 0;
    return nullptr;
}

} // namespace rnr
