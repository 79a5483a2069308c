#include "core/rnr_runtime.h"

namespace rnr {

RnrRuntime::RnrRuntime(Tracer *tracer, AddressSpace *space, std::string tag,
                       bool enabled)
    : tracer_(tracer), space_(space), tag_(std::move(tag)),
      enabled_(enabled)
{
}

void
RnrRuntime::retarget(TraceSink *sink)
{
    tracer_->retarget(sink);
}

void
RnrRuntime::init(std::uint64_t expected_struct_bytes)
{
    if (!enabled_)
        return;
    // Worst case the sequence table holds one 4 B entry per target block
    // touched per recording; 2x the structure size is comfortably enough
    // even for pathological miss patterns.
    const std::uint64_t seq_bytes =
        std::max<std::uint64_t>(expected_struct_bytes * 2, kPageSize);
    const std::uint64_t div_bytes =
        std::max<std::uint64_t>(expected_struct_bytes / 64, kPageSize);
    seq_base_ = space_->allocate("rnr_seq_" + tag_, seq_bytes);
    div_base_ = space_->allocate("rnr_div_" + tag_, div_bytes);
    tracer_->control(RnrOp::Init, seq_base_, div_base_);
}

void
RnrRuntime::addrBaseSet(Addr base, std::uint64_t size)
{
    if (enabled_)
        tracer_->control(RnrOp::AddrBaseSet, base, size);
}

void
RnrRuntime::addrEnable(Addr base)
{
    if (enabled_)
        tracer_->control(RnrOp::AddrEnable, base);
}

void
RnrRuntime::addrDisable(Addr base)
{
    if (enabled_)
        tracer_->control(RnrOp::AddrDisable, base);
}

void
RnrRuntime::windowSizeSet(std::uint32_t blocks)
{
    if (enabled_)
        tracer_->control(RnrOp::WindowSizeSet, blocks);
}

void
RnrRuntime::start()
{
    if (enabled_)
        tracer_->control(RnrOp::Start);
}

void
RnrRuntime::replay()
{
    if (enabled_)
        tracer_->control(RnrOp::Replay);
}

void
RnrRuntime::pause()
{
    if (enabled_)
        tracer_->control(RnrOp::Pause);
}

void
RnrRuntime::resume()
{
    if (enabled_)
        tracer_->control(RnrOp::Resume);
}

void
RnrRuntime::endState()
{
    if (enabled_)
        tracer_->control(RnrOp::EndState);
}

void
RnrRuntime::end()
{
    if (enabled_)
        tracer_->control(RnrOp::Free);
}

} // namespace rnr
