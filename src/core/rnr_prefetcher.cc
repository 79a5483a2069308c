#include "core/rnr_prefetcher.h"

#include <algorithm>
#include <string>

#include "core/rnr_hw_model.h"
#include "mem/memory_system.h"
#include "sim/attrib.h"
#include "sim/timeseries.h"

namespace rnr {

RnrPrefetcher::Counters::Counters(StatGroup &g)
    : init_calls(g.declare("init_calls")),
      record_passes(g.declare("record_passes")),
      replay_passes(g.declare("replay_passes")),
      pauses(g.declare("pauses")),
      resumes(g.declare("resumes")),
      recorded_misses(g.declare("recorded_misses")),
      offset_overflow_skipped(g.declare("offset_overflow_skipped")),
      unresolvable_entries(g.declare("unresolvable_entries")),
      metadata_tlb_lookups(g.declare("metadata_tlb_lookups")),
      pf_ontime(g.declare("pf_ontime")),
      pf_early(g.declare("pf_early")),
      pf_late(g.declare("pf_late")),
      pf_out_of_window(g.declare("pf_out_of_window"))
{
}

RnrPrefetcher::RnrPrefetcher(Options opts)
    : opts_(opts), ctr_(stats_),
      controller_(opts.control, opts.window_size ? opts.window_size : 256,
                  opts.uncontrolled_degree)
{
}

void
RnrPrefetcher::setTelemetry(TelemetrySampler *tm, unsigned core)
{
    if (!tm)
        return;
    const std::string p = "rnr.core" + std::to_string(core) + ".";
    tm->addSeries(p + "n_pace",
                  [this] { return controller_.pace(); });
    tm->addSeries(p + "seq_buffer_bytes",
                  [this] { return seqBufferFillBytes(); });
    tm->addSeries(p + "div_buffer_bytes",
                  [this] { return divBufferFillBytes(); });
}

std::uint64_t
RnrPrefetcher::seqBufferFillBytes() const
{
    if (arch_.state == RnrState::Record) {
        return (seq_store_.size() - seq_flushed_) * kSeqEntryBytes;
    } else if (arch_.state == RnrState::Replay) {
        return seq_streamed_ > issue_cursor_
                   ? (seq_streamed_ - issue_cursor_) * kSeqEntryBytes
                   : 0;
    }
    return 0;
}

std::uint64_t
RnrPrefetcher::divBufferFillBytes() const
{
    if (arch_.state == RnrState::Record) {
        return (div_store_.size() - div_flushed_) * kDivEntryBytes;
    } else if (arch_.state == RnrState::Replay) {
        const std::uint64_t consumed = controller_.currentWindow();
        return div_streamed_ > consumed
                   ? (div_streamed_ - consumed) * kDivEntryBytes
                   : 0;
    }
    return 0;
}

std::uint64_t
RnrPrefetcher::contextSwitchBytes()
{
    // Single source of truth: the hardware model's register inventory
    // (the 128 B staging buffers are flushed, not saved).
    return computeRnrHwCost().context_switch_bytes;
}

bool
RnrPrefetcher::inTargetRegion(Addr vaddr) const
{
    if (arch_.state == RnrState::Idle || arch_.state == RnrState::Paused)
        return false;
    for (const auto &b : arch_.boundaries) {
        if (b.contains(vaddr))
            return true;
    }
    return false;
}

std::uint64_t
RnrPrefetcher::seqTableBytes() const
{
    return peak_seq_entries_ * kSeqEntryBytes;
}

std::uint64_t
RnrPrefetcher::divTableBytes() const
{
    return peak_div_entries_ * kDivEntryBytes;
}

void
RnrPrefetcher::onControl(const TraceRecord &rec, Tick now)
{
    switch (rec.ctrl) {
      case RnrOp::Init:
        arch_ = RnrArchState{};
        arch_.seq_table_base = rec.addr;
        arch_.div_table_base = rec.aux;
        arch_.window_size = defaultWindowSize();
        seq_store_.clear();
        div_store_.clear();
        ++ctr_.init_calls;
        break;

      case RnrOp::AddrBaseSet: {
        for (auto &b : arch_.boundaries) {
            if (!b.valid || b.base == rec.addr) {
                b.base = rec.addr;
                b.size = rec.aux;
                b.valid = true;
                b.enabled = false;
                break;
            }
        }
        break;
      }

      case RnrOp::AddrEnable:
      case RnrOp::AddrDisable:
        for (auto &b : arch_.boundaries) {
            if (b.valid && b.base == rec.addr)
                b.enabled = rec.ctrl == RnrOp::AddrEnable;
        }
        break;

      case RnrOp::WindowSizeSet:
        // A window holds at least one entry and fits the register; a
        // size outside that (only a hand-made trace file has one)
        // leaves the register as it was.
        if (rec.addr != 0 && rec.addr <= UINT32_MAX)
            arch_.window_size = static_cast<std::uint32_t>(rec.addr);
        break;

      case RnrOp::Start:
        startRecording();
        break;

      case RnrOp::Replay:
        if (arch_.state == RnrState::Record)
            finishRecording(now);
        startReplay(now);
        break;

      case RnrOp::Pause:
        if (arch_.state == RnrState::Record ||
            arch_.state == RnrState::Replay) {
            arch_.paused_from = arch_.state;
            arch_.state = RnrState::Paused;
            // Save architectural + internal state to memory.
            ms_->metadataWrite(arch_.seq_table_base, contextSwitchBytes(),
                               now);
            ++ctr_.pauses;
        }
        break;

      case RnrOp::Resume:
        if (arch_.state == RnrState::Paused) {
            ms_->metadataRead(arch_.seq_table_base, contextSwitchBytes(),
                              now);
            arch_.state = arch_.paused_from;
            ++ctr_.resumes;
        }
        break;

      case RnrOp::EndState:
        if (arch_.state == RnrState::Record)
            finishRecording(now);
        arch_.state = RnrState::Idle;
        break;

      case RnrOp::Free:
        stats_.set("seq_table_bytes", seqTableBytes());
        stats_.set("div_table_bytes", divTableBytes());
        seq_store_.clear();
        div_store_.clear();
        arch_ = RnrArchState{};
        break;
    }
}

std::uint32_t
RnrPrefetcher::defaultWindowSize() const
{
    if (opts_.window_size)
        return opts_.window_size;
    // The double-buffered windows must leave L2 room for the demand
    // streams flowing through alongside the target structure, so the
    // default is a quarter of the L2 per window (half the L2 for both
    // buffers together).  Fig 14 shows a wide flat optimum, so this
    // sits in the same regime as the paper's half-L2 default.
    return static_cast<std::uint32_t>(ms_->config().l2.size_bytes /
                                      kBlockSize / 4);
}

void
RnrPrefetcher::startRecording()
{
    // A Start with no Init since the last Free (or ever) finds the
    // register cleared; record with the Init default, never with 0.
    if (arch_.window_size == 0)
        arch_.window_size = defaultWindowSize();
    arch_.state = RnrState::Record;
    internal_ = RnrInternalState{};
    seq_store_.clear();
    div_store_.clear();
    seq_flushed_ = 0;
    div_flushed_ = 0;
    ++ctr_.record_passes;
}

void
RnrPrefetcher::finishRecording(Tick now)
{
    // Close the final (possibly partial) window so the replay controller
    // knows the read count of the tail, then flush staged metadata.
    if (seq_store_.size() % arch_.window_size != 0 ||
        (div_store_.empty() && !seq_store_.empty())) {
        div_store_.push_back(internal_.cur_struct_read);
        internal_.div_table_len =
            static_cast<std::uint32_t>(div_store_.size());
    }
    const std::uint64_t seq_pending =
        (seq_store_.size() - seq_flushed_) * kSeqEntryBytes;
    if (seq_pending) {
        ms_->metadataWrite(arch_.seq_table_base +
                               seq_flushed_ * kSeqEntryBytes,
                           seq_pending, now);
    }
    seq_flushed_ = seq_store_.size();
    const std::uint64_t div_pending =
        (div_store_.size() - div_flushed_) * kDivEntryBytes;
    if (div_pending) {
        ms_->metadataWrite(arch_.div_table_base +
                               div_flushed_ * kDivEntryBytes,
                           div_pending, now);
    }
    div_flushed_ = div_store_.size();

    peak_seq_entries_ = std::max<std::uint64_t>(peak_seq_entries_,
                                                seq_store_.size());
    peak_div_entries_ = std::max<std::uint64_t>(peak_div_entries_,
                                                div_store_.size());
}

void
RnrPrefetcher::startReplay(Tick now)
{
    arch_.state = RnrState::Replay;
    internal_.cur_struct_read = 0;
    internal_.cur_window = 0;
    internal_.prefetch_count = 0;
    issue_cursor_ = 0;
    seq_streamed_ = 0;
    div_streamed_ = 0;
    last_window_ = 0;
    pf_status_.clear();
    pf_filter_.clear();
    pf_issued_.clear();
    if (arch_.window_size == 0)
        arch_.window_size = defaultWindowSize();
    controller_.setWindowSize(arch_.window_size);
    controller_.beginReplay(&div_store_, seq_store_.size());
    ++ctr_.replay_passes;

    // Prime the double buffers: two sequence buffers + one division
    // buffer of metadata are fetched before prefetching begins.
    const Tick seq_done =
        ms_->metadataRead(arch_.seq_table_base, 2 * kMetaBufferBytes, now);
    const Tick div_done =
        ms_->metadataRead(arch_.div_table_base, kMetaBufferBytes, now);
    if (at_ && std::max(seq_done, div_done) > now)
        at_->onRefillStall(0);
    seq_streamed_ = std::min<std::uint64_t>(
        seq_store_.size(), 2 * kMetaBufferBytes / kSeqEntryBytes);
    div_streamed_ = std::min<std::uint64_t>(
        div_store_.size(), kMetaBufferBytes / kDivEntryBytes);

    issueEntries(controller_.initialBurst(), now);
}

Addr
RnrPrefetcher::resolveEntry(const SeqEntry &entry) const
{
    const BoundaryEntry &rec_slot = arch_.boundaries[entry.slot()];
    if (rec_slot.valid && rec_slot.enabled)
        return rec_slot.base + entry.blockOffset() * kBlockSize;
    // Recorded slot is disabled: the software swapped buffers (e.g. the
    // p_curr/p_next exchange in Algorithm 1); replay against the enabled
    // boundary instead — offsets are preserved across the swap.
    for (const auto &b : arch_.boundaries) {
        if (b.valid && b.enabled)
            return b.base + entry.blockOffset() * kBlockSize;
    }
    return 0;
}

void
RnrPrefetcher::issueEntries(std::uint64_t n, Tick now)
{
    while (n > 0 && issue_cursor_ < seq_store_.size()) {
        // Stream further metadata as the cursor crosses buffer ends.
        if (issue_cursor_ >= seq_streamed_) {
            const Tick done =
                ms_->metadataRead(arch_.seq_table_base +
                                      seq_streamed_ * kSeqEntryBytes,
                                  kMetaBufferBytes, now);
            seq_streamed_ += kMetaBufferBytes / kSeqEntryBytes;
            // A refill completing after `now` means the replay engine
            // outran the metadata stream.
            if (at_ && done > now)
                at_->onRefillStall(static_cast<std::uint32_t>(
                    issue_cursor_ / arch_.window_size));
        }

        const SeqEntry entry = seq_store_[issue_cursor_];
        const Addr vaddr = resolveEntry(entry);
        if (vaddr == 0) {
            ++issue_cursor_;
            --n;
            ++ctr_.unresolvable_entries;
            continue;
        }
        PrefetchIssue res =
            issuePrefetch(vaddr, now, attribRnrSite(core_));
        if (res.mshr_full)
            break; // retry from the same cursor on the next access
        const std::uint32_t window = static_cast<std::uint32_t>(
            issue_cursor_ / arch_.window_size);
        if (res.issued) {
            notePfIssue(blockNumber(vaddr),
                        {PfStatus::Pending, window, res.fill_time});
            ++internal_.prefetch_count;
            if (at_)
                at_->onWindowIssue(window);
        }
        ++issue_cursor_;
        --n;
    }
}

void
RnrPrefetcher::notePfIssue(Addr block, const PfRecord &rec)
{
    bool inserted = false;
    pf_status_.emplace(block, inserted) = rec;
    if (inserted)
        pf_filter_.add(block);
    pf_issued_.push_back({block, rec.window});
    // Windows follow the issue cursor, so this only swaps when a
    // WindowSize.set moved them backwards mid-replay.
    for (std::size_t i = pf_issued_.size() - 1;
         i > 0 && pf_issued_.at(i - 1).window > rec.window; --i)
        std::swap(pf_issued_.at(i - 1), pf_issued_.at(i));
}

void
RnrPrefetcher::sweepOutOfWindow()
{
    // A prefetch targeted at window w should be consumed while the
    // program is inside window w; once the current window is past it,
    // an un-demanded prefetch is "out of the window".
    const std::uint32_t cur = controller_.currentWindow();
    if (cur == last_window_)
        return;
    last_window_ = cur;
    while (!pf_issued_.empty() && pf_issued_.front().window + 1 < cur) {
        const PfIssue e = pf_issued_.front();
        pf_issued_.pop_front();
        if (!liveRecord(e))
            continue;
        ++ctr_.pf_out_of_window;
        if (at_)
            at_->onRnrClass(RnrTimeliness::OutOfWindow, e.window);
        pf_status_.erase(e.block);
        pf_filter_.remove(e.block);
    }
}

/*
 * The L2 reports only prefetch-filled victims, and that misses nothing:
 * a record is Pending only while the L2 holds the line issueIntoL2() has
 * just inserted with prefetched set, nothing clears that flag on a
 * resident line, and the line's first eviction ends the Pending state.
 * (Prefetched, not prefetched-unused: a write or a non-target read
 * references the line but leaves its record Pending.)
 */
void
RnrPrefetcher::onEvict(Addr block)
{
    if (!pf_filter_.mayHold(block))
        return;
    PfRecord *rec = pf_status_.find(block);
    if (rec && rec->status == PfStatus::Pending)
        rec->status = PfStatus::Evicted;
}

void
RnrPrefetcher::handleRecordAccess(const L2AccessInfo &info)
{
    if (info.is_write || !info.target_struct)
        return;
    ++internal_.cur_struct_read;

    const bool true_miss = !info.hit && !info.merged;
    if (!true_miss)
        return;

    // Locate the boundary slot this miss belongs to.
    unsigned slot = 0;
    for (unsigned i = 0; i < kBoundaryEntries; ++i) {
        if (arch_.boundaries[i].contains(info.vaddr)) {
            slot = i;
            break;
        }
    }
    const std::uint64_t offset =
        (info.vaddr - arch_.boundaries[slot].base) / kBlockSize;
    if (offset > SeqEntry::kMaxOffset) {
        // The structure outgrew the entry format (2 MB at 2 B entries);
        // a full-scale implementation widens entries using the boundary
        // size registers.  Skip rather than corrupt the sequence.
        ++ctr_.offset_overflow_skipped;
        return;
    }
    seq_store_.push_back(SeqEntry::make(slot, offset));
    internal_.seq_table_len = static_cast<std::uint32_t>(seq_store_.size());
    ++ctr_.recorded_misses;

    // Window boundary: append the running read count to the division
    // table (one word per window).
    if (seq_store_.size() % arch_.window_size == 0) {
        div_store_.push_back(internal_.cur_struct_read);
        internal_.div_table_len =
            static_cast<std::uint32_t>(div_store_.size());
        if ((div_store_.size() - div_flushed_) * kDivEntryBytes >=
            kMetaBufferBytes) {
            ms_->metadataWrite(arch_.div_table_base +
                                   div_flushed_ * kDivEntryBytes,
                               kMetaBufferBytes, info.now);
            div_flushed_ = div_store_.size();
        }
    }

    // Stage-buffer writeback: every 128 B of new sequence entries goes
    // out as two non-temporal cache-line writes.
    if ((seq_store_.size() - seq_flushed_) * kSeqEntryBytes >=
        kMetaBufferBytes) {
        const Addr wb = arch_.seq_table_base + seq_flushed_ * kSeqEntryBytes;
        // One TLB lookup per 4 MB metadata page (kept as a counter; the
        // translation is off the critical path).
        const Addr page = wb >> 22;
        if (page != internal_.cur_seq_page) {
            internal_.cur_seq_page = page;
            ++ctr_.metadata_tlb_lookups;
        }
        ms_->metadataWrite(wb, kMetaBufferBytes, info.now);
        seq_flushed_ = seq_store_.size();
    }
}

void
RnrPrefetcher::handleReplayAccess(const L2AccessInfo &info)
{
    if (info.is_write || !info.target_struct)
        return;
    ++internal_.cur_struct_read;

    // Classify, and retire, the record of a prior replay prefetch of
    // this block.
    PfRecord rec;
    if (pf_filter_.mayHold(info.block) && pf_status_.take(info.block, rec)) {
        pf_filter_.remove(info.block);
        if (rec.status == PfStatus::Evicted) {
            ++ctr_.pf_early;
            if (at_)
                at_->onRnrClass(RnrTimeliness::Early, rec.window);
        } else if (rec.fill_time > info.now) {
            ++ctr_.pf_late;
            if (at_)
                at_->onRnrClass(RnrTimeliness::Late, rec.window);
        } else {
            ++ctr_.pf_ontime;
            if (at_)
                at_->onRnrClass(RnrTimeliness::OnTime, rec.window);
        }
    }

    const std::uint64_t n =
        controller_.onStructRead(internal_.cur_struct_read, issue_cursor_);
    internal_.cur_window = controller_.currentWindow();
    internal_.prefetch_pace =
        static_cast<std::uint32_t>(controller_.pace());
    sweepOutOfWindow();
    if (at_)
        at_->onWindowDemand(controller_.currentWindow());
    if (n > 0)
        issueEntries(n, info.now);
}

void
RnrPrefetcher::onAccess(const L2AccessInfo &info)
{
    switch (arch_.state) {
      case RnrState::Record:
        handleRecordAccess(info);
        break;
      case RnrState::Replay:
        handleReplayAccess(info);
        break;
      case RnrState::Idle:
      case RnrState::Paused:
        break;
    }
}

} // namespace rnr
