#include "mem/dram.h"

#include <algorithm>

namespace rnr {

DramCounters::DramCounters(StatGroup &g)
    : reads(g.declare("reads")),
      writes(g.declare("writes")),
      row_hits(g.declare("row_hits")),
      row_misses(g.declare("row_misses")),
      read_queue_full_stalls(g.declare("read_queue_full_stalls")),
      read_latency_sum(g.declare("read_latency_sum")),
      read_latency_max(g.declare("read_latency_max")),
      read_rq_wait(g.declare("read_rq_wait")),
      read_bank_wait(g.declare("read_bank_wait")),
      read_channel_wait(g.declare("read_channel_wait")),
      write_drains(g.declare("write_drains")),
      writes_drained(g.declare("writes_drained")),
      bytes_total(g.declare("bytes_total"))
{
    bytes_by_origin[static_cast<int>(ReqOrigin::Demand)] =
        &g.declare("bytes_demand");
    bytes_by_origin[static_cast<int>(ReqOrigin::Prefetch)] =
        &g.declare("bytes_prefetch");
    bytes_by_origin[static_cast<int>(ReqOrigin::Metadata)] =
        &g.declare("bytes_metadata");
    bytes_by_origin[static_cast<int>(ReqOrigin::Writeback)] =
        &g.declare("bytes_writeback");
}

Dram::Dram(const DramConfig &cfg)
    : cfg_(cfg),
      channel_div_(cfg.channels),
      bank_div_(cfg.banks),
      row_div_(std::uint64_t{cfg.channels} * cfg.banks *
               (cfg.row_bytes / kBlockSize)),
      banks_(static_cast<std::size_t>(cfg.channels) * cfg.banks),
      channel_free_(cfg.channels, 0),
      stats_("DRAM"),
      ctr_(stats_)
{
}

inline Dram::Place
Dram::placeOf(Addr addr) const
{
    // Block-granularity channel+bank interleaving (ChampSim's
    // [row|column|bank|channel|offset] layout): consecutive cache blocks
    // round-robin channels then banks, so a sequential stream engages
    // every bank of every channel in parallel.  With channel+bank in the
    // low bits, one bank's row holds every (channels*banks)-th block of
    // a row_bytes * banks * channels region:
    // row = blk / channels / banks / row_blocks, which is one division
    // by the product (nested floor divisions compose).
    const std::uint64_t blk = blockNumber(addr);
    const std::uint64_t per_channel = channel_div_.div(blk);
    const auto channel = static_cast<unsigned>(
        blk - per_channel * channel_div_.divisor());
    return {channel,
            channel * cfg_.banks +
                static_cast<unsigned>(bank_div_.mod(per_channel)),
            row_div_.div(blk)};
}

void
Dram::countBytes(ReqOrigin origin, std::uint64_t n)
{
    *ctr_.bytes_by_origin[static_cast<int>(origin)] += n;
    ctr_.bytes_total += n;
}

void
Dram::popCompletedReads(Tick t)
{
    while (!read_inflight_.empty() && read_inflight_.front() <= t) {
        std::pop_heap(read_inflight_.begin(), read_inflight_.end(),
                      std::greater<>());
        read_inflight_.pop_back();
    }
}

Tick
Dram::read(Addr addr, Tick now, ReqOrigin origin)
{
    ++ctr_.reads;
    countBytes(origin, kBlockSize);
    const Tick arrival = now;

    // FCFS read-queue occupancy: a new read waits until the queue has a
    // free slot, i.e. until the earliest in-flight read completes.  The
    // heap top doubles as the next-event cursor (nextReadCompletion()):
    // when now hasn't reached it, the pop is a single compare.
    popCompletedReads(now);
    if (read_inflight_.size() >= cfg_.read_queue) {
        ++ctr_.read_queue_full_stalls;
        now = std::max(now, read_inflight_.front());
        popCompletedReads(now);
    }

    const Place place = placeOf(addr);
    Bank &bank = banks_[place.bank];
    const std::uint64_t row = place.row;
    const bool row_hit = bank.open_row == row;
    ++(row_hit ? ctr_.row_hits : ctr_.row_misses);

    // The bank is busy for its own access + burst; queueing for the
    // shared channel does not extend the bank's busy window (an FR-FCFS
    // controller would be moving other work onto the bank meanwhile).
    const Tick start = std::max(now, bank.next_free);
    const Tick access = row_hit ? cfg_.tCAS
                                : cfg_.tRP + cfg_.tRCD + cfg_.tCAS;
    // The channel is a bandwidth limiter: each read consumes one burst
    // slot from the arrival-time cursor.  A request whose bank is still
    // busy does not hold the channel back for later requests (FR-FCFS
    // controllers fill such gaps with other ready bursts).
    Tick &chan = channel_free_[place.channel];
    const Tick slot = std::max(chan, now);
    chan = slot + cfg_.tBURST;
    const Tick burst_start = std::max(start + access, slot);
    const Tick done = burst_start + cfg_.tBURST;

    bank.open_row = row;
    bank.next_free = start + access + cfg_.tBURST;

    read_inflight_.push_back(done);
    std::push_heap(read_inflight_.begin(), read_inflight_.end(),
                   std::greater<>());
    ctr_.read_latency_sum += done - arrival;
    ctr_.read_rq_wait += now - arrival;
    ctr_.read_bank_wait += start - now;
    ctr_.read_channel_wait += burst_start - (start + access);
    ctr_.read_latency_max.maxWith(done - arrival);
    if (TraceCollector *tr = probes_.trace) {
        tr->emit(track_, TraceEventType::DramEnqueue, arrival, addr,
                 static_cast<std::uint64_t>(origin));
        tr->emit(track_, TraceEventType::DramDequeue, done, addr,
                 done - arrival);
    }
    return done;
}

void
Dram::write(Addr addr, Tick now, ReqOrigin origin)
{
    ++ctr_.writes;
    countBytes(origin, kBlockSize);
    write_queue_.push_back({addr, origin});

    const auto high = static_cast<std::size_t>(
        cfg_.drain_high * cfg_.write_queue);
    if (write_queue_.size() >= high) {
        const auto low = static_cast<std::size_t>(
            cfg_.drain_low * cfg_.write_queue);
        drainWrites(now, low);
    }
}

void
Dram::drainWrites(Tick now, std::size_t target_depth)
{
    ++ctr_.write_drains;
    // The controller prioritises demand reads (Table II's write-queue
    // draining policy): drained writes occupy their banks and steal
    // channel burst slots, but do not block the channel for the whole
    // batch the way a naive stop-the-world drain would.
    const Tick drain_start = std::max(now, channel_free_[0]);
    while (write_queue_.size() > target_depth) {
        const PendingWrite w = write_queue_.front();
        write_queue_.pop_front();
        const Place place = placeOf(w.addr);
        Bank &bank = banks_[place.bank];
        const std::uint64_t row = place.row;
        const bool row_hit = bank.open_row == row;
        const Tick access = row_hit ? cfg_.tCAS
                                    : cfg_.tRP + cfg_.tRCD + cfg_.tCAS;
        const Tick start = std::max(drain_start, bank.next_free);
        bank.open_row = row;
        bank.next_free = start + access + cfg_.tBURST;
        // One stolen burst slot per write on its channel.
        channel_free_[place.channel] += cfg_.tBURST;
        ++ctr_.writes_drained;
    }
}

std::uint64_t
Dram::bytes(ReqOrigin origin) const
{
    return ctr_.bytes_by_origin[static_cast<int>(origin)]->value();
}

std::uint64_t
Dram::totalBytes() const
{
    return ctr_.bytes_total.value();
}

void
Dram::resetTiming()
{
    for (auto &b : banks_)
        b = Bank{};
    for (auto &c : channel_free_)
        c = 0;
    read_inflight_.clear();
    write_queue_.clear();
}

} // namespace rnr
