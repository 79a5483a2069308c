#include "cpu/core.h"

#include <algorithm>
#include <string>

#include "sim/timeseries.h"

namespace rnr {

CoreModel::CoreModel(unsigned id, const CoreConfig &cfg, MemorySystem *ms)
    : id_(id), cfg_(cfg), issue_div_(cfg.issue_width),
      retire_div_(cfg.retire_width), ms_(ms),
      rob_(cfg.rob_size), lsq_(cfg.lsq_size),
      stats_("core" + std::to_string(id)),
      c_loads_(stats_.declare("loads")),
      c_stores_(stats_.declare("stores")),
      c_load_cycles_(stats_.declare("load_cycles")),
      c_l2_demand_misses_(stats_.declare("l2_demand_misses")),
      c_control_records_(stats_.declare("control_records")),
      c_rob_stall_cycles_(stats_.declare("rob_stall_cycles")),
      c_lsq_stall_cycles_(stats_.declare("lsq_stall_cycles"))
{
}

void
CoreModel::setSource(TraceSource *src)
{
    src_ = src;
    run_ = nullptr;
    run_pos_ = run_len_ = 0;
}

void
CoreModel::attach(const Probes &p)
{
    probes_ = p;
    if (p.telemetry)
        p.telemetry->addRate("core" + std::to_string(id_) + ".ipc_milli",
                             [this] { return instrs_; });
}

bool
CoreModel::refillRun()
{
    if (!src_)
        return false;
    std::size_t n = 0;
    const TraceRecord *run = src_->takeBlock(n);
    if (!run || n == 0)
        return false;
    run_ = run;
    run_pos_ = 0;
    run_len_ = n;
    return true;
}

Tick
CoreModel::finishTime() const
{
    Tick t = std::max(issue_clock_, retire_clock_);
    t = std::max(t, last_completion_);
    for (std::size_t i = 0, n = rob_.size(); i < n; ++i)
        t = std::max(t, rob_.at(i).completion);
    return t;
}

void
CoreModel::syncTo(Tick t)
{
    issue_clock_ = std::max(issue_clock_, t);
    retire_clock_ = std::max(retire_clock_, t);
    issued_this_cycle_ = 0;
    rob_.clear();
    rob_slots_ = 0;
    lsq_.clear();
}

inline void
CoreModel::advanceIssue(std::uint64_t instr_count)
{
    // Issue at most issue_width instructions per cycle.
    const std::uint64_t total = issued_this_cycle_ + instr_count;
    const std::uint64_t cycles = issue_div_.div(total);
    issue_clock_ += cycles;
    issued_this_cycle_ =
        static_cast<unsigned>(total - cycles * cfg_.issue_width);
}

void
CoreModel::reserveRobSlots(std::uint32_t slots)
{
    while (rob_slots_ + slots > cfg_.rob_size && !rob_.empty()) {
        const RobEntry head = rob_.front();
        rob_.pop_front();
        rob_slots_ -= head.slots;
        // In-order retirement: the head's completion gates retire time,
        // then retiring its slots consumes retire bandwidth.
        retire_clock_ = std::max(retire_clock_, head.completion) +
                        retire_div_.div(head.slots);
        if (retire_clock_ > issue_clock_) {
            c_rob_stall_cycles_ += retire_clock_ - issue_clock_;
            issue_clock_ = retire_clock_;
            issued_this_cycle_ = 0;
        }
    }
}

void
CoreModel::reserveLsqSlot()
{
    while (!lsq_.empty() && lsq_.front() <= issue_clock_)
        lsq_.pop_front();
    if (lsq_.size() >= cfg_.lsq_size) {
        const Tick wait = lsq_.front();
        if (wait > issue_clock_) {
            c_lsq_stall_cycles_ += wait - issue_clock_;
            issue_clock_ = wait;
            issued_this_cycle_ = 0;
        }
        while (!lsq_.empty() && lsq_.front() <= issue_clock_)
            lsq_.pop_front();
    }
}

void
CoreModel::execute(const TraceRecord &rec)
{
    if (rec.gap) {
        // Plain instructions: charge issue bandwidth and ROB slots; they
        // complete quickly so they are folded into the next memory op's
        // ROB entry rather than tracked one by one.
        advanceIssue(rec.gap);
        instrs_ += rec.gap;
    }

    if (rec.kind == RecordKind::Control) {
        // An RnR API call is a handful of instructions writing special
        // registers; charge a small fixed cost.
        advanceIssue(2);
        instrs_ += 2;
        ms_->control(id_, rec, issue_clock_);
        ++c_control_records_;
        if (probes_.trace)
            probes_.trace->emit(static_cast<std::uint16_t>(id_),
                                TraceEventType::ControlRecord, issue_clock_,
                                rec.addr,
                                static_cast<std::uint64_t>(rec.ctrl), 0,
                                static_cast<std::uint16_t>(id_));
        return;
    }

    const bool is_store = rec.kind == RecordKind::Store;
    reserveRobSlots(rec.gap + 1);
    reserveLsqSlot();
    advanceIssue(1);
    instrs_ += 1;

    const DemandResult res =
        ms_->demandAccess(id_, rec.addr, is_store, rec.pc, issue_clock_);

    ++(is_store ? c_stores_ : c_loads_);
    if (!is_store)
        c_load_cycles_ += res.done - issue_clock_;
    if (res.l2_miss)
        ++c_l2_demand_misses_;

    // Stores complete from the core's perspective once issued (the write
    // buffer hides their latency); loads hold their ROB/LSQ entries until
    // data returns.
    const Tick completion = is_store ? issue_clock_ + 1 : res.done;
    rob_.push_back({completion, rec.gap + 1});
    rob_slots_ += rec.gap + 1;
    lsq_.push_back(completion);
    last_completion_ = std::max(last_completion_, completion);
}

std::size_t
CoreModel::stepRun(std::size_t max_records)
{
    if (run_pos_ >= run_len_ && !refillRun())
        return 0;
    const std::size_t n = std::min(max_records, run_len_ - run_pos_);
    const TraceRecord *rec = run_ + run_pos_;
    run_pos_ += n;
    if (TelemetrySampler *tm = probes_.telemetry) {
        // Sampling happens once per record, before it executes, at the
        // pre-record clock.
        for (std::size_t i = 0; i < n; ++i) {
            tm->maybeSample(issue_clock_);
            execute(rec[i]);
        }
    } else {
        for (std::size_t i = 0; i < n; ++i)
            execute(rec[i]);
    }
    return n;
}

void
CoreModel::runToCompletion()
{
    while (stepRun(static_cast<std::size_t>(-1)) != 0) {
    }
}

} // namespace rnr
