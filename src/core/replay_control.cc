#include "core/replay_control.h"

#include <algorithm>

#include "sim/attrib.h"

namespace rnr {

ReplayController::ReplayController(ReplayControlMode mode,
                                   std::uint32_t window_size,
                                   unsigned uncontrolled_degree)
    : mode_(mode), window_size_(window_size), degree_(uncontrolled_degree)
{
}

void
ReplayController::beginReplay(const std::vector<std::uint64_t> *division,
                              std::uint64_t total_entries)
{
    division_ = division;
    total_entries_ = total_entries;
    cur_window_ = 0;
    reads_since_issue_ = 0;
    recomputePace();
    if (probes_.attrib)
        probes_.attrib->onWindowPace(cur_window_, pace_);
}

std::uint64_t
ReplayController::divisionAt(std::uint32_t w) const
{
    if (!division_ || division_->empty())
        return kTickMax;
    if (w < division_->size())
        return (*division_)[w];
    return kTickMax; // past the recorded windows: never advance again
}

std::uint64_t
ReplayController::budget(std::uint32_t w) const
{
    // Double buffering: while the program consumes window w, windows
    // 0..w+1 may be resident, i.e. (w+2) * window_size entries issued.
    const std::uint64_t b =
        static_cast<std::uint64_t>(w + 2) * window_size_;
    return std::min(b, total_entries_);
}

void
ReplayController::recomputePace()
{
    if (mode_ != ReplayControlMode::WindowPace || !division_ ||
        division_->empty()) {
        pace_ = 1;
        return;
    }
    // Reads the program will perform inside the current window, spread
    // over the window_size entries of the window being prefetched.
    const std::uint64_t start =
        cur_window_ == 0 ? 0 : divisionAt(cur_window_ - 1);
    const std::uint64_t end = divisionAt(cur_window_);
    if (end == kTickMax || end <= start) {
        pace_ = 1;
        return;
    }
    pace_ = std::max<std::uint64_t>(1, (end - start) / window_size_);
}

std::uint64_t
ReplayController::initialBurst() const
{
    if (mode_ == ReplayControlMode::None)
        return std::min<std::uint64_t>(degree_ * 2, total_entries_);
    if (mode_ == ReplayControlMode::WindowPace) {
        // Paced replay keeps a bounded lookahead of in-flight entries:
        // issuing smoothly at the demand rate means the standing excess
        // over consumption equals this initial burst.  Keeping it well
        // under a window stops waiting prefetches from ageing to the
        // LRU end of the L2 before their turn (Fig 11: pace control
        // trims early prefetches).
        return std::min<std::uint64_t>(
            std::min<std::uint64_t>(lookahead(), window_size_),
            total_entries_);
    }
    // Window control: windows 0 and 1 at replay start (Fig 5c issues
    // window 1's prefetches at t=0).
    return budget(0);
}

std::uint64_t
ReplayController::onStructRead(std::uint64_t cur_struct_read,
                               std::uint64_t issued_so_far)
{
    if (mode_ == ReplayControlMode::None) {
        // Uncontrolled: a fixed burst on every read, no budget.
        return std::min<std::uint64_t>(degree_,
                                       total_entries_ - std::min(
                                           total_entries_, issued_so_far));
    }

    // Advance through completed windows.
    while (cur_struct_read >= divisionAt(cur_window_) &&
           divisionAt(cur_window_) != kTickMax) {
        ++cur_window_;
        reads_since_issue_ = 0;
        recomputePace();
        if (probes_.attrib)
            probes_.attrib->onWindowPace(cur_window_, pace_);
    }

    const std::uint64_t allowed = budget(cur_window_);
    if (issued_so_far >= allowed)
        return 0;
    const std::uint64_t headroom = allowed - issued_so_far;

    if (mode_ == ReplayControlMode::Window)
        return headroom; // burst up to the budget

    // WindowPace: track consumption.  The division table gives the read
    // count at each window edge; interpolating within the current
    // window estimates how many sequence entries the program has
    // consumed, and issuance stays a bounded lookahead ahead of that.
    // This is the paper's N_pace = reads-per-window / window-size rate,
    // expressed in a drift-free form.
    const std::uint64_t start =
        cur_window_ == 0 ? 0 : divisionAt(cur_window_ - 1);
    const std::uint64_t end = divisionAt(cur_window_);
    std::uint64_t consumed =
        static_cast<std::uint64_t>(cur_window_) * window_size_;
    if (end != kTickMax && end > start && cur_struct_read > start) {
        consumed += std::min<std::uint64_t>(
            window_size_,
            (cur_struct_read - start) * window_size_ / (end - start));
    }
    const std::uint64_t target = std::min(
        std::min(consumed + lookahead(), allowed), total_entries_);
    if (issued_so_far >= target)
        return 0;
    return std::min<std::uint64_t>(target - issued_so_far, headroom);
}

} // namespace rnr
