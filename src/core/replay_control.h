/**
 * @file
 * Replay timing control (Section V-C, Fig 5).
 *
 * During replay the Division Table tells the controller how many target-
 * structure demand reads the program performed by the end of each
 * recorded window.  The controller turns the stream of observed reads
 * into a budget of sequence entries the prefetcher may have issued:
 *
 *  - None        — no timing control: a fixed burst per read (Fig 5b);
 *                  runs arbitrarily far ahead and thrashes the L2.
 *  - Window      — double buffering: entries of windows 0..w+1 may issue
 *                  while the program is inside window w (Fig 5c).
 *  - WindowPace  — additionally spreads window w+1's issues evenly over
 *                  window w's reads: one prefetch every
 *                  N_pace = StructAccessesInCurrentWindow / WindowSize
 *                  reads (Fig 5d).
 */
#ifndef RNR_CORE_REPLAY_CONTROL_H
#define RNR_CORE_REPLAY_CONTROL_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/probes.h"
#include "sim/types.h"

namespace rnr {

/** Ablation axis for Fig 10/11. */
enum class ReplayControlMode {
    None,
    Window,
    WindowPace,
};

/** Computes how many sequence entries may be issued at each point. */
class ReplayController
{
  public:
    /** Maximum standing in-flight lookahead of paced replay (entries). */
    static constexpr std::uint64_t kPaceLookahead = 96;
    /** Target lookahead in *demand reads*: with N_pace reads per entry,
     *  the entry lookahead is kReadLookahead / N_pace, so prefetch lead
     *  time stays roughly constant whether misses are dense (urand,
     *  pace ~3) or sparse (roadUSA, pace ~30). */
    static constexpr std::uint64_t kReadLookahead = 288;
    /** Minimum entry lookahead (covers one fill round-trip). */
    static constexpr std::uint64_t kMinLookahead = 8;

    /** Entry lookahead for the current pace. */
    std::uint64_t
    lookahead() const
    {
        const std::uint64_t by_reads =
            kReadLookahead / std::max<std::uint64_t>(1, pace_);
        return std::clamp(by_reads, kMinLookahead, kPaceLookahead);
    }

    ReplayController(ReplayControlMode mode, std::uint32_t window_size,
                     unsigned uncontrolled_degree = 4);

    /**
     * Arms the controller for a replay pass.
     * @param division cumulative struct-read counts at window ends.
     * @param total_entries sequence length to replay.
     */
    void beginReplay(const std::vector<std::uint64_t> *division,
                     std::uint64_t total_entries);

    /** Adopts the architectural window-size register (set by RnR.init()
     *  or WindowSize.set()); must be called before beginReplay. */
    void setWindowSize(std::uint32_t window_size)
    {
        window_size_ = window_size;
    }

    /**
     * Notes one demand read of the target structure and returns how many
     * additional sequence entries the prefetcher should issue now.
     * @param issued_so_far entries the caller has already issued.
     */
    std::uint64_t onStructRead(std::uint64_t cur_struct_read,
                               std::uint64_t issued_so_far);

    /** Entries the caller may issue immediately at replay start. */
    std::uint64_t initialBurst() const;

    std::uint32_t currentWindow() const { return cur_window_; }

    /** Current N_pace (demand reads per prefetch); 1 when unpaced. */
    std::uint64_t pace() const { return pace_; }

    ReplayControlMode mode() const { return mode_; }

    /** Reports each window's N_pace, set when the window opens, to
     *  @p p's attribution (its replay-window table). */
    void attach(const Probes &p) { probes_ = p; }

    /** Re-points the division-table reference after a state load (the
     *  raw pointer cannot travel through an archive); the owning
     *  RnrPrefetcher calls this when the restored FSM is mid-replay. */
    void rearmDivision(const std::vector<std::uint64_t> *division)
    {
        division_ = division;
    }

    /** Checkpoint visitor: replay progress registers.  mode_/degree_
     *  are constructor configuration and division_ is a pointer the
     *  owner re-arms via rearmDivision() after loading. */
    template <class Ar>
    void
    visitState(Ar &ar)
    {
        if constexpr (Ar::kLoading)
            division_ = nullptr;
        ar.scalar(window_size_);
        ar.scalar(total_entries_);
        ar.scalar(cur_window_);
        ar.scalar(pace_);
        ar.scalar(reads_since_issue_);
    }

  private:
    /** Cumulative reads at the end of window @p w (handles tail). */
    std::uint64_t divisionAt(std::uint32_t w) const;

    /** Entry budget while the program executes inside window @p w. */
    std::uint64_t budget(std::uint32_t w) const;

    void recomputePace();

    ReplayControlMode mode_;
    std::uint32_t window_size_;
    unsigned degree_;

    const std::vector<std::uint64_t> *division_ = nullptr;
    std::uint64_t total_entries_ = 0;
    std::uint32_t cur_window_ = 0;
    std::uint64_t pace_ = 1;
    std::uint64_t reads_since_issue_ = 0;
    Probes probes_;
};

} // namespace rnr

#endif // RNR_CORE_REPLAY_CONTROL_H
