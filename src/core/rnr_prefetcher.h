/**
 * @file
 * The Record-and-Replay prefetcher (the paper's core contribution,
 * Sections IV and V).
 *
 * Software programs the boundary registers and drives the Fig 3 state
 * machine through control records.  In the Record state, L2 demand misses
 * to enabled target ranges are appended to the in-memory Sequence Table
 * (block offsets relative to the boundary base, staged through a 128 B
 * buffer and written back non-temporally), and every window_size misses
 * the running count of target-structure reads is appended to the Division
 * Table.  In the Replay state, the tables are streamed back through
 * double buffers and replayed as prefetches into the private L2, paced by
 * the ReplayController.
 *
 * The prefetcher also classifies every replay prefetch as on-time, early,
 * late or out-of-window (Fig 11's taxonomy) using eviction callbacks from
 * the L2.
 */
#ifndef RNR_CORE_RNR_PREFETCHER_H
#define RNR_CORE_RNR_PREFETCHER_H

#include <cstdint>
#include <vector>

#include "ckpt/serde.h"
#include "core/replay_control.h"
#include "core/rnr_state.h"
#include "prefetch/prefetcher.h"
#include "sim/counting_filter.h"
#include "sim/flat_map.h"
#include "sim/ring.h"

namespace rnr {

class RnrPrefetcher : public Prefetcher
{
  public:
    struct Options {
        ReplayControlMode control = ReplayControlMode::WindowPace;
        /** 0 = derive the default: a quarter of the L2 per window, in
         *  blocks, so the two double-buffered windows span half of it. */
        std::uint32_t window_size = 0;
        unsigned uncontrolled_degree = 4;
    };

    /**
     * Pre-declared handles for every per-event RnR counter, created
     * once at construction (the paper's Fig 11 timeliness taxonomy plus
     * record/replay bookkeeping).  The harness snapshot reads these
     * directly instead of re-hashing counter names per iteration.
     */
    struct Counters {
        explicit Counters(StatGroup &g);

        Counter &init_calls;
        Counter &record_passes;
        Counter &replay_passes;
        Counter &pauses;
        Counter &resumes;
        Counter &recorded_misses;
        Counter &offset_overflow_skipped;
        Counter &unresolvable_entries;
        Counter &metadata_tlb_lookups;
        Counter &pf_ontime;
        Counter &pf_early;
        Counter &pf_late;
        Counter &pf_out_of_window;
    };

    RnrPrefetcher() : RnrPrefetcher(Options{}) {}
    explicit RnrPrefetcher(Options opts);

    void onAccess(const L2AccessInfo &info) override;
    void onEvict(Addr block) override;
    void onControl(const TraceRecord &rec, Tick now) override;
    bool inTargetRegion(Addr vaddr) const override;
    std::string name() const override { return "rnr"; }

    /** Registers the replay-lane series: N_pace over time plus the
     *  Sequence/Division-Table staging-buffer fill levels (bytes). */
    void setTelemetry(TelemetrySampler *tm, unsigned core) override;

    /** Keeps the collector for the Fig 11 classification and the
     *  replay-window table, and hands it to the replay controller for
     *  each window's pace; replay prefetches themselves carry
     *  attribRnrSite(core) as their site id (sim/attrib.h). */
    void
    setAttrib(AttribCollector *at) override
    {
        at_ = at;
        controller_.attach({.attrib = at});
    }

    /** Bytes of sequence metadata currently resident in the staging /
     *  double buffers: staged-but-unflushed entries while recording,
     *  streamed-but-unissued entries while replaying, 0 otherwise. */
    std::uint64_t seqBufferFillBytes() const;
    /** Division-Table counterpart of seqBufferFillBytes(). */
    std::uint64_t divBufferFillBytes() const;

    // ---- Introspection (tests, benches, Fig 11/13) ----
    const Counters &ctr() const { return ctr_; }
    const RnrArchState &arch() const { return arch_; }
    const RnrInternalState &internals() const { return internal_; }
    std::uint64_t seqTableBytes() const;
    std::uint64_t divTableBytes() const;
    const std::vector<SeqEntry> &sequence() const { return seq_store_; }
    const std::vector<std::uint64_t> &division() const { return div_store_; }

    /** Bytes of state to save on a context switch (Section IV-C). */
    static std::uint64_t contextSwitchBytes();

    /**
     * Context-switch state visitor (ckpt::runSwitchStorm, Fig 15):
     * issue counters, architectural registers, internal registers,
     * replay controller, both metadata tables (their memory contents
     * live here, not in the cache model), replay cursors and the
     * timeliness-classification map.  After loading mid-replay
     * state, the controller's division-table pointer is re-armed to
     * this instance's div_store_ — pointers do not travel.
     */
    template <class Ar>
    void
    visitState(Ar &ar)
    {
        stats_.visitState(ar);
        arch_.visitState(ar);
        internal_.visitState(ar);
        controller_.visitState(ar);
        ar.pod(seq_store_);
        ar.pod(div_store_);
        ar.scalar(issue_cursor_);
        ar.scalar(seq_flushed_);
        ar.scalar(div_flushed_);
        ar.scalar(seq_streamed_);
        ar.scalar(div_streamed_);
        ar.scalar(last_window_);
        // The classification map travels as a count plus (block,
        // record) pairs in issue order; loading rebuilds the issue FIFO
        // from that order.
        std::uint64_t n = pf_status_.size();
        ar.scalar(n);
        if constexpr (Ar::kLoading) {
            pf_status_.clear();
            pf_filter_.clear();
            pf_issued_.clear();
            if (!ckpt::checkCount(ar, n, 32))
                return;
            for (std::uint64_t i = 0; i < n; ++i) {
                Addr block = 0;
                ar.scalar(block);
                PfRecord rec{};
                rec.visitState(ar);
                notePfIssue(block, rec);
            }
        } else {
            FlatMap<Addr, bool> written;
            for (std::size_t i = 0; i < pf_issued_.size(); ++i) {
                const PfIssue &e = pf_issued_.at(i);
                PfRecord *rec = liveRecord(e);
                if (!rec)
                    continue;
                bool first = false;
                written.emplace(e.block, first);
                if (!first)
                    continue;
                ar.scalar(e.block);
                rec->visitState(ar);
            }
        }
        ar.scalar(peak_seq_entries_);
        ar.scalar(peak_div_entries_);
        if constexpr (Ar::kLoading) {
            const bool replaying =
                arch_.state == RnrState::Replay ||
                (arch_.state == RnrState::Paused &&
                 arch_.paused_from == RnrState::Replay);
            if (replaying)
                controller_.rearmDivision(&div_store_);
        }
    }

  private:
    enum class PfStatus : std::uint8_t { Pending, Evicted };

    struct PfRecord {
        PfStatus status = PfStatus::Pending;
        std::uint32_t window = 0;
        Tick fill_time = 0;

        template <class Ar>
        void
        visitState(Ar &ar)
        {
            ar.scalar(status);
            ar.scalar(window);
            ar.scalar(fill_time);
        }
    };

    /** One replay prefetch in issue order (see pf_issued_). */
    struct PfIssue {
        Addr block = 0;
        std::uint32_t window = 0;
    };

    /** Records a replay prefetch of @p block in pf_status_ and at the
     *  back of pf_issued_, which stays sorted by window: an issue whose
     *  window is below the back's moves forward past it. */
    void notePfIssue(Addr block, const PfRecord &rec);

    /** @p e's record when it is still the live one for its block: not
     *  consumed, retired, or overwritten by a re-issue in a later
     *  window since. */
    PfRecord *
    liveRecord(const PfIssue &e)
    {
        PfRecord *rec = pf_status_.find(e.block);
        return rec && rec->window == e.window ? rec : nullptr;
    }

    void handleRecordAccess(const L2AccessInfo &info);
    void handleReplayAccess(const L2AccessInfo &info);

    /** Issues up to @p n sequence entries starting at the cursor. */
    void issueEntries(std::uint64_t n, Tick now);

    /** Resolves a recorded entry to a prefetch address, or 0. */
    Addr resolveEntry(const SeqEntry &entry) const;

    /** Flushes staged metadata at the end of a recording pass. */
    void finishRecording(Tick now);

    /** The window size Init sets: the option, or a quarter of the L2. */
    std::uint32_t defaultWindowSize() const;

    void startRecording();
    void startReplay(Tick now);

    /** Retires classification records older than the active windows. */
    void sweepOutOfWindow();

    Options opts_;
    Counters ctr_; ///< Handles into the base-class stats_.
    RnrArchState arch_;
    RnrInternalState internal_;
    ReplayController controller_;

    /** Memory contents of the two metadata tables. */
    std::vector<SeqEntry> seq_store_;
    std::vector<std::uint64_t> div_store_;

    /** Replay cursor into seq_store_ and staged-metadata bookkeeping. */
    std::uint64_t issue_cursor_ = 0;
    std::uint64_t seq_flushed_ = 0;   ///< Entries already written back.
    std::uint64_t div_flushed_ = 0;
    std::uint64_t seq_streamed_ = 0;  ///< Entries read back during replay.
    std::uint64_t div_streamed_ = 0;
    std::uint32_t last_window_ = 0;

    /** Timeliness classification of in-flight replay prefetches. */
    FlatMap<Addr, PfRecord> pf_status_;
    /** Presence filter over pf_status_'s keys: almost every target
     *  read is of a block with no record, and an uncontrolled replay
     *  can hold tens of thousands of records, whose map is too large
     *  for the host's caches; the filter answers most reads from
     *  64 KiB instead. */
    CountingFilter<16> pf_filter_;
    /** Every replay prefetch of this pass in issue order, so the
     *  out-of-window sweep pops expired windows off the front instead
     *  of scanning the map.  Entries whose record is gone stay until
     *  they reach the front. */
    Ring<PfIssue> pf_issued_{1024};

    /** Peak metadata footprint across the whole run (Fig 13). */
    std::uint64_t peak_seq_entries_ = 0;
    std::uint64_t peak_div_entries_ = 0;

    AttribCollector *at_ = nullptr; ///< Null unless attribution is on.
};

} // namespace rnr

#endif // RNR_CORE_RNR_PREFETCHER_H
