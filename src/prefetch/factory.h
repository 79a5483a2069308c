/**
 * @file
 * Prefetcher factory and the RnR-Combined composite.
 *
 * The harness and benches construct prefetchers by kind; RnrCombined
 * pairs an RnR prefetcher with a next-line stream prefetcher that skips
 * the RnR target regions (Section V-D's integration scheme).
 */
#ifndef RNR_PREFETCH_FACTORY_H
#define RNR_PREFETCH_FACTORY_H

#include <memory>
#include <string>
#include <vector>

#include "core/rnr_prefetcher.h"
#include "prefetch/prefetcher.h"

namespace rnr {

/** Every prefetcher configuration the evaluation compares. */
enum class PrefetcherKind {
    None,
    NextLine,
    Stream,
    Stride,
    Ghb,
    Domino,
    Bingo,
    Stems,
    Misb,
    Droplet,
    Imp,
    Rnr,
    RnrCombined,
};

/** Stable display name ("nextline", "rnr-combined", ...). */
std::string toString(PrefetcherKind kind);

/** Parses a display name back to a kind; throws on unknown names. */
PrefetcherKind prefetcherKindFromString(const std::string &name);

/** All kinds in the order the paper's figures list them. */
const std::vector<PrefetcherKind> &allPrefetcherKinds();

/**
 * Runs two prefetchers side by side on one L2: RnR for the declared
 * target structures and a stream prefetcher for everything else.
 */
class CombinedPrefetcher : public Prefetcher
{
  public:
    CombinedPrefetcher(std::unique_ptr<RnrPrefetcher> rnr,
                       std::unique_ptr<Prefetcher> stream);

    void attach(MemorySystem *ms, unsigned core) override;
    void configureFor(const Workload &wl, unsigned core) override;
    void onAccess(const L2AccessInfo &info) override;
    void onEvict(Addr block) override;
    void onControl(const TraceRecord &rec, Tick now) override;
    bool inTargetRegion(Addr vaddr) const override;
    std::string name() const override { return "rnr-combined"; }

    void
    setTelemetry(TelemetrySampler *tm, unsigned core) override
    {
        rnr_->setTelemetry(tm, core);
        stream_->setTelemetry(tm, core);
    }

    void
    setAttrib(AttribCollector *at) override
    {
        rnr_->setAttrib(at);
        stream_->setAttrib(at);
    }

    RnrPrefetcher &rnr() { return *rnr_; }

  private:
    std::unique_ptr<RnrPrefetcher> rnr_;
    std::unique_ptr<Prefetcher> stream_;
};

/**
 * Creates a prefetcher of @p kind.  @p rnr_opts applies to the Rnr and
 * RnrCombined kinds (replay-control mode, window size).
 */
std::unique_ptr<Prefetcher> createPrefetcher(
    PrefetcherKind kind, const RnrPrefetcher::Options &rnr_opts = {});

/** Downcast helper: the RnR half of @p pf, or nullptr. */
RnrPrefetcher *asRnr(Prefetcher *pf);

} // namespace rnr

#endif // RNR_PREFETCH_FACTORY_H
