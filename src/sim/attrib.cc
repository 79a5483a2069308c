#include "sim/attrib.h"

#include <algorithm>
#include <sstream>

#include "harness/json_write.h"

namespace rnr {

AttribCollector::AttribCollector(std::size_t site_top_k,
                                 std::size_t region_top_k)
    : site_top_k_(site_top_k >= 1 ? site_top_k : 1),
      region_top_k_(region_top_k >= 1 ? region_top_k : 1)
{
}

namespace {

/**
 * Deterministic fold victim: the least-active entry, ties broken by
 * the smallest key.  The choice depends only on (total, key) pairs,
 * never on unordered_map iteration order.
 */
template <class Map>
typename Map::iterator
foldVictim(Map &m)
{
    auto victim = m.begin();
    for (auto it = m.begin(); it != m.end(); ++it) {
        const std::uint64_t t = it->second.total();
        const std::uint64_t vt = victim->second.total();
        if (t < vt || (t == vt && it->first < victim->first))
            victim = it;
    }
    return victim;
}

} // namespace

AttribSiteStats &
AttribCollector::siteRow(std::uint32_t site)
{
    auto it = sites_.find(site);
    if (it != sites_.end())
        return it->second;
    if (sites_.size() >= site_top_k_) {
        auto victim = foldVictim(sites_);
        site_other_.fold(victim->second);
        sites_.erase(victim);
    }
    ++sites_tracked_;
    return sites_.emplace(site, AttribSiteStats{}).first->second;
}

AttribSiteStats &
AttribCollector::regionRow(Addr region)
{
    auto it = regions_.find(region);
    if (it != regions_.end())
        return it->second;
    if (regions_.size() >= region_top_k_) {
        auto victim = foldVictim(regions_);
        region_other_.fold(victim->second);
        regions_.erase(victim);
    }
    ++regions_tracked_;
    return regions_.emplace(region, AttribSiteStats{}).first->second;
}

void
AttribCollector::account(std::uint32_t site, Addr block,
                         std::uint64_t AttribSiteStats::*field)
{
    ++(totals_.*field);
    ++(siteRow(site).*field);
    ++(regionRow(attribRegion(block)).*field);
}

void
AttribCollector::onIssued(std::uint32_t site, Addr block)
{
    account(site, block, &AttribSiteStats::issued);
}

void
AttribCollector::onUseful(std::uint32_t site, Addr block)
{
    account(site, block, &AttribSiteStats::useful);
}

void
AttribCollector::onLateMerged(std::uint32_t site, Addr block)
{
    account(site, block, &AttribSiteStats::late_merged);
}

void
AttribCollector::onEvictedUnused(std::uint32_t site, Addr block)
{
    account(site, block, &AttribSiteStats::evicted_unused);
}

void
AttribCollector::onPrefetchEvictsDemand(unsigned core,
                                        std::uint32_t site,
                                        Addr victim_block)
{
    if (core >= victims_.size())
        victims_.resize(core + 1);
    if (victims_[core].empty())
        victims_[core].resize(kVictimFilterEntries);
    VictimEnt &e = victims_[core][victim_block % kVictimFilterEntries];
    e.block = victim_block;
    e.site = site;
    e.valid = true;
    ++filter_inserts_;
}

void
AttribCollector::onDemandMiss(unsigned core, Addr block)
{
    if (core >= victims_.size() || victims_[core].empty())
        return;
    VictimEnt &e = victims_[core][block % kVictimFilterEntries];
    if (!e.valid || e.block != block)
        return;
    e.valid = false; // consume: one eviction, at most one charge
    ++filter_hits_;
    account(e.site, block, &AttribSiteStats::pollution);
}

WindowDiag &
AttribCollector::windowRow(std::uint32_t window)
{
    if (window >= windows_.size()) {
        const auto first = static_cast<std::uint32_t>(windows_.size());
        windows_.resize(window + 1);
        for (std::uint32_t w = first; w <= window; ++w)
            windows_[w].window = w;
    }
    return windows_[window];
}

void
AttribCollector::onRnrClass(RnrTimeliness cls, std::uint32_t window)
{
    ++rnr_class_[static_cast<unsigned>(cls)];
    WindowDiag &w = windowRow(window);
    switch (cls) {
      case RnrTimeliness::OnTime: ++w.ontime; break;
      case RnrTimeliness::Early: ++w.early; break;
      case RnrTimeliness::Late: ++w.late; break;
      case RnrTimeliness::OutOfWindow: ++w.out_of_window; break;
    }
}

AttribBlob
AttribCollector::harvest() const
{
    AttribBlob b;

    b.sites.reserve(sites_.size());
    for (const auto &[site, stats] : sites_)
        b.sites.push_back({site, stats});
    std::sort(b.sites.begin(), b.sites.end(),
              [](const AttribBlob::SiteRow &x,
                 const AttribBlob::SiteRow &y) {
                  const std::uint64_t xt = x.stats.total();
                  const std::uint64_t yt = y.stats.total();
                  return xt != yt ? xt > yt : x.site < y.site;
              });
    b.site_other = site_other_;
    b.sites_tracked = sites_tracked_;

    b.regions.reserve(regions_.size());
    for (const auto &[region, stats] : regions_)
        b.regions.push_back({region, stats});
    std::sort(b.regions.begin(), b.regions.end(),
              [](const AttribBlob::RegionRow &x,
                 const AttribBlob::RegionRow &y) {
                  return x.region < y.region;
              });
    b.region_other = region_other_;
    b.regions_tracked = regions_tracked_;

    b.totals = totals_;
    b.rnr_ontime = rnr_class_[0];
    b.rnr_early = rnr_class_[1];
    b.rnr_late = rnr_class_[2];
    b.rnr_out_of_window = rnr_class_[3];
    b.pollution_filter_inserts = filter_inserts_;
    b.pollution_filter_hits = filter_hits_;

    for (const WindowDiag &w : windows_) {
        const bool touched = w.demands || w.issued || w.refill_stalls ||
                             w.ontime || w.early || w.late ||
                             w.out_of_window || w.pace;
        if (touched)
            b.windows.push_back(w);
    }
    return b;
}

void
AttribCollector::reset()
{
    *this = AttribCollector(site_top_k_, region_top_k_);
}

namespace {

void
appendStats(std::ostringstream &os, const AttribSiteStats &s)
{
    os << "{\"issued\": " << jsonU64(s.issued)
       << ", \"useful\": " << jsonU64(s.useful)
       << ", \"late_merged\": " << jsonU64(s.late_merged)
       << ", \"evicted_unused\": " << jsonU64(s.evicted_unused)
       << ", \"pollution\": " << jsonU64(s.pollution) << "}";
}

} // namespace

std::string
attribJson(const AttribBlob &blob)
{
    std::ostringstream os;
    os << "{\"schema\": \"rnr-attrib-v2\", \"totals\": ";
    appendStats(os, blob.totals);
    os << ", \"rnr\": {\"ontime\": " << jsonU64(blob.rnr_ontime)
       << ", \"early\": " << jsonU64(blob.rnr_early)
       << ", \"late\": " << jsonU64(blob.rnr_late)
       << ", \"out_of_window\": " << jsonU64(blob.rnr_out_of_window)
       << "}, \"pollution_filter\": {\"inserts\": "
       << jsonU64(blob.pollution_filter_inserts)
       << ", \"hits\": " << jsonU64(blob.pollution_filter_hits)
       << "}, \"sites\": [";
    for (std::size_t i = 0; i < blob.sites.size(); ++i) {
        if (i > 0)
            os << ", ";
        const AttribBlob::SiteRow &r = blob.sites[i];
        os << "{\"site\": " << jsonU64(r.site) << ", \"rnr\": "
           << jsonBool(attribSiteIsRnr(r.site)) << ", \"stats\": ";
        appendStats(os, r.stats);
        os << "}";
    }
    os << "], \"sites_tracked\": " << jsonU64(blob.sites_tracked)
       << ", \"site_other\": ";
    appendStats(os, blob.site_other);
    os << ", \"regions\": [";
    for (std::size_t i = 0; i < blob.regions.size(); ++i) {
        if (i > 0)
            os << ", ";
        const AttribBlob::RegionRow &r = blob.regions[i];
        os << "{\"region\": " << jsonU64(r.region) << ", \"stats\": ";
        appendStats(os, r.stats);
        os << "}";
    }
    os << "], \"regions_tracked\": " << jsonU64(blob.regions_tracked)
       << ", \"region_other\": ";
    appendStats(os, blob.region_other);
    os << "}";
    return os.str();
}

ReplayDiagnostics
buildReplayDiagnostics(const AttribBlob &blob)
{
    ReplayDiagnostics d;
    d.windows = blob.windows;
    for (const WindowDiag &w : blob.windows) {
        d.total.demands += w.demands;
        d.total.issued += w.issued;
        d.total.refill_stalls += w.refill_stalls;
        d.total.ontime += w.ontime;
        d.total.early += w.early;
        d.total.late += w.late;
        d.total.out_of_window += w.out_of_window;
    }
    return d;
}

} // namespace rnr
