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

void
AttribCollector::onRnrClass(RnrTimeliness cls, std::uint64_t window)
{
    const auto c = static_cast<unsigned>(cls);
    ++rnr_class_[c];
    if (window < kMaxWindows) {
        if (windows_.size() <= window)
            windows_.resize(window + 1);
        ++windows_[window][c];
    } else {
        ++window_overflow_[c];
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

    b.windows.reserve(windows_.size());
    for (std::size_t w = 0; w < windows_.size(); ++w)
        b.windows.push_back({w, windows_[w][0], windows_[w][1],
                             windows_[w][2], windows_[w][3]});
    b.window_overflow = {0, window_overflow_[0], window_overflow_[1],
                         window_overflow_[2], window_overflow_[3]};

    b.totals = totals_;
    b.rnr_ontime = rnr_class_[0];
    b.rnr_early = rnr_class_[1];
    b.rnr_late = rnr_class_[2];
    b.rnr_out_of_window = rnr_class_[3];
    b.pollution_filter_inserts = filter_inserts_;
    b.pollution_filter_hits = filter_hits_;
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

void
appendWindow(std::ostringstream &os, const AttribBlob::WindowRow &w,
             bool with_index)
{
    os << "{";
    if (with_index)
        os << "\"window\": " << jsonU64(w.window) << ", ";
    os << "\"ontime\": " << jsonU64(w.ontime)
       << ", \"early\": " << jsonU64(w.early)
       << ", \"late\": " << jsonU64(w.late)
       << ", \"out_of_window\": " << jsonU64(w.out_of_window) << "}";
}

} // namespace

std::string
attribJson(const AttribBlob &blob)
{
    std::ostringstream os;
    os << "{\"schema\": \"rnr-attrib-v1\", \"totals\": ";
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
    os << ", \"windows\": [";
    for (std::size_t i = 0; i < blob.windows.size(); ++i) {
        if (i > 0)
            os << ", ";
        appendWindow(os, blob.windows[i], true);
    }
    os << "], \"window_overflow\": ";
    appendWindow(os, blob.window_overflow, false);
    os << "}";
    return os.str();
}

} // namespace rnr
