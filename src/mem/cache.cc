#include "mem/cache.h"

#include <algorithm>
#include <cassert>

namespace rnr {

namespace {

/** Sets must be a power of two for mask indexing. */
bool
isPow2(std::size_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

CacheCounters::CacheCounters(StatGroup &g)
    : accesses(g.declare("accesses")),
      hits(g.declare("hits")),
      misses(g.declare("misses")),
      hits_on_inflight_fill(g.declare("hits_on_inflight_fill")),
      prefetch_useful(g.declare("prefetch_useful")),
      evictions(g.declare("evictions")),
      writebacks(g.declare("writebacks")),
      prefetch_evicted_unused(g.declare("prefetch_evicted_unused")),
      fills_demand(g.declare("fills_demand")),
      fills_prefetch(g.declare("fills_prefetch")),
      mshr_merges(g.declare("mshr_merges")),
      mshr_full_stalls(g.declare("mshr_full_stalls")),
      demand_merged_into_prefetch(
          g.declare("demand_merged_into_prefetch")),
      target_accesses(g.declare("target_accesses")),
      target_merges(g.declare("target_merges")),
      target_misses(g.declare("target_misses")),
      prefetches_issued(g.declare("prefetches_issued")),
      prefetch_redundant(g.declare("prefetch_redundant")),
      prefetch_mshr_full(g.declare("prefetch_mshr_full"))
{
}

Cache::Cache(const CacheConfig &cfg)
    : cfg_(cfg),
      set_mask_(cfg.sets() - 1),
      tags_(static_cast<std::size_t>(cfg.sets()) * cfg.ways, kInvalidTag),
      lines_(tags_.size()),
      lru_(tags_.size(), 0),
      mshr_(cfg.mshrs),
      pq_(cfg.prefetch_queue),
      stats_(cfg.name),
      ctr_(stats_)
{
    assert(isPow2(cfg.sets()) && "cache set count must be a power of two");
}

void
Cache::reset()
{
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(lines_.begin(), lines_.end(), CacheLine{});
    std::fill(lru_.begin(), lru_.end(), 0);
    lru_clock_ = 0;
    mshr_.clear();
    pq_.clear();
}

void
Cache::attach(const Probes &p, std::uint16_t core)
{
    probes_ = p;
    core_ = core;
}

void
Cache::probeMiss(Addr block)
{
    probes_.attrib->onDemandMiss(core_, block);
}

std::size_t
Cache::residentCount() const
{
    return static_cast<std::size_t>(
        std::count_if(tags_.begin(), tags_.end(),
                      [](Addr t) { return t != kInvalidTag; }));
}

} // namespace rnr
