/**
 * @file
 * Golden-model property tests: the set-associative Cache must agree with
 * brute-force reference models over long random operation sequences, for
 * every geometry up to the LLC's 16 ways:
 *  - per-set recency lists (LRU hit/miss and victim choice);
 *  - a way-by-way model of both policies, LRU and SRRIP, that selects
 *    victims in separate passes (resident check, first invalid way,
 *    first LRU or first rrpv >= 3 way, ageing), tracks the dirty,
 *    prefetched and referenced bits, and checks every EvictResult flag;
 *    halfway through, the cache is saved, loaded into a fresh cache and
 *    continued, which must match the uninterrupted run.
 */
#include <list>
#include <map>
#include <memory>

#include <gtest/gtest.h>

#include "ckpt/serde.h"
#include "mem/cache.h"
#include "sim/rng.h"

namespace rnr {
namespace {

/** Brute-force reference: per-set LRU lists of resident blocks. */
class ReferenceCache
{
  public:
    ReferenceCache(unsigned sets, unsigned ways)
        : sets_(sets), ways_(ways), lru_(sets)
    {
    }

    bool
    access(Addr block)
    {
        auto &set = lru_[block % sets_];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == block) {
                set.erase(it);
                set.push_front(block);
                return true;
            }
        }
        return false;
    }

    /** Returns the evicted block, or ~0 when none. */
    Addr
    insert(Addr block)
    {
        auto &set = lru_[block % sets_];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == block)
                return ~Addr{0}; // already resident: no change
        }
        Addr victim = ~Addr{0};
        if (set.size() >= ways_) {
            victim = set.back();
            set.pop_back();
        }
        set.push_front(block);
        return victim;
    }

    bool
    contains(Addr block) const
    {
        const auto &set = lru_[block % sets_];
        for (Addr b : set) {
            if (b == block)
                return true;
        }
        return false;
    }

  private:
    unsigned sets_;
    unsigned ways_;
    std::vector<std::list<Addr>> lru_;
};

class CacheGoldenTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CacheGoldenTest, AgreesWithReferenceOverRandomOps)
{
    const auto [ways, log_sets] = GetParam();
    const unsigned sets = 1u << log_sets;

    CacheConfig cfg;
    cfg.name = "golden";
    cfg.ways = ways;
    cfg.size_bytes = std::uint64_t{sets} * ways * kBlockSize;
    Cache cache(cfg);
    ReferenceCache ref(sets, ways);

    Rng rng(ways * 1000 + log_sets);
    Tick t = 0;
    for (int op = 0; op < 20000; ++op) {
        const Addr block = rng.below(sets * ways * 4);
        ++t;
        if (rng.below(2) == 0) {
            // Demand access: hit/miss must agree.
            const bool model_hit = cache.access(block, t) != nullptr;
            const bool ref_hit = ref.access(block);
            ASSERT_EQ(model_hit, ref_hit) << "op " << op;
        } else {
            // Fill: eviction choice must agree (deterministic LRU).
            EvictResult ev = cache.insert(block, t, false, false);
            const Addr ref_victim = ref.insert(block);
            if (ref_victim == ~Addr{0}) {
                ASSERT_FALSE(ev.valid && ev.block != block) << "op " << op;
            } else {
                ASSERT_TRUE(ev.valid) << "op " << op;
                ASSERT_EQ(ev.block, ref_victim) << "op " << op;
            }
        }
    }

    // Final residency agrees block by block.
    for (Addr block = 0; block < sets * ways * 4; ++block)
        ASSERT_EQ(cache.peek(block) != nullptr, ref.contains(block))
            << block;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGoldenTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u, 16u),
                       ::testing::Values(0u, 2u, 4u)));

/** Way-by-way reference of both replacement policies plus line flags. */
class WayReference
{
  public:
    struct Way {
        bool valid = false;
        Addr block = 0;
        std::uint64_t lru = 0;
        unsigned rrpv = 3;
        bool dirty = false;
        bool prefetched = false;
        bool referenced = false;
    };

    WayReference(unsigned sets, unsigned ways, ReplacementPolicy policy)
        : sets_(sets), ways_(ways), policy_(policy),
          lines_(std::size_t{sets} * ways)
    {
    }

    Way *
    find(Addr block)
    {
        Way *set = &lines_[(block % sets_) * ways_];
        for (unsigned w = 0; w < ways_; ++w)
            if (set[w].valid && set[w].block == block)
                return &set[w];
        return nullptr;
    }

    bool
    access(Addr block, bool store)
    {
        Way *line = find(block);
        if (!line)
            return false;
        line->lru = ++clock_;
        line->rrpv = 0;
        line->referenced = true;
        line->dirty = line->dirty || store;
        return true;
    }

    EvictResult
    insert(Addr block, bool prefetched, bool dirty)
    {
        if (Way *line = find(block)) {
            line->dirty = line->dirty || dirty;
            return {};
        }
        Way *set = &lines_[(block % sets_) * ways_];
        Way *victim = nullptr;
        for (unsigned w = 0; w < ways_ && !victim; ++w)
            if (!set[w].valid)
                victim = &set[w];
        if (!victim && policy_ == ReplacementPolicy::Srrip) {
            while (!victim) {
                for (unsigned w = 0; w < ways_ && !victim; ++w)
                    if (set[w].rrpv >= 3)
                        victim = &set[w];
                if (!victim)
                    for (unsigned w = 0; w < ways_; ++w)
                        ++set[w].rrpv;
            }
        } else if (!victim) {
            victim = &set[0];
            for (unsigned w = 0; w < ways_; ++w)
                if (set[w].lru < victim->lru)
                    victim = &set[w];
        }
        EvictResult ev;
        if (victim->valid) {
            ev.valid = true;
            ev.block = victim->block;
            ev.dirty = victim->dirty;
            ev.prefetched_unused =
                victim->prefetched && !victim->referenced;
        }
        *victim = Way{true, block, ++clock_, 2, dirty, prefetched, false};
        return ev;
    }

  private:
    unsigned sets_;
    unsigned ways_;
    ReplacementPolicy policy_;
    std::vector<Way> lines_;
    std::uint64_t clock_ = 0;
};

class CachePolicyGoldenTest
    : public ::testing::TestWithParam<
          std::tuple<unsigned, unsigned, ReplacementPolicy>>
{
};

TEST_P(CachePolicyGoldenTest, MatchesWayReferenceAcrossASnapshot)
{
    const auto [ways, log_sets, policy] = GetParam();
    const unsigned sets = 1u << log_sets;

    CacheConfig cfg;
    cfg.name = "golden";
    cfg.ways = ways;
    cfg.size_bytes = std::uint64_t{sets} * ways * kBlockSize;
    cfg.replacement = policy;
    Cache straight(cfg);
    WayReference ref(sets, ways, policy);
    std::unique_ptr<Cache> resumed;

    Rng rng(ways * 1000 + log_sets * 10 +
            static_cast<unsigned>(policy));
    Tick t = 0;
    constexpr int kOps = 20000;
    for (int op = 0; op < kOps; ++op) {
        if (op == kOps / 2) {
            // Mid-stream checkpoint: a fresh cache loaded from the
            // snapshot continues beside the uninterrupted one.
            ckpt::Ser ser;
            straight.visitState(ser);
            resumed = std::make_unique<Cache>(cfg);
            ckpt::Deser de(ser.buffer());
            resumed->visitState(de);
            ASSERT_TRUE(de.ok());
            ASSERT_EQ(de.remaining(), 0u);
            ASSERT_EQ(resumed->residentCount(), straight.residentCount());
        }
        const Addr block = rng.below(sets * ways * 3);
        ++t;
        const std::uint64_t pick = rng.below(3);
        if (pick == 0) {
            const bool store = rng.below(4) == 0;
            const bool ref_hit = ref.access(block, store);
            for (Cache *c : {&straight, resumed.get()}) {
                if (!c)
                    continue;
                CacheLine *line = c->access(block, t);
                ASSERT_EQ(line != nullptr, ref_hit) << "op " << op;
                if (line && store)
                    line->dirty = true;
            }
        } else {
            const bool prefetched = pick == 2;
            const bool dirty = rng.below(4) == 0;
            const EvictResult want = ref.insert(block, prefetched, dirty);
            for (Cache *c : {&straight, resumed.get()}) {
                if (!c)
                    continue;
                const EvictResult ev =
                    c->insert(block, t, prefetched, dirty);
                ASSERT_EQ(ev.valid, want.valid) << "op " << op;
                if (!want.valid)
                    continue;
                ASSERT_EQ(ev.block, want.block) << "op " << op;
                ASSERT_EQ(ev.dirty, want.dirty) << "op " << op;
                ASSERT_EQ(ev.prefetched_unused, want.prefetched_unused)
                    << "op " << op;
            }
        }
    }

    for (Addr block = 0; block < sets * ways * 3; ++block) {
        const bool resident = ref.find(block) != nullptr;
        ASSERT_EQ(straight.peek(block) != nullptr, resident) << block;
        ASSERT_EQ(resumed->peek(block) != nullptr, resident) << block;
    }
    const auto &a = straight.ctr();
    const auto &b = resumed->ctr();
    EXPECT_EQ(a.hits.value(), b.hits.value());
    EXPECT_EQ(a.evictions.value(), b.evictions.value());
    EXPECT_EQ(a.writebacks.value(), b.writebacks.value());
    EXPECT_EQ(a.prefetch_evicted_unused.value(),
              b.prefetch_evicted_unused.value());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CachePolicyGoldenTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u, 16u),
                       ::testing::Values(0u, 3u),
                       ::testing::Values(ReplacementPolicy::Lru,
                                         ReplacementPolicy::Srrip)));

} // namespace
} // namespace rnr
