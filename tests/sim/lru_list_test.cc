/**
 * @file
 * The replacement orders of the prefetcher tables against std::list.
 *
 * SteMS's pattern table and Bingo's two tables evict in FIFO order
 * through a Ring of keys beside a FlatMap; MISB's metadata cache evicts
 * in LRU order through an LruList whose node indices sit in a FlatMap.
 * Both replaced std::list bookkeeping, so each is driven here with the
 * same fixed-seed operation stream as a std::list + std::unordered_map
 * reference, and must agree on every lookup and every victim.
 */
#include <list>
#include <unordered_map>

#include <gtest/gtest.h>

#include "sim/flat_map.h"
#include "sim/lru_list.h"
#include "sim/ring.h"
#include "sim/rng.h"

namespace rnr {
namespace {

TEST(LruListTest, PushTouchPopKeepRecencyOrder)
{
    LruList l;
    EXPECT_TRUE(l.empty());
    const LruList::Index a = l.pushBack(10);
    l.pushBack(20);
    const LruList::Index c = l.pushBack(30);
    EXPECT_EQ(l.front(), 10u);
    l.touch(a); // 20 30 10
    EXPECT_EQ(l.front(), 20u);
    l.touch(c); // 20 10 30
    l.popFront();
    EXPECT_EQ(l.front(), 10u);
    EXPECT_EQ(l.size(), 2u);
    // A popped node's slot is reused rather than grown.
    EXPECT_EQ(l.pushBack(40), 1u);
    l.popFront();
    l.popFront();
    EXPECT_EQ(l.front(), 40u);
    l.popFront();
    EXPECT_TRUE(l.empty());
}

/** MISB's metadata cache shape: hit = touch, miss = evict LRU at
 *  capacity, then insert as most recent. */
TEST(LruListTest, MatchesStdListUnderRandomTraffic)
{
    for (const std::size_t cap : {1u, 3u, 64u}) {
        SCOPED_TRACE(cap);
        Rng rng(0x1ee7 + cap);
        FlatMap<std::uint64_t, LruList::Index> map;
        LruList lru;
        std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
            ref_map;
        std::list<std::uint64_t> ref;
        for (int op = 0; op < 100000; ++op) {
            const std::uint64_t key = rng.below(cap * 3);
            const LruList::Index *node = map.find(key);
            const auto it = ref_map.find(key);
            ASSERT_EQ(node != nullptr, it != ref_map.end()) << op;
            if (node) {
                lru.touch(*node);
                ref.splice(ref.end(), ref, it->second);
            } else {
                if (map.size() >= cap) {
                    ASSERT_EQ(lru.front(), ref.front()) << op;
                    map.erase(lru.front());
                    lru.popFront();
                    ref_map.erase(ref.front());
                    ref.pop_front();
                }
                map[key] = lru.pushBack(key);
                ref.push_back(key);
                ref_map[key] = std::prev(ref.end());
            }
            ASSERT_EQ(lru.size(), ref.size()) << op;
            ASSERT_EQ(lru.front(), ref.front()) << op;
        }
    }
}

/** SteMS/Bingo's table shape: a hit updates in place, a miss evicts the
 *  oldest insert at capacity.  The Ring is sized to the capacity, as the
 *  prefetchers size it. */
TEST(FifoRingTest, MatchesStdListUnderRandomTraffic)
{
    for (const std::size_t cap : {1u, 4u, 64u}) {
        SCOPED_TRACE(cap);
        Rng rng(0xf1f0 + cap);
        FlatMap<std::uint64_t, std::uint64_t> map;
        Ring<std::uint64_t> order(cap);
        std::unordered_map<std::uint64_t, std::uint64_t> ref_map;
        std::list<std::uint64_t> ref;
        for (int op = 0; op < 100000; ++op) {
            const std::uint64_t key = rng.below(cap * 3);
            const std::uint64_t value = rng.next64();
            std::uint64_t *v = map.find(key);
            const auto it = ref_map.find(key);
            ASSERT_EQ(v != nullptr, it != ref_map.end()) << op;
            if (v) {
                ASSERT_EQ(*v, it->second) << op;
                *v |= value;
                it->second |= value;
                continue;
            }
            if (map.size() >= cap && !order.empty()) {
                ASSERT_EQ(order.front(), ref.front()) << op;
                map.erase(order.front());
                order.pop_front();
                ref_map.erase(ref.front());
                ref.pop_front();
            }
            order.push_back(key);
            map[key] = value;
            ref.push_back(key);
            ref_map[key] = value;
            ASSERT_EQ(order.size(), ref.size()) << op;
            ASSERT_EQ(map.size(), ref_map.size()) << op;
        }
        for (std::size_t i = 0; i < order.size(); ++i)
            EXPECT_EQ(order.at(i), *std::next(ref.begin(), i));
    }
}

} // namespace
} // namespace rnr
