/**
 * @file
 * FlatMap against std::unordered_map over random insert / overwrite /
 * erase / clear sequences, with keys chosen to collide in long probe
 * runs so backward-shift erasure and growth are exercised.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>

#include "sim/flat_map.h"
#include "sim/rng.h"

namespace rnr {
namespace {

TEST(FlatMap, AgreesWithUnorderedMapOverRandomChurn)
{
    for (std::uint64_t key_space : {8ull, 100ull, 5000ull}) {
        FlatMap<std::uint64_t, std::uint64_t> flat;
        std::unordered_map<std::uint64_t, std::uint64_t> ref;
        Rng rng(key_space);
        for (int op = 0; op < 200000; ++op) {
            // Multiples of 2^20 share low bits: a weak hash would pile
            // them into one run.
            const std::uint64_t k = rng.below(key_space) << 20;
            const std::uint64_t pick = rng.below(100);
            if (pick < 45) {
                const std::uint64_t v = rng.next64();
                bool inserted = false;
                flat.emplace(k, inserted) = v;
                ASSERT_EQ(inserted, ref.count(k) == 0) << op;
                ref[k] = v;
            } else if (pick < 70) {
                ASSERT_EQ(flat.erase(k), ref.erase(k) == 1) << op;
            } else if (pick < 90) {
                std::uint64_t v = 0;
                const auto it = ref.find(k);
                ASSERT_EQ(flat.take(k, v), it != ref.end()) << op;
                if (it != ref.end()) {
                    ASSERT_EQ(v, it->second) << op;
                    ref.erase(it);
                }
            } else if (pick < 99) {
                const std::uint64_t *v = flat.find(k);
                const auto it = ref.find(k);
                ASSERT_EQ(v != nullptr, it != ref.end()) << op;
                if (v) {
                    ASSERT_EQ(*v, it->second) << op;
                }
            } else if (rng.below(20) == 0) {
                flat.clear();
                ref.clear();
            }
            ASSERT_EQ(flat.size(), ref.size()) << op;
        }
        for (const auto &[k, v] : ref) {
            const std::uint64_t *got = flat.find(k);
            ASSERT_NE(got, nullptr) << k;
            ASSERT_EQ(*got, v) << k;
        }
    }
}

TEST(FlatMap, ClearEmptiesWithoutForgettingCapacity)
{
    FlatMap<std::uint32_t, std::uint64_t> m;
    for (int round = 0; round < 100; ++round) {
        for (std::uint32_t k = 0; k < 4096; ++k)
            m[k * 2654435761u] = k + round;
        ASSERT_EQ(m.size(), 4096u);
        ASSERT_EQ(*m.find(7 * 2654435761u), 7u + round);
        m.clear();
        ASSERT_TRUE(m.empty());
        ASSERT_EQ(m.find(7 * 2654435761u), nullptr);
    }
}

} // namespace
} // namespace rnr
