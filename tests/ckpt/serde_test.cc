/**
 * @file
 * Exact-u64 archive tests: scalar encodings, containers, the
 * first-failure latch and the corrupt-count guard.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "ckpt/serde.h"
#include "sim/types.h"

namespace rnr {
namespace ckpt {
namespace {

enum class Colour : std::uint8_t { Red = 1, Green = 2, Blue = 3 };

TEST(CkptSerde, ScalarsRoundTripThroughEightBytes)
{
    Ser s;
    std::uint64_t u = 0xdeadbeefcafef00dull;
    std::int32_t neg = -12345;
    double d = -3.25e-9;
    bool flag = true;
    Colour c = Colour::Green;
    Tick t = kTickMax;
    s.scalar(u);
    s.scalar(neg);
    s.scalar(d);
    s.scalar(flag);
    s.scalar(c);
    s.scalar(t);
    EXPECT_EQ(s.size(), 6u * 8u); // every scalar costs exactly 8 bytes

    Deser de(s.buffer());
    std::uint64_t u2 = 0;
    std::int32_t neg2 = 0;
    double d2 = 0;
    bool flag2 = false;
    Colour c2 = Colour::Red;
    Tick t2 = 0;
    de.scalar(u2);
    de.scalar(neg2);
    de.scalar(d2);
    de.scalar(flag2);
    de.scalar(c2);
    de.scalar(t2);
    EXPECT_TRUE(de.ok());
    EXPECT_EQ(de.remaining(), 0u);
    EXPECT_EQ(u2, u);
    EXPECT_EQ(neg2, neg);
    EXPECT_EQ(d2, d); // bit-copied, not rounded
    EXPECT_EQ(flag2, flag);
    EXPECT_EQ(c2, c);
    EXPECT_EQ(t2, t);
}

TEST(CkptSerde, LittleEndianWireOrder)
{
    Ser s;
    std::uint64_t v = 0x0102030405060708ull;
    s.scalar(v);
    ASSERT_EQ(s.size(), 8u);
    EXPECT_EQ(s.buffer()[0], 0x08); // least significant byte first
    EXPECT_EQ(s.buffer()[7], 0x01);
}

TEST(CkptSerde, PodAndStringRoundTrip)
{
    Ser s;
    std::vector<std::uint16_t> v = {1, 2, 65535};
    std::string name = "rnr-ckpt";
    // Zero-length payloads: the empty vector's data() may be null.
    std::vector<std::uint64_t> empty_v;
    std::string empty_name;
    s.pod(v);
    s.str(name);
    s.pod(empty_v);
    s.str(empty_name);

    Deser de(s.buffer());
    std::vector<std::uint16_t> v2;
    std::string name2;
    std::vector<std::uint64_t> empty_v2 = {7};
    std::string empty_name2 = "stale";
    de.pod(v2);
    de.str(name2);
    de.pod(empty_v2);
    de.str(empty_name2);
    EXPECT_TRUE(de.ok());
    EXPECT_EQ(de.remaining(), 0u);
    EXPECT_EQ(v2, v);
    EXPECT_EQ(name2, name);
    EXPECT_TRUE(empty_v2.empty());
    EXPECT_TRUE(empty_name2.empty());
}

struct Pair {
    std::uint64_t a = 0;
    std::uint32_t b = 0;

    template <class Ar>
    void
    visitState(Ar &ar)
    {
        ar.scalar(a);
        ar.scalar(b);
    }
};

TEST(CkptSerde, ContainersRoundTrip)
{
    Ser s;
    std::vector<Pair> pairs = {{1, 2}, {3, 4}};
    std::list<std::uint64_t> order = {9, 7, 5};
    std::unordered_map<std::uint64_t, std::uint64_t> m = {{1, 10},
                                                          {2, 20}};
    seq(s, pairs);
    scalarList(s, order);
    kvMap(s, m);

    Deser de(s.buffer());
    std::vector<Pair> pairs2;
    std::list<std::uint64_t> order2;
    std::unordered_map<std::uint64_t, std::uint64_t> m2;
    seq(de, pairs2);
    scalarList(de, order2);
    kvMap(de, m2);
    EXPECT_TRUE(de.ok());
    ASSERT_EQ(pairs2.size(), 2u);
    EXPECT_EQ(pairs2[1].a, 3u);
    EXPECT_EQ(pairs2[1].b, 4u);
    EXPECT_EQ(order2, order);
    EXPECT_EQ(m2, m);
}

TEST(CkptSerde, TruncationLatchesFirstFailure)
{
    Ser s;
    std::uint64_t v = 7;
    s.scalar(v);

    Deser de(s.buffer().data(), 4); // half a scalar
    std::uint64_t v2 = 99;
    de.scalar(v2);
    EXPECT_FALSE(de.ok());
    EXPECT_EQ(v2, 0u); // failed reads yield zeros, never garbage
    const std::string first = de.error();
    de.scalar(v2); // later reads keep the first error
    EXPECT_EQ(de.error(), first);
    EXPECT_EQ(de.result().status, CkptIoStatus::Truncated);
}

TEST(CkptSerde, CorruptCountCannotOverAllocate)
{
    // A seq whose element count claims more data than the archive
    // holds must fail cleanly instead of allocating or spinning.
    Ser s;
    std::uint64_t huge = ~std::uint64_t{0};
    s.scalar(huge);

    Deser de(s.buffer());
    std::vector<Pair> v;
    seq(de, v);
    EXPECT_FALSE(de.ok());
    EXPECT_TRUE(v.empty());

    Deser de2(s.buffer());
    std::unordered_map<std::uint64_t, std::uint64_t> m;
    kvMap(de2, m);
    EXPECT_FALSE(de2.ok());
    EXPECT_TRUE(m.empty());
}

TEST(CkptSerde, StatusNamesAreStable)
{
    EXPECT_STREQ(toString(CkptIoStatus::Ok), "ok");
    EXPECT_STREQ(toString(CkptIoStatus::BadChecksum), "bad-checksum");
    EXPECT_STREQ(toString(CkptIoStatus::KeyMismatch), "key-mismatch");
    const CkptIoResult r =
        CkptIoResult::fail(CkptIoStatus::Truncated, "at byte 12");
    EXPECT_EQ(r.message(), "truncated: at byte 12");
}

} // namespace
} // namespace ckpt
} // namespace rnr
