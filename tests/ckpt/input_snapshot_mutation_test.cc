/**
 * @file
 * Fixed-seed mutation tests of the input-snapshot decoder
 * (ckpt::decodeInputSnapshot): the blob parse plus the graph or matrix
 * payload a forked cell indexes into.
 *
 * Every case starts from a valid graph or matrix blob and applies
 * Rng-driven bit flips, truncations, a lying payload length, or lying
 * CSR counts and contents with the checksum recomputed, so the lie gets
 * past the blob header.  Each must end in a typed CkptIoStatus or a valid
 * parse; never a crash, a read past the bytes (the ASan job runs these
 * too) or an allocation the bytes cannot back.  A valid parse must be a
 * CSR that is safe to index.  The last test drives a checksum-valid but
 * inconsistent snapshot through the store: it is quarantined and the
 * input regenerated.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/ckpt_store.h"
#include "ckpt/input_fork.h"
#include "sim/rng.h"

namespace rnr {
namespace {

namespace fs = std::filesystem;

using Bytes = std::vector<std::uint8_t>;
using EdgeList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

const std::string kKey = "input:test:tiny:g1";
const std::string kName = "tiny";

EdgeList
sampleEdges()
{
    Rng rng(31);
    EdgeList list;
    for (int k = 0; k < 160; ++k)
        list.emplace_back(static_cast<std::uint32_t>(rng.below(40)),
                          static_cast<std::uint32_t>(rng.below(40)));
    return list;
}

Bytes
graphBlob()
{
    return ckpt::encodeInputSnapshot(
        kKey, kName, Graph::fromEdgeList(40, sampleEdges()));
}

Bytes
matrixBlob()
{
    return ckpt::encodeInputSnapshot(
        kKey, kName, SparseMatrix::fromPattern(40, sampleEdges()));
}

std::uint64_t
getU64(const Bytes &b, std::size_t at)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(b[at + i]) << (8 * i);
    return v;
}

void
putU64(Bytes &b, std::size_t at, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** Rewrites the blob's FNV-1a field (bytes 8..15, over every byte
 *  after it) so a mutation passes the checksum. */
void
reseal(Bytes &b)
{
    if (b.size() < 16)
        return;
    putU64(b, 8, ckpt::fnv1a64(b.data() + 16, b.size() - 16));
}

/** Where the fields of an input snapshot blob sit. */
struct Layout {
    std::size_t payload_len; ///< the blob's payload_len field
    std::size_t payload;   ///< first payload byte (the tag)
    std::size_t rows;      ///< num_vertices / n
    std::size_t ptr_count; ///< offsets / row_ptr element count
    std::size_t ptr_data;  ///< first offset
    std::size_t ids_count; ///< edges / col element count
    std::size_t ids_data;  ///< first id
};

Layout
layoutOf(const Bytes &b)
{
    // magic, checksum, key ("<epoch>|" + kKey), payload_len.
    const std::size_t key = BlobStore::epochKey(kKey).size();
    Layout l;
    l.payload_len = 8 + 8 + 8 + key;
    l.payload = l.payload_len + 8;
    l.rows = l.payload + 8 + 8 + kName.size();
    l.ptr_count = l.rows + 8;
    l.ptr_data = l.ptr_count + 8;
    l.ids_count = l.ptr_data + 4 * getU64(b, l.ptr_count);
    l.ids_data = l.ids_count + 8;
    return l;
}

/** Rows, pointers and ids of whatever was decoded. */
void
view(const Graph &g, std::uint64_t &rows,
     const std::vector<std::uint32_t> *&ptr,
     const std::vector<std::uint32_t> *&ids)
{
    rows = g.num_vertices;
    ptr = &g.offsets;
    ids = &g.edges;
}

void
view(const SparseMatrix &m, std::uint64_t &rows,
     const std::vector<std::uint32_t> *&ptr,
     const std::vector<std::uint32_t> *&ids)
{
    rows = m.n;
    ptr = &m.row_ptr;
    ids = &m.col;
    EXPECT_EQ(m.val.size(), m.col.size());
}

/**
 * Decodes @p blob; returns whether it parsed.  Failures must be typed;
 * a parse must be a CSR every workload can index blindly and no larger
 * than the bytes that carried it.
 */
template <class Input>
bool
decodeChecked(const Bytes &blob, const std::string &what)
{
    Input out;
    const ckpt::CkptIoResult r =
        ckpt::decodeInputSnapshot(blob, kName, out);
    if (!r.ok()) {
        EXPECT_NE(r.status, ckpt::CkptIoStatus::Ok) << what;
        EXPECT_FALSE(r.message().empty()) << what;
        return false;
    }
    std::uint64_t rows = 0;
    const std::vector<std::uint32_t> *ptr = nullptr, *ids = nullptr;
    view(out, rows, ptr, ids);
    EXPECT_LE(out.bytes(), blob.size()) << what;
    EXPECT_EQ(ptr->size(), rows + 1) << what;
    if (ptr->size() != rows + 1)
        return true;
    EXPECT_EQ(ptr->front(), 0u) << what;
    for (std::uint64_t v = 0; v < rows; ++v)
        EXPECT_LE((*ptr)[v], (*ptr)[v + 1]) << what << " row " << v;
    EXPECT_EQ(ptr->back(), ids->size()) << what;
    for (std::uint32_t id : *ids)
        EXPECT_LT(id, rows) << what;
    return true;
}

template <class Input>
void
mutateAll(const Bytes &valid, const char *kind)
{
    ASSERT_TRUE(decodeChecked<Input>(valid, kind)) << kind;
    const Layout l = layoutOf(valid);
    Rng rng(kind[0] == 'g' ? 101 : 202);

    // Bit flips: raw (the checksum catches them) and resealed (the
    // section table and payload must catch them).
    for (int round = 0; round < 400; ++round) {
        Bytes b = valid;
        const std::size_t at = rng.below(b.size());
        b[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
        const std::string what = std::string(kind) + " flip @" +
                                 std::to_string(at);
        EXPECT_FALSE(decodeChecked<Input>(b, what)) << what;
        reseal(b);
        decodeChecked<Input>(b, what + " resealed");
    }

    // Truncations: every length short of a full blob, raw and resealed.
    for (std::size_t len = 0; len < valid.size(); ++len) {
        Bytes b(valid.begin(), valid.begin() + len);
        const std::string what =
            std::string(kind) + " truncated to " + std::to_string(len);
        EXPECT_FALSE(decodeChecked<Input>(b, what)) << what;
        reseal(b);
        EXPECT_FALSE(decodeChecked<Input>(b, what + " resealed")) << what;
    }

    // A lying payload length.
    const std::uint64_t len = getU64(valid, l.payload_len);
    for (std::uint64_t lie :
         {std::uint64_t{0}, len - 1, len + 1, len + 8,
          std::uint64_t{valid.size()}, std::uint64_t{1} << 40,
          ~std::uint64_t{0}}) {
        Bytes b = valid;
        putU64(b, l.payload_len, lie);
        reseal(b);
        EXPECT_FALSE(decodeChecked<Input>(b, "payload_len " +
                                                 std::to_string(lie)))
            << kind << " payload_len " << lie;
    }

    // Lying counts and contents, resealed: each must be rejected.
    const std::uint64_t rows = getU64(valid, l.rows);
    const std::uint64_t ptrs = getU64(valid, l.ptr_count);
    const std::uint64_t ids = getU64(valid, l.ids_count);
    const std::uint64_t last = ptrs - 1;
    auto u32At = [](std::size_t base, std::uint64_t i) {
        return base + 4 * static_cast<std::size_t>(i);
    };
    auto putU32 = [](Bytes &b, std::size_t at, std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    };
    struct Lie {
        std::string what;
        std::size_t at;
        std::uint64_t value;
        bool u32;
    };
    const std::vector<Lie> lies = {
        {"rows 0", l.rows, 0, false},
        {"rows - 1", l.rows, rows - 1, false},
        {"rows + 1", l.rows, rows + 1, false},
        {"rows 2^32 - 1", l.rows, 0xffffffffu, false},
        {"ptr count + 1", l.ptr_count, ptrs + 1, false},
        {"ptr count - 1", l.ptr_count, ptrs - 1, false},
        {"ptr count 2^61", l.ptr_count, std::uint64_t{1} << 61, false},
        {"ids count + 1", l.ids_count, ids + 1, false},
        {"ids count - 1", l.ids_count, ids - 1, false},
        {"ids count 2^62", l.ids_count, std::uint64_t{1} << 62, false},
        {"first offset 1", u32At(l.ptr_data, 0), 1, true},
        {"offset decreases", u32At(l.ptr_data, rows / 2), 0, true},
        {"offset past the ids", u32At(l.ptr_data, rows / 2), ids + 5,
         true},
        {"last offset + 1", u32At(l.ptr_data, last), ids + 1, true},
        {"last offset - 1", u32At(l.ptr_data, last), ids - 1, true},
        {"id = rows", u32At(l.ids_data, ids / 2), rows, true},
        {"id = 2^32 - 1", u32At(l.ids_data, 0), 0xffffffffu, true},
    };
    for (const Lie &lie : lies) {
        Bytes b = valid;
        if (lie.u32)
            putU32(b, lie.at, static_cast<std::uint32_t>(lie.value));
        else
            putU64(b, lie.at, lie.value);
        reseal(b);
        EXPECT_FALSE(decodeChecked<Input>(b, lie.what))
            << kind << ": " << lie.what;
    }
}

TEST(InputSnapshotMutationTest, GraphBlobMutationsAreTypedOrValid)
{
    mutateAll<Graph>(graphBlob(), "graph");
}

TEST(InputSnapshotMutationTest, MatrixBlobMutationsAreTypedOrValid)
{
    mutateAll<SparseMatrix>(matrixBlob(), "matrix");
}

TEST(InputSnapshotMutationTest, PayloadOfAnotherInputIsRejected)
{
    Graph g;
    EXPECT_EQ(ckpt::decodeInputSnapshot(graphBlob(), "other", g).status,
              ckpt::CkptIoStatus::BadSection);
    SparseMatrix m;
    EXPECT_EQ(ckpt::decodeInputSnapshot(graphBlob(), kName, m).status,
              ckpt::CkptIoStatus::BadSection);
}

TEST(InputSnapshotMutationTest, InconsistentSnapshotIsQuarantinedAndRegenerated)
{
    const std::string root =
        (fs::temp_directory_path() / "rnr_input_mutation_test").string();
    fs::remove_all(root);
    setenv("RNR_CKPT_DIR", root.c_str(), 1);
    unsetenv("RNR_CKPT");
    ckpt::CheckpointStore &store = ckpt::CheckpointStore::instance();
    store.resetForTest();
    ckpt::resetInputForkForTest();

    ExperimentConfig cfg;
    cfg.app = "pagerank";
    cfg.input = "amazon";
    const Graph want = ckpt::forkGraphInput(cfg);

    // Republish the snapshot with one id out of range and a valid
    // checksum: the blob passes, the CSR must not.
    const std::string key = ckpt::inputSnapshotKey(cfg);
    Graph bad = want;
    bad.edges[bad.edges.size() / 2] = bad.num_vertices;
    {
        const Bytes blob = ckpt::encodeInputSnapshot(key, cfg.input, bad);
        std::ofstream out(store.blobs().entryPath(key),
                          std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(blob.data()),
                  static_cast<std::streamsize>(blob.size()));
    }
    store.resetForTest();
    ckpt::resetInputForkForTest();

    ::testing::internal::CaptureStderr();
    const Graph got = ckpt::forkGraphInput(cfg);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;
    EXPECT_EQ(got.offsets, want.offsets);
    EXPECT_EQ(got.edges, want.edges);
    EXPECT_EQ(store.blobs().quarantines(), 1u);
    EXPECT_EQ(store.warmups(), 1u);
    EXPECT_EQ(store.forks(), 0u);

    store.resetForTest();
    ckpt::resetInputForkForTest();
    unsetenv("RNR_CKPT_DIR");
    fs::remove_all(root);
}

} // namespace
} // namespace rnr
