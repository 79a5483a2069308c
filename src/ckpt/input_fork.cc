#include "ckpt/input_fork.h"

#include <cstdio>
#include <map>
#include <mutex>
#include <utility>

#include "ckpt/checkpoint.h"
#include "ckpt/ckpt_store.h"
#include "workloads/graph_gen.h"
#include "workloads/sparse_gen.h"

namespace rnr {
namespace ckpt {

namespace {

/** Per-input-type wire constants.  Payload tags are wire ABI (append
 *  only); the kind names the input in its store key. */
template <class Input>
struct InputKind;
template <>
struct InputKind<Graph> {
    static constexpr std::uint64_t kTag = 1;
    static constexpr const char *kName = "graph";
};
template <>
struct InputKind<SparseMatrix> {
    static constexpr std::uint64_t kTag = 2;
    static constexpr const char *kName = "matrix";
};

std::mutex g_memo_mu;
std::map<std::string, Graph> g_graph_memo;     ///< by input name
std::map<std::string, SparseMatrix> g_matrix_memo;

template <class Input>
std::string
inputKey(const std::string &name)
{
    return std::string("input:") + InputKind<Input>::kName + ":" + name +
           ":g" + std::to_string(kInputGeneratorVersion);
}

template <class Input>
std::vector<std::uint8_t>
encodeInput(const std::string &key, const std::string &name,
            const Input &input)
{
    SnapshotWriter w(SnapshotHeader{key, "", 0});
    Ser &s = w.section(SectionId::Input);
    s.scalar(InputKind<Input>::kTag);
    std::string n = name;
    s.str(n);
    // visitState is shared with loading, hence non-const; Ser only
    // reads.
    const_cast<Input &>(input).visitState(s);
    return w.finish();
}

/** Why @p offsets / @p ids are not a CSR of @p n rows with ids below
 *  @p n; empty when they are one. */
std::string
csrProblem(std::uint64_t n, const std::vector<std::uint32_t> &offsets,
           const std::vector<std::uint32_t> &ids)
{
    if (offsets.size() != n + 1)
        return std::to_string(offsets.size()) + " offsets for " +
               std::to_string(n) + " rows";
    if (offsets[0] != 0)
        return "first offset is " + std::to_string(offsets[0]);
    for (std::uint64_t v = 0; v < n; ++v)
        if (offsets[v + 1] < offsets[v])
            return "offsets decrease at row " + std::to_string(v);
    if (offsets[n] != ids.size())
        return "last offset " + std::to_string(offsets[n]) + " for " +
               std::to_string(ids.size()) + " ids";
    for (std::uint32_t id : ids)
        if (id >= n)
            return "id " + std::to_string(id) + " out of range";
    return {};
}

std::string
inputProblem(const Graph &g)
{
    return csrProblem(g.num_vertices, g.offsets, g.edges);
}

std::string
inputProblem(const SparseMatrix &m)
{
    if (m.val.size() != m.col.size())
        return std::to_string(m.val.size()) + " values for " +
               std::to_string(m.col.size()) + " columns";
    return csrProblem(m.n, m.row_ptr, m.col);
}

template <class Input>
CkptIoResult
decodeInput(const std::vector<std::uint8_t> &blob, const std::string &name,
            Input &out)
{
    SnapshotReader reader;
    if (CkptIoResult r = reader.parse(blob); !r.ok())
        return r;
    if (!reader.hasSection(SectionId::Input))
        return CkptIoResult::fail(CkptIoStatus::BadSection,
                                  "no Input section");
    Deser d = reader.section(SectionId::Input);
    std::uint64_t t = 0;
    d.scalar(t);
    std::string n;
    d.str(n);
    if (!d.ok())
        return d.result();
    if (t != InputKind<Input>::kTag || n != name)
        return CkptIoResult::fail(CkptIoStatus::BadSection,
                                  "payload is " + n + " (tag " +
                                      std::to_string(t) + ")");
    out = Input{};
    out.visitState(d);
    if (!d.ok())
        return d.result();
    if (d.remaining() != 0)
        return CkptIoResult::fail(CkptIoStatus::BadSection,
                                  "trailing bytes after the input");
    if (std::string why = inputProblem(out); !why.empty())
        return CkptIoResult::fail(CkptIoStatus::BadSection, why);
    return {};
}

/**
 * Memo -> snapshot -> generate, in that order.  Generation depends only
 * on the input name, so both the memo and the store key by input.
 */
template <class Input, class Generate>
Input
forkInput(const ExperimentConfig &cfg, std::map<std::string, Input> &memo,
          Generate generate)
{
    if (!CheckpointStore::enabled())
        return generate(cfg.input);

    CheckpointStore &store = CheckpointStore::instance();
    {
        std::lock_guard<std::mutex> lock(g_memo_mu);
        auto it = memo.find(cfg.input);
        if (it != memo.end()) {
            store.noteFork();
            return it->second;
        }
    }

    const std::string key = inputKey<Input>(cfg.input);
    std::vector<std::uint8_t> blob;
    for (;;) {
        if (store.acquire(key, 0, blob) == CheckpointStore::Acquire::Hit) {
            Input forked;
            const CkptIoResult r = decodeInput(blob, cfg.input, forked);
            if (r.ok()) {
                // Free the snapshot bytes before the memo's copy is made
                // below: a fork then holds two copies of the input at
                // most, not three.
                std::vector<std::uint8_t>().swap(blob);
                store.noteFork();
                std::lock_guard<std::mutex> lock(g_memo_mu);
                return memo.emplace(cfg.input, std::move(forked))
                    .first->second;
            }
            std::fprintf(stderr,
                         "rnr: warning: ckpt: input snapshot rejected; "
                         "regenerating %s: %s\n",
                         key.c_str(), r.message().c_str());
            store.invalidate(key, 0);
            continue; // re-acquire: we likely become the owner
        }
        // Owner: the warm-up.  Generate natively, publish the
        // snapshot for other processes, memoize for this one.  A
        // throwing generator must release ownership or waiters wedge.
        Input generated;
        try {
            generated = generate(cfg.input);
        } catch (...) {
            store.abandon(key, 0);
            throw;
        }
        store.noteWarmup();
        store.publish(key, 0, encodeInput(key, cfg.input, generated));
        std::lock_guard<std::mutex> lock(g_memo_mu);
        return memo.emplace(cfg.input, std::move(generated))
            .first->second;
    }
}

} // namespace

std::string
inputSnapshotKey(const ExperimentConfig &cfg)
{
    // The apps makeWorkload() builds on a matrix input.
    if (cfg.app == "spcg" || cfg.app == "jacobi")
        return inputKey<SparseMatrix>(cfg.input);
    return inputKey<Graph>(cfg.input);
}

Graph
forkGraphInput(const ExperimentConfig &cfg)
{
    return forkInput<Graph>(
        cfg, g_graph_memo,
        [](const std::string &name) { return makeGraphInput(name).graph; });
}

SparseMatrix
forkMatrixInput(const ExperimentConfig &cfg)
{
    return forkInput<SparseMatrix>(cfg, g_matrix_memo,
                                   [](const std::string &name) {
                                       return makeMatrixInput(name).matrix;
                                   });
}

std::vector<std::uint8_t>
encodeInputSnapshot(const std::string &key, const std::string &name,
                    const Graph &g)
{
    return encodeInput(key, name, g);
}

std::vector<std::uint8_t>
encodeInputSnapshot(const std::string &key, const std::string &name,
                    const SparseMatrix &m)
{
    return encodeInput(key, name, m);
}

CkptIoResult
decodeInputSnapshot(const std::vector<std::uint8_t> &blob,
                    const std::string &name, Graph &out)
{
    return decodeInput(blob, name, out);
}

CkptIoResult
decodeInputSnapshot(const std::vector<std::uint8_t> &blob,
                    const std::string &name, SparseMatrix &out)
{
    return decodeInput(blob, name, out);
}

void
resetInputForkForTest()
{
    std::lock_guard<std::mutex> lock(g_memo_mu);
    g_graph_memo.clear();
    g_matrix_memo.clear();
}

} // namespace ckpt
} // namespace rnr
