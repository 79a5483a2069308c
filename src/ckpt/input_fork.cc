#include "ckpt/input_fork.h"

#include <map>
#include <mutex>
#include <utility>

#include "ckpt/checkpoint.h"
#include "ckpt/ckpt_store.h"
#include "obs/log.h"
#include "workloads/graph_gen.h"
#include "workloads/sparse_gen.h"

namespace rnr {
namespace ckpt {

namespace {

/** Input-section payload tags (wire ABI — append only). */
constexpr std::uint64_t kGraphTag = 1;
constexpr std::uint64_t kMatrixTag = 2;

std::mutex g_memo_mu;
std::map<std::string, Graph> g_graph_memo;     ///< by input name
std::map<std::string, SparseMatrix> g_matrix_memo;

template <class Input>
std::vector<std::uint8_t>
encodeInput(const std::string &wkey, std::uint64_t tag,
            const std::string &name, Input &input)
{
    SnapshotWriter w(SnapshotHeader{wkey, "", 0});
    Ser &s = w.section(SectionId::Input);
    std::uint64_t t = tag;
    s.scalar(t);
    std::string n = name;
    s.str(n);
    input.visitState(s);
    return w.finish();
}

/** Decodes an input snapshot's payload; false = wrong shape (the
 *  caller quarantines).  The container itself was already validated
 *  by CheckpointStore. */
template <class Input>
bool
decodeInput(const std::vector<std::uint8_t> &blob, std::uint64_t tag,
            const std::string &name, Input &out, std::string &why)
{
    SnapshotReader reader;
    if (CkptIoResult r = reader.parse(blob); !r.ok()) {
        why = r.message();
        return false;
    }
    if (!reader.hasSection(SectionId::Input)) {
        why = "no Input section";
        return false;
    }
    Deser d = reader.section(SectionId::Input);
    std::uint64_t t = 0;
    d.scalar(t);
    std::string n;
    d.str(n);
    if (d.ok() && (t != tag || n != name)) {
        why = "payload is " + n + " (tag " + std::to_string(t) + ")";
        return false;
    }
    out = Input{};
    out.visitState(d);
    if (!d.ok()) {
        why = d.result().message();
        return false;
    }
    return true;
}

/**
 * Memo -> snapshot -> generate, in that order.  @p memo keys by input
 * name (generation depends only on the name); the store keys by
 * workloadKey() (the fork-sweep's unit of sharing).
 */
template <class Input, class Generate>
Input
forkInput(const ExperimentConfig &cfg, std::uint64_t tag,
          std::map<std::string, Input> &memo, Generate generate)
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

    // One span per fork-or-generate operation: rejected-snapshot
    // retries and the store's own drop/publish records share an id.
    obs::SpanScope span;
    const std::string wkey = cfg.workloadKey();
    std::vector<std::uint8_t> blob;
    for (;;) {
        if (store.acquire(wkey, 0, blob) ==
            CheckpointStore::Acquire::Hit) {
            Input forked;
            std::string why;
            if (decodeInput(blob, tag, cfg.input, forked, why)) {
                // Free the snapshot bytes before the memo's copy is made
                // below: a fork then holds two copies of the input at
                // most, not three.
                std::vector<std::uint8_t>().swap(blob);
                store.noteFork();
                std::lock_guard<std::mutex> lock(g_memo_mu);
                return memo.emplace(cfg.input, std::move(forked))
                    .first->second;
            }
            obs::LogLine(obs::LogLevel::Warn, "ckpt")
                .msg("input snapshot rejected; regenerating")
                .kv("workload", wkey)
                .kv("why", why);
            store.invalidate(wkey, 0);
            continue; // re-acquire: we likely become the owner
        }
        // Owner: the warm-up.  Generate natively, publish the
        // snapshot for other processes, memoize for this one.  A
        // throwing generator must release ownership or waiters wedge.
        Input generated;
        try {
            generated = generate(cfg.input);
        } catch (...) {
            store.abandon(wkey, 0);
            throw;
        }
        store.noteWarmup();
        store.publish(wkey, 0,
                      encodeInput(wkey, tag, cfg.input, generated));
        std::lock_guard<std::mutex> lock(g_memo_mu);
        return memo.emplace(cfg.input, std::move(generated))
            .first->second;
    }
}

} // namespace

Graph
forkGraphInput(const ExperimentConfig &cfg)
{
    return forkInput<Graph>(
        cfg, kGraphTag, g_graph_memo,
        [](const std::string &name) { return makeGraphInput(name).graph; });
}

SparseMatrix
forkMatrixInput(const ExperimentConfig &cfg)
{
    return forkInput<SparseMatrix>(cfg, kMatrixTag, g_matrix_memo,
                                   [](const std::string &name) {
                                       return makeMatrixInput(name).matrix;
                                   });
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
