#include "ckpt/input_fork.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "ckpt/ckpt_store.h"
#include "workloads/graph_gen.h"
#include "workloads/sparse_gen.h"

namespace rnr {
namespace ckpt {

namespace {

/** One memoised input, built under its own lock: waiting for one
 *  input holds up no other. */
template <class Input>
struct Slot {
    std::mutex mu;
    bool built = false; ///< Guarded by mu; input is immutable once set.
    Input input;
};

template <class Input>
using Memo = std::map<std::string, std::shared_ptr<Slot<Input>>>;

std::mutex g_memo_mu;
unsigned g_scopes = 0; ///< Open InputMemoScopes.
Memo<Graph> g_graph_memo; ///< by input name
Memo<SparseMatrix> g_matrix_memo;

template <class Input, class Generate>
Input
forkInput(const std::string &name, Memo<Input> &memo, Generate generate)
{
    CheckpointStore &counts = CheckpointStore::instance();
    std::shared_ptr<Slot<Input>> slot;
    {
        std::lock_guard<std::mutex> lock(g_memo_mu);
        if (g_scopes > 0) {
            std::shared_ptr<Slot<Input>> &s = memo[name];
            if (!s)
                s = std::make_shared<Slot<Input>>();
            slot = s;
        }
    }
    if (!slot) {
        Input input = generate(name);
        counts.noteWarmup();
        return input;
    }
    {
        // A throwing generator leaves built unset: the next caller
        // builds it instead.
        std::lock_guard<std::mutex> lock(slot->mu);
        if (slot->built) {
            counts.noteFork();
        } else {
            slot->input = generate(name);
            slot->built = true;
            counts.noteWarmup();
        }
    }
    return slot->input;
}

} // namespace

InputMemoScope::InputMemoScope()
{
    std::lock_guard<std::mutex> lock(g_memo_mu);
    ++g_scopes;
}

InputMemoScope::~InputMemoScope()
{
    std::lock_guard<std::mutex> lock(g_memo_mu);
    if (--g_scopes == 0) {
        g_graph_memo.clear();
        g_matrix_memo.clear();
    }
}

Graph
forkGraphInput(const ExperimentConfig &cfg)
{
    return forkInput<Graph>(
        cfg.input, g_graph_memo,
        [](const std::string &name) { return makeGraphInput(name).graph; });
}

SparseMatrix
forkMatrixInput(const ExperimentConfig &cfg)
{
    return forkInput<SparseMatrix>(cfg.input, g_matrix_memo,
                                   [](const std::string &name) {
                                       return makeMatrixInput(name).matrix;
                                   });
}

} // namespace ckpt
} // namespace rnr
