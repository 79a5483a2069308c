/**
 * @file
 * The in-process input memo.
 *
 * Generating an input (CSR graph or matrix synthesis) is the warm-up
 * the cells of a sweep share: the prefetcher configs of one figure
 * row, PageRank and Hyper-ANF on one graph, every window of a Fig 14
 * sweep.  Generation reads only the input name, so the memo keys by
 * input, not by workload.
 *
 * While an InputMemoScope is open (SweepRunner::run opens one), the
 * first cell to need an input builds it and every other cell gets a
 * copy; threads asking for an input under construction wait for it.
 * The last scope to close frees the memo.  Outside a scope every call
 * builds its input, so a one-cell process holds one copy, not two.
 * A memoised input is bit-identical to a generated one, so results do
 * not depend on the memo.
 *
 * Accounting (CheckpointStore counters): warmups = inputs built,
 * forks = inputs the memo served.
 */
#ifndef RNR_INPUT_FORK_H
#define RNR_INPUT_FORK_H

#include "harness/experiment.h"
#include "workloads/graph.h"
#include "workloads/sparse.h"

namespace rnr {
namespace ckpt {

/** Keeps the memo alive; scopes nest and may overlap across threads. */
class InputMemoScope
{
  public:
    InputMemoScope();
    ~InputMemoScope();
    InputMemoScope(const InputMemoScope &) = delete;
    InputMemoScope &operator=(const InputMemoScope &) = delete;
};

/** The graph input for @p cfg, from the memo when one is open. */
Graph forkGraphInput(const ExperimentConfig &cfg);

/** The matrix input for @p cfg, from the memo when one is open. */
SparseMatrix forkMatrixInput(const ExperimentConfig &cfg);

} // namespace ckpt
} // namespace rnr

#endif // RNR_INPUT_FORK_H
