/**
 * @file
 * Checkpoint-fork of generated workload inputs.
 *
 * Generating an input (CSR graph / matrix synthesis) is the shared
 * warm-up of every sweep: the 6+ prefetcher configs of one figure row
 * all construct the identical input before simulating.  These helpers
 * make that warm-up run once per workload key — the first caller
 * generates natively and publishes an *input snapshot* (window 0,
 * Input section only) to the CheckpointStore; everyone else *forks*
 * it, from the in-process memo when the sweep shares this process and
 * from the snapshot file when it spans processes (bench binaries
 * sharing one rnr_ckpt/ directory).
 *
 * The forked input is bit-identical to a generated one (the snapshot
 * carries the exact CSR arrays), so sweep JSON is byte-identical with
 * the store on or off — CI compares both.  RNR_CKPT=0 bypasses
 * everything and generates natively.
 *
 * Accounting (CheckpointStore counters, surfaced on the sweep's
 * stderr line and in the JSON "host" object):
 *   warmups — inputs generated natively (memo + store both missed);
 *   forks   — inputs served from the memo or a snapshot.
 */
#ifndef RNR_CKPT_INPUT_FORK_H
#define RNR_CKPT_INPUT_FORK_H

#include "harness/experiment.h"
#include "workloads/graph.h"
#include "workloads/sparse.h"

namespace rnr {
namespace ckpt {

/** The graph input for @p cfg, forked when possible. */
Graph forkGraphInput(const ExperimentConfig &cfg);

/** The matrix input for @p cfg, forked when possible. */
SparseMatrix forkMatrixInput(const ExperimentConfig &cfg);

/** Drops the in-process input memo (tests that repoint $RNR_CKPT_DIR
 *  or assert exact warm-up/fork counts). */
void resetInputForkForTest();

} // namespace ckpt
} // namespace rnr

#endif // RNR_CKPT_INPUT_FORK_H
