/**
 * @file
 * Checkpoint-fork of generated workload inputs.
 *
 * Generating an input (CSR graph / matrix synthesis) is the shared
 * warm-up of every sweep: the 6+ prefetcher configs of one figure row
 * all construct the identical input before simulating.  These helpers
 * make that warm-up run once per input: the first caller generates
 * natively and publishes an *input snapshot* to the CheckpointStore;
 * everyone else *forks* it, from the in-process memo when the sweep
 * shares this process and from the snapshot file when it spans
 * processes (bench binaries sharing one rnr_ckpt/ directory).
 *
 * Generation reads only the input name, so the store key is the input
 * (inputSnapshotKey()), not the workload: PageRank and Hyper-ANF on one
 * graph, and every window of a Fig 14 sweep, share one snapshot.
 *
 * A snapshot is one blob (harness/blob_store.h) whose payload is
 * `u64 tag` (1 = graph, 2 = matrix), `str` input name, then the
 * input's visitState fields.  The forked input is bit-identical to a
 * generated one, so sweep JSON is byte-identical with the store on or
 * off; CI compares both.  A snapshot whose blob is sound but whose CSR
 * is inconsistent (offsets out of order or out of range, an id >= the
 * vertex count) is rejected like a corrupt one: quarantined and
 * regenerated.  RNR_CKPT=0 bypasses everything and generates natively.
 *
 * Accounting (CheckpointStore counters, surfaced on the sweep's
 * stderr line and in the JSON "host" object):
 *   warmups — inputs generated natively (memo + store both missed);
 *   forks   — inputs served from the memo or a snapshot.
 */
#ifndef RNR_CKPT_INPUT_FORK_H
#define RNR_CKPT_INPUT_FORK_H

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/serde.h"
#include "harness/experiment.h"
#include "workloads/graph.h"
#include "workloads/sparse.h"

namespace rnr {
namespace ckpt {

/** Bumped whenever a generator's output changes (graph_gen.cc,
 *  sparse_gen.cc or the CSR builders): snapshots of an older version
 *  are never looked up again.  The model epoch does not cover this:
 *  golden.json pins only the amazon and atmosmodj inputs. */
inline constexpr unsigned kInputGeneratorVersion = 1;

/** Store key of @p cfg's input snapshot,
 *  "input:<graph|matrix>:<input>:g<kInputGeneratorVersion>". */
std::string inputSnapshotKey(const ExperimentConfig &cfg);

/** The graph input for @p cfg, forked when possible. */
Graph forkGraphInput(const ExperimentConfig &cfg);

/** The matrix input for @p cfg, forked when possible. */
SparseMatrix forkMatrixInput(const ExperimentConfig &cfg);

/** The snapshot blob published for input @p name under store key
 *  @p key: the payload is serialised straight into the blob. */
std::vector<std::uint8_t> encodeInputSnapshot(const std::string &key,
                                              const std::string &name,
                                              const Graph &g);
std::vector<std::uint8_t> encodeInputSnapshot(const std::string &key,
                                              const std::string &name,
                                              const SparseMatrix &m);

/**
 * Decodes an input snapshot of input @p name.  Every failure is typed:
 * a bad blob as BlobStore::parse reports it, a short payload as
 * Truncated, and a payload of another input or a CSR that is not
 * consistent as BadSection.  @p out is only valid on success.
 */
CkptIoResult decodeInputSnapshot(const std::vector<std::uint8_t> &blob,
                                 const std::string &name, Graph &out);
CkptIoResult decodeInputSnapshot(const std::vector<std::uint8_t> &blob,
                                 const std::string &name,
                                 SparseMatrix &out);

/** Drops the in-process input memo (tests that repoint $RNR_CKPT_DIR
 *  or assert exact warm-up/fork counts). */
void resetInputForkForTest();

} // namespace ckpt
} // namespace rnr

#endif // RNR_CKPT_INPUT_FORK_H
