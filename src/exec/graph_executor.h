// Dependency-graph command executor (Algorithm 3 of the paper).
//
// Committed commands form a directed graph (dot -> its dependencies). The paper's
// execution rule — repeatedly execute the smallest batch S of committed commands whose
// dependencies lie in S or are already executed, ordering commands inside a batch by a
// fixed total order on identifiers — is implemented incrementally:
//
//   * a batch is exactly a strongly connected component of the committed-but-unexecuted
//     subgraph all of whose outgoing edges lead to executed commands;
//   * when a command commits, we run an iterative Tarjan walk from it over committed
//     nodes; if every transitively reachable dependency is committed, all reachable
//     SCCs execute in reverse topological order; otherwise the walk parks the root on
//     the first missing dependency and is retried when that dependency commits.
//
// The same executor serves Atlas (in-batch order: Dot) and EPaxos (in-batch order:
// (seq, Dot)) via the Order parameter. Equivalence with the paper's smallest-batch
// definition is exercised by property tests in tests/exec_test.cc.
#ifndef SRC_EXEC_GRAPH_EXECUTOR_H_
#define SRC_EXEC_GRAPH_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/common/dep_set.h"
#include "src/common/dot_map.h"
#include "src/common/dot_set.h"
#include "src/common/types.h"
#include "src/smr/command.h"

namespace exec {

enum class BatchOrder {
  kDot,     // Atlas: fixed total order "<" on identifiers
  kSeqDot,  // EPaxos: sequence number, then identifier
};

class GraphExecutor {
 public:
  using ExecuteFn = std::function<void(const common::Dot&, const smr::Command&)>;

  GraphExecutor(BatchOrder order, ExecuteFn execute);

  // Delivers the final (consensus-agreed) command and dependencies for dot.
  // Idempotent: re-commits of the same dot are ignored (Integrity).
  void Commit(const common::Dot& dot, smr::Command cmd, common::DepSet deps,
              uint64_t seqno = 0);

  bool IsCommitted(const common::Dot& dot) const;
  bool IsExecuted(const common::Dot& dot) const { return executed_.Contains(dot); }

  // Committed-but-not-yet-executed commands (blocked on missing dependencies).
  size_t PendingCount() const { return pending_count_; }
  uint64_t ExecutedCount() const { return executed_count_; }
  // Size of the largest batch (SCC) executed so far; ablation metric (§5.5).
  size_t MaxBatch() const { return max_batch_; }

 private:
  struct Node {
    smr::Command cmd;
    common::DepSet deps;
    uint64_t seqno = 0;
    // Tarjan bookkeeping (valid during one TryExecute call, keyed by epoch).
    uint64_t visit_epoch = 0;
    uint32_t index = 0;
    uint32_t lowlink = 0;
    bool on_stack = false;
  };

  // Attempts to execute the SCC closure reachable from root. Returns nullopt on
  // success, or the first uncommitted dependency encountered (root is parked on it).
  std::optional<common::Dot> TryExecute(const common::Dot& root);
  void RunBatch(common::Dot* begin, common::Dot* end);

  BatchOrder order_;
  ExecuteFn execute_;

  // Committed-but-unexecuted nodes in an open-addressed flat map (src/common/
  // dot_map.h): the commit/execute hot path allocates no per-node hash buckets, and
  // probes hit one contiguous array. References into it are invalidated by rehash;
  // the walk below only holds them between mutations.
  common::DotMap<Node> nodes_;
  // Executed dots are dense per process, so a bitmap set beats a node-based hash set
  // and inserts without per-element allocation (the execute hot path).
  common::DenseDotSet executed_;
  // dep dot -> dots whose execution attempt parked on it.
  common::DotMap<std::vector<common::Dot>> waiters_;

  uint64_t epoch_ = 0;
  size_t pending_count_ = 0;
  uint64_t executed_count_ = 0;
  size_t max_batch_ = 0;
  // Dots whose waiters must be retried (drained by Commit).
  std::vector<common::Dot> progressed_;

  // Tarjan walk scratch, reused across TryExecute calls so the per-commit steady
  // state performs no allocation (vectors keep their high-water capacity).
  struct Frame {
    common::Dot dot;
    size_t dep_index = 0;
  };
  std::vector<Frame> walk_stack_;
  std::vector<common::Dot> tarjan_stack_;
  // SCCs of one walk, flattened: batch i spans batch_bounds_[i-1]..batch_bounds_[i).
  std::vector<common::Dot> batch_dots_;
  std::vector<size_t> batch_bounds_;
  bool in_walk_ = false;
};

}  // namespace exec

#endif  // SRC_EXEC_GRAPH_EXECUTOR_H_
