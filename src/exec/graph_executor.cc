#include "src/exec/graph_executor.h"

#include <algorithm>

#include "src/common/check.h"

namespace exec {

GraphExecutor::GraphExecutor(BatchOrder order, ExecuteFn execute)
    : order_(order), execute_(std::move(execute)) {
  CHECK(execute_ != nullptr);
}

bool GraphExecutor::IsCommitted(const common::Dot& dot) const {
  return executed_.Contains(dot) || nodes_.Contains(dot);
}

void GraphExecutor::Commit(const common::Dot& dot, smr::Command cmd, common::DepSet deps,
                           uint64_t seqno) {
  if (IsCommitted(dot)) {
    return;
  }
  Node& node = nodes_[dot];
  node.cmd = std::move(cmd);
  node.deps = std::move(deps);
  node.seqno = seqno;
  pending_count_++;

  std::optional<common::Dot> missing = TryExecute(dot);
  if (missing.has_value()) {
    // `dot` is committed but transitively blocked on `missing` (TryExecute parked it
    // there). Anything parked on `dot` is blocked on `missing` too: transfer the
    // waiter list wholesale instead of re-walking each waiter — this keeps adversarial
    // commit orders (e.g. a long chain committed in reverse) linear instead of cubic.
    std::vector<common::Dot>* parked = waiters_.Find(dot);
    if (parked != nullptr) {
      std::vector<common::Dot> moved = std::move(*parked);
      waiters_.Erase(dot);
      std::vector<common::Dot>& dst = waiters_[*missing];
      if (dst.empty()) {
        dst = std::move(moved);
      } else {
        dst.insert(dst.end(), moved.begin(), moved.end());
      }
    }
    return;
  }
  // Execution happened. Worklist of dots whose state advanced: waiters parked on them
  // must retry. RunBatch appends executed dots via progressed_, so unblocking cascades
  // through long chains without recursion.
  progressed_.push_back(dot);
  while (!progressed_.empty()) {
    common::Dot d = progressed_.back();
    progressed_.pop_back();
    std::vector<common::Dot>* parked = waiters_.Find(d);
    if (parked == nullptr) {
      continue;
    }
    std::vector<common::Dot> retry = std::move(*parked);
    waiters_.Erase(d);
    for (const common::Dot& w : retry) {
      if (nodes_.Contains(w)) {
        TryExecute(w);
      }
    }
  }
}

std::optional<common::Dot> GraphExecutor::TryExecute(const common::Dot& root) {
  Node* root_node = nodes_.Find(root);
  if (root_node == nullptr) {
    return std::nullopt;
  }
  epoch_++;

  // Iterative Tarjan over committed nodes. If any reachable dependency is uncommitted,
  // park the root on it and abort; otherwise every reachable SCC is executable and SCCs
  // complete (pop) in reverse topological order — exactly batch order. All walk state
  // lives in member scratch vectors reused across calls (no per-commit allocation).
  // Member scratch is not reentrancy-safe: an execute_ callback must never commit
  // synchronously (drivers schedule follow-up work through their event loop instead).
  CHECK(!in_walk_);
  in_walk_ = true;
  walk_stack_.clear();
  tarjan_stack_.clear();
  batch_dots_.clear();
  batch_bounds_.clear();
  uint32_t next_index = 0;

  auto push_node = [&](const common::Dot& d, Node& node) {
    node.visit_epoch = epoch_;
    node.index = next_index;
    node.lowlink = next_index;
    node.on_stack = true;
    next_index++;
    tarjan_stack_.push_back(d);
    walk_stack_.push_back(Frame{d, 0});
  };

  push_node(root, *root_node);

  while (!walk_stack_.empty()) {
    Frame& frame = walk_stack_.back();
    // The walk never mutates nodes_ (waiters_ is a separate map), so these
    // references stay valid for the loop body.
    Node& node = *nodes_.Find(frame.dot);
    if (frame.dep_index < node.deps.size()) {
      const common::Dot& dep = node.deps.dots()[frame.dep_index++];
      if (executed_.Contains(dep)) {
        continue;
      }
      Node* dep_found = nodes_.Find(dep);
      if (dep_found == nullptr) {
        // Uncommitted dependency: the batch containing root cannot form yet.
        waiters_[dep].push_back(root);
        // Clear on_stack flags for a clean next epoch (epoch check handles the rest).
        for (const common::Dot& d : tarjan_stack_) {
          nodes_.Find(d)->on_stack = false;
        }
        in_walk_ = false;
        return dep;
      }
      Node& dep_node = *dep_found;
      if (dep_node.visit_epoch != epoch_) {
        push_node(dep, dep_node);
      } else if (dep_node.on_stack) {
        node.lowlink = std::min(node.lowlink, dep_node.index);
      }
      continue;
    }
    // Node finished: propagate lowlink to parent, pop SCC if root of one.
    uint32_t lowlink = node.lowlink;
    uint32_t index = node.index;
    common::Dot done = frame.dot;
    walk_stack_.pop_back();
    if (!walk_stack_.empty()) {
      Node& parent = *nodes_.Find(walk_stack_.back().dot);
      parent.lowlink = std::min(parent.lowlink, lowlink);
    }
    if (lowlink == index) {
      while (true) {
        common::Dot d = tarjan_stack_.back();
        tarjan_stack_.pop_back();
        nodes_.Find(d)->on_stack = false;
        batch_dots_.push_back(d);
        if (d == done) {
          break;
        }
      }
      batch_bounds_.push_back(batch_dots_.size());
    }
  }

  // SCCs completed in reverse topological order (dependencies first): execute in that
  // order. The flattened scratch stays valid because RunBatch only sorts in place.
  size_t begin = 0;
  for (size_t bound : batch_bounds_) {
    RunBatch(batch_dots_.data() + begin, batch_dots_.data() + bound);
    begin = bound;
  }
  in_walk_ = false;
  return std::nullopt;
}

void GraphExecutor::RunBatch(common::Dot* begin, common::Dot* end) {
  if (order_ == BatchOrder::kDot) {
    std::sort(begin, end);
  } else {
    std::sort(begin, end, [this](const common::Dot& a, const common::Dot& b) {
      const Node& na = *nodes_.Find(a);
      const Node& nb = *nodes_.Find(b);
      if (na.seqno != nb.seqno) {
        return na.seqno < nb.seqno;
      }
      return a < b;
    });
  }
  max_batch_ = std::max(max_batch_, static_cast<size_t>(end - begin));
  for (common::Dot* cur = begin; cur != end; ++cur) {
    const common::Dot& d = *cur;
    Node* node = nodes_.Find(d);
    CHECK(node != nullptr);
    execute_(d, node->cmd);
    executed_.Insert(d);
    executed_count_++;
    nodes_.Erase(d);
    CHECK_GT(pending_count_, 0u);
    pending_count_--;
    if (waiters_.Contains(d)) {
      progressed_.push_back(d);
    }
  }
}

}  // namespace exec
