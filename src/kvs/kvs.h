// Replicated key-value store: the state machine used throughout the paper's evaluation
// (§5.7) and the examples.
#ifndef SRC_KVS_KVS_H_
#define SRC_KVS_KVS_H_

#include <string>
#include <unordered_map>

#include "src/smr/command.h"
#include "src/smr/state_machine.h"

namespace kvs {

// In-memory KVS. Supported commands:
//   kGet   -> returns the value stored under key ("" if absent)
//   kPut   -> stores value under key, returns ""
//   kRmw   -> appends value to the current value, returns the previous value
//   kScan  -> returns the concatenation of values under key + more_keys
//   kMPut  -> stores value under key and every key in more_keys
//   kRange -> "" (ordered iteration is not defined on a hash map; see OrderedKvs)
//   kNoOp  -> no effect
class KvStore final : public smr::StateMachine {
 public:
  std::string Apply(const smr::Command& cmd) override;
  uint64_t StateDigest() const override;
  void SnapshotTo(codec::Writer& w) const override;
  bool RestoreFrom(codec::Reader& r) override;

  size_t size() const { return map_.size(); }
  const std::string* Lookup(const std::string& key) const;

 private:
  std::unordered_map<std::string, std::string> map_;
};

}  // namespace kvs

#endif  // SRC_KVS_KVS_H_
