// Ordered-map backend: the second state machine behind the smr::StateMachine
// seam, proving the deployment composes with backends other than the hash-map
// KvStore (register it via DeploymentOptions::state_machine_factory).
//
// Same command set as KvStore plus kRange: an ordered scan over [key,
// more_keys[0]) returning the concatenation of values in key order.
#ifndef SRC_KVS_ORDERED_KVS_H_
#define SRC_KVS_ORDERED_KVS_H_

#include <map>
#include <string>

#include "src/smr/command.h"
#include "src/smr/state_machine.h"

namespace kvs {

class OrderedKvs final : public smr::StateMachine {
 public:
  std::string Apply(const smr::Command& cmd) override;
  // Same per-entry hash fold as KvStore: order-independent, so the two
  // backends are digest-comparable over range-free histories.
  uint64_t StateDigest() const override;
  void SnapshotTo(codec::Writer& w) const override;
  bool RestoreFrom(codec::Reader& r) override;

  size_t size() const { return map_.size(); }
  const std::map<std::string, std::string>& entries() const { return map_; }

 private:
  // Appends this store's entries in [begin, end) to out, in key order.
  void AppendRange(const std::string& begin, const std::string& end,
                   std::string& out) const;

  std::map<std::string, std::string> map_;
};

}  // namespace kvs

#endif  // SRC_KVS_ORDERED_KVS_H_
