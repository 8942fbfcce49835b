// The deterministic state machine interface (§2 of the paper), plus the
// snapshot seam: SnapshotTo/RestoreFrom serialize the full state through the
// codec, so the durability tier (src/dur) can persist and recover any backend
// without knowing its representation. Replicas apply committed commands one at
// a time, inline on the thread that runs the shard's engine.
#ifndef SRC_SMR_STATE_MACHINE_H_
#define SRC_SMR_STATE_MACHINE_H_

#include <cstdint>
#include <string>

#include "src/codec/codec.h"
#include "src/smr/command.h"

namespace smr {

class StateMachine {
 public:
  virtual ~StateMachine() = default;

  // Applies cmd and returns its response value. Must be deterministic.
  virtual std::string Apply(const Command& cmd) = 0;

  // A digest of the current state; replicas that executed the same command sequence
  // (modulo commutations) must produce equal digests. Used by the convergence checker.
  virtual uint64_t StateDigest() const = 0;

  // Serializes the complete state. The encoding must be self-delimiting (a
  // RestoreFrom on the same reader position consumes exactly what SnapshotTo
  // wrote), so a snapshot can sit inside a larger envelope.
  virtual void SnapshotTo(codec::Writer& w) const = 0;
  // Rebuilds state from a snapshot, replacing current contents. Returns false
  // (state unspecified) on malformed input — callers treat that as a corrupt
  // snapshot and fall back to log replay from genesis.
  virtual bool RestoreFrom(codec::Reader& r) = 0;
};

}  // namespace smr

#endif  // SRC_SMR_STATE_MACHINE_H_
