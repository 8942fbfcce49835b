// Atlas protocol configuration.
#ifndef SRC_CORE_CONFIG_H_
#define SRC_CORE_CONFIG_H_

#include <cstdint>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/smr/conflict_index.h"
#include "src/smr/recovery_scheduler.h"

namespace atlas {

struct Config {
  uint32_t n = 3;
  // Maximum number of concurrent site failures tolerated; 1 <= f <= floor((n-1)/2).
  uint32_t f = 1;

  // §4 optimizations.
  bool nfr = false;              // non-fault-tolerant reads
  bool prune_slow_path = true;   // propose the f-threshold union on the slow path

  // Dependency tracking mode (see src/smr/conflict_index.h).
  smr::IndexMode index_mode = smr::IndexMode::kCompressed;

  // Recovery scheduling: quorum proximity, commit timeout, scan pacing.
  smr::RecoverySettings recovery;

  void Validate() const {
    CHECK_GE(n, 3u);
    CHECK_GE(f, 1u);
    CHECK_LE(f, (n - 1) / 2);
  }

  size_t FastQuorumSize() const { return n / 2 + f; }
  size_t SlowQuorumSize() const { return f + 1; }
  size_t MajoritySize() const { return n / 2 + 1; }
  size_t RecoveryQuorumSize() const { return n - f; }
};

}  // namespace atlas

#endif  // SRC_CORE_CONFIG_H_
