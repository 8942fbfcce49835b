#include "src/kvs/ordered_kvs.h"

#include <utility>
#include <vector>

namespace kvs {

std::string OrderedKvs::Apply(const smr::Command& cmd) {
  switch (cmd.op) {
    case smr::Op::kNoOp:
      return "";
    case smr::Op::kGet: {
      auto it = map_.find(cmd.key);
      return it == map_.end() ? "" : it->second;
    }
    case smr::Op::kPut:
      map_[cmd.key].assign(cmd.value.data(), cmd.value.size());
      return "";
    case smr::Op::kRmw: {
      std::string& v = map_[cmd.key];
      std::string prev = v;
      v.append(cmd.value.data(), cmd.value.size());
      return prev;
    }
    case smr::Op::kScan: {
      std::string out;
      auto it = map_.find(cmd.key);
      if (it != map_.end()) {
        out += it->second;
      }
      for (const auto& k : cmd.more_keys) {
        auto jt = map_.find(k);
        if (jt != map_.end()) {
          out += jt->second;
        }
      }
      return out;
    }
    case smr::Op::kMPut: {
      map_[cmd.key].assign(cmd.value.data(), cmd.value.size());
      for (const auto& k : cmd.more_keys) {
        map_[k].assign(cmd.value.data(), cmd.value.size());
      }
      return "";
    }
    case smr::Op::kBatch: {
      std::vector<smr::Command> subs;
      if (smr::UnpackBatch(cmd, subs)) {
        for (const smr::Command& sub : subs) {
          Apply(sub);
        }
      }
      return "";
    }
    case smr::Op::kRange: {
      if (cmd.more_keys.empty()) {
        return "";
      }
      std::string out;
      AppendRange(cmd.key, cmd.more_keys[0], out);
      return out;
    }
  }
  return "";
}

void OrderedKvs::AppendRange(const std::string& begin, const std::string& end,
                             std::string& out) const {
  for (auto it = map_.lower_bound(begin); it != map_.end() && it->first < end;
       ++it) {
    out += it->second;
  }
}

uint64_t OrderedKvs::StateDigest() const {
  // Identical per-entry fold to KvStore::StateDigest (order-independent XOR).
  uint64_t digest = 0;
  std::hash<std::string> h;
  for (const auto& [k, v] : map_) {
    uint64_t e = h(k) * 0x9e3779b97f4a7c15ull ^ h(v);
    e ^= e >> 29;
    e *= 0xbf58476d1ce4e5b9ull;
    digest ^= e;
  }
  return digest;
}

void OrderedKvs::SnapshotTo(codec::Writer& w) const {
  w.Varint(map_.size());
  for (const auto& [k, v] : map_) {
    w.Bytes(k);
    w.Bytes(v);
  }
}

bool OrderedKvs::RestoreFrom(codec::Reader& r) {
  map_.clear();
  uint64_t n = r.Varint();
  if (!r.ok() || n > r.remaining()) {
    return false;
  }
  for (uint64_t i = 0; i < n; i++) {
    std::string k = r.Bytes();
    std::string v = r.Bytes();
    if (!r.ok()) {
      map_.clear();
      return false;
    }
    map_[std::move(k)] = std::move(v);
  }
  return true;
}

}  // namespace kvs
