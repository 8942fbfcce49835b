// Binary serialization used by every protocol message and the TCP transport framing.
//
// Format: little-endian fixed-width integers for sized fields, LEB128 varints for
// counts/ids, length-prefixed byte strings. Decoding is bounds-checked and never reads
// past the buffer; a failed decode poisons the Reader (ok() == false) rather than
// aborting, so malformed network input cannot crash a replica.
#ifndef SRC_CODEC_CODEC_H_
#define SRC_CODEC_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/dep_set.h"
#include "src/common/types.h"

namespace codec {

class Writer {
 public:
  Writer() = default;
  // Appends after the content of `buf`, keeping its capacity: a caller that sized
  // the buffer with SizeWriter encodes into it without reallocating.
  explicit Writer(std::vector<uint8_t> buf) : buf_(std::move(buf)) {}

  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void Varint(uint64_t v);
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Bytes(std::string_view s);
  void Dot(const common::Dot& d);
  void Deps(const common::DepSet& deps);

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }
  void Reserve(size_t n) { buf_.reserve(n); }
  // Drops the content but keeps the capacity: a long-lived Writer encodes message
  // after message without reallocating (clear-not-reallocate).
  void Clear() { buf_.clear(); }

 private:
  std::vector<uint8_t> buf_;
};

// Drop-in Writer replacement that only counts bytes. Encoding logic templated over
// the writer type (msg::EncodedSize, smr::Command::EncodeTo) computes exact wire
// sizes with zero allocation and zero byte shuffling.
class SizeWriter {
 public:
  void U8(uint8_t) { n_ += 1; }
  void U32(uint32_t) { n_ += 4; }
  void U64(uint64_t) { n_ += 8; }
  void Varint(uint64_t v) {
    n_ += 1;
    while (v >= 0x80) {
      n_ += 1;
      v >>= 7;
    }
  }
  void Bool(bool) { n_ += 1; }
  void Bytes(std::string_view s) {
    Varint(s.size());
    n_ += s.size();
  }
  void Dot(const common::Dot& d) {
    Varint(d.proc);
    Varint(d.seq);
  }
  void Deps(const common::DepSet& deps) {
    Varint(deps.size());
    for (const common::Dot& d : deps) {
      Dot(d);
    }
  }

  size_t size() const { return n_; }

 private:
  size_t n_ = 0;
};

class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit Reader(const std::vector<uint8_t>& buf) : Reader(buf.data(), buf.size()) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  uint64_t Varint();
  bool Bool() { return U8() != 0; }
  std::string Bytes();
  common::Dot Dot();
  common::DepSet Deps();

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  bool Need(size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace codec

#endif  // SRC_CODEC_CODEC_H_
