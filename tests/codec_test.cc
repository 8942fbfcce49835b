#include "src/codec/codec.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/msg/message.h"

namespace {

using common::DepSet;
using common::Dot;

TEST(CodecTest, PrimitivesRoundTrip) {
  codec::Writer w;
  w.U8(0xab);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefull);
  w.Varint(0);
  w.Varint(127);
  w.Varint(128);
  w.Varint(0xffffffffffffffffull);
  w.Bool(true);
  w.Bytes("hello");
  w.Bytes("");
  codec::Reader r(w.buffer());
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.Varint(), 0u);
  EXPECT_EQ(r.Varint(), 127u);
  EXPECT_EQ(r.Varint(), 128u);
  EXPECT_EQ(r.Varint(), 0xffffffffffffffffull);
  EXPECT_TRUE(r.Bool());
  EXPECT_EQ(r.Bytes(), "hello");
  EXPECT_EQ(r.Bytes(), "");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, TruncatedInputPoisonsReader) {
  codec::Writer w;
  w.U64(42);
  for (size_t cut = 0; cut < 8; cut++) {
    codec::Reader r(w.buffer().data(), cut);
    r.U64();
    EXPECT_FALSE(r.ok());
  }
}

TEST(CodecTest, DepSetRoundTrip) {
  DepSet deps{Dot{0, 1}, Dot{3, 99}, Dot{2, 7}};
  codec::Writer w;
  w.Deps(deps);
  codec::Reader r(w.buffer());
  EXPECT_EQ(r.Deps(), deps);
  EXPECT_TRUE(r.ok());
}

TEST(CodecTest, CommandRoundTrip) {
  smr::Command c = smr::MakePut(7, 42, "key", std::string(3000, 'v'));
  c.more_keys = {"k2", "k3"};
  codec::Writer w;
  c.Encode(w);
  codec::Reader r(w.buffer());
  smr::Command d = smr::Command::Decode(r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(c, d);
}

msg::Message SampleMessage(size_t index) {
  using namespace msg;
  smr::Command cmd = smr::MakePut(1, 2, "k", "value");
  DepSet deps{Dot{0, 1}, Dot{1, 2}};
  common::Quorum q = common::Quorum::Of({0, 1, 3});
  switch (index) {
    case 0:
      return MCollect{Dot{0, 1}, cmd, deps, q, true};
    case 1:
      return MCollectAck{Dot{0, 1}, deps};
    case 2:
      return MConsensus{Dot{0, 1}, cmd, deps, 17};
    case 3:
      return MConsensusAck{Dot{0, 1}, 17};
    case 4:
      return MCommit{Dot{0, 1}, cmd, deps};
    case 5:
      return MRec{Dot{0, 1}, cmd, 23};
    case 6:
      return MRecAck{Dot{0, 1}, cmd, deps, q, 11, 23};
    case 7:
      return EpPreAccept{Dot{0, 1}, cmd, deps, 5, q, false};
    case 8:
      return EpPreAcceptAck{Dot{0, 1}, deps, 5};
    case 9:
      return EpAccept{Dot{0, 1}, cmd, deps, 5, 9};
    case 10:
      return EpAcceptAck{Dot{0, 1}, 9};
    case 11:
      return EpCommit{Dot{0, 1}, cmd, deps, 5};
    case 12:
      return EpPrepare{Dot{0, 1}, 31};
    case 13:
      return EpPrepareAck{Dot{0, 1}, cmd, deps, 5, 2, 7, 31, true};
    case 14:
      return PxForward{cmd};
    case 15:
      return PxAccept{9, 3, cmd};
    case 16:
      return PxAccepted{9, 3};
    case 17:
      return PxCommit{9, cmd};
    case 18:
      return PxPrepare{12, 4};
    case 19: {
      PxPromise p;
      p.ballot = 12;
      p.accepted.push_back(PxPromiseEntry{4, 3, cmd});
      p.accepted.push_back(PxPromiseEntry{5, 2, smr::MakeNoOp()});
      return p;
    }
    case 20:
      return PxHeartbeat{12, 88};
    case 21:
      return MnPropose{7, cmd, 10};
    case 22:
      return MnAck{7, 10};
    case 23:
      return MnCommit{7, cmd};
    case 24:
      return MnSkipRange{2, 5, 17};
    case 25:
      return ClientRequest{cmd};
    case 26:
      return ClientReply{1, 2, "result", false};
    case 27:
      return MnRevoke{7, 13};
    case 28:
      return MnRevokePromise{7, 13, 0, 1, cmd};
    case 29:
      return MnRevokeAccept{7, 13, 2, smr::MakeNoOp()};
    case 30:
      return MnRevokeAccepted{7, 13};
    case 31:
      return MnRevokeSkip{7};
    default:
      return MCollectAck{};
  }
}

TEST(CodecTest, AllMessageTypesRoundTrip) {
  constexpr size_t kTypes = std::variant_size_v<msg::Message::Body>;
  for (size_t i = 0; i < kTypes; i++) {
    msg::Message m = SampleMessage(i);
    ASSERT_EQ(m.index(), i) << "SampleMessage(" << i << ") builds wrong alternative";
    codec::Writer w;
    msg::Encode(w, m);
    codec::Reader r(w.buffer());
    msg::Message out;
    ASSERT_TRUE(msg::Decode(r, out)) << msg::TypeName(m);
    EXPECT_EQ(out.index(), i) << msg::TypeName(m);
    EXPECT_EQ(msg::EncodedSize(m), w.size());
  }
}

// Decoding arbitrary garbage must never crash and must report failure for truncations.
TEST(CodecTest, FuzzDecodeIsSafe) {
  common::Rng rng(1234);
  for (int trial = 0; trial < 5000; trial++) {
    size_t len = rng.Below(64);
    std::vector<uint8_t> buf(len);
    for (auto& b : buf) {
      b = static_cast<uint8_t>(rng.Below(256));
    }
    codec::Reader r(buf.data(), buf.size());
    msg::Message m;
    msg::Decode(r, m);  // must not crash
  }
}

// Truncating a valid encoding at any point must fail cleanly, never crash.
TEST(CodecTest, TruncatedMessagesFailCleanly) {
  constexpr size_t kTypes = std::variant_size_v<msg::Message::Body>;
  for (size_t i = 0; i < kTypes; i++) {
    msg::Message m = SampleMessage(i);
    codec::Writer w;
    msg::Encode(w, m);
    for (size_t cut = 0; cut + 1 < w.size(); cut += std::max<size_t>(1, w.size() / 13)) {
      codec::Reader r(w.buffer().data(), cut);
      msg::Message out;
      msg::Decode(r, out);  // may fail; must not crash
    }
  }
}

// The coordinator's commit to a fast-quorum member travels bare (has_cmd = false).
// Both forms of MCommit and EpCommit round-trip, EncodedSize matches the encoding,
// the bare form omits the command's bytes, and every truncation fails cleanly.
TEST(CodecTest, BareAndFullCommitsRoundTrip) {
  const smr::Command cmd = smr::MakePut(1, 2, "k", std::string(100, 'v'));
  const DepSet deps{Dot{0, 1}, Dot{1, 2}};
  auto check = [&](auto full) {
    auto bare = full;
    bare.cmd = smr::Command();
    bare.has_cmd = false;
    std::vector<size_t> sizes;
    for (const auto* in : {&full, &bare}) {
      msg::Message m = *in;
      codec::Writer w;
      msg::Encode(w, m);
      sizes.push_back(w.size());
      EXPECT_EQ(msg::EncodedSize(m), w.size());
      codec::Reader r(w.buffer());
      msg::Message out;
      ASSERT_TRUE(msg::Decode(r, out)) << msg::TypeName(m);
      const auto* got = msg::get_if<std::decay_t<decltype(full)>>(&out);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(got->dot, in->dot);
      EXPECT_EQ(got->has_cmd, in->has_cmd);
      EXPECT_EQ(got->cmd, in->cmd);
      EXPECT_EQ(got->deps, in->deps);
      for (size_t cut = 0; cut < w.size(); cut++) {
        codec::Reader tr(w.buffer().data(), cut);
        msg::Message trunc;
        EXPECT_FALSE(msg::Decode(tr, trunc)) << msg::TypeName(m) << " cut at " << cut;
      }
    }
    codec::SizeWriter cmd_size;
    cmd.EncodeTo(cmd_size);
    EXPECT_EQ(sizes[0] - sizes[1], cmd_size.size());
  };
  check(msg::MCommit{Dot{0, 7}, cmd, deps});
  check(msg::EpCommit{Dot{0, 7}, cmd, deps, 5});
}

}  // namespace
