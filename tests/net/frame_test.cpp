// FrameAssembler: every frame of a mixed protocol/control corpus must
// survive being split at every byte boundary, arriving byte-by-byte, or
// arriving many-per-read; oversized length claims must fail closed with a
// structured error.
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.hpp"
#include "proc/ctrl.hpp"
#include "sim/message_pool.hpp"
#include "wire/codec.hpp"

namespace ssps::net {
namespace {

using ssps::sim::MessagePool;
using ssps::sim::NodeId;

/// A corpus spanning both frame producers that share the outer shape:
/// wire-codec protocol messages (via encode_message) and deployment
/// control frames (via encode_ctrl), including an empty payload
/// (Shutdown) and a nested frame-in-frame (Relay).
std::vector<std::pair<std::string, std::vector<std::uint8_t>>> corpus(
    MessagePool& pool) {
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> out;

  std::vector<std::uint8_t> hello;
  EXPECT_TRUE(wire::encode_message(
      *pool.make<wire::Hello>(wire::kProtocolVersion, NodeId{3}), hello));
  out.emplace_back("hello", std::move(hello));

  const auto ctrl = [&](const char* name, proc::CtrlMsg msg) {
    std::vector<std::uint8_t> frame;
    proc::encode_ctrl(msg, frame);
    out.emplace_back(name, std::move(frame));
  };
  ctrl("round-go", proc::RoundGo{42});
  ctrl("round-done", proc::RoundDone{42, 0xdeadbeefu, 3});
  proc::Relay relay;
  relay.from = 5;
  relay.to = 9;
  relay.index = 1234;
  EXPECT_TRUE(wire::encode_message(
      *pool.make<wire::Hello>(wire::kProtocolVersion, NodeId{5}), relay.frame));
  ctrl("relay", std::move(relay));
  ctrl("restore", proc::Restore{6, 1});
  ctrl("report", proc::Report{"{\n  \"ok\": true\n}"});
  ctrl("shutdown", proc::Shutdown{});
  return out;
}

TEST(FrameAssembler, EverySplitPointOfEveryCorpusMessage) {
  MessagePool pool;
  for (const auto& [name, frame] : corpus(pool)) {
    for (std::size_t split = 0; split <= frame.size(); ++split) {
      FrameAssembler assembler;
      assembler.feed(std::span(frame.data(), split));
      if (split < frame.size()) {
        EXPECT_FALSE(assembler.next().has_value())
            << name << " split " << split << ": partial frame yielded early";
      }
      assembler.feed(std::span(frame.data() + split, frame.size() - split));
      const std::optional<std::vector<std::uint8_t>> got = assembler.next();
      ASSERT_TRUE(got.has_value()) << name << " split " << split;
      EXPECT_EQ(*got, frame) << name << " split " << split;
      EXPECT_FALSE(assembler.next().has_value());
      EXPECT_EQ(assembler.buffered(), 0u);
      EXPECT_FALSE(assembler.failed());
    }
  }
}

TEST(FrameAssembler, ByteByByteStreamOfWholeCorpus) {
  MessagePool pool;
  const auto frames = corpus(pool);
  std::vector<std::uint8_t> stream;
  for (const auto& [name, frame] : frames) {
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  FrameAssembler assembler;
  std::vector<std::vector<std::uint8_t>> got;
  for (const std::uint8_t byte : stream) {
    assembler.feed(std::span(&byte, 1));
    while (auto frame = assembler.next()) got.push_back(std::move(*frame));
  }
  ASSERT_EQ(got.size(), frames.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], frames[i].second) << frames[i].first;
  }
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(FrameAssembler, ManyFramesInOneFeed) {
  MessagePool pool;
  const auto frames = corpus(pool);
  std::vector<std::uint8_t> stream;
  for (const auto& [name, frame] : frames) {
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  FrameAssembler assembler;
  assembler.feed(stream);
  for (const auto& [name, frame] : frames) {
    const auto got = assembler.next();
    ASSERT_TRUE(got.has_value()) << name;
    EXPECT_EQ(*got, frame) << name;
  }
  EXPECT_FALSE(assembler.next().has_value());
}

TEST(FrameAssembler, FramesDecodeAfterReassembly) {
  // The contract is "next() hands decode-ready frames": run the corpus
  // back through the matching parser after a pathological 1-byte feed.
  MessagePool pool;
  for (const auto& [name, frame] : corpus(pool)) {
    FrameAssembler assembler;
    for (const std::uint8_t byte : frame) assembler.feed(std::span(&byte, 1));
    const auto got = assembler.next();
    ASSERT_TRUE(got.has_value()) << name;
    if (name == "hello") {
      MessagePool scratch;
      EXPECT_TRUE(wire::decode_message(*got, scratch).ok()) << name;
    } else {
      EXPECT_TRUE(proc::parse_ctrl(*got).ok()) << name;
    }
  }
}

TEST(FrameAssembler, OversizedLengthClaimFailsClosed) {
  // Type byte + u64 length far beyond the cap + CRC bytes: the assembler
  // must refuse to size a buffer from the claim.
  FrameAssembler assembler(1 << 10);
  std::vector<std::uint8_t> header(FrameAssembler::kHeaderBytes, 0);
  header[0] = 0x42;
  const std::uint64_t huge = 1u << 20;
  for (int i = 0; i < 8; ++i) {
    header[1 + i] = static_cast<std::uint8_t>(huge >> (8 * i));
  }
  assembler.feed(header);
  EXPECT_FALSE(assembler.next().has_value());
  EXPECT_TRUE(assembler.failed());
  EXPECT_EQ(assembler.error().status, wire::DecodeStatus::kFrameTooLarge);
  EXPECT_EQ(assembler.error().offset, 0u);

  // Failure is sticky: even a well-formed follow-up frame stays unread (a
  // stream that lied about a length has no trustworthy resync point).
  std::vector<std::uint8_t> good;
  proc::encode_ctrl(proc::Shutdown{}, good);
  assembler.feed(good);
  EXPECT_FALSE(assembler.next().has_value());
  EXPECT_TRUE(assembler.failed());
}

TEST(FrameAssembler, OversizeOffsetCountsConsumedFrames) {
  FrameAssembler assembler(1 << 10);
  std::vector<std::uint8_t> good;
  proc::encode_ctrl(proc::RoundGo{7}, good);
  assembler.feed(good);
  ASSERT_TRUE(assembler.next().has_value());

  std::vector<std::uint8_t> bad(FrameAssembler::kHeaderBytes, 0xff);
  bad[0] = 0x41;
  assembler.feed(bad);
  EXPECT_FALSE(assembler.next().has_value());
  EXPECT_TRUE(assembler.failed());
  // The error names the bad frame's position in the whole stream, not in
  // the current buffer.
  EXPECT_EQ(assembler.error().offset, good.size());
}

TEST(FrameAssembler, BufferedTracksPartialFrame) {
  MessagePool pool;
  std::vector<std::uint8_t> frame;
  proc::encode_ctrl(proc::RoundDone{1, 2, 3}, frame);
  FrameAssembler assembler;
  assembler.feed(std::span(frame.data(), 5));
  EXPECT_EQ(assembler.buffered(), 5u);
  EXPECT_FALSE(assembler.next().has_value());
  assembler.feed(std::span(frame.data() + 5, frame.size() - 5));
  EXPECT_TRUE(assembler.next().has_value());
  EXPECT_EQ(assembler.buffered(), 0u);
}

}  // namespace
}  // namespace ssps::net
