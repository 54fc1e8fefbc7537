// Control-protocol codec: roundtrip of every frame type, totality over
// damaged frames (checksum, truncation, trailing bytes, unknown type).
#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "proc/ctrl.hpp"

namespace ssps::proc {
namespace {

std::vector<std::uint8_t> encoded(const CtrlMsg& msg) {
  std::vector<std::uint8_t> out;
  encode_ctrl(msg, out);
  return out;
}

TEST(CtrlCodec, RoundtripsEveryType) {
  const std::vector<std::uint8_t> inner = {0x01, 0x02, 0x03, 0x04};
  Relay relay;
  relay.from = 3;
  relay.to = 8;
  relay.index = 777;
  relay.frame = inner;
  const std::vector<CtrlMsg> samples = {
      RoundGo{12},
      RoundDone{12, 0xabcdef0123456789ull, 5},
      relay,
      Restore{6, 2},
      Report{"{\"ok\": true}"},
      Shutdown{},
  };
  for (const CtrlMsg& msg : samples) {
    const CtrlParse parsed = parse_ctrl(encoded(msg));
    ASSERT_TRUE(parsed.ok()) << "variant index " << msg.index();
    EXPECT_EQ(parsed.msg->index(), msg.index());
  }
}

TEST(CtrlCodec, FieldFidelity) {
  const CtrlParse done = parse_ctrl(encoded(RoundDone{9, 42, 3}));
  ASSERT_TRUE(done.ok());
  const auto& d = std::get<RoundDone>(*done.msg);
  EXPECT_EQ(d.round, 9u);
  EXPECT_EQ(d.digest, 42u);
  EXPECT_EQ(d.relays, 3u);

  const std::vector<std::uint8_t> inner = {0xde, 0xad, 0xbe, 0xef};
  Relay relay;
  relay.from = 3;
  relay.to = 8;
  relay.index = 777;
  relay.frame = inner;
  const std::vector<std::uint8_t> frame = encoded(relay);
  const CtrlParse parsed = parse_ctrl(frame);
  ASSERT_TRUE(parsed.ok());
  const auto& r = std::get<Relay>(*parsed.msg);
  EXPECT_EQ(r.from, 3u);
  EXPECT_EQ(r.to, 8u);
  EXPECT_EQ(r.index, 777u);
  EXPECT_EQ(std::vector<std::uint8_t>(r.frame.begin(), r.frame.end()), inner);
  // Parsed in place: the relay views the tail of the control frame.
  EXPECT_EQ(r.frame.data(), frame.data() + frame.size() - inner.size());
}

TEST(CtrlCodec, AppendRelayIsTheRelayLayout) {
  // A relay whose inner frame is written in place lays out the same bytes
  // as encode_ctrl of a Relay viewing that frame; an inner writer that
  // fails leaves the buffer as it was.
  const std::vector<std::uint8_t> inner = {0x0b, 0x0e, 0x0e, 0x0f, 0x05};
  Relay relay;
  relay.from = 4;
  relay.to = 11;
  relay.index = 9;
  relay.frame = inner;
  std::vector<std::uint8_t> out = {0xaa};
  ASSERT_TRUE(append_relay(
      4, 11, 9,
      [&](std::vector<std::uint8_t>& o) {
        o.insert(o.end(), inner.begin(), inner.end());
        return true;
      },
      out));
  std::vector<std::uint8_t> want = {0xaa};
  encode_ctrl(relay, want);
  EXPECT_EQ(out, want);
  EXPECT_FALSE(append_relay(
      1, 2, 3,
      [](std::vector<std::uint8_t>& o) {
        o.push_back(0x01);
        return false;
      },
      out));
  EXPECT_EQ(out, want);
}

TEST(CtrlCodec, FlippedByteFailsChecksum) {
  std::vector<std::uint8_t> frame = encoded(RoundGo{12});
  frame.back() ^= 0x10;
  const CtrlParse parsed = parse_ctrl(frame);
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error.status, wire::DecodeStatus::kBadChecksum);
}

TEST(CtrlCodec, TruncationIsStructured) {
  const std::vector<std::uint8_t> frame = encoded(RoundDone{1, 2, 3});
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    const CtrlParse parsed =
        parse_ctrl(std::span(frame.data(), cut));
    EXPECT_FALSE(parsed.ok()) << "cut " << cut;
    EXPECT_EQ(parsed.error.status, wire::DecodeStatus::kTruncated) << cut;
  }
}

TEST(CtrlCodec, UnknownTypeIsStructured) {
  std::vector<std::uint8_t> frame = encoded(Shutdown{});
  frame[0] = 0x7f;  // not a CtrlType; re-seal the checksum over it
  const std::uint8_t type_byte = frame[0];
  std::uint32_t crc = wire::crc32({&type_byte, 1});
  for (int i = 0; i < 4; ++i) {
    frame[9 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  const CtrlParse parsed = parse_ctrl(frame);
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error.status, wire::DecodeStatus::kUnknownType);
}

TEST(CtrlCodec, TrailingPayloadBytesAreRejected) {
  // A RoundGo payload with an extra byte: CRC is sealed over it, so only
  // the per-type done() check can catch it.
  std::vector<std::uint8_t> frame = encoded(RoundGo{12});
  frame.push_back(0x00);
  const std::uint64_t len = 9;
  for (int i = 0; i < 8; ++i) {
    frame[1 + i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  const std::uint8_t type_byte = frame[0];
  std::uint32_t crc = wire::crc32({&type_byte, 1});
  crc = wire::crc32(std::span(frame.data() + 13, 9), crc);
  for (int i = 0; i < 4; ++i) {
    frame[9 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  const CtrlParse parsed = parse_ctrl(frame);
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error.status, wire::DecodeStatus::kBadPayload);
}

}  // namespace
}  // namespace ssps::proc
