#include "proc/ctrl.hpp"

#include "common/decode.hpp"
#include "common/encode.hpp"

namespace ssps::proc {
namespace {

/// Seals `payload` into a frame of `type`: same header shape and CRC
/// discipline as wire::encode_message (CRC over type byte then payload).
void seal(CtrlType type, const common::Encoder& payload,
          std::vector<std::uint8_t>& out) {
  const std::uint8_t type_byte = static_cast<std::uint8_t>(type);
  out.push_back(type_byte);
  const std::uint64_t len = payload.size();
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  }
  std::uint32_t crc = wire::crc32({&type_byte, 1});
  crc = wire::crc32(payload.buffer(), crc);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  out.insert(out.end(), payload.buffer().begin(), payload.buffer().end());
}

}  // namespace

void encode_ctrl(const CtrlMsg& msg, std::vector<std::uint8_t>& out) {
  common::Encoder payload;
  CtrlType type = CtrlType::kShutdown;
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, RoundGo>) {
          type = CtrlType::kRoundGo;
          payload.u64(m.round);
        } else if constexpr (std::is_same_v<T, RoundDone>) {
          type = CtrlType::kRoundDone;
          payload.u64(m.round);
          payload.u64(m.digest);
          payload.u64(m.relays);
        } else if constexpr (std::is_same_v<T, Relay>) {
          type = CtrlType::kRelay;
          payload.u64(m.from);
          payload.u64(m.to);
          payload.u64(m.index);
          payload.bytes(m.frame.data(), m.frame.size());
        } else if constexpr (std::is_same_v<T, Restore>) {
          type = CtrlType::kRestore;
          payload.u64(m.round);
          payload.u64(m.shard);
        } else if constexpr (std::is_same_v<T, Report>) {
          type = CtrlType::kReport;
          payload.string(m.json);
        } else {
          type = CtrlType::kShutdown;
        }
      },
      msg);
  seal(type, payload, out);
}

CtrlParse parse_ctrl(std::span<const std::uint8_t> frame) {
  CtrlParse out;
  auto fail = [&](wire::DecodeStatus status, std::size_t offset) {
    out.error = {status, offset};
    return out;
  };
  constexpr std::size_t kHeader = 13;
  if (frame.size() < kHeader) {
    return fail(wire::DecodeStatus::kTruncated, frame.size());
  }
  std::uint64_t payload_len = 0;
  for (int i = 0; i < 8; ++i) {
    payload_len |= static_cast<std::uint64_t>(frame[1 + i]) << (8 * i);
  }
  if (frame.size() - kHeader < payload_len) {
    return fail(wire::DecodeStatus::kTruncated, frame.size());
  }
  std::uint32_t claimed = 0;
  for (int i = 0; i < 4; ++i) {
    claimed |= static_cast<std::uint32_t>(frame[9 + i]) << (8 * i);
  }
  const std::span<const std::uint8_t> payload =
      frame.subspan(kHeader, static_cast<std::size_t>(payload_len));
  std::uint32_t actual = wire::crc32(frame.first(1));
  actual = wire::crc32(payload, actual);
  if (claimed != actual) return fail(wire::DecodeStatus::kBadChecksum, 9);

  common::Decoder d(payload);
  auto bad = [&] { return fail(wire::DecodeStatus::kBadPayload, d.offset()); };
  switch (static_cast<CtrlType>(frame[0])) {
    case CtrlType::kRoundGo: {
      RoundGo m;
      if (!d.u64(m.round) || !d.done()) return bad();
      out.msg = m;
      return out;
    }
    case CtrlType::kRoundDone: {
      RoundDone m;
      if (!d.u64(m.round) || !d.u64(m.digest) || !d.u64(m.relays) || !d.done()) {
        return bad();
      }
      out.msg = m;
      return out;
    }
    case CtrlType::kRelay: {
      Relay m;
      if (!d.u64(m.from) || !d.u64(m.to) || !d.u64(m.index) ||
          !d.bytes(m.frame) || !d.done()) {
        return bad();
      }
      out.msg = std::move(m);
      return out;
    }
    case CtrlType::kRestore: {
      Restore m;
      if (!d.u64(m.round) || !d.u64(m.shard) || !d.done()) return bad();
      out.msg = m;
      return out;
    }
    case CtrlType::kReport: {
      Report m;
      if (!d.string(m.json) || !d.done()) return bad();
      out.msg = std::move(m);
      return out;
    }
    case CtrlType::kShutdown: {
      if (!d.done()) return bad();
      out.msg = Shutdown{};
      return out;
    }
  }
  return fail(wire::DecodeStatus::kUnknownType, 0);
}

}  // namespace ssps::proc
