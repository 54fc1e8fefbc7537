// FrameAssembler: reassembles wire-codec frames from a byte stream.
//
// The wire codec (src/wire/codec.hpp) frames every message as
//
//   [u8 type][u64 payload length][u32 CRC-32][payload bytes]
//
// and decode_message assumes it sees at least one whole frame. A TCP
// stream offers no such courtesy: reads return arbitrary byte runs, a
// frame can arrive split at every byte boundary, and several frames can
// land in one read. The assembler closes that gap — feed() it whatever
// recv returned and next() hands back exactly the complete frames, in
// order, each one a contiguous view decode_message (or the control
// protocol's parser, which shares the frame shape) accepts.
//
// A frame is a view into the assembler's own buffer, not a copy: it stays
// valid until the next feed(), which may compact or grow that buffer.
// Parse or copy a frame before feeding more bytes.
//
// The only way an assembler fails is an oversized length claim: a header
// whose payload length exceeds the configured cap. That is reported as a
// structured DecodeStatus::kFrameTooLarge (with the stream offset of the
// offending header) rather than an allocation attempt — the header might
// be garbage bytes, and a total decoder must not let garbage size a
// buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "wire/codec.hpp"

namespace ssps::net {

class FrameAssembler {
 public:
  /// Frame header size: type byte + u64 payload length + u32 CRC.
  static constexpr std::size_t kHeaderBytes = wire::kFrameHeaderBytes;

  /// Default payload cap (64 MiB): far above any protocol frame, small
  /// enough that a garbage header cannot balloon the process.
  static constexpr std::size_t kDefaultMaxPayload = 64u << 20;

  explicit FrameAssembler(std::size_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  /// Appends stream bytes. Accepts anything; framing errors surface from
  /// next(), not here. Invalidates every frame next() returned so far.
  void feed(std::span<const std::uint8_t> data);

  /// The next complete frame (header + payload) as a view into the
  /// assembler's buffer, valid until the next feed(); nullopt when the
  /// buffered bytes end mid-frame. After a failure (failed()) always
  /// nullopt — a stream that lied about a length has no trustworthy
  /// resynchronization point.
  std::optional<std::span<const std::uint8_t>> next();

  /// True once a header claimed a payload beyond the cap.
  bool failed() const { return failed_; }

  /// The failure, status kFrameTooLarge and offset = position of the
  /// offending frame's first byte in the whole stream.
  wire::DecodeError error() const { return error_; }

  /// Bytes buffered but not yet returned as frames.
  std::size_t buffered() const { return buf_.size() - consumed_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t consumed_ = 0;      // prefix of buf_ already returned
  std::uint64_t stream_base_ = 0; // stream offset of buf_[0]
  std::size_t max_payload_;
  bool failed_ = false;
  wire::DecodeError error_;
};

}  // namespace ssps::net
