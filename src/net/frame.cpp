#include "net/frame.hpp"

namespace ssps::net {

void FrameAssembler::feed(std::span<const std::uint8_t> data) {
  if (failed_) return;  // the stream is already condemned
  // Compact before growing: once the consumed prefix dominates the
  // buffer, shift the live suffix down so the buffer stays bounded by
  // the largest in-flight frame, not the whole stream history.
  if (consumed_ > 4096 && consumed_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    stream_base_ += consumed_;
    consumed_ = 0;
  }
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::optional<std::span<const std::uint8_t>> FrameAssembler::next() {
  if (failed_) return std::nullopt;
  const std::size_t available = buf_.size() - consumed_;
  if (available < kHeaderBytes) return std::nullopt;
  const std::uint8_t* head = buf_.data() + consumed_;
  std::uint64_t payload_len = 0;
  for (int i = 0; i < 8; ++i) {
    payload_len |= static_cast<std::uint64_t>(head[1 + i]) << (8 * i);
  }
  if (payload_len > max_payload_) {
    failed_ = true;
    error_ = {wire::DecodeStatus::kFrameTooLarge,
              static_cast<std::size_t>(stream_base_ + consumed_)};
    return std::nullopt;
  }
  const std::size_t total = kHeaderBytes + static_cast<std::size_t>(payload_len);
  if (available < total) return std::nullopt;
  consumed_ += total;
  return std::span<const std::uint8_t>(head, total);
}

}  // namespace ssps::net
