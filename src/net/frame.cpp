#include "net/frame.hpp"

#include <cstring>
#include <stdexcept>

#include "wire/byte_buffer.hpp"

namespace psc::net {

namespace {

std::uint32_t read_u32_le(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload) {
  if (payload.empty() || payload.size() > kMaxFrameBytes) {
    throw std::length_error("net::append_frame: payload size out of range");
  }
  const auto len = static_cast<std::uint32_t>(payload.size());
  out.reserve(out.size() + 4 + payload.size());
  out.push_back(static_cast<std::uint8_t>(len & 0xffU));
  out.push_back(static_cast<std::uint8_t>((len >> 8) & 0xffU));
  out.push_back(static_cast<std::uint8_t>((len >> 16) & 0xffU));
  out.push_back(static_cast<std::uint8_t>((len >> 24) & 0xffU));
  out.insert(out.end(), payload.begin(), payload.end());
}

void FrameReader::check_header() const {
  if (buffered() < 4) return;
  const std::uint32_t len = read_u32_le(buffer_.data() + head_);
  if (len == 0 || len > kMaxFrameBytes) {
    throw wire::DecodeError("net::FrameReader: frame length out of range");
  }
}

void FrameReader::feed(std::span<const std::uint8_t> bytes) {
  if (head_ != 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  // Validate eagerly: an oversized header is a protocol violation the
  // moment it is visible, independent of whether its payload ever arrives.
  check_header();
}

bool FrameReader::next(std::vector<std::uint8_t>& payload) {
  if (buffered() < 4) return false;
  const std::uint8_t* frame = buffer_.data() + head_;
  const std::uint32_t len = read_u32_le(frame);
  if (len == 0 || len > kMaxFrameBytes) {
    throw wire::DecodeError("net::FrameReader: frame length out of range");
  }
  if (buffered() < 4 + static_cast<std::size_t>(len)) return false;
  payload.assign(frame + 4, frame + 4 + len);
  head_ += 4 + static_cast<std::size_t>(len);
  // The next frame's header (if buffered) gets the same eager validation.
  check_header();
  return true;
}

}  // namespace psc::net
