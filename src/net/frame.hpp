// Length-prefixed framing for the TCP transport — the byte-stream half of
// the net layer, deliberately socket-agnostic so the frame-boundary
// torture tests (tests/frame_torture_test.cpp) can drive it with arbitrary
// chunkings: 1-byte feeds, many frames coalesced into one read, a frame
// truncated mid-payload by a disconnect.
//
// Wire layout per frame: u32 little-endian payload length, then exactly
// that many payload bytes (an encoded net::NetMessage). A length of zero
// is invalid (every NetMessage is at least one kind byte), and lengths
// above kMaxFrameBytes are rejected before any allocation — a malformed or
// hostile peer cannot make the reader reserve gigabytes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace psc::net {

/// Upper bound on one frame's payload. Generous against real traffic (an
/// Announcement is tens-to-hundreds of bytes) while keeping the
/// worst-case buffering per connection small.
inline constexpr std::uint32_t kMaxFrameBytes = 16u * 1024u * 1024u;

/// Appends one length-prefixed frame carrying `payload` to `out`.
/// Throws std::length_error if the payload exceeds kMaxFrameBytes.
void append_frame(std::vector<std::uint8_t>& out,
                  std::span<const std::uint8_t> payload);

/// Incremental frame decoder: feed() arbitrary byte chunks as they arrive
/// off a socket, then drain complete frames with next(). Bytes split
/// across feeds — including a length prefix split across reads — carry
/// over; a stream that stops mid-frame simply never yields that frame
/// (the caller decides whether EOF mid-frame is an error).
class FrameReader {
 public:
  /// Appends raw stream bytes to the internal buffer (first dropping the
  /// bytes of frames already consumed by next(), one compaction per feed).
  /// Throws wire::DecodeError as soon as a frame header announces a
  /// zero-length or oversized frame — before waiting for its payload.
  void feed(std::span<const std::uint8_t> bytes);

  /// Extracts the next complete frame's payload, or false if the buffered
  /// bytes do not yet hold one. The payload is moved into `payload`
  /// (overwriting its contents).
  [[nodiscard]] bool next(std::vector<std::uint8_t>& payload);

  /// True when no partial frame is pending — the clean-EOF condition.
  [[nodiscard]] bool at_boundary() const noexcept { return buffered() == 0; }

  /// Buffered bytes not yet consumed as frames.
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size() - head_;
  }

 private:
  /// Validates the header at the read offset (if present).
  void check_header() const;

  /// buffer_[head_, size) is unconsumed: next() only advances head_, so
  /// draining many coalesced frames from one read costs no memmove.
  std::vector<std::uint8_t> buffer_;
  std::size_t head_ = 0;
};

}  // namespace psc::net
