// In-memory span recorder for the traced replays.
//
// A span has a name, a start and end (steady clock, ns since the tracer was
// made), the span open around it when it began (its parent) and the id of
// the op it belongs to. A disabled tracer records nothing and reads no
// clock, so an untraced replay runs the same calls without span costs.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint8_t {
  kOpSubscribe,
  kOpUnsubscribe,
  kOpPublish,
  kRoutingSubscribe,    ///< BrokerNetwork::subscribe cascade
  kRoutingUnsubscribe,  ///< BrokerNetwork::unsubscribe cascade
  kRoutingPublication,  ///< Broker::handle_publication, one hop
  kWireEncode,          ///< wire::write_announcement
  kWireDecode,          ///< wire::read_announcement
  kNetFrameEncode,      ///< net::encode_frame
  kNetFrameDecode,      ///< net::decode_frame
  kStoreInsert,
  kStoreErase,
  kStoreMatch,
  kIndexBoxIntersect,
  kIndexStab,
  kCoreCheck,
  kCount,
};

inline constexpr std::array<const char*, static_cast<std::size_t>(SpanName::kCount)>
    kSpanNames = {"op.subscribe",          "op.unsubscribe",
                  "op.publish",            "routing.subscribe_cascade",
                  "routing.unsubscribe_cascade", "routing.handle_publication",
                  "wire.encode",           "wire.decode",
                  "net.frame_encode",      "net.frame_decode",
                  "store.insert",          "store.erase",
                  "store.match",           "index.box_intersect",
                  "index.stab",            "core.check"};

struct Span {
  SpanName name = SpanName::kOpPublish;
  std::uint32_t parent = 0;  ///< index + 1 into the span list; 0 = root
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer& tracer, SpanName name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::uint32_t index_ = 0;  ///< 0 when disabled
  };

  /// Self time (duration minus the time its children cover, in ns) and
  /// span count per span name.
  struct Totals {
    std::array<std::int64_t, kSpanNames.size()> self_ns{};
    std::array<std::uint64_t, kSpanNames.size()> count{};
  };
  [[nodiscard]] Totals totals() const;

  /// Durations (ns) of every span called `name`, in record order.
  [[nodiscard]] std::vector<double> durations(SpanName name) const;

  /// Appends one JSON object per span of ops [0, max_op) to `path`.
  void write(const std::string& path, const std::string& replay,
             std::uint64_t max_op) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::uint32_t open_ = 0;  ///< index + 1 of the innermost open span
};

}  // namespace perfbench
