#include "net/broker_node.hpp"

#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/flags.hpp"

namespace psc::net {

BrokerNode::BrokerNode(BrokerNodeOptions options)
    : runtime_(options.id, options.store, options.network_seed),
      transport_(options.transport) {
  for (const routing::BrokerId neighbor : options.transport.neighbors) {
    runtime_.broker().add_neighbor(neighbor);
  }
  transport_.set_frame_handler(
      [this](routing::BrokerId from, routing::BrokerId,
             const wire::Announcement& msg) {
        runtime_.on_frame(hop_context(), from, msg);
      });
  transport_.set_client_handler(
      [this](const NetMessage& msg) { handle_client_op(msg); });
  transport_.set_peer_death_handler(
      [this](routing::BrokerId peer) { handle_peer_death(peer); });
  transport_.set_ready_handler([this]() {
    transport_.send_to_client(
        make_event(EventKind::kReady, transport_.self(), 0));
  });
}

void BrokerNode::run() {
  transport_.connect_peers();
  transport_.run();
}

routing::HopContext BrokerNode::hop_context() {
  return routing::HopContext{transport_, *this, metrics_, publish_scratch_};
}

void BrokerNode::deliver_local(std::uint64_t,
                               std::span<const core::SubscriptionId> ids) {
  transport_.add_delivered(ids);
}

routing::RuntimeHost::Liveness BrokerNode::liveness(core::SubscriptionId) const {
  return {true, std::nullopt};  // correct only because TCP ops carry no TTL
}

void BrokerNode::handle_client_op(const NetMessage& msg) {
  const routing::Origin local{true, routing::kInvalidBroker};
  if (msg.op == ClientOpKind::kShutdown) {
    transport_.stop();
    return;
  }
  const std::uint64_t op_id = msg.op_id;
  const routing::HopContext ctx = hop_context();
  transport_.begin_root();
  switch (msg.op) {
    case ClientOpKind::kSubscribe:
      runtime_.on_subscription(ctx, msg.sub, local);
      break;
    case ClientOpKind::kUnsubscribe:
      runtime_.on_unsubscription(ctx, msg.id, local);
      break;
    case ClientOpKind::kPublish:
      // The token is driver-assigned (globally unique without broker
      // coordination); the source hop marks it seen like any other.
      runtime_.on_publication(ctx, msg.pub, local, msg.token);
      break;
    case ClientOpKind::kShutdown:
      break;  // handled above
  }
  transport_.end_root([this, op_id](std::vector<core::SubscriptionId> ids) {
    // The root's merged ids arrive in cascade-completion order; the
    // supervisor compares sets, so sort/dedup here once.
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    NetMessage result;
    result.kind = NetMessage::Kind::kOpResult;
    result.op_id = op_id;
    result.ids = std::move(ids);
    transport_.send_to_client(result);
  });
}

void BrokerNode::handle_peer_death(routing::BrokerId peer) {
  // The purge runs as one cascade root, so kPeerDown fires only when its
  // unsubscription cascade has quiesced and the supervisor can serialize
  // repair against in-flight traffic.
  transport_.begin_root();
  runtime_.purge_link(hop_context(), peer);
  const routing::BrokerId self = transport_.self();
  transport_.end_root([this, self, peer](std::vector<core::SubscriptionId>) {
    transport_.send_to_client(make_event(EventKind::kPeerDown, self, peer));
  });
}

namespace {

/// Parses all of `text` as a decimal integer in [min, max]; anything else
/// (sign on an unsigned field, trailing characters, overflow, a value out
/// of range) throws instead of wrapping.
template <typename T>
T parse_number(std::string_view flag, std::string_view text, T min, T max) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || ptr != end || value < min || value > max) {
    throw std::invalid_argument(
        "--" + std::string(flag) + ": '" + std::string(text) +
        "' is not an integer in [" + std::to_string(min) + ", " +
        std::to_string(max) + "]");
  }
  return value;
}

/// Comma-separated form of parse_number; empty items are skipped.
template <typename T>
std::vector<T> parse_list(std::string_view flag, std::string_view csv, T min,
                          T max) {
  std::vector<T> out;
  while (!csv.empty()) {
    const std::size_t comma = std::min(csv.find(','), csv.size());
    if (comma > 0) {
      out.push_back(parse_number(flag, csv.substr(0, comma), min, max));
    }
    csv.remove_prefix(std::min(comma + 1, csv.size()));
  }
  return out;
}

}  // namespace

BrokerNodeOptions parse_brokerd_options(int argc, const char* const* argv) {
  const util::Flags flags(argc, argv);
  // kInvalidBroker is the "no broker" sentinel, never a real id.
  constexpr routing::BrokerId kMaxId = routing::kInvalidBroker - 1;
  BrokerNodeOptions options;
  options.id = parse_number<routing::BrokerId>(
      "id", flags.get_string("id", "0"), 0, kMaxId);
  // Unsigned 64-bit: Cluster passes any seed, top bit included.
  if (flags.has("seed")) {
    options.network_seed = parse_number<std::uint64_t>(
        "seed", flags.get_string("seed", ""), 0,
        std::numeric_limits<std::uint64_t>::max());
  }
  options.store.policy =
      store::parse_coverage_policy(flags.get_string("policy", "exact"));
  options.transport.self = options.id;
  options.transport.listen_fd =
      parse_number<int>("listen-fd", flags.get_string("listen-fd", "-1"), -1,
                        std::numeric_limits<int>::max());
  options.transport.neighbors = parse_list<routing::BrokerId>(
      "neighbors", flags.get_string("neighbors", ""), 0, kMaxId);
  options.transport.ports = parse_list<std::uint16_t>(
      "ports", flags.get_string("ports", ""), 0,
      std::numeric_limits<std::uint16_t>::max());
  return options;
}

int run_brokerd(int argc, const char* const* argv) {
  // A peer SIGKILLed mid-write must surface as EPIPE (handled by the
  // failed-connection sweep), not kill this process too.
  std::signal(SIGPIPE, SIG_IGN);
  BrokerNodeOptions options;
  try {
    options = parse_brokerd_options(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "psc_brokerd: %s\n", error.what());
    return 2;
  }
  try {
    BrokerNode node(std::move(options));
    node.run();
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "psc_brokerd: fatal: %s\n", error.what());
    return 1;
  }
}

}  // namespace psc::net
