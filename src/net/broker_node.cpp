#include "net/broker_node.hpp"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <exception>
#include <sstream>
#include <string>
#include <vector>

#include "util/flags.hpp"

namespace psc::net {

BrokerNode::BrokerNode(BrokerNodeOptions options)
    : runtime_(options.id, options.store, options.network_seed,
               options.match_shards),
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

int run_brokerd(int argc, const char* const* argv) {
  // A peer SIGKILLed mid-write must surface as EPIPE (handled by the
  // failed-connection sweep), not kill this process too.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    const util::Flags flags(argc, argv);
    BrokerNodeOptions options;
    options.id = static_cast<routing::BrokerId>(flags.get_int("id", 0));
    // Unsigned 64-bit: Cluster passes any seed, top bit included.
    if (flags.has("seed")) {
      options.network_seed = std::stoull(flags.get_string("seed", ""));
    }
    options.match_shards =
        static_cast<std::size_t>(flags.get_int("match-shards", 1));
    const std::string policy = flags.get_string("policy", "exact");
    if (policy == "exact") {
      options.store.policy = store::CoveragePolicy::kExact;
    } else if (policy == "none") {
      options.store.policy = store::CoveragePolicy::kNone;
    } else if (policy == "pairwise") {
      options.store.policy = store::CoveragePolicy::kPairwise;
    } else if (policy == "group") {
      options.store.policy = store::CoveragePolicy::kGroup;
    } else {
      std::fprintf(stderr, "psc_brokerd: unknown --policy '%s'\n",
                   policy.c_str());
      return 2;
    }
    options.transport.self = options.id;
    options.transport.listen_fd =
        static_cast<int>(flags.get_int("listen-fd", -1));
    for (std::stringstream in(flags.get_string("neighbors", ""));
         in.good() && in.peek() != std::stringstream::traits_type::eof();) {
      std::string item;
      std::getline(in, item, ',');
      if (!item.empty()) {
        options.transport.neighbors.push_back(
            static_cast<routing::BrokerId>(std::stoul(item)));
      }
    }
    for (std::stringstream in(flags.get_string("ports", ""));
         in.good() && in.peek() != std::stringstream::traits_type::eof();) {
      std::string item;
      std::getline(in, item, ',');
      if (!item.empty()) {
        options.transport.ports.push_back(
            static_cast<std::uint16_t>(std::stoul(item)));
      }
    }
    BrokerNode node(std::move(options));
    node.run();
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "psc_brokerd: fatal: %s\n", error.what());
    return 1;
  }
}

}  // namespace psc::net
