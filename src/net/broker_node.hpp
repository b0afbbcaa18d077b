// BrokerNode — one broker as a real process (psc_brokerd): a
// routing::BrokerRuntime, the same per-broker hop logic BrokerNetwork runs
// for every simulated broker, instantiated over a TcpTransport. What stays
// here is what differs from the sim: client ops arrive over the supervisor
// connection and each becomes a cascade root, peer death (EOF) runs the
// runtime's link purge inside its own root, and the node answers the
// runtime's two host questions. The delivered sets a TCP cluster produces
// are gated against the same FlatOracle ground truth the sim's
// differential suites use.
//
// Scope (what the TCP op vocabulary covers): subscribe / unsubscribe /
// publish client ops and EOF-triggered peer-death purges. TTL expiries are
// accepted on the wire (the announcement codec carries them) and armed on
// the transport's wall clock, but cluster traces run with TTLs disabled —
// wall-clock time is not the sim clock, so expiry instants would not be
// comparable. Membership repair beyond crash-purge (heal, replace) stays a
// sim-side concern.
//
// Delivered-set plumbing: the sim's host hands local matches to the
// publish call's sink; a process has no caller-held sink. BrokerNode's
// deliver_local instead adds them to the transport's active cascade
// record, and the record tree's kDone aggregation returns the full
// delivered set to the op's root — the supervisor gets it in the
// kOpResult, byte-comparable to the oracle.
#pragma once

#include <cstdint>
#include <span>

#include "net/message.hpp"
#include "net/tcp_transport.hpp"
#include "routing/broker_runtime.hpp"
#include "sim/metrics.hpp"
#include "store/subscription_store.hpp"

namespace psc::net {

struct BrokerNodeOptions {
  routing::BrokerId id = 0;
  /// The cluster-wide seed (NetworkConfig::seed). BrokerRuntime derives
  /// the per-broker store seed from it, exactly as for a simulated broker,
  /// so a TCP broker's coverage decisions match its sim twin's.
  std::uint64_t network_seed = 0xfeedbeefULL;
  std::size_t match_shards = 1;
  store::StoreConfig store;
  TcpTransportConfig transport;
};

class BrokerNode : private routing::RuntimeHost {
 public:
  explicit BrokerNode(BrokerNodeOptions options);

  /// Dials peers and serves the epoll loop until the supervisor
  /// disconnects or sends kShutdown.
  void run();

  [[nodiscard]] const routing::Broker& broker() const noexcept {
    return runtime_.broker();
  }

 private:
  void deliver_local(std::uint64_t token,
                     std::span<const core::SubscriptionId> ids) override;
  [[nodiscard]] Liveness liveness(core::SubscriptionId id) const override;
  [[nodiscard]] routing::HopContext hop_context();
  void handle_client_op(const NetMessage& msg);
  void handle_peer_death(routing::BrokerId peer);

  routing::BrokerRuntime runtime_;
  TcpTransport transport_;
  /// The runtime's traffic counters for this broker (not exported yet).
  sim::Metrics metrics_;
  routing::Broker::PublishScratch publish_scratch_;
};

/// Entry point for the psc_brokerd executable (tools/brokerd_main.cpp):
/// parses --id / --listen-fd / --seed / --match-shards / --policy /
/// --neighbors / --ports, builds a BrokerNode, and serves. Returns the
/// process exit code.
int run_brokerd(int argc, const char* const* argv);

}  // namespace psc::net
