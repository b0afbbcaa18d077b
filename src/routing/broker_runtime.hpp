// BrokerRuntime — the per-broker algorithm of the paper's Section 2, once:
// subscriptions flood with coverage pruning, publications travel back along
// reverse paths, covered subscriptions are promoted when their coverer
// leaves, and a dead link's routes are purged by an unsubscription cascade.
//
// Both harnesses instantiate it. BrokerNetwork (the in-process simulator)
// holds one runtime per broker over a SimTransport; net::BrokerNode
// (psc_brokerd) holds exactly one over a TcpTransport. The two differ only
// in the transport and in how they detect that a cascade has quiesced
// (run_cascade vs Dijkstra-Scholten records), plus the two answers a
// RuntimeHost gives:
//
//                   Broker (handle_* decisions, stores, coverage)
//                       │
//                 BrokerRuntime ── RuntimeHost: deliver_local / liveness
//                       │
//                   Transport (send_frame, schedule_timer_at)
//
// A runtime caches no pointer into its harness: the transport, metrics,
// publish scratch and host travel with every call in a HopContext, and an
// armed expiry timer keeps its call's context, so a harness hands out only
// addresses that outlive its own moves (BrokerNetwork's heap-held Anchor).
// A runtime's own address must stay stable while its expiry timers are
// armed (the timers call back into it); a crash wipes the Broker through
// reset(), never the runtime, so pending timers resolve against the fresh
// broker as no-ops.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "routing/broker.hpp"
#include "routing/transport.hpp"
#include "sim/metrics.hpp"
#include "wire/codec.hpp"

namespace psc::routing {

/// What a harness answers for the runtime.
class RuntimeHost {
 public:
  /// Whether a promoted or re-announced subscription may still travel, and
  /// with which absolute expiry (nullopt: none).
  struct Liveness {
    bool live = false;
    std::optional<sim::SimTime> expiry;
  };

  /// Local matches of publication `token` at one hop.
  virtual void deliver_local(std::uint64_t token,
                             std::span<const core::SubscriptionId> ids) = 0;

  /// The live/expiry answer for subscription `id`. A promotion must carry
  /// the subscription's TTL expiry, or the receiver would route it forever;
  /// a subscription that is no longer live must not be announced at all.
  [[nodiscard]] virtual Liveness liveness(core::SubscriptionId id) const = 0;

 protected:
  ~RuntimeHost() = default;
};

/// Everything a hop borrows from its harness, for the duration of the call
/// (and of the expiry timers it arms).
struct HopContext {
  Transport& transport;
  RuntimeHost& host;
  sim::Metrics& metrics;
  /// One scratch serves every hop: handlers run one at a time and each
  /// finishes with its route before the next starts.
  Broker::PublishScratch& scratch;
};

class BrokerRuntime {
 public:
  /// Builds the broker with the per-broker seed derived from the
  /// network-wide `network_seed`, so a broker's coverage decisions (and its
  /// engine RNG stream) are the same in every harness.
  BrokerRuntime(BrokerId id, const store::StoreConfig& store,
                std::uint64_t network_seed);
  /// Armed expiry timers hold `this`.
  BrokerRuntime(const BrokerRuntime&) = delete;
  BrokerRuntime& operator=(const BrokerRuntime&) = delete;

  [[nodiscard]] BrokerId id() const noexcept { return broker_->id(); }
  [[nodiscard]] Broker& broker() noexcept { return *broker_; }
  [[nodiscard]] const Broker& broker() const noexcept { return *broker_; }

  /// Crash wipe: replaces the broker with a fresh one built from the same
  /// (id, config, seed) — no neighbours, no routes.
  void reset();

  /// Receive side of every link frame: routes the Announcement that
  /// arrived over the link from `from` to its hop handler.
  void on_frame(const HopContext& ctx, BrokerId from,
                const wire::Announcement& msg);

  /// Subscription hop: records the reverse path, counts suppression, arms
  /// this broker's expiry timer (if `expiry`), and forwards.
  void on_subscription(const HopContext& ctx, const core::Subscription& sub,
                       const Origin& origin,
                       std::optional<sim::SimTime> expiry = std::nullopt);

  /// Unsubscription hop: forwards the unsubscription, then re-announces
  /// every subscription promoted on a link (host liveness permitting).
  void on_unsubscription(const HopContext& ctx, core::SubscriptionId sid,
                         const Origin& origin);

  /// Publication hop: once per token, hands the local matches to the host
  /// and forwards along the reverse paths.
  void on_publication(const HopContext& ctx, const core::Publication& pub,
                      const Origin& origin, std::uint64_t token);

  /// Source hop with a precomputed route (the publish pipeline's output):
  /// the same effects as on_publication for a fresh token.
  void on_source_route(const HopContext& ctx, const core::Publication& pub,
                       const Broker::PublicationRoute& route,
                       std::uint64_t token);

  /// Arms this broker's expiry timer for subscription `sid` at absolute
  /// transport time `at`: the broker drops it locally and re-announces the
  /// subscriptions its removal promoted (paper, Section 5).
  void arm_expiry(const HopContext& ctx, core::SubscriptionId sid,
                  sim::SimTime at);

  /// Link purge: detaches `dead` and unsubscribes every route learned over
  /// it (ascending id — the routing table iterates in hash order), so this
  /// broker's state describes only what is still reachable.
  void purge_link(const HopContext& ctx, BrokerId dead);

  /// Attach-side re-announcement: floods this broker's uncovered routes
  /// over the fresh link to `to`, with the host's expiries.
  void announce_to(const HopContext& ctx, BrokerId to);

 private:
  void send_subscription(const HopContext& ctx, BrokerId next,
                         const core::Subscription& sub,
                         std::optional<sim::SimTime> expiry);
  /// Promotion re-announcement over `next`, if the host says it is live.
  void reannounce(const HopContext& ctx, BrokerId next,
                  const core::Subscription& promoted);
  void forward_publication(const HopContext& ctx, const core::Publication& pub,
                           std::uint64_t token,
                           std::span<const BrokerId> destinations);

  store::StoreConfig store_;
  std::uint64_t seed_;
  std::unique_ptr<Broker> broker_;
};

}  // namespace psc::routing
