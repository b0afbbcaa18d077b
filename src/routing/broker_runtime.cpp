#include "routing/broker_runtime.hpp"

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace psc::routing {

using core::Publication;
using core::Subscription;
using core::SubscriptionId;

namespace {

std::uint64_t derive_broker_seed(std::uint64_t network_seed, BrokerId id) {
  std::uint64_t seed = network_seed ^ (0x9e3779b97f4a7c15ULL * (id + 1));
  return util::splitmix64(seed);
}

}  // namespace

BrokerRuntime::BrokerRuntime(BrokerId id, const store::StoreConfig& store,
                             std::uint64_t network_seed,
                             std::size_t match_shards)
    : store_(store),
      seed_(derive_broker_seed(network_seed, id)),
      match_shards_(match_shards),
      broker_(std::make_unique<Broker>(id, store_, seed_, match_shards_)) {}

void BrokerRuntime::reset() {
  broker_ = std::make_unique<Broker>(id(), store_, seed_, match_shards_);
}

void BrokerRuntime::on_frame(const HopContext& ctx, BrokerId from,
                             const wire::Announcement& msg) {
  const Origin origin{false, from};
  switch (msg.kind) {
    case wire::Announcement::Kind::kSubscribe:
      on_subscription(ctx, msg.sub, origin, msg.expiry);
      break;
    case wire::Announcement::Kind::kUnsubscribe:
      on_unsubscription(ctx, msg.id, origin);
      break;
    case wire::Announcement::Kind::kPublication:
      on_publication(ctx, msg.pub, origin, msg.token);
      break;
    case wire::Announcement::Kind::kMembership:
      break;  // membership ops are driver-issued, never link traffic
  }
}

void BrokerRuntime::on_subscription(const HopContext& ctx,
                                    const Subscription& sub,
                                    const Origin& origin,
                                    std::optional<sim::SimTime> expiry) {
  std::uint64_t suppressed = 0;
  const std::vector<BrokerId> forward_to =
      broker_->handle_subscription(sub, origin, &suppressed);
  ctx.metrics.subscriptions_suppressed += suppressed;
  // Each broker arms its own timer — expiry removes the subscription
  // everywhere with zero unsubscription traffic (Section 5).
  if (expiry) arm_expiry(ctx, sub.id(), *expiry);
  for (const BrokerId next : forward_to) {
    send_subscription(ctx, next, sub, expiry);
  }
}

void BrokerRuntime::on_unsubscription(const HopContext& ctx,
                                      SubscriptionId sid, const Origin& origin) {
  const Broker::UnsubscriptionOutcome outcome =
      broker_->handle_unsubscription(sid, origin);
  for (const BrokerId next : outcome.forward_to) {
    ++ctx.metrics.unsubscription_messages;
    wire::Announcement msg;
    msg.kind = wire::Announcement::Kind::kUnsubscribe;
    msg.from = id();
    msg.id = sid;
    ctx.transport.send_frame(msg.from, next, msg);
  }
  // Promoted subscriptions flow as fresh subscription messages: the
  // neighbour never saw them while they were covered. The receiving broker
  // treats it like any subscription arrival (duplicate-suppressed if it
  // somehow already routes the id).
  for (const auto& [next, sub] : outcome.reannounce) {
    reannounce(ctx, next, sub);
  }
}

void BrokerRuntime::on_publication(const HopContext& ctx,
                                   const Publication& pub, const Origin& origin,
                                   std::uint64_t token) {
  // Cycle suppression: each broker processes one publication token once.
  if (!broker_->mark_publication_seen(token)) return;
  // The returned route lives in ctx.scratch and is consumed before this
  // hop returns; sent frames copy what they need.
  const Broker::PublicationRoute& route =
      broker_->handle_publication(pub, origin, ctx.scratch);
  ctx.host.deliver_local(token, route.local_matches);
  forward_publication(ctx, pub, token, route.destinations);
}

void BrokerRuntime::on_source_route(const HopContext& ctx,
                                    const Publication& pub,
                                    const Broker::PublicationRoute& route,
                                    std::uint64_t token) {
  // The token is fresh, so marking it seen cannot fail.
  (void)broker_->mark_publication_seen(token);
  ctx.host.deliver_local(token, route.local_matches);
  forward_publication(ctx, pub, token, route.destinations);
}

void BrokerRuntime::arm_expiry(const HopContext& ctx, SubscriptionId sid,
                               sim::SimTime at) {
  (void)ctx.transport.schedule_timer_at(at, [this, ctx, sid]() {
    for (const auto& [next, promoted] : broker_->handle_expiry(sid)) {
      reannounce(ctx, next, promoted);
    }
  });
}

void BrokerRuntime::purge_link(const HopContext& ctx, BrokerId dead) {
  broker_->remove_neighbor(dead);
  // The origin marks the dead link, so the cascade never tries to cross it
  // (it is already detached anyway).
  const Origin origin{false, dead};
  std::vector<SubscriptionId> ids = broker_->subscriptions_from(origin);
  std::sort(ids.begin(), ids.end());
  for (const SubscriptionId sid : ids) on_unsubscription(ctx, sid, origin);
}

void BrokerRuntime::announce_to(const HopContext& ctx, BrokerId to) {
  Broker::AnnounceOutcome outcome = broker_->announce_all_to(to);
  ctx.metrics.subscriptions_suppressed += outcome.suppressed;
  for (const Subscription& sub : outcome.announce) {
    // A routed id the host no longer knows is a ghost (gated to zero
    // elsewhere); skip rather than spread it.
    const RuntimeHost::Liveness live = ctx.host.liveness(sub.id());
    if (!live.live) continue;
    ++ctx.metrics.reannounced_subscriptions;
    send_subscription(ctx, to, sub, live.expiry);
  }
}

void BrokerRuntime::send_subscription(const HopContext& ctx, BrokerId next,
                                      const Subscription& sub,
                                      std::optional<sim::SimTime> expiry) {
  ++ctx.metrics.subscription_messages;
  wire::Announcement msg;
  msg.kind = wire::Announcement::Kind::kSubscribe;
  msg.from = id();
  msg.sub = sub;
  msg.expiry = expiry;
  ctx.transport.send_frame(msg.from, next, msg);
}

void BrokerRuntime::reannounce(const HopContext& ctx, BrokerId next,
                               const Subscription& promoted) {
  // If the subscription is no longer live (its own removal fires at this
  // same instant), announcing it would plant a route nothing ever cleans
  // up — skip; every broker that already routes it runs its own
  // expiry/unsubscription anyway.
  const RuntimeHost::Liveness live = ctx.host.liveness(promoted.id());
  if (!live.live) return;
  send_subscription(ctx, next, promoted, live.expiry);
}

void BrokerRuntime::forward_publication(const HopContext& ctx,
                                        const Publication& pub,
                                        std::uint64_t token,
                                        std::span<const BrokerId> destinations) {
  for (const BrokerId next : destinations) {
    ++ctx.metrics.publication_messages;
    wire::Announcement msg;
    msg.kind = wire::Announcement::Kind::kPublication;
    msg.from = id();
    msg.pub = pub;
    msg.token = token;
    ctx.transport.send_frame(msg.from, next, msg);
  }
}

}  // namespace psc::routing
