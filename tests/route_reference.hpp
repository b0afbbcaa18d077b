// RouteReference — a flat-scan reference for Broker publish routes, used
// by the decision-identity tests in place of a second broker code path.
//
// It holds the (subscription, origin) pairs a fixture routed and answers a
// publication the obvious way: scan every pair in ascending id order, take
// the local-origin matches as `local_matches`, and take the other
// neighbours, minus the publication's origin, in first-match order as
// `destinations`.
#pragma once

#include <algorithm>
#include <map>
#include <utility>

#include "routing/broker.hpp"

namespace psc::routing {

class RouteReference {
 public:
  /// Mirrors Broker::handle_subscription's admission: a duplicate of a
  /// routed id is dropped.
  void insert(const core::Subscription& sub, const Origin& origin) {
    (void)routes_.try_emplace(sub.id(), sub, origin);
  }
  void erase(core::SubscriptionId id) { routes_.erase(id); }

  [[nodiscard]] Broker::PublicationRoute route(const core::Publication& pub,
                                               const Origin& origin) const {
    Broker::PublicationRoute route;
    for (const auto& [id, entry] : routes_) {  // ascending ids
      const auto& [sub, from] = entry;
      if (!pub.matches(sub)) continue;
      if (from.local) {
        route.local_matches.push_back(id);
        continue;
      }
      if (!origin.local && from.neighbor == origin.neighbor) continue;
      if (std::find(route.destinations.begin(), route.destinations.end(),
                    from.neighbor) == route.destinations.end()) {
        route.destinations.push_back(from.neighbor);
      }
    }
    return route;
  }

 private:
  std::map<core::SubscriptionId, std::pair<core::Subscription, Origin>> routes_;
};

}  // namespace psc::routing
