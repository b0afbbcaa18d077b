// BrokerNetwork — the distributed overlay: brokers + logical links driven by
// the discrete-event simulator. Each broker is a BrokerRuntime (subscription
// flooding with coverage-based pruning and reverse-path publication
// forwarding — paper, Section 2 and Figure 1) over one SimTransport; the
// network owns topology, membership repair, the client registry, cascade
// quiescence (run_cascade) and full traffic accounting.
//
// Loss accounting: when a publication is injected, the network computes the
// ground-truth recipient set (every local subscription anywhere whose box
// contains the point, via direct evaluation) and compares it with the set
// that actually received a notification. A shortfall is a lost notification
// — the paper's probabilistic-error cost (Section 5).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "routing/broker.hpp"
#include "routing/broker_runtime.hpp"
#include "routing/link_channel.hpp"
#include "routing/membership.hpp"
#include "routing/publish_pipeline.hpp"
#include "routing/sim_transport.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "wire/codec.hpp"

namespace psc::routing {

struct NetworkConfig {
  store::StoreConfig store;      ///< coverage policy + engine tuning
  sim::SimTime link_latency = 0.001;  ///< seconds per hop
  std::uint64_t seed = 0xfeedbeefULL;
  /// Shard count of every broker's local publish lane
  /// (Broker::PublishLanes). Purely a throughput knob: delivery decisions
  /// are identical for every value (see docs/ARCHITECTURE.md).
  std::size_t match_shards = 1;
  /// Stage sizing of the PublishPipeline that batch publishes on perfect
  /// links run through (workers/queue depth/batch size). Purely a
  /// throughput knob: delivered sets and message traffic are identical for
  /// every value. Runtime-only: not serialized by snapshot_all and
  /// preserved across restore_all.
  PublishPipelineOptions pipeline;
  /// Reliable-link protocol + fault injection (link.enabled routes every
  /// hop through LinkChannels; disabled = the perfect zero-loss wire, with
  /// the pre-existing direct-schedule hot path byte-for-byte intact).
  LinkConfig link;

  /// Fluent construction for the growing knob set — the preferred spelling
  /// at call sites that set more than one field (benches, soaks, drivers):
  ///
  ///   auto config = NetworkConfig::Builder()
  ///                     .seed(42)
  ///                     .link_latency(0.002)
  ///                     .pipelined(pipeline_options)
  ///                     .link(link_config)
  ///                     .build();
  ///
  /// Builder() starts from the defaulted NetworkConfig, so a builder that
  /// sets nothing builds exactly `NetworkConfig{}`. Aggregate designated
  /// initialization keeps working for terse literal configs.
  class Builder;
};

class NetworkConfig::Builder {
 public:
  Builder& store(store::StoreConfig value) {
    config_.store = value;
    return *this;
  }
  Builder& link_latency(sim::SimTime value) {
    config_.link_latency = value;
    return *this;
  }
  Builder& seed(std::uint64_t value) {
    config_.seed = value;
    return *this;
  }
  Builder& match_shards(std::size_t value) {
    config_.match_shards = value;
    return *this;
  }
  /// Stage sizing of the batch publish pipeline.
  Builder& pipelined(PublishPipelineOptions options) {
    config_.pipeline = options;
    return *this;
  }
  /// Installs the reliable-link protocol config wholesale (enabled flag,
  /// timers, fault rates) — the one knob struct LinkChannels consumes.
  Builder& link(const LinkConfig& value) {
    config_.link = value;
    return *this;
  }
  [[nodiscard]] NetworkConfig build() const { return config_; }

 private:
  NetworkConfig config_;
};

class BrokerNetwork {
 public:
  explicit BrokerNetwork(NetworkConfig config = {});
  /// Movable at any point (topology factories return networks by value):
  /// pending events reach the network only through its heap-held Anchor,
  /// which the move re-points at the new object.
  BrokerNetwork(BrokerNetwork&& other) noexcept;
  BrokerNetwork& operator=(BrokerNetwork&&) = delete;

  /// Adds a broker; ids are dense [0, broker_count).
  BrokerId add_broker();

  /// Adds an undirected link between two existing brokers.
  void connect(BrokerId a, BrokerId b);

  /// Builds the paper's Figure 1 topology: nine brokers B1..B9 (ids 0..8)
  /// wired as in the example. Returns the network for chaining.
  static BrokerNetwork figure1_topology(NetworkConfig config = {});

  /// Builds a chain B1-B2-...-Bn (Section 5 analysis topology).
  static BrokerNetwork chain_topology(std::size_t n, NetworkConfig config = {});

  /// Builds a random attachment tree: broker i (i >= 1) links to a
  /// uniformly random earlier broker. Produces skewed degree distributions
  /// (early brokers become hubs), the classic random-recursive-tree shape.
  /// Deterministic per (n, seed). Requires n > 0.
  static BrokerNetwork random_tree_topology(std::size_t n, std::uint64_t seed,
                                            NetworkConfig config = {});

  /// Builds rows x cols brokers laid out on a grid, routed over the grid's
  /// comb spanning tree (full first row + every vertical column edge), so
  /// the overlay stays acyclic: long row/column paths, high diameter
  /// (rows + cols - 2). Requires rows, cols > 0 and rows * cols > 1.
  static BrokerNetwork grid_topology(std::size_t rows, std::size_t cols,
                                     NetworkConfig config = {});

  /// Builds a random degree-regular graph (pairing model, rejecting
  /// self-loops / parallel edges / disconnected draws) and routes over its
  /// BFS spanning tree from broker 0: a bushy low-diameter tree whose node
  /// degrees never exceed `degree`. Deterministic per (n, degree, seed).
  /// Requires 2 <= degree < n and n * degree even.
  static BrokerNetwork random_regular_topology(std::size_t n, std::size_t degree,
                                               std::uint64_t seed,
                                               NetworkConfig config = {});

  // --- runtime membership (live overlay mutation) -----------------------
  //
  // Every operation below mutates the overlay while it carries routing
  // state, runs the resulting repair traffic to quiescence before
  // returning, and keeps the LIVE link set a spanning forest of the alive
  // brokers (the forest invariant — see routing/membership.hpp; an op that
  // would close a live cycle throws std::logic_error). The first call
  // builds the membership LinkState from the current topology, which must
  // itself be acyclic at that point. Preconditions mirror LinkState's;
  // all ops assume a quiescent network (between client ops), like
  // snapshot_all.
  //
  // Protocol summary (docs/ARCHITECTURE.md, "Runtime membership"):
  //   * link detach (fail_link, crash, leave): both surviving endpoints
  //     purge every route learned over the dead link via cascading
  //     unsubscriptions, so each partition's routing state immediately
  //     describes only subscriptions reachable inside it;
  //   * link attach (heal_link, join, repair): each endpoint re-announces
  //     its full routing table over the new link in canonical id order
  //     through a fresh coverage store, flooding only the uncovered ones;
  //   * node replacement: the crashed broker is rebuilt from a (possibly
  //     stale) snapshot image pruned to local-origin routes still in the
  //     client registry, the registry diff is replayed as fresh local
  //     subscriptions (clients re-registering), and every former link that
  //     still bridges distinct components is healed.

  /// Joins a new broker to the overlay, attached to `attach_to` (which
  /// re-announces its routing table over the new link). Returns the new
  /// broker's id (dense, == broker_count() before the call).
  BrokerId add_peer(BrokerId attach_to);

  /// Graceful departure of `broker`: its local clients unsubscribe (in
  /// ascending id order), every neighbour purges the routes it learned
  /// from it, and the overlay is repaired by starring its former
  /// neighbours (lowest id becomes the hub), with re-announcement over
  /// each repair link. The id stays allocated but permanently dead.
  void remove_peer(BrokerId broker);

  /// Partitions the overlay: the live link (a, b) goes down, both sides
  /// purge the routes learned over it. The link stays known (failed) and
  /// can come back via heal_link or a future replacement.
  void fail_link(BrokerId a, BrokerId b);

  /// Brings a failed (or provisioned standby) link up, with mutual full
  /// re-announcement. Throws std::logic_error if the endpoints are already
  /// connected (forest invariant) or either is dead.
  void heal_link(BrokerId a, BrokerId b);

  /// Provisions a standby bridge: a link that exists but is down, eligible
  /// for heal_link when a partition makes it useful. This is how cyclic
  /// universes (rings, clustered meshes with rotating bridges) are
  /// expressed over a forest overlay.
  void add_standby_link(BrokerId a, BrokerId b);

  /// Crash-stop of `broker`: its state is lost (the broker object is
  /// wiped), every incident live link fails, and each former neighbour
  /// purges the routes it learned from it. Client subscriptions homed at
  /// the crashed broker stay in the registry — their clients still believe
  /// they are subscribed; they are simply unreachable until replace_peer
  /// (and their TTLs keep governing them throughout).
  void crash_peer(BrokerId broker);

  struct ReplaceOutcome {
    std::size_t restored_routes = 0;    ///< local routes revived from the image
    std::size_t gap_subs_replayed = 0;  ///< registry-diff client re-registrations
    std::vector<std::pair<BrokerId, BrokerId>> healed_links;
  };

  /// Replaces a crashed broker from a Broker::snapshot() image (taken any
  /// time before the crash; staleness is safe — the image is pruned to
  /// local-origin routes still in the client registry, and registry
  /// entries missing from it are replayed as fresh subscriptions). An
  /// empty image is valid and means a full registry replay. After the
  /// restore, every former link still bridging distinct components is
  /// healed with mutual re-announcement.
  ReplaceOutcome replace_peer(BrokerId broker,
                              std::span<const std::uint8_t> image);

  /// True while `broker` is alive (always true before the first
  /// membership operation engages tracking).
  [[nodiscard]] bool is_alive(BrokerId broker) const;

  /// The membership link-state (alive set, live/failed links, components).
  /// Throws std::logic_error before membership is engaged.
  [[nodiscard]] const LinkState& link_state() const;
  [[nodiscard]] bool membership_active() const noexcept {
    return link_state_.has_value();
  }

  /// The overlay's static shape for workload generation: broker count,
  /// live links, and standby bridges (normalized (min, max), ascending).
  [[nodiscard]] MembershipUniverse universe() const;

  /// Ghost-route audit: routing-table entries on alive brokers whose
  /// subscription id is no longer in the client registry. Zero at every
  /// quiescent instant is the membership correctness invariant the soaks
  /// and tier-1 tests gate on.
  [[nodiscard]] std::size_t ghost_route_count() const;

  /// Client subscribes at `broker`. The subscription floods immediately
  /// (events are processed to quiescence before returning).
  void subscribe(BrokerId broker, const core::Subscription& sub);

  /// Subscribes with an expiration time `ttl` seconds from now (paper,
  /// Section 5): every broker that receives the subscription arms its own
  /// expiry timer, so removal needs NO unsubscription messages. Expiry
  /// fires when simulated time advances past it (publish/run_until drive
  /// the clock).
  void subscribe_with_ttl(BrokerId broker, const core::Subscription& sub,
                          sim::SimTime ttl);

  /// Advances simulated time to `horizon`, firing due expiries.
  void advance_time(sim::SimTime horizon);

  [[nodiscard]] sim::SimTime now() const noexcept {
    return anchor_->queue.now();
  }

  /// Client unsubscribes (id must have been subscribed).
  void unsubscribe(BrokerId broker, core::SubscriptionId id);

  /// Client publishes `pub` at `broker`; the cascade runs to quiescence.
  /// Returns the delivered subscription ids, sorted and deduplicated, and
  /// tallies delivered/lost against the component-aware ground truth.
  std::vector<core::SubscriptionId> publish(BrokerId broker,
                                            const core::Publication& pub);

  /// Publishes every (source, publication) pair at one simulated instant,
  /// so the combined cascade runs once; returns one delivered set per
  /// pair, in pair order. Delivered sets are identical to calling
  /// publish() once per pair (publication handling never mutates routing
  /// state). On perfect links the source-hop matching runs through the
  /// staged PublishPipeline, one run per distinct source.
  std::vector<std::vector<core::SubscriptionId>> publish_batch(
      std::span<const std::pair<BrokerId, core::Publication>> pubs);

  // --- unreliable links --------------------------------------------------

  /// True when hops run through the reliable link protocol over a faulty
  /// wire (NetworkConfig::link.enabled).
  [[nodiscard]] bool lossy_links() const noexcept { return config_.link.enabled; }

  /// Installs scripted burst-loss windows (absolute sim-time, both
  /// directions of each listed link) into the fault models. Replaces any
  /// prior schedule. No-op scheduling is fine on a perfect-wire network —
  /// the windows only matter once link.enabled routes traffic through the
  /// channels.
  void set_link_bursts(std::vector<LinkChannels::BurstWindow> bursts);

  /// Links the reliable protocol gave up on since the last call (retry cap
  /// exhausted -> escalated into fail_link), as normalized (min, max)
  /// pairs in escalation order. A differential driver mirrors these into
  /// its oracle's fail_link before comparing delivered sets.
  [[nodiscard]] std::vector<std::pair<BrokerId, BrokerId>> take_escalated_links();

  [[nodiscard]] std::size_t broker_count() const noexcept { return brokers_.size(); }
  /// Live client subscriptions network-wide (TTL-expired ones excluded).
  [[nodiscard]] std::size_t local_subscription_count() const noexcept {
    return local_subs_.size();
  }
  [[nodiscard]] const Broker& broker(BrokerId id) const {
    return brokers_.at(id)->broker();
  }
  [[nodiscard]] const sim::Metrics& metrics() const noexcept {
    return anchor_->metrics;
  }
  void reset_metrics() noexcept { anchor_->metrics.reset(); }

  /// Ground truth: ids of local subscriptions (anywhere) matching `pub`,
  /// ignoring membership (the pre-membership accounting contract).
  [[nodiscard]] std::vector<core::SubscriptionId> expected_recipients(
      const core::Publication& pub) const;

  /// Component-aware ground truth: ids of matching local subscriptions
  /// whose home broker is alive and reachable from `from` over the live
  /// link set. Identical to the overload above until membership is
  /// engaged (one component, everyone alive). This is what publish()'s
  /// loss accounting uses — a partition is not a loss, it is a smaller
  /// ground-truth set.
  [[nodiscard]] std::vector<core::SubscriptionId> expected_recipients(
      BrokerId from, const core::Publication& pub) const;

  /// Serializes the WHOLE overlay — configuration, topology (per-broker
  /// neighbour lists in their original order), every broker's state
  /// (routing tables, link coverage stores incl. engine RNG streams,
  /// publication dedup tokens), client subscription registry with TTL
  /// expiries, the simulation clock, and the publication token counter —
  /// into one self-describing buffer ("PSCN" magic + format version; see
  /// docs/ARCHITECTURE.md, "Wire format").
  ///
  /// Precondition: the network is QUIESCENT — between client ops, with no
  /// cascade in flight (every public entry point runs its cascade to
  /// completion before returning, so this is the normal state). Pending
  /// events are then exactly the armed TTL expiry timers, which are
  /// derived state (local_subs_ expiries x routing tables) and are
  /// re-armed on restore rather than serialized.
  [[nodiscard]] std::vector<std::uint8_t> snapshot_all() const;

  /// Rebuilds this network IN PLACE from a snapshot_all buffer: existing
  /// state (brokers, links, subscriptions, clock, pending events, metrics)
  /// is discarded and replaced wholesale. Throws wire::DecodeError on a
  /// malformed buffer, leaving the network in an unspecified but
  /// destructible state (callers recover by restoring a good snapshot or
  /// rebuilding from scratch). After a successful restore the network is
  /// decision-for-decision identical to the snapshotted one: replaying the
  /// same client ops yields the same delivered sets, messages, and
  /// suppression decisions. Metrics restart from zero (the churn driver
  /// splices them across the boundary).
  void restore_all(std::span<const std::uint8_t> bytes);

 private:
  /// Everything a pending event or a transport callback reaches: the event
  /// queue itself, the metrics and publish scratch every hop context
  /// borrows, and the RuntimeHost the runtimes call back. Heap-held so its
  /// address survives a move of the network; `net` is re-pointed by the
  /// move constructor.
  struct Anchor final : RuntimeHost {
    BrokerNetwork* net;
    sim::EventQueue queue;
    sim::Metrics metrics;
    /// Shared publish scratch for every broker's publication hop: the
    /// cascade is single-threaded and each hop finishes with the route
    /// before the next handler runs, so one network-wide scratch keeps
    /// every broker hop allocation-free once warm.
    Broker::PublishScratch scratch;

    explicit Anchor(BrokerNetwork* owner) : net(owner) {}
    Anchor(const Anchor&) = delete;
    Anchor& operator=(const Anchor&) = delete;
    // RuntimeHost: local matches go to the publish call's sink for the
    // token; liveness is the client registry's answer.
    void deliver_local(std::uint64_t token,
                       std::span<const core::SubscriptionId> ids) override;
    [[nodiscard]] Liveness liveness(core::SubscriptionId id) const override;
  };

  NetworkConfig config_;
  std::unique_ptr<Anchor> anchor_;
  /// One runtime per broker, heap-held: armed expiry timers call back into
  /// their runtime, so its address must survive vector growth.
  std::vector<std::unique_ptr<BrokerRuntime>> brokers_;
  /// Engaged by the first membership operation (or add_standby_link);
  /// nullopt means the overlay is static and pre-membership semantics
  /// apply everywhere.
  std::optional<LinkState> link_state_;

  struct LocalSub {
    BrokerId home;
    core::Subscription sub;
    /// Absolute expiry for TTL subscriptions. Promotion re-announcements
    /// must carry it: a promoted TTL subscription delivered without its
    /// expiry would never die at the receiving broker (ghost route).
    std::optional<sim::SimTime> expiry;
  };
  std::unordered_map<core::SubscriptionId, LocalSub> local_subs_;
  std::uint64_t publication_token_ = 0;
  /// Shared staged pipeline: one pipeline — and one set of stage workers —
  /// serves every broker, retargeted per batch. Built lazily on the first
  /// batch publish over perfect links.
  std::unique_ptr<PublishPipeline> pipeline_;
  std::vector<Broker::PublicationRoute> pipeline_routes_;

  /// The hop-delivery transport (the Transport seam): SimTransport over
  /// the event queue — the perfect wire, or LinkChannels when
  /// config_.link.enabled. Built on first use over the Anchor's queue and
  /// metrics; its callbacks reach the network through the Anchor.
  /// Runtime-only: never serialized; restore_all discards and rebuilds so
  /// both ends of every link protocol stream restart at sequence zero
  /// together.
  std::unique_ptr<SimTransport> transport_;
  /// Links whose retry cap fired mid-cascade; drained into fail_link at
  /// the next quiescent point (escalating inside the cascade would re-enter
  /// broker state mid-flight).
  std::vector<std::pair<BrokerId, BrokerId>> pending_escalations_;
  /// Escalations already applied, awaiting take_escalated_links().
  std::vector<std::pair<BrokerId, BrokerId>> escalated_links_;
  bool draining_escalations_ = false;
  /// Publication delivery sinks by token, for the transport dispatch path
  /// (a wire frame cannot carry a pointer). Entries live for one publish
  /// entry-point call; stale lookups resolve to a null sink.
  std::unordered_map<std::uint64_t, std::vector<core::SubscriptionId>*> pub_sinks_;

  /// Runs the message cascade triggered "now" to completion: every hop adds
  /// one link latency and the cascade depth is bounded by the broker count,
  /// so events beyond now + (brokers+1) * latency belong to armed timers,
  /// not to this cascade. Keeps publish/subscribe from fast-forwarding the
  /// clock into future expiries.
  void run_cascade();

  /// What every runtime hop borrows from the network, all of it owned by
  /// the transport or the Anchor, so armed expiry timers may keep it.
  [[nodiscard]] HopContext hop_context();

  PublishPipeline& ensure_pipeline();
  /// Source-hop effects of one precomputed route, in sequential-injection
  /// shape: assign the next token, register its sink, and run the
  /// runtime's source hop (mark seen, sink local matches, forward).
  void apply_source_route(BrokerId source, const core::Publication& pub,
                          const Broker::PublicationRoute& route,
                          std::vector<core::SubscriptionId>* sink);
  /// Post-cascade accounting shared by the publish entry points: sorts and
  /// dedups `ids` in place and tallies delivered/lost against the
  /// component-aware expected set.
  void account_delivery(BrokerId source, const core::Publication& pub,
                        std::vector<core::SubscriptionId>& ids);

  /// Builds the transport on first send.
  SimTransport& ensure_transport();
  /// Applies pending retry-cap escalations as fail_link calls, looping
  /// until none remain (a purge cascade can escalate further links).
  /// Re-entrant calls (fail_link runs inside the drain) are no-ops.
  void drain_escalations();

  /// Builds link_state_ from the current topology on first membership use;
  /// throws std::logic_error if the live topology is cyclic.
  void ensure_membership();
  void require_alive(BrokerId broker, const char* what) const;

  /// Detach-side purge: kills the link's channel state, then runs `at`'s
  /// link purge (BrokerRuntime::purge_link). Caller runs the cascade.
  void detach_and_purge(BrokerId at, BrokerId dead);

  /// Brings a link up at the broker layer (both neighbour lists + mutual
  /// re-announcement) and runs the cascade. Link-state bookkeeping is the
  /// caller's (it differs per event kind).
  void attach_link(BrokerId a, BrokerId b);
};

}  // namespace psc::routing
